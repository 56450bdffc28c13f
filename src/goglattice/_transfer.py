"""The compiled transfer-matrix sweep behind `meet_census._n_min_sweep`.

The sweep's state before position pos is the polynomial Q described in
`meet_census`.  After the first step every monomial carries x_0, so
Q = x_0 S with S of degree r - 1, and since D x_0 = P(1) = 1, Leibniz's rule
gives D^k Q / k! = U_{k-1} + x_0 U_k with U_j = D^j S / j!.  A step
therefore runs r - 1 passes of D, U_j from U_{j-1}; the closing for n = pos
is D^r Q / r! = U_{r-1}, and the next state is

    S' = sum over a of x_0^a (shift(U_a) + x_1 shift(U_{a+1})),

a gather from the U_a.  Once x_0, ..., x_{pos-1} are in play, every list
holds every monomial of its degree in them, so with the monomials of each
degree ranked, a pass of D is the same at every position up to its length:
the coefficient of m in D U is the sum over d < pos of (c + 1) P(d+1) times
the coefficient of m x_d, c the multiplicity of d in m.  A `Program`
compiles those ranks and factors once, for the widest position, into one
flat list per degree (`rounds`).  On first use at a position it copies the
part that position reads into a kernel, each monomial's pos sources side by
side, so a pass there is one gather, one multiply and one sum of pos terms
per monomial, with the exact division by j in the same map: list-wide maps,
with no Python step per edge.  The gather of the next state gets one kernel
per position the same way.  At pos = 1 every degree holds the one monomial
x_0^e, so that step is scalar arithmetic and keeps no kernel.
`rank` is the one ranking function: the program finds every position it
holds, of a product m x_d or of a gathered monomial, with `rank`.
"""

from __future__ import annotations

from itertools import accumulate, chain, repeat
from math import comb
from operator import add, itemgetter, mul
from typing import Iterator

Monomial = tuple[tuple[int, int], ...]


def monomials(e: int, width: int) -> Iterator[Monomial]:
    """The monomials of degree e in x_0, ..., x_{width-1}, each as its
    ascending (distance, multiplicity) pairs, in rank order (`rank`).

    The order is colex on the sorted distances t_1 <= ... <= t_e, so for
    every w the monomials in x_0, ..., x_{w-1} come first, C(w+e-1, e) of
    them.
    """
    if e == 0:
        yield ()
        return
    m: Monomial = ((0, e),)
    while True:
        yield m
        (d, c), rest = m[0], m[1:]
        if not rest and d + 1 == width:
            return
        # The next multiset raises the top of the lowest block of equal
        # distances by one and sends the rest of that block to 0.
        if rest and rest[0][0] == d + 1:
            m = ((d + 1, rest[0][1] + 1),) + rest[1:]
        else:
            m = ((d + 1, 1),) + rest
        if c > 1:
            m = ((0, c - 1),) + m


def rank(m: Monomial) -> int:
    """The position of m among the monomials of its degree: sum over i of
    C(t_i + i - 1, i), for the sorted distances t_1 <= ... <= t_e."""
    total = slot = 0
    for d, c in m:
        total += comb(d + slot + c, d) - comb(d + slot, d)
        slot += c
    return total


def _times_x(m: Monomial, d: int) -> tuple[Monomial, int]:
    """m x_d, and the multiplicity of d in m."""
    for k, (t, c) in enumerate(m):
        if t == d:
            return m[:k] + ((d, c + 1),) + m[k + 1 :], c
        if t > d:
            return m[:k] + ((d, 1),) + m[k:], 0
    return m + ((d, 1),), 0


class Program:
    """The sweep compiled for one r and every position up to `width`.

    `rounds[e]` holds the pass into U of degree e >= 1 (degree 0 is a dot
    product with P(1), P(2), ...): entry d * C(width+e-1, e) + i holds, for
    the i-th monomial m and x_d, the rank of m x_d and its factor.
    `gather` holds, for each monomial of S', the two positions it sums in
    the concatenation of U_0, ..., U_{r-1}, each padded to its length at
    `width` (`strides`), then a 0.  `size` counts the monomials of every
    degree below r in x_0, ..., x_{width-1}.  Three stores are filled on
    first use at a position pos and kept with the program:

    - `kernels[pos]`, for pos >= 2, the passes into U_1, ..., U_{r-2}: an
      `itemgetter` over the ranks of m x_0, ..., m x_{pos-1} for each
      monomial m in rank order, and their factors in the same order;
    - `gathers[pos]`, for a step that is not the last, an `itemgetter` over
      the two positions of each monomial of S', side by side;
    - `closings[pos]`, for a last step, the weights that evaluate it.

    A kernel at pos holds pos entries per monomial of its degree at pos, so
    all of them together hold more than `rounds`.
    """

    __slots__ = (
        "r", "width", "size", "rounds", "strides", "gather", "closings", "kernels", "gathers"
    )

    def __init__(self, r: int, width: int, p: list[int]) -> None:
        self.r = r
        self.width = width
        self.size = comb(width + r - 1, r - 1)
        self.rounds: list[tuple[list[int], list[int]] | None] = [None]
        for e in range(1, r - 1):
            stride = comb(width + e - 1, e)
            ups = [0] * (width * stride)
            factors = [0] * (width * stride)
            for i, m in enumerate(monomials(e, width)):
                for d in range(width):
                    up, mult = _times_x(m, d)
                    ups[d * stride + i] = rank(up)
                    factors[d * stride + i] = (mult + 1) * p[d + 1]
            self.rounds.append((ups, factors))
        # U_a has degree r - 1 - a
        self.strides = [comb(width + r - 2 - a, r - 1 - a) for a in range(r)]
        offsets = list(accumulate(self.strides, initial=0))
        first: list[int] = []
        second: list[int] = []
        for m in monomials(r - 1, width):
            a = m[0][1] if m and m[0][0] == 0 else 0
            u = tuple((d - 1, c) for d, c in m[1 if a else 0 :])
            first.append(offsets[a] + rank(u))
            if u and u[0][0] == 0:
                v = (((0, u[0][1] - 1),) if u[0][1] > 1 else ()) + u[1:]
                second.append(offsets[a + 1] + rank(v))
            else:
                second.append(offsets[r])
        self.gather = (first, second)
        self.closings: dict[int, list[int]] = {}
        self.kernels: dict[int, list[tuple[itemgetter, list[int]]]] = {}
        self.gathers: dict[int, itemgetter] = {}

    def closing(self, pos: int, p: list[int]) -> list[int]:
        """Weights of U_0, ..., U_{r-1} at pos, in order: the closing for the
        next position is S'(P(1), P(2), ...), where x_0 goes to P(1) = 1 and
        each shifted x_{d+1} to P(d+2), so a monomial weighs the product of
        P(d+2) over its x_d; `sweep` counts x_1 shift(U_{a+1}) twice."""
        weights = self.closings.get(pos)
        if weights is None:
            if pos == 1:  # x_0^k weighs P(2)^k = 1
                weights = [1] * self.r
            else:
                # In rank order, the monomials of degree k are those of
                # degree k - 1 in x_0, ..., x_t times x_t, for t = 0, 1, ...:
                # for each t, a prefix of the list of degree k - 1.
                levels = [[1]]
                for k in range(1, self.r):
                    levels.append(list(chain.from_iterable(
                        map(mul, levels[-1][: comb(t + k - 1, k - 1)], repeat(p[t + 2]))
                        for t in range(pos)
                    )))
                weights = list(chain.from_iterable(reversed(levels)))
            self.closings[pos] = weights
        return weights

    def kernels_at(self, pos: int) -> list[tuple[itemgetter, list[int]]]:
        """The passes into U_1, ..., U_{r-2} at pos >= 2, filled on first use
        from `rounds`: for each monomial of U_j in rank order, the pos ranks
        it reads in U_{j-1}, and their factors."""
        kernels = self.kernels.get(pos)
        if kernels is None:
            kernels = self.kernels[pos] = []
            for e in range(self.r - 2, 0, -1):
                stride, n = comb(self.width + e - 1, e), comb(pos + e - 1, e)
                ranks, factors = [0] * (n * pos), [0] * (n * pos)
                for out, row in zip((ranks, factors), self.rounds[e]):
                    for d in range(pos):
                        out[d::pos] = row[d * stride : d * stride + n]
                kernels.append((itemgetter(*ranks), factors))
        return kernels

    def gather_at(self, pos: int) -> itemgetter:
        """The gather of S' for pos + 1, filled on first use: the two
        positions of each of its monomials in `gather`, side by side."""
        getter = self.gathers.get(pos)
        if getter is None:
            size = comb(pos + self.r - 1, self.r - 1)
            first, second = self.gather
            pairs = chain.from_iterable(zip(first[:size], second[:size]))
            getter = self.gathers[pos] = itemgetter(*pairs)
        return getter

    def sweep(self, n_max: int, p: list[int]) -> Iterator[int]:
        """Yield N_min(n, r) for n = 1..n_max, 2 <= n_max <= width + 1;
        p must reach P(n_max)."""
        r, strides = self.r, self.strides
        p1 = p[1:]  # P(d+1) for d = 0, 1, ...
        zeros = [0] * strides[0]
        state = [1]  # S = x_0^(r-1)
        for pos in range(1, n_max):
            last = pos == n_max - 1
            if last:
                # The last step moves nothing: it evaluates S' at the P.
                weights = iter(self.closing(pos, p))
                total = sum(map(mul, state, weights))
            else:
                flat = state + zeros[: strides[0] - len(state)]
            kernels = self.kernels_at(pos) if pos > 1 else ()
            level = state
            for j in range(1, r):
                if pos == 1:
                    # one monomial x_0^e per degree, and D x_0^(e+1) = (e+1) P(1) x_0^e
                    level = [level[0] * (r - j) // j]
                elif j < r - 1:
                    get, factors = kernels[j - 1]
                    sums = map(sum, zip(*[map(mul, factors, get(level))] * pos))
                    level = list(map(j.__rfloordiv__, sums) if j > 1 else sums)
                else:
                    level = [sum(map(mul, level, p1)) // j]
                if last:
                    total += 2 * sum(map(mul, level, weights))
                else:
                    flat += level
                    flat += zeros[: strides[j] - len(level)]
            # U_{r-1} = Q(P(1), P(2), ...), the weight of every component
            # jumping to pos: the closing for n = pos.
            yield level[0]
            if last:
                yield total
            else:
                flat.append(0)
                pairs = iter(self.gather_at(pos)(flat))
                state = list(map(add, pairs, pairs))
