"""The transfer-matrix sweep behind `meet_census._n_min_sweep`, built one
position at a time.

The sweep's state before position pos is the polynomial Q described in
`meet_census`.  After the first step every monomial carries x_0, so
Q = x_0 S with S of degree r - 1, and since D x_0 = P(1) = 1, Leibniz's rule
gives D^k Q / k! = U_{k-1} + x_0 U_k with U_j = D^j S / j!.  A step
therefore runs r - 1 passes of D, U_j from U_{j-1}; the closing for n = pos
is D^r Q / r! = U_{r-1}, and the next state is

    S' = sum over a of x_0^a (shift(U_a) + x_1 shift(U_{a+1})),

a gather from the U_a.  Once x_0, ..., x_{pos-1} are in play, every list
holds every monomial of its degree in them, so with the monomials of each
degree ranked (`rank`), the coefficient of m in D U is the sum over d < pos
of (c + 1) P(d+1) times the coefficient of m x_d, c the multiplicity of d
in m.  A `Program` keeps, for each position it has passed, one kernel per
degree: each monomial's pos source ranks side by side, and their factors.
A pass there is one gather, one multiply and one sum of pos terms per
monomial, with the exact division by j in the same map: list-wide maps,
with no Python step per edge.  At pos = 1 every degree holds the one
monomial x_0^e, so that step is scalar arithmetic and keeps no kernel.

The kernels at pos + 1 are built from those at pos, with no `rank` call.
In rank order, the monomials of degree e in x_0, ..., x_pos are those in
x_0, ..., x_{pos-1}, then m' x_pos for every m' of degree e - 1 in x_0,
..., x_pos.  So the kernel of degree e at pos + 1 is first the one at pos,
each row reading one more source, m x_pos, at rank C(pos+e, e+1) + rank(m)
with factor P(pos+1); then the kernel of degree e - 1 at pos + 1, its ranks
shifted by C(pos+e, e+1), and each row's x_pos factor raised by P(pos+1),
as m' x_pos holds one x_pos more than m'.  (Degree 0 reads x_d, at rank d,
with factor P(d+1).)  Both parts are strided slice assignments and maps.

The gather lays U_0, ..., U_{r-1} end to end, without padding, and appends
a 0.  The monomials of S' are listed once, in rank order, as far as the
widest position gathered, each with the U_a and the rank (`rank`) of its
two terms; at each position these become the terms' positions in that
position's concatenation, and a missing second term reads the 0.
"""

from __future__ import annotations

from itertools import chain, islice, repeat
from math import comb
from operator import add, itemgetter, mul
from typing import Iterator

Monomial = tuple[tuple[int, int], ...]


def monomials(e: int, width: int) -> Iterator[Monomial]:
    """The monomials of degree e in x_0, ..., x_{width-1}, each as its
    ascending (distance, multiplicity) pairs, in rank order (`rank`).

    The order is colex on the sorted distances t_1 <= ... <= t_e, so for
    every w the monomials in x_0, ..., x_{w-1} come first, C(w+e-1, e) of
    them.  A width of 0 sets no end: the listing goes on as far as it is
    read.
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


class Program:
    """The sweep for one r, grown one position at a time.

    `kernels[pos]`, for every pos from 2 to `top`, holds the passes into
    U_1, ..., U_{r-2} at pos: for degree e = r - 2, ..., 1, an `itemgetter`
    over the ranks of m x_0, ..., m x_{pos-1} in U of degree e + 1, for each
    monomial m of degree e in rank order, and their factors in the same
    order.  `top` is the widest position passed, and `rows` keeps the rank
    and factor lists there, by degree from 1, for `kernels_at` to build
    those at top + 1 from.  `size` counts the monomials of every degree
    below r in x_0, ..., x_{top-1}.  Two more stores are filled on first
    use at a position:

    - `gathers[pos]`, for a step that is not the last, an `itemgetter` over
      the two positions of each monomial of S' in U_0, ..., U_{r-1} at pos,
      laid end to end without padding, with a 0 appended past them for a
      missing second term;
    - `closings[pos]`, for a last step, the weights that evaluate it.

    `listing` lists the monomials of S' in rank order, as far as it is
    read, and `parts` and `places` hold, for each one listed, the U_a of
    each of its two terms and the term's rank there.  Every rank and
    position that a kernel or a gather holds is an entry of the one table
    `ints`, so that each int exists once per program.
    """

    __slots__ = (
        "r", "top", "size", "rows", "kernels", "listing", "parts", "places", "ints", "gathers",
        "closings",
    )

    def __init__(self, r: int) -> None:
        self.r = r
        self.top, self.size = 1, r
        # at pos = 1, x_0^e reads x_0^(e+1), rank 0, with factor (e + 1) P(1)
        self.rows = [([0], [e + 1]) for e in range(1, r - 1)]
        self.kernels: dict[int, list[tuple[itemgetter, list[int]]]] = {}
        self.listing = monomials(r - 1, 0)
        self.parts: list[int] = []
        self.places: list[int] = []
        self.ints: list[int] = []
        self.gathers: dict[int, itemgetter] = {}
        self.closings: dict[int, list[int]] = {}

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

    def kernels_at(self, pos: int, p: list[int]) -> list[tuple[itemgetter, list[int]]]:
        """The passes into U_1, ..., U_{r-2} at 2 <= pos <= top + 1, built on
        first use from `rows`, the kernels at pos - 1 = top."""
        kernels = self.kernels.get(pos)
        if kernels is None:
            q, ints, gain = pos - 1, self.ints, p[pos]  # x_q is new, and D x_q = P(pos)
            self.top, self.size = pos, comb(pos + self.r - 1, self.r - 1)
            # Every rank here is below C(pos+r-2, r-1), the length of U_0 at
            # pos, so `ints` holds it: a sweep reaching pos has built the
            # gather at q, which fills `ints` past that.
            # degree 0 at pos: the one monomial reads x_d with factor P(d+1)
            lower = (ints[:pos], p[1 : pos + 1])
            for e, old in enumerate(self.rows, 1):
                # The monomials of degree e at pos are those at q, each now
                # reading m x_q too, then m' x_q for m' of degree e - 1 at pos.
                n, shift = comb(q + e - 1, e), comb(q + e, e + 1)
                ranks, factors = [0] * (n * pos), [0] * (n * pos)
                for out, row in zip((ranks, factors), old):
                    for d in range(q):
                        out[d::pos] = row[d::q]
                ranks[q::pos] = ints[shift : shift + n]
                factors[q::pos] = [gain] * n
                ranks += map(ints.__getitem__, map(add, lower[0], repeat(shift)))
                tail = lower[1][:]
                tail[q::pos] = map(add, tail[q::pos], repeat(gain))
                factors += tail
                self.rows[e - 1] = lower = (ranks, factors)
            kernels = self.kernels[pos] = [
                (itemgetter(*ranks), factors) for ranks, factors in reversed(self.rows)
            ]
        return kernels

    def gather_at(self, pos: int) -> itemgetter:
        """The gather of S' for pos + 1, built on first use from the
        monomials of S' that `listing` has listed, C(pos+r-1, r-1) of them."""
        getter = self.gathers.get(pos)
        if getter is None:
            r, parts, places, ints = self.r, self.parts, self.places, self.ints
            count = comb(pos + r - 1, r - 1)
            for m in islice(self.listing, count - len(parts) // 2):
                a = m[0][1] if m and m[0][0] == 0 else 0
                u = tuple((d - 1, c) for d, c in m[1 if a else 0 :])
                parts.append(a)
                places.append(rank(u))
                if u and u[0][0] == 0:
                    parts.append(a + 1)
                    places.append(rank((((0, u[0][1] - 1),) if u[0][1] > 1 else ()) + u[1:]))
                else:
                    parts.append(r)  # the appended 0
                    places.append(0)
            # U_a, ..., U_{r-1} have degrees r - 1 - a down to 0 in pos
            # distances, C(pos+r-1-a, r-1-a) monomials in all, so U_a starts
            # that many before the end, `count`, where the 0 is appended.
            offsets = [count - comb(pos + r - 1 - a, r - 1 - a) for a in range(r)] + [count]
            ints += range(len(ints), count + 1)
            positions = map(add, map(offsets.__getitem__, parts[: 2 * count]), places)
            getter = self.gathers[pos] = itemgetter(*map(ints.__getitem__, positions))
        return getter

    def sweep(self, n_max: int, p: list[int]) -> Iterator[int]:
        """Yield N_min(n, r) for n = 1..n_max, n_max >= 2; p must reach
        P(n_max)."""
        r = self.r
        p1 = p[1:]  # P(d+1) for d = 0, 1, ...
        state = [1]  # S = x_0^(r-1)
        for pos in range(1, n_max):
            last = pos == n_max - 1
            if last:
                # The last step moves nothing: it evaluates S' at the P.
                weights = iter(self.closing(pos, p))
                total = sum(map(mul, state, weights))
            kernels = self.kernels_at(pos, p) if pos > 1 else ()
            # A step that is not the last lays U_1, ..., U_{r-1} after U_0 = S.
            level = flat = state
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
            # U_{r-1} = Q(P(1), P(2), ...), the weight of every component
            # jumping to pos: the closing for n = pos.
            yield level[0]
            if last:
                yield total
            else:
                flat.append(0)
                pairs = iter(self.gather_at(pos)(flat))
                state = list(map(add, pairs, pairs))
