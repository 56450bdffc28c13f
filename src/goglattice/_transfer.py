"""The transfer-matrix sweep behind `meet_census._n_min_sweep`, built one
position at a time.

The sweep's state before position pos is the polynomial Q described in
`meet_census`.  After the first step every monomial carries x_0, so
Q = x_0 S with S of degree r - 1, and since D x_0 = P(1) = 1, Leibniz's rule
gives D^k Q / k! = U_{k-1} + x_0 U_k with U_j = D^j S / j!.  A step
therefore runs r - 1 passes of D, U_j from U_{j-1}; the closing for n = pos
is D^r Q / r! = U_{r-1}, and the next state is

    S' = sum over a of x_0^a shift(U_a + x_0 U_{a+1}).

Every position from 2 to n_max - 1 runs that one step.  After the loop,
N_min(n_max) = S'(P(1), P(2), ...) for the last S', of degree r - 1 in
x_0, ..., x_{n_max-1}: a monomial weighs the product of P(d+1) over its
x_d, and the sweep assumes of P only that P(1) = 1.  A program keeps those
weights for one end position, the latest asked for.

Once x_0, ..., x_{w-1} are in play, every list holds every monomial of its
degree e in them, R(e, w), in lex order on the sorted distances: the order
of `itertools.combinations_with_replacement(range(w), e)`.  In that order
R(e, w) is x_0 R(e-1, w) followed by shift(R(e, w-1)), so x_0 U_{a+1} is the
head of U_a's list, and R(r-1, w+1) is the blocks x_0^a shift(R(r-1-a, w)),
for a = r - 1 down to 0.  The next state is thus a concatenation: U_{r-1},
then for a = r - 2 down to 0, U_a with U_{a+1} added onto its head.  At
pos = 1 every degree holds the one monomial x_0^e, with U_j = C(r-1, j), so
that step is closed form and builds nothing.

The coefficient of m in D U is the sum over d < pos of (c + 1) P(d+1) times
the coefficient of m x_d, c the multiplicity of d in m.  A `Program`
keeps, for each position from 2 that it has passed, one kernel per degree:
each monomial's pos source ranks side by side, and their factors.  A pass
there is one gather, one multiply and one sum of pos terms per monomial,
with the exact division by j in the same map: list-wide maps, with no
Python step per edge.

The kernel of degree e at pos comes from two that are already built, by
the same split.  Its head, x_0 m' for m' of degree e - 1 at pos, reads the
sources of m' times x_0, at the ranks the kernel of degree e - 1 at pos
holds, with one more x_0.  Its tail, shift(m') for m' of degree e at
pos - 1, reads x_0 shift(m') at the next rank of the head of R(e+1, pos),
and shift(m' x_d) at m' x_d's rank at pos - 1 plus |R(e, pos)|, with the
multiplicity m' x_d has there.  Degree 0 reads x_d, at rank d, once.  The
factor of column d is the multiplicity times P(d+1).  Each part is a few
list-wide maps.

`work` charges a sweep what it reads, in one closed form that bounds both a
call (`meet_census.n_min_exact`) and the programs a process keeps.
"""

from __future__ import annotations

from itertools import chain, cycle, repeat
from math import comb, isqrt
from operator import add, getitem, itemgetter, mul


class Program:
    """The sweep for one r >= 2 and any P with P(1) = 1, grown one position at a time.

    `kernels[pos]`, for every pos from 2 to `top`, holds the passes into
    U_1, ..., U_{r-2} at pos: for degree e = r - 2, ..., 1, an `itemgetter`
    over the ranks of m x_0, ..., m x_{pos-1} in U of degree e + 1, for each
    monomial m of degree e in lex order, and their factors in the same
    order.  `top` is the widest position passed, and `rows` keeps, by
    degree from 1, the rank tuple there (the one its `itemgetter` holds)
    and each entry's multiplicity c + 1, for `kernels_at` to build the
    kernels at top + 1 from.  `closings` holds one position and the
    weights that evaluate the state formed there.  Every rank a kernel
    holds is an entry of the one table `ints`, and every factor one of
    `scales[d]`, the c P(d+1) for c < r, so that each int exists once per
    program.
    """

    __slots__ = ("r", "top", "rows", "ints", "scales", "kernels", "closings")

    def __init__(self, r: int) -> None:
        self.r = r
        self.top = 1
        self.rows: list[tuple[tuple[int, ...], list[int]]] = []
        self.ints: list[int] = []
        self.scales: list[list[int]] = []
        self.kernels: dict[int, list[tuple[itemgetter, list[int]]]] = {}
        self.closings: tuple[int, list[int]] = (0, [])

    def closing(self, pos: int, p: list[int]) -> list[int]:
        """Weights of the state formed at pos, the monomials of degree r - 1
        in x_0, ..., x_pos in lex order: a monomial weighs the product of
        P(d+1) over its x_d.  In lex order, degree k is x_t times a suffix
        of degree k - 1, the part in x_t, ..., x_pos.  A suffix whose x_t
        weighs 1, as x_0 does (and x_1 for ASM counts), is shared, not
        copied: its ints are kept once, not once per degree."""
        if self.closings[0] != pos:
            level = [1]
            for k in range(1, self.r):
                suffixes = (level[-comb(pos - t + k - 1, k - 1) :] for t in range(pos + 1))
                level = list(chain.from_iterable(
                    part if w == 1 else map(w.__mul__, part) for part, w in zip(suffixes, p[1:])
                ))
            self.closings = pos, level
        return self.closings[1]

    def kernels_at(self, pos: int, p: list[int]) -> list[tuple[itemgetter, list[int]]]:
        """The passes into U_1, ..., U_{r-2} at 2 <= pos <= top + 1, built on
        first use from `rows`, the kernels at pos - 1 = top."""
        if pos > self.top:
            r, ints, scales, q = self.r, self.ints, self.scales, pos - 1
            self.top = pos
            if pos == 2:  # at pos = 1, x_0^e reads x_0^(e+1), rank 0, with multiplicity e + 1
                self.rows = [((0,), [e + 1]) for e in range(1, r - 1)]
            if self.rows:
                # every rank at pos is below |R(r-1, pos)|
                ints += range(len(ints), comb(pos + r - 2, r - 1))
                scales += ([c * p[d + 1] for c in range(r)] for d in range(len(scales), pos))
                ranks, mults = tuple(ints[:pos]), [1] * pos  # degree 0 at pos
                for e, (old_ranks, old_mults) in enumerate(self.rows, 1):
                    # R(e, pos) is x_0 R(e-1, pos), then shift(R(e, q))
                    head = len(ranks) // pos
                    size = head + len(old_ranks) // q
                    ups = [map(ints[size:].__getitem__, old_ranks)] * q
                    ranks += tuple(chain.from_iterable(zip(ints[head:size], *ups)))
                    bumped = mults[:]
                    bumped[::pos] = map((1).__add__, bumped[::pos])
                    olds = [iter(old_mults)] * q
                    mults = bumped + list(chain.from_iterable(zip(repeat(1), *olds)))
                    self.rows[e - 1] = ranks, mults
            self.kernels[pos] = [
                (itemgetter(*ranks), list(map(getitem, cycle(scales[:pos]), mults)))
                for ranks, mults in reversed(self.rows)
            ]
        return self.kernels[pos]

    def sweep(self, n_max: int, p: list[int]) -> list[int]:
        """Return N_min(n, r) for n = 2..n_max, n_max >= 3; p must reach
        P(n_max)."""
        r = self.r
        p1 = p[1:]  # P(d+1) for d = 0, 1, ...
        # At pos = 1, S = x_0^(r-1) and U_j = C(r-1, j) x_0^(r-1-j), so S' =
        # sum over a of C(r, a+1) x_0^a x_1^(r-1-a).
        state = [comb(r, a) for a in range(r, 0, -1)]
        values = []
        for pos in range(2, n_max):
            level, parts = state, [state]  # U_0, then U_1, ..., U_{r-2}
            for j, (get, factors) in enumerate(self.kernels_at(pos, p), 1):
                sums = map(sum, zip(*[map(mul, factors, get(level))] * pos))
                level = list(map(j.__rfloordiv__, sums) if j > 1 else sums)
                # U_{j-1} + x_0 U_j: x_0 U_j is the head of U_{j-1}
                parts[-1][: len(level)] = map(add, parts[-1], level)
                parts.append(level)
            # U_{r-1} = Q(P(1), P(2), ...): the closing for n = pos
            values.append(sum(map(mul, level, p1)) // (r - 1))
            level[0] += values[-1]
            state = list(chain(values[-1:], *reversed(parts)))
        # N_min(n_max) = S'(P(1), P(2), ...), S' the last state
        return [*values, sum(map(mul, state, self.closing(n_max - 1, p)))]


def work(n: int, r: int) -> int:
    """The work of a sweep to n at r, in units that take about 5 ns each on
    a 2-vCPU machine with Python 3.11.

    Position pos reads pos C(pos+r-2, r-2) kernel entries, the last pass's
    pos among them, so positions 1..n-1 read (r-1) C(n+r-2, r): position 1
    is closed form, as is N_min(2, r) = 2^r - 1, yet its r - 1 entries keep
    n = 2 bounded in r.  Past n = 2 the closing multiplies each of the
    C(n+r-2, r-1) monomials of the last state by a weight of its own size,
    about four entries' work.  The integers grow to about 0.375 n^2 r bits,
    the size of A(n)^r, and an entry on L 64-bit limbs costs 32 + L +
    L^1.5/16: a fixed part, the additions and the products.  A program grown
    to `top` keeps about work(top + 1, r) of entries and weights.

    >>> work(1, 9), work(2, 1), work(3, 2)
    (0, 0, 495)
    """
    limbs = 3 * n * n * r // 512 + 1
    entries = (r - 1) * comb(n + r - 2, r) + (4 * comb(n + r - 2, r - 1) if n > 2 else 0)
    return entries * (32 + limbs + limbs * isqrt(limbs) // 16)
