"""Invariant-subspace dimensions: one exact engine and the closed forms.

The invariant dimension at bidegree (p, q) is the class-weighted average of
the character of the harmonic space over the group.  Each character value is
an integer combination of E-th roots of unity, E the group exponent; the
engine replaces it by its Galois trace down to the rationals, an integer sum
of Ramanujan sums.  Classes in one Galois orbit (g and g^j, j a unit)
have equal traces, so the engine takes one trace per rational class,
weighted by the orbit's summed multiplicity.  The average is then the exact
quotient of the weighted trace sum by phi(E) |G|: a sum that is not
divisible, or a quotient outside [0, sphere_dim], raises
NonIntegralDimension.  No float enters, and every int64 product is bounded
first, by a check that raises Int64Limit, an OverflowError, or by one such
check already passed.

For n = 2 the traces are E-periodic in p and q up to a term linear in
p + q, so every dimension is base[p mod E, q mod E] + (p // E + q // E)
step[(q - p) mod E], at most the sphere's p + q + 1, the only n = 2
quantity bounded per cell.  One PeriodTable per group holds the traces,
step, and base once a request of at least E^2 cells fills it, for every
later request; each is checked at residue pairs in place of every cell
with those residues, a request's own until base is filled.
For n >= 3 each orbit of element order o is traced in its own
field Q(zeta_o), by Ramanujan's divisor sum for c_o: the traces of all
rational classes at once are one int64 matrix product T = (G w) G^T of a
table of h-vectors summed into d residues, d | o, formed over bands of the
requested cells whose bounding boxes hold at most about twice their cells;
cells, sorted by q only if they are not already, read T[p, q] - T[p-1, q-1]
in one flat gather per chunk of a band.  By Molien's theorem the same
dimensions are a fixed combination of one small MolienTable per group,
U = (1 - zw) P, with at most (n + 1)^2 terms per cell; the table is found
from the kernel on one square and read by every request that holds at least
that square of cells, period_route's rule for both n.

dim_cells evaluates whole arrays of cells in one call, dim_triangle every
cell with p + q <= pq_max, and dim_invariant one cell.  No result is
memoised; only the Galois orbits of the last CACHE_SIZE groups are cached,
and one table per group from period_table, a PeriodTable for n = 2 and a
MolienTable for n >= 3, for at most as many groups and
MAX_PERIOD_CACHE_BYTES together.  Every enumeration of cells counts them
against one cell budget before it allocates.
dim_closed_form evaluates the per-family piecewise formulas; reconcile
checks the two against each other.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (Int64Limit, NonIntegralDimension, SizeLimit, TruncationError, UnsupportedFamily,
                     _require_int64)
from .group_catalog import CACHE_SIZE, QuotientGroup

# int64 entries per transient array while evaluating a block of cells (128 kB)
_BLOCK_ENTRIES = 1 << 14

# most int64 entries the n >= 3 kernel may hold at once, its folded h-vector
# table and one orbit's h-vectors together (128 MB); with its monomial row and
# blocks, one cell of lens:5:1,2,3 at 16.7M entries peaks at 145 MB (tracemalloc)
MAX_SERIES_ENTRIES = 1 << 24

# a band of cells may compute this many entries beyond twice its cells
_BAND_SLACK = 64

# most cells one enumeration may hold.  A request peaks near 88 bytes per cell,
# its own cells included (tracemalloc): dim_cells over cyclic:2039's period
# square from a cold cache (16 of cells, 8 of base, 64 of evaluation), and
# counting_function at lambda 4e5 80 for 2I, 51 for lens:5:1,2,3 on its Molien
# table and 58 on the kernel; so the budget caps one request near 0.37 GB
MAX_CELLS = 1 << 22


def _primes(n: int) -> list[int]:
    """The distinct prime divisors of n, ascending."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] * (n > 1)


def _totient(n: int) -> int:
    primes = _primes(n)
    return n // math.prod(primes) * math.prod(p - 1 for p in primes)


def _ramanujan_divisors(o: int) -> list[tuple[int, int]]:
    """(d, mu(o / d)) for each divisor d of o with o / d squarefree: the
    Ramanujan sum c_o(r) is the sum of mu(o / d) d over those d that divide r."""
    out = [(o, 1)]
    for prime in _primes(o):
        out += [(d // prime, -mu) for d, mu in out]
    return out


def _ramanujan_row(E: int) -> np.ndarray:
    """c_E(r) for r = 0..E-1: the trace of the r-th power of a primitive E-th
    root of unity down to the rationals, one strided sum per divisor."""
    row = np.zeros(E, dtype=np.int64)
    for d, mu in _ramanujan_divisors(E):
        row[::d] += mu * d
    return row


def _h_vectors(angles_int: list[int], E: int, degree: int) -> np.ndarray:
    """Rows p = 0..degree: the complete homogeneous sum h_p of the roots of
    unity with the given integer angles, as exponent-count vectors mod E."""
    # each entry of row p is at most the row total, C(p + n - 1, n - 1), which
    # _series_tables bounds below 2^62 before it calls this
    # folding in a variable with angle a is h'[d] = h[d] + roll(h'[d-1], a);
    # un-rotating row d by d*a turns that recurrence into a cumulative sum,
    # taken in place a block of about _BLOCK_ENTRIES entries of rows at a
    # time, carried on from the last sum of the block before
    h = np.zeros((degree + 1, E), dtype=np.int64)
    h[0, 0] = 1
    r = np.arange(E)
    rows = max(1, _BLOCK_ENTRIES // E)
    for a in angles_int:
        carry = 0
        for i in range(0, degree + 1, rows):
            at = (r + np.arange(i, min(i + rows, degree + 1))[:, None] * a) % E
            g = np.cumsum(np.take_along_axis(h[i:i + rows], at, axis=1), axis=0) + carry
            carry = g[-1]
            np.put_along_axis(h[i:i + rows], at, g, axis=1)
    return h


def require_cells(count: int, what: str) -> None:
    """Raise SizeLimit before allocation if an enumeration of count cells
    exceeds the cell budget."""
    if count > MAX_CELLS:
        raise SizeLimit(f"{what} needs at least {count} cells, above the budget of {MAX_CELLS}")


def triangle_cells(pq_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Every cell (p, q) with p + q <= pq_max, by ascending p + q and then p;
    line s starts at index s(s + 1)/2."""
    lines = max(pq_max + 1, 0)
    require_cells(lines * (lines + 1) // 2, f"the triangle p + q <= {pq_max}")
    s = np.repeat(np.arange(lines, dtype=np.int64), np.arange(1, lines + 1))
    p = np.arange(len(s), dtype=np.int64) - s * (s + 1) // 2
    return p, s - p


@lru_cache(maxsize=CACHE_SIZE)
def _rational_classes(group: QuotientGroup) -> list[tuple[tuple[int, ...], int]]:
    """The classes by Galois orbit: one (sorted integer angles mod E, summed
    multiplicity) per orbit, E the group exponent.

    For j a unit mod the element order d, the angles j k mod d belong to
    g^j, and the Galois trace of chi(g^j) equals that of chi(g): the two
    values are Galois conjugates.  So one trace per orbit, weighted by the
    multiplicities of the orbit's classes that are present, gives the class
    sum exactly, whether or not the class set is closed under powers.  Each
    new orbit lists its images once, from the units mod d, so the cost is
    about one dictionary entry per class."""
    E = group.exponent
    orbit_of: dict[tuple[int, ...], int] = {}
    orbits: list[list] = []
    units: dict[int, list[int]] = {}
    for c in group.classes:
        key = tuple(sorted(c.angles))
        i = orbit_of.get(key)
        if i is None:
            d = E // math.gcd(E, *key)
            if d not in units:
                units[d] = [j for j in range(1, d + 1) if math.gcd(j, d) == 1]
            step = E // d
            i = len(orbits)
            for j in units[d]:
                orbit_of[tuple(sorted(j * k // step % d * step for k in key))] = i
            orbits.append([key, 0])
        orbits[i][1] += c.mult
    return [(key, mult) for key, mult in orbits]


# most bytes the cached period tables hold together, traces and bases alike:
# cyclic:83160's 64 MB of traces fit alone, cyclic:98280's 76 MB do not, and
# two filled tables of cyclic:2039 fit (33 MB each), two of cyclic:2047 not
MAX_PERIOD_CACHE_BYTES = 16 * MAX_CELLS


class PeriodTable:
    """The n = 2 dimensions of one group from the Galois traces of its
    rational classes:
    dim(p, q) = base[p mod E, q mod E] + (p // E + q // E) step[(q - p) mod E].

    The character at a class with integer angles (k1, k2) mod E is the
    progression sum of zeta^(b + j s), j = 0..p+q, with b = q k2 - p k1
    and s = k1 - k2.  A central class (s = 0) traces to
    (p + q + 1) c_E(k (q - p)); these fold into one vector
    central[(q - p) mod E].  Otherwise c_E is constant on unit multiples, so
    the angles (v k1, v k2), v a unit with v s = c = gcd(s, E), trace
    alike and are stored.  Row F_c of F holds the stride-c prefix sums of
    c_E: a whole cycle of r -> r + c traces to 0, so F_c[(r + c) mod E] -
    F_c[r] = c_E(r) at every r, and the p + q + 1 terms from b sum to
    F_c[b + (p + q + 1) c] - F_c[b], indices mod E; so the traces are
    E-periodic in p and q.  E int64 per distinct divisor c, plus central:
    9.6 MB for cyclic:40000 (29 divisors), 64 MB for cyclic:83160 (95).

    With p = a E + pr, q = b E + qr, residues pr, qr < E, and k = a + b,
    p + q + 1 = pr + qr + 1 + k E and (q - p) mod E = (qr - pr) mod E = r,
    so the weighted trace sum is W(p, q) = W(pr, qr) + k E central[r].  If
    denom = phi(E) |G| divides (1) W(pr, qr) and (2) E central[r], then
    dim(p, q) = base + k step[r], base = W(pr, qr) / denom and
    step = E central / denom, affine in k like the sphere dimension
    pr + qr + 1 + k E, of slope E; so (3) 0 <= base <= pr + qr + 1 and
    (4) 0 <= step[r] <= E give 0 <= dim <= sphere dim at every k >= 0.
    Conversely the gates at k = 0 are (1) and (3), at k = 1 they give
    denom | W(pr, qr) + E central[r], hence (2), and a slope outside
    [0, E] leaves [0, pr + qr + 1 + k E] at some k >= 0, hence (4).  step
    and its checks (2) and (4) are made once per group; base is checked at
    residue pairs, a request's own by residue_dims or all E^2 by fill."""

    def __init__(self, group: QuotientGroup):
        E = group.exponent
        orbits = _rational_classes(group)
        # at residues p, q < E every intermediate of a class's trace is below 2 E phi(E),
        # so the weighted traces stay below 3 E phi(E) |G|, |G| the summed |multiplicity|
        _require_int64(3 * E * _totient(E) * sum(abs(mult) for _, mult in orbits))
        ram = _ramanujan_row(E)
        self.name = group.name
        self.E = E
        self.denom = _totient(E) * group.order
        self.central = np.zeros(E, dtype=np.int64)
        moving, row_of = [], {}
        for (k1, k2), mult in orbits:
            if k1 == k2:
                self.central += mult * ram[k1 * np.arange(E) % E]
                continue
            # v (k1 - k2) = c mod E: the inverse mod E / c, lifted to a unit mod E
            c = math.gcd(k1 - k2, E)
            v = pow((k1 - k2) // c, -1, E // c)
            while math.gcd(v, E) > 1:
                v += E // c
            moving.append((v * k1 % E, v * k2 % E, E * row_of.setdefault(c, len(row_of)), mult))
        F = np.zeros((len(row_of), E), dtype=np.int64)
        for c, i in row_of.items():
            np.cumsum(ram[:-c].reshape(-1, c), axis=0, out=F[i, c:].reshape(-1, c))
        self.F = F.ravel()
        k = np.array(moving, dtype=np.int64).reshape(-1, 4)
        self.k1, self.k2, self.offset, self.mult = k[:, :1], k[:, 1:2], k[:, 2:3], k[:, 3]
        stepped = E * self.central
        self.step = stepped // self.denom
        # checks (2) and (4), each at every r
        self.step_indivisible = stepped != self.step * self.denom
        self.step_outside = (self.step < 0) | (self.step > E)
        self.base = None    # (E, E) int64 once fill has run
        self.nbytes = sum(a.nbytes for a in (self.F, k, self.central, self.step, self.step_indivisible,
                                             self.step_outside))

    def _at(self, x: np.ndarray) -> np.ndarray:
        """F at x mod E in each orbit's row, overwriting x; x - E (x // E) is
        x mod E, as numpy divides by a scalar far faster than it takes remainders."""
        x -= x // self.E * self.E
        x += self.offset
        return self.F[x]

    def noncentral(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Weighted non-central traces at residues 0 <= p, q < E."""
        return self.mult @ (self._at((q + 1) * self.k1 - (p + 1) * self.k2) - self._at(q * self.k2 - p * self.k1))

    def residue_dims(self, pr: np.ndarray, qr: np.ndarray, r: np.ndarray) -> np.ndarray:
        """base at the residue pairs (pr[i], qr[i]), r = qr - pr, traced a
        block of pairs at a time, after the four checks at those pairs.  Any
        failure raises NonIntegralDimension, at the first pair in the given
        order that fails the first check that fails."""
        E, denom = self.E, self.denom
        block = max(1, _BLOCK_ENTRIES // max(1, len(self.mult)))
        W = np.concatenate([self.noncentral(pr[i:i + block], qr[i:i + block]) for i in range(0, len(pr), block)])
        # r lies in (-E, E), and numpy reads a negative index from the end
        W += (pr + qr + 1) * self.central[r]
        base = W // denom
        failures = [
            (W != base * denom, lambda i: f"weighted trace sum {W[i]} at residues ({pr[i]}, {qr[i]}) "
                                          f"is not divisible by {denom}"),
            (self.step_indivisible[r], lambda i: f"the period increment {E} * {self.central[r[i]]} at "
                                                 f"(q - p) mod {E} = {r[i] % E} is not divisible by {denom}"),
            ((base < 0) | (base > pr + qr + 1), lambda i: f"the dimension {base[i]} at residues ({pr[i]}, {qr[i]}) "
                                                          f"is outside [0, sphere dim]"),
            (self.step_outside[r], lambda i: f"the period increment {self.step[r[i]]} at (q - p) mod {E} = "
                                             f"{r[i] % E} is outside [0, {E}]"),
        ]
        for bad, what in failures:
            i = int(bad.argmax())       # the first failing pair, if any fails
            if bad[i]:
                raise NonIntegralDimension(f"{self.name}: {what(i)}")
        return base

    def fill(self) -> None:
        """base over all E^2 residue pairs, traced and checked a block of
        rows at a time, so that filling holds little beyond base; a failed
        check raises and leaves base unset."""
        E = self.E
        base = np.empty(E * E, dtype=np.int64)
        block = E * max(1, _BLOCK_ENTRIES // E)     # whole rows; the residue pair (pr, qr) is entry pr E + qr
        for i in range(0, E * E, block):
            pairs = np.arange(i, min(i + block, E * E))
            pr = pairs // E
            qr = pairs - pr * E
            base[i:i + len(pairs)] = self.residue_dims(pr, qr, qr - pr)
        self.base = base.reshape(E, E)
        self.nbytes += base.nbytes


class MolienTable:
    """The n >= 3 dimensions of one group from its Molien numerator: F(z, w)
    = U / ((1 - z^e)^n (1 - w^e)^n), U = (1 - zw) P, P from
    series_polynomial.  Expanding 1 / (1 - t^e)^n, with p = P' e + pr and
    q = Q' e + qr, dim(p, q) is the sum over alpha, beta <= n of
    U[pr + alpha e, qr + beta e] C_(P' - alpha) C_(Q' - beta), C_x =
    C(x + n - 1, n - 1) and 0 for x < 0.  U, padded to (n + 1) e square, is
    held as columns[qr, beta, alpha e + pr]."""

    def __init__(self, group: QuotientGroup):
        n, e = group.n, group.exponent
        self.name, self.n, self.e = group.name, n, e
        self.P = series_polynomial(group)
        d, w = len(self.P), (n + 1) * e
        U = np.zeros((w, w), dtype=np.int64)
        U[:d, :d] = self.P
        U[1:d + 1, 1:d + 1] -= self.P
        self.columns = np.ascontiguousarray(U.T.reshape(n + 1, e, w).transpose(1, 0, 2))
        self.weight = int(np.abs(U).sum())
        self.nbytes = self.P.nbytes + self.columns.nbytes

    def read(self, p: np.ndarray, q: np.ndarray) -> np.ndarray | None:
        """dim at the cells (p[i], q[i]), after _monomial_row's refusals, or
        None, for the kernel to answer or refuse, where a cell's sum |U|
        C_P' C_Q', which bounds every partial sum of its terms, may reach 2^63.
        The cells, sorted by q unless they already are, go in blocks of at
        most _BLOCK_ENTRIES cells and of rows q whose U B_q rows hold at most
        _BLOCK_ENTRIES entries: a block forms W[q, alpha e + pr] =
        sum_beta U[alpha e + pr, qr + beta e] C_(Q' - beta) for its rows,
        then n + 1 gathers per cell; every dimension is gated against its
        sphere dimension."""
        n, e, w = self.n, self.e, self.columns.shape[2]
        C = _monomial_row(n, p, q)
        limit = ((1 << 63) - 1) // self.weight
        if (int(C[p.max() // e + 1]) * int(C[q.max() // e + 1]) > limit
                and (np.take(C, p // e + 1) > limit // np.take(C, q // e + 1)).any()):
            return None
        order = None if (q[1:] >= q[:-1]).all() else np.argsort(q, kind="stable")
        ps, qs = (p, q) if order is None else (p[order], q[order])
        new_row = np.ones(len(qs), dtype=bool)
        np.not_equal(qs[1:], qs[:-1], out=new_row[1:])
        cuts = sorted({*np.flatnonzero(new_row)[::max(1, _BLOCK_ENTRIES // w)].tolist(),
                       *range(0, len(qs), _BLOCK_ENTRIES), len(qs)})
        Cz = np.concatenate((np.zeros(n - 1, dtype=np.int64), C))     # Cz[x + n] = C_x, 0 for x < 0
        dims = np.empty(len(p), dtype=np.int64)
        for i, j in zip(cuts, cuts[1:]):
            starts = new_row[i:j].copy()
            starts[0] = True
            b = qs[i:j][starts] // e
            U = self.columns[qs[i:j][starts] - b * e]
            W = U[:, 0] * np.take(Cz, b + n)[:, None]
            for beta in range(1, n + 1):
                W += U[:, beta] * np.take(Cz, b + n - beta)[:, None]
            a = ps[i:j] // e
            at = (np.cumsum(starts) - 1) * w + ps[i:j] - a * e
            W = W.ravel()
            block = np.take(Cz, a + n) * W[at]
            for alpha in range(1, n + 1):
                block += np.take(Cz, a + n - alpha) * W[at + alpha * e]
            dims[slice(i, j) if order is None else order[i:j]] = block
        bad = np.flatnonzero((dims < 0) | (dims > _sphere(C, p, q)))[:1]
        self._gate(p[bad], q[bad])
        return dims

    def square(self, ceiling: int) -> np.ndarray | None:
        """F[p, q] = dim(p, q) for p, q <= ceiling by two tensordots B U B^T,
        B[P', alpha] = C_(P' - alpha), gated as read gates the square's cells
        row by row in q; None, for dim_cells to read or refuse the cells,
        where the corner cell fails one of read's int64 bounds."""
        n, e = self.n, self.e
        K = ceiling // e + 1
        if (math.comb(ceiling + n - 1, n - 1) ** 2 >= 1 << 62
                or math.comb(K + n - 2, n - 1) ** 2 > ((1 << 63) - 1) // self.weight):
            return None
        C = _monomial_row(n, np.array([ceiling]), np.array([ceiling]))
        B = np.take(C, np.maximum(np.arange(1, K + 1)[:, None] - np.arange(n + 1), 0))
        U = self.columns.reshape(e, n + 1, n + 1, e)      # [qr, beta, alpha, pr]
        F = np.tensordot(np.tensordot(U, B, (2, 1)), B, (1, 1))       # [qr, pr, P', Q']
        F = F.transpose(2, 1, 3, 0).reshape(K * e, K * e)[:ceiling + 1, :ceiling + 1]
        bad = (F < 0) | (F > np.outer(C[1:], C[1:]) - np.outer(C[:-1], C[:-1]))
        self._gate(*np.divmod(np.flatnonzero(bad.T)[:1], ceiling + 1)[::-1])
        return F

    def _gate(self, p: np.ndarray, q: np.ndarray) -> None:
        """Refuse the first of these cells, if any: its dimension is outside [0, sphere dim]."""
        if len(p):
            raise NonIntegralDimension(f"{self.name} at (p,q)=({p[0]},{q[0]}): the dimension read from the "
                                       f"Molien table is outside [0, sphere dim]")


# the tables of the most recently used groups, oldest first, a PeriodTable
# for n = 2 and a MolienTable for n >= 3, or None for an n >= 3 table the
# kernel refused to build: at most CACHE_SIZE of them and
# MAX_PERIOD_CACHE_BYTES together
_period_tables: OrderedDict[QuotientGroup, PeriodTable | MolienTable | None] = OrderedDict()


def _evict() -> None:
    """Drop the oldest tables until the cache is within CACHE_SIZE and
    MAX_PERIOD_CACHE_BYTES; a table larger than that alone is not kept."""
    while (len(_period_tables) > CACHE_SIZE
           or sum(t.nbytes for t in _period_tables.values() if t is not None) > MAX_PERIOD_CACHE_BYTES):
        _period_tables.popitem(last=False)


def series_ceiling(group: QuotientGroup) -> int:
    """max(2 n e, 24), series_polynomial's default ceiling and an n >= 3 table's."""
    return max(2 * group.n * group.exponent, 24)


def period_route(group: QuotientGroup, cells: int) -> bool:
    """Whether a request of this many cells reads its group's table, for
    n = 2 filling its base, by one rule for every n: it holds at least the
    cells the table is found from, the E^2 residue pairs for n = 2 and the
    square p, q <= series_ceiling for n >= 3, and they (with step's E
    entries for n = 2, so E <= 2047) fit the cell budget."""
    square = group.exponent ** 2 if group.n == 2 else (series_ceiling(group) + 1) ** 2
    return cells >= square and square + group.exponent * (group.n == 2) <= MAX_CELLS


def period_table(group: QuotientGroup, cells: int) -> PeriodTable | MolienTable | None:
    """The group's table for a request of this many cells, new and added at
    the cache's newest end, or cached and moved there.  For n = 2 the
    PeriodTable, its base filled once period_route allows a request; for
    n >= 3 the MolienTable where period_route allows, else None.  A SizeLimit
    (Int64Limit included) on an n >= 3 table's square is cached as None in
    the table's place, so later requests go straight to the kernel."""
    route = period_route(group, cells)
    if group.n > 2 and not route:
        return None
    if group not in _period_tables:
        try:
            _period_tables[group] = (PeriodTable if group.n == 2 else MolienTable)(group)
        except SizeLimit:       # Int64Limit included
            if group.n == 2:
                raise
            _period_tables[group] = None
    _period_tables.move_to_end(group)
    table = _period_tables[group]
    _evict()
    if route and group.n == 2 and table.base is None:
        table.fill()
        _evict()
    return table


def _monomial_row(n: int, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """C[x + 1] = C_x = C(x + n - 1, n - 1), the degree-x monomial count, to
    the largest p or q, and C[0] = 0: counted against MAX_SERIES_ENTRIES and
    built once the largest count is below 2^62; then each cell with
    C_p C_q >= 2^62 is refused, exactly in int64."""
    degree = int(max(p.max(), q.max()))
    if degree + 2 > MAX_SERIES_ENTRIES:
        raise SizeLimit(f"the monomial row of degree {degree} needs {degree + 2} int64 entries, "
                        f"above the budget of {MAX_SERIES_ENTRIES}")
    top = math.comb(degree + n - 1, n - 1)     # the largest count a cell reads
    if top >= 1 << 62:
        over = np.maximum(p, q) == degree
    else:
        # n - 1 cumulative sums of [0, 1, 1, ...] give C[x + 1] = C(x + n - 1, n - 1)
        C = np.ones(degree + 2, dtype=np.int64)
        C[0] = 0
        for _ in range(n - 1):
            np.cumsum(C, out=C)
        # no cell's C_p C_q reaches 2^62 unless top^2 does
        over = (np.take(C[1:], p) > ((1 << 62) - 1) // np.take(C[1:], q) if top * top >= 1 << 62
                else np.zeros(1, dtype=bool))
    i = int(over.argmax())
    if over[i]:
        raise Int64Limit(f"exact integer intermediate C_p C_q at (p,q)=({p[i]},{q[i]}) may reach 2^62, beyond int64")
    return C


def _sphere(C: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The sphere dimensions C_p C_q - C_(p-1) C_(q-1) of Folland's split
    P(p, q) = H(p, q) + |z|^2 P(p - 1, q - 1), from _monomial_row's C."""
    sphere = np.take(C[1:], p)
    sphere *= np.take(C[1:], q)
    lower = np.take(C, p)
    lower *= np.take(C, q)
    sphere -= lower
    return sphere


def _series_tables(group: QuotientGroup, E: int, p: np.ndarray,
                   q: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """The folded h-vector table G for the cells (p[i], q[i]), its column
    weights w, its blocks' summed |weight| and the monomial row C.  An orbit
    of element order o has angles (E / o) a and an h-vector over Z/o; the
    trace of h_p(conj g) h_q(g) down from Q(zeta_E) is phi(E) / phi(o)
    times the sum of mu(o / d) d <h_p mod d, h_q mod d> over
    _ramanujan_divisors(o), h mod d summing h into d residues.  So the
    orbit, of summed multiplicity m, holds a block h mod d of weight
    m (phi(E) / phi(o)) mu(o / d) d per d.  Row x stands for degree x - 1:
    the zero row 0 makes the (p - 1, q - 1) term vanish at p = 0 or q = 0.
    The table and one orbit's h-vectors are counted against the budget
    before either is allocated, and then _monomial_row refuses each cell
    with C_p C_q >= 2^62."""
    degree = int(max(p.max(), q.max()))
    orbits = [(key, E // math.gcd(E, *key), mult) for key, mult in _rational_classes(group)]
    width = sum(d for _, o, _ in orbits for d, _ in _ramanujan_divisors(o))
    entries = (degree + 2) * width + (degree + 1) * max(o for _, o, _ in orbits)
    if entries > MAX_SERIES_ENTRIES:
        raise SizeLimit(f"the series table of {group.name} needs at least {entries} int64 entries, "
                        f"above the budget of {MAX_SERIES_ENTRIES}")
    C = _monomial_row(group.n, p, q)
    G = np.zeros((degree + 2, width), dtype=np.int64)
    w = np.empty(width, dtype=np.int64)
    col = abs_weight = 0
    for key, o, mult in orbits:
        h = _h_vectors([k * o // E for k in key], o, degree)
        for d, mu in _ramanujan_divisors(o):
            h.reshape(degree + 1, o // d, d).sum(axis=1, out=G[1:, col:col + d])
            weight = mult * (_totient(E) // _totient(o)) * mu * d
            w[col:col + d] = weight
            abs_weight += abs(weight)
            col += d
        del h       # before the next orbit's h-vectors, as the budget counts one orbit's
    return G, w, abs_weight, C


def _bands(p: np.ndarray, q: np.ndarray):
    """Runs of the cells, sorted by q, as (start, stop, least p, largest p).
    A run never splits a row q, and it ends before the row that would make
    its bounding box hold more than twice its cells plus _BAND_SLACK; only a
    run of one sparse row can exceed that.  A square, a triangle or a single
    cell is one run, the hyperbola of a counting table O(log lambda) runs."""
    starts = np.flatnonzero(np.diff(q, prepend=-1))
    ends = np.append(starts[1:], len(q))
    row_q = q[starts]
    row_lo = np.minimum.reduceat(p, starts)
    row_hi = np.maximum.reduceat(p, starts)
    first, rows = 0, len(starts)
    while first < rows:
        width = 16
        while True:     # widen the window until the box overflows or the rows run out
            last = min(rows, first + width)
            lo = np.minimum.accumulate(row_lo[first:last])
            hi = np.maximum.accumulate(row_hi[first:last])
            box = (row_q[first:last] - row_q[first] + 1) * (hi - lo + 1)
            over = np.flatnonzero(box > 2 * (ends[first:last] - starts[first]) + _BAND_SLACK)
            if len(over) or last == rows:
                break
            width *= 2
        run = max(1, int(over[0])) if len(over) else last - first
        yield int(starts[first]), int(ends[first + run - 1]), int(lo[run - 1]), int(hi[run - 1])
        first += run


def _series_traces(group: QuotientGroup, E: int, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted traces from the h-vector series, and the monomial row C of
    _series_tables.  The character is
    h_p(conj g) h_q(g) - h_(p-1)(conj g) h_(q-1)(g), so T = (G w) G^T sums
    the weighted traces of the first product over the rational classes, and
    cell (p, q) reads T[p, q] - T[p-1, q-1].  T is formed one band of cells
    at a time, in chunks of rows q near _BLOCK_ENTRIES entries, once the
    band's own rows bound every entry it reads below 2^63; a chunk reads its
    cells, sorted by q unless they already are, in one flat gather."""
    G, w, abs_weight, C = _series_tables(group, E, p, q)
    order = None if (q[1:] >= q[:-1]).all() else np.argsort(q, kind="stable")
    p, q = (p, q) if order is None else (p[order], q[order])
    traces = np.empty(len(p), dtype=np.int64)
    for start, stop, lo, hi in _bands(p, q):
        q_lo, q_hi = int(q[start]), int(q[stop - 1])
        # the band reads rows lo .. hi + 1 as p, q_lo .. q_hi + 1 as q.  Each block of the row
        # of degree x sums to its C(x + n - 1, n - 1) monomials, so G[p] |w| is at most that
        # count at x = hi times abs_weight, and no partial sum of (G[q] w) . G[p] exceeds it times max G[q]
        _require_int64(2 * math.comb(hi + group.n - 1, group.n - 1) * abs_weight
                       * int(G[q_lo:q_hi + 2].max()))
        cols = G[lo:hi + 2].T       # columns p = lo - 1 .. hi
        width = hi - lo + 1
        step = max(1, _BLOCK_ENTRIES // (width + 1))
        for q0 in range(q_lo, q_hi + 1, step):
            i, j = start + np.searchsorted(q[start:stop], [q0, q0 + step])
            if i == j:
                continue
            T = (G[q0:min(q0 + step, q_hi + 1) + 1] * w) @ cols      # rows q = q0 - 1 .. min(q0 + step - 1, q_hi)
            D = T[1:, 1:] - T[:-1, :-1]     # D[q - q0, p - lo] is cell (p, q)'s T[p, q] - T[p-1, q-1]
            traces[slice(i, j) if order is None else order[i:j]] = D.ravel()[(q[i:j] - q0) * width + (p[i:j] - lo)]
    return traces, C


def _series_dims(group: QuotientGroup, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The n >= 3 kernel at cells p, q >= 0: each cell traced and gated
    against its sphere dimension."""
    denom = _totient(group.exponent) * group.order
    traces, C = _series_traces(group, group.exponent, p, q)
    dims = traces // denom
    bad = np.flatnonzero((traces != dims * denom) | (dims < 0) | (dims > _sphere(C, p, q)))
    if len(bad):
        i = bad[0]
        raise NonIntegralDimension(
            f"{group.name} at (p,q)=({p[i]},{q[i]}): weighted trace sum {traces[i]} "
            f"is not {denom} times a dimension in [0, sphere dim]"
        )
    return dims


def dim_cells(group: QuotientGroup, p, q) -> np.ndarray:
    """Invariant dimensions at the cells (p[i], q[i]) in one exact
    evaluation, 0 at a cell with p < 0 or q < 0; transient memory stays at
    a few MB per block of cells, through period_table.  For n = 2 each is
    base + (p // E + q // E) step[(q - p) mod E], base read from the table
    once a request that period_route allows has filled it, and until then
    traced and checked at the request's own residues.  For n >= 3 each is
    read from the MolienTable where period_route allows, else traced by the
    series kernel, and gated against its sphere dimension."""
    try:
        p = np.asarray(p, dtype=np.int64)
        q = np.asarray(q, dtype=np.int64)
    except OverflowError:
        raise Int64Limit("a cell's p or q is beyond int64") from None
    if not len(p):
        return np.zeros(0, dtype=np.int64)
    if min(p.min(), q.min()) < 0:
        inside = (p >= 0) & (q >= 0)
        dims = np.zeros(len(p), dtype=np.int64)
        dims[inside] = dim_cells(group, p[inside], q[inside])
        return dims
    E = group.exponent
    if group.n == 2:
        # every dimension is at most the sphere's p + q + 1, which fits
        # int64 exactly where p <= 2^63 - 2 - q
        if (p > 2**63 - 2 - q).any():
            raise Int64Limit("exact integer intermediate p + q + 1 may reach 2^63, beyond int64")
        a, b = p // E, q // E
        pr, qr = p - a * E, q - b * E
        r = qr - pr     # in (-E, E): a negative index reads step[(q - p) mod E]
        table = period_table(group, len(p))
        base = table.residue_dims(pr, qr, r) if table.base is None else table.base.ravel()[pr * E + qr]
        return base + (a + b) * table.step[r]
    table = period_table(group, len(p))
    dims = None if table is None else table.read(p, q)
    return _series_dims(group, p, q) if dims is None else dims


def _times_binomial(x: np.ndarray, e: int, n: int) -> np.ndarray:
    """Multiply by (t^e - 1)^n along axis 0, truncated at the array's end
    (e < len(x)): n factors, each new[a] = x[a - e] - x[a]."""
    for _ in range(n):
        x = np.concatenate((-x[:e], x[:-e] - x[e:]))
    return x


def series_polynomial(group: QuotientGroup, ceiling: int | None = None) -> np.ndarray:
    """P = F (z^e - 1)^n (w^e - 1)^n / (1 - zw), (n(e - 1) + 1) square, from
    F on p, q <= ceiling (series_ceiling by default, at least ne + 1) by the
    engine, for n >= 3 the series kernel, never a MolienTable: one factor at
    a time along each axis, then running sums down the diagonals.  A nonzero
    coefficient beyond degree n(e - 1) raises TruncationError, and
    P(0, 0) != 1 NonIntegralDimension."""
    n, e = group.n, group.exponent
    degree = n * (e - 1)
    ceiling = max(series_ceiling(group) if ceiling is None else ceiling, degree + n + 1)
    require_cells((ceiling + 1) ** 2, f"the series square p, q <= {ceiling}")
    q, p = np.indices((ceiling + 1, ceiling + 1), dtype=np.int64)
    F = (dim_cells if n == 2 else _series_dims)(group, p.ravel(), q.ravel()).reshape(p.shape).T
    P = _times_binomial(_times_binomial(F.T, e, n).T, e, n)
    for a in range(1, ceiling + 1):
        P[a, 1:] += P[a - 1, :-1]
    beyond = P.copy()
    beyond[: degree + 1, : degree + 1] = 0
    if np.any(beyond):
        bad = np.argwhere(beyond)
        raise TruncationError(f"{group.name}: nonzero coefficient at {tuple(bad[0])} beyond degree {degree}")
    P = P[: degree + 1, : degree + 1].copy()
    if P[0, 0] != 1:
        raise NonIntegralDimension(f"{group.name}: P(0,0) = {P[0, 0]}, expected 1")
    return P


def dim_triangle(group: QuotientGroup, pq_max: int) -> list[tuple[int, int, int]]:
    """(p, q, dim) for every cell with p + q <= pq_max, by ascending p + q and
    then p, from one dim_cells call."""
    p, q = triangle_cells(pq_max)
    return list(zip(p.tolist(), q.tolist(), dim_cells(group, p, q).tolist()))


def dim_invariant(group: QuotientGroup, p: int, q: int) -> int:
    """Dimension of the group-invariant subspace of the bidegree-(p, q)
    harmonic space: dim_cells at one cell, 0 outside p, q >= 0."""
    return int(dim_cells(group, [p], [q])[0])


# ---------------------------------------------------------------------------
# Closed forms, per family


def closed_form_cyclic(m: int, p: int, q: int) -> int:
    s = p + q
    if m % 2 == 0:
        return 2 * (s // m) + 1 if s % 2 == 0 else 0
    if s % 2 == 0:
        return 2 * (s // (2 * m)) + 1
    return 2 * ((s + m) // (2 * m))


def _sign_mod4(s: int) -> int:
    return 1 if s % 4 == 0 else (-1 if s % 4 == 2 else 0)


def closed_form_binary_dihedral(m: int, p: int, q: int) -> int:
    return (closed_form_cyclic(2 * m, p, q) + _sign_mod4(p + q)) // 2


def closed_form_tetrahedral(p: int, q: int) -> int:
    s = p + q
    bump = 2 if s % 6 == 0 else (-2 if s % 6 == 4 else 0)
    return (closed_form_binary_dihedral(2, p, q) + bump) // 3


def closed_form_octahedral(p: int, q: int) -> int:
    s = p + q
    bump = 1 if s % 8 == 0 else (-1 if s % 8 == 6 else 0)
    return (closed_form_tetrahedral(p, q) + bump) // 2


def closed_form_icosahedral(p: int, q: int) -> int:
    s = p + q
    c6 = 1 if s % 6 == 0 else (-1 if s % 6 == 4 else 0)
    c10 = {0: 2, 2: 1, 6: -1, 8: -2}.get(s % 10, 0)
    return (closed_form_tetrahedral(p, q) + _sign_mod4(s) + c6 + c10) // 5


def _whole(total: int, parts: int, what: str) -> int:
    """total / parts, raising NonIntegralDimension when it is not an integer."""
    dim, rest = divmod(total, parts)
    if rest:
        raise NonIntegralDimension(f"{what}: the closed form is {total}/{parts}, not an integer")
    return dim


def closed_form_q_semidirect(l: int, p: int, q: int) -> int:
    d = q - p
    first = 2 * closed_form_binary_dihedral(2, p, q) if d % (6 * l) == 0 else 0
    r = d % (18 * l)
    twist = 2 if r == 0 else (-1 if r in (6 * l, 12 * l) else 0)
    s = p + q
    bump = 2 if s % 6 == 0 else (-2 if s % 6 == 4 else 0)
    return _whole(first + twist * bump, 6, f"qsemi:{l} at (p,q)=({p},{q})")


def closed_form_cyclic_semidirect(m: int, l: int, p: int, q: int) -> int:
    d = q - p
    first = closed_form_cyclic(2 * m, p, q) if d % (2 * l) == 0 else 0
    r = d % (4 * l)
    twist = 1 if r == 0 else (-1 if r == 2 * l else 0)
    return _whole(first + twist * _sign_mod4(p + q), 2, f"cycsemi:{m}:{l} at (p,q)=({p},{q})")


def dim_closed_form(group: QuotientGroup, p: int, q: int) -> int:
    """Closed-form invariant dimension for the seven covered families.

    Raises UnsupportedFamily for general lens groups (no closed form)."""
    fam = group.family
    if fam == "cyclic":
        return closed_form_cyclic(group.params["m"], p, q)
    if fam == "bindih":
        return closed_form_binary_dihedral(group.params["m"], p, q)
    if fam == "2T":
        return closed_form_tetrahedral(p, q)
    if fam == "2O":
        return closed_form_octahedral(p, q)
    if fam == "2I":
        return closed_form_icosahedral(p, q)
    if fam == "product":
        l = group.params["l"]
        if (q - p) % l != 0:
            return 0
        return dim_closed_form(group.base, p, q)
    if fam == "qsemi":
        return closed_form_q_semidirect(group.params["l"], p, q)
    if fam == "cycsemi":
        return closed_form_cyclic_semidirect(group.params["m"], group.params["l"], p, q)
    raise UnsupportedFamily(f"no closed-form dimensions for family {fam!r} ({group.name})")


@dataclass
class ReconcileReport:
    pq_ceiling: int
    mismatches: list[tuple[int, int, int, int]]  # (p, q, averaged, closed_form)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def reconcile(group: QuotientGroup, pq_ceiling: int) -> ReconcileReport:
    """Compare engine and closed-form dimensions on p + q <= pq_ceiling."""
    mismatches = []
    for p, q, averaged in dim_triangle(group, pq_ceiling):
        closed = dim_closed_form(group, p, q)
        if averaged != closed:
            mismatches.append((p, q, averaged, closed))
    return ReconcileReport(pq_ceiling, mismatches)
