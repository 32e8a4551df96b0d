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
For n >= 3, by Molien's theorem in Stanley's form, every dimension is a
fixed combination of one small MolienTable per group, U = (1 - zw) P, with
at most (n + 1)^2 terms per cell.  P, of degree n(e - 1), is a class sum of
polynomials: each orbit of element order o is traced in its own field
Q(zeta_o), by Ramanujan's divisor sum for c_o, so P is one int64 product
(G w) G^T of a table of truncated h-vectors summed into d residues, d | o.
Every request of a group whose product fits its budgets reads the table; a
group whose product does not fit takes the same product cell by cell, from
plain h-vectors to the request's own degree.  So no n >= 3 answer or
refusal depends on the shape of a request or on what is cached.

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

from .errors import Int64Limit, NonIntegralDimension, SizeLimit, UnsupportedFamily, _require_int64
from .group_catalog import CACHE_SIZE, QuotientGroup

# int64 entries per transient array while evaluating a block of cells (128 kB)
_BLOCK_ENTRIES = 1 << 14

# most int64 entries an n >= 3 series table may hold at once, the folded
# h-vector table and one orbit's h-vectors together (128 MB), to degree
# n(e - 1) for a MolienTable and to a request's largest p or q for a group
# without one; also the most entries of a monomial row, one per degree
MAX_SERIES_ENTRIES = 1 << 24

# most cells one enumeration may hold.  A request peaks near 32 bytes per cell,
# its own cells included (tracemalloc): dim_cells over cyclic:2039's period
# square from a cold cache (16 of cells, 8 of base, 8 of answer, and one
# block of scratch), and counting_function at lambda 4e5 25 for 2I and 26 for
# lens:5:1,2,3 on its Molien table; so the budget caps one request near 0.13 GB
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
    # every caller bounds below 2^63 first
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

    def read(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """dim at the cells (p[i], q[i]), p, q >= 0, a block of at most
        _BLOCK_ENTRIES cells at a time, so that the scratch beside the
        answer is one block's: base read from the filled table, or until
        then from residue_dims at the block's residues.  A block's refusal
        need not be the request's first, so on refusal the whole request is
        checked at once, to raise as residue_dims does over all its cells."""
        if len(p) <= _BLOCK_ENTRIES:
            return self._read_block(p, q)
        dims = np.empty(len(p), dtype=np.int64)
        try:
            for i in range(0, len(p), _BLOCK_ENTRIES):
                dims[i:i + _BLOCK_ENTRIES] = self._read_block(p[i:i + _BLOCK_ENTRIES], q[i:i + _BLOCK_ENTRIES])
        except NonIntegralDimension:
            self._read_block(p, q)
            raise
        return dims

    def _read_block(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """dim at the cells (p[i], q[i]), p, q >= 0, in one pass."""
        E = self.E
        a, b = p // E, q // E
        pr, qr = p - a * E, q - b * E
        r = qr - pr     # in (-E, E): a negative index reads step[(q - p) mod E]
        base = self.residue_dims(pr, qr, r) if self.base is None else self.base.ravel()[pr * E + qr]
        return base + (a + b) * self.step[r]

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
    = U / ((1 - z^e)^n (1 - w^e)^n), U = (1 - zw) P.  As lambda^e = 1 for
    every eigenvalue, (1 - z^e) / (1 - lambda z) = 1 + lambda z + ... +
    (lambda z)^(e - 1), so phi(e) |G| P = (G w) G^T, G the series table of
    truncated h-vectors to degree n(e - 1), one int64 product.  Its square
    is counted against the cell budget and G against the series budget
    before either is allocated, and the product's partial sums are bounded
    below 2^63 before it is formed; then the product must divide exactly,
    with P(0, 0) = 1 and P(1, 1) |G| = e^(2n), the identity's term, as
    every other element has an eigenvalue lambda != 1, whose factor
    1 + lambda + ... + lambda^(e - 1) vanishes.  Expanding 1 / (1 - t^e)^n,
    with p = P' e + pr and q = Q' e + qr, dim(p, q) is the sum over alpha,
    beta <= n of U[pr + alpha e, qr + beta e] C_(P' - alpha) C_(Q' - beta),
    C_x = C(x + n - 1, n - 1) and 0 for x < 0.  U, padded to (n + 1) e
    square, is held as columns[qr, beta, alpha e + pr]."""

    def __init__(self, group: QuotientGroup):
        n, e = group.n, group.exponent
        self.name, self.n, self.e = group.name, n, e
        degree = n * (e - 1)
        require_cells((degree + 1) ** 2, f"the Molien product of {group.name}, p, q <= {degree},")
        G, w, _ = _series_tables(group, degree, truncated=True)
        G = G[1:]
        # G >= 0, so no partial sum of (G[q] w) . G[p] exceeds the largest
        # |w_k| max G[:, k] times the largest row sum
        top = max(a * b for a, b in zip(np.abs(w).tolist(), G.max(axis=0).tolist()))
        _require_int64(top * int(G.sum(axis=1).max()))
        denom = _totient(e) * group.order
        P = (G * w) @ G.T
        bad = np.flatnonzero(P % denom)[:1]
        if len(bad):
            a, b = divmod(int(bad[0]), len(P))
            raise NonIntegralDimension(f"{self.name}: the weighted trace sum {P[a, b]} of z^{a} w^{b} in the "
                                       f"Molien numerator is not divisible by {denom}")
        P //= denom
        if P[0, 0] != 1:
            raise NonIntegralDimension(f"{self.name}: P(0,0) = {P[0, 0]}, expected 1")
        # denom P(1, 1), the sum of (G w) G^T, is the sum over the columns k of w_k s_k^2, s G's column sums
        s = G.sum(axis=0).tolist()
        at_one = sum(wk * sk * sk for wk, sk in zip(w.tolist(), s)) // _totient(e)
        if at_one != e ** (2 * n):
            raise NonIntegralDimension(f"{self.name}: P(1,1) |G| = {at_one}, expected e^(2n) = {e ** (2 * n)}")
        d, width = len(P), (n + 1) * e
        U = np.zeros((width, width), dtype=np.int64)
        U[:d, :d] = P
        U[1:d + 1, 1:d + 1] -= P
        # sum |U| <= 2 sum |P| <= 2 sum_k |w_k| s_k^2 / denom: summed in int64 below 2^63, else that bound
        bound = 2 * sum(abs(wk) * sk * sk for wk, sk in zip(w.tolist(), s)) // denom
        self.weight = int(np.abs(U).sum()) if bound < 1 << 63 else bound
        self.P = P
        self.columns = np.ascontiguousarray(U.T.reshape(n + 1, e, width).transpose(1, 0, 2))
        self.nbytes = self.P.nbytes + self.columns.nbytes

    def read(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """dim at the cells (p[i], q[i]), after _monomial_row's refusals and
        the refusal of the first cell whose sum |U| C_P' C_Q', which bounds
        every partial sum of its terms, may reach 2^63.  The cells, in order
        of q (by a stable sort unless they already are), go in blocks of at
        most _BLOCK_ENTRIES cells and of rows q whose U B_q rows hold at most
        _BLOCK_ENTRIES entries: a block forms W[q, alpha e + pr] = sum_beta
        U[alpha e + pr, qr + beta e] C_(Q' - beta) for its rows, then n + 1
        gathers per cell, and gates its dimensions against their sphere
        dimensions.  So beside the answer the scratch is one block's, and for
        unsorted cells their sort order."""
        n, e, w = self.n, self.e, self.columns.shape[2]
        C = _monomial_row(n, p, q)
        limit = ((1 << 63) - 1) // self.weight
        if int(C[p.max() // e + 1]) * int(C[q.max() // e + 1]) > limit:
            i = _first_cell(lambda p, q: np.take(C, p // e + 1) > limit // np.take(C, q // e + 1), p, q)
            if i is not None:
                raise Int64Limit(f"exact integer intermediate sum |U| C_P' C_Q' at (p,q)=({p[i]},{q[i]}) "
                                 f"may reach 2^63, beyond int64")
        order = None if _first_cell(np.greater, q[:-1], q[1:]) is None else np.argsort(q, kind="stable")
        rows = max(1, _BLOCK_ENTRIES // w)
        Cz = np.concatenate((np.zeros(n - 1, dtype=np.int64), C))     # Cz[x + n] = C_x, 0 for x < 0
        dims = np.empty(len(p), dtype=np.int64)
        inside = True
        i = 0
        while i < len(p):
            cells = slice(i, i + _BLOCK_ENTRIES) if order is None else order[i:i + _BLOCK_ENTRIES]
            ps, qs = p[cells], q[cells]
            starts = np.ones(len(qs), dtype=bool)
            np.not_equal(qs[1:], qs[:-1], out=starts[1:])
            heads = np.flatnonzero(starts)
            if len(heads) > rows:       # the block ends where its (rows + 1)-th row starts
                end = heads[rows]
                cells = slice(i, i + end) if order is None else cells[:end]
                ps, qs, starts, heads = ps[:end], qs[:end], starts[:end], heads[:rows]
            b = qs[heads] // e
            U = self.columns[qs[heads] - b * e]
            W = U[:, 0] * np.take(Cz, b + n)[:, None]
            for beta in range(1, n + 1):
                W += U[:, beta] * np.take(Cz, b + n - beta)[:, None]
            a = ps // e
            at = (np.cumsum(starts) - 1) * w + ps - a * e
            W = W.ravel()
            block = np.take(Cz, a + n) * W[at]
            for alpha in range(1, n + 1):
                block += np.take(Cz, a + n - alpha) * W[at + alpha * e]
            inside = inside and not _outside(block, _sphere(C, ps, qs)).any()
            dims[cells] = block
            i += len(ps)
        if not inside:
            # the first failing block need not hold the request's first failing cell
            i = _first_cell(lambda d, p, q: _outside(d, _sphere(C, p, q)), dims, p, q)
            self._refuse(p[i], q[i])
        return dims

    def square(self, ceiling: int) -> np.ndarray | None:
        """F[p, q] = dim(p, q) for p, q <= ceiling as B U B^T, B[P', alpha] =
        C_(P' - alpha): a tensordot with the small U, then one product with
        B per row of F, which forms F in its own layout, with no full-size
        intermediate; gated as read gates the square's cells, a block of
        rows p at a time, so that the gate's scratch is one block's, and
        refused at the first failing cell row by row in q; None, for
        dim_cells to refuse the cells, where the corner cell fails one of
        read's int64 bounds."""
        n, e = self.n, self.e
        K = ceiling // e + 1
        if (math.comb(ceiling + n - 1, n - 1) ** 2 >= 1 << 62
                or math.comb(K + n - 2, n - 1) ** 2 > ((1 << 63) - 1) // self.weight):
            return None
        C = _monomial_row(n, np.array([ceiling]), np.array([ceiling]))
        B = np.take(C, np.maximum(np.arange(1, K + 1)[:, None] - np.arange(n + 1), 0))
        U = self.columns.reshape(e, n + 1, n + 1, e)      # [qr, beta, alpha, pr]
        V = np.tensordot(B, U, (1, 2)).transpose(0, 3, 2, 1)      # [P', pr, beta, qr]
        # row P' e + pr of F is the product B V[P', pr], written straight into F's layout
        side = ceiling + 1
        F = np.matmul(B, np.ascontiguousarray(V).reshape(K * e, n + 1, e)).reshape(K * e, K * e)[:side, :side]

        def outside(ps: slice, qs: slice) -> np.ndarray:
            sphere = np.outer(C[1:][ps], C[1:][qs])
            sphere -= np.outer(C[:-1][ps], C[:-1][qs])
            return _outside(F[ps, qs], sphere)

        rows = max(1, _BLOCK_ENTRIES // side)
        if any(outside(slice(i, i + rows), slice(None)).any() for i in range(0, side, rows)):
            # the gate runs along F's rows p, where the rows are contiguous; the
            # refusal names the first failing cell row by row in q
            for j in range(0, side, rows):
                bad = outside(slice(None), slice(j, j + rows))
                if bad.any():
                    q, p = divmod(int(bad.T.argmax()), side)
                    self._refuse(p, j + q)
        return F

    def _refuse(self, p: int, q: int) -> None:
        """Refuse the cell (p, q): its dimension is outside [0, sphere dim]."""
        raise NonIntegralDimension(f"{self.name} at (p,q)=({p},{q}): the dimension read from the "
                                   f"Molien table is outside [0, sphere dim]")


# the tables of the most recently used groups, oldest first, a PeriodTable
# for n = 2 and a MolienTable for n >= 3: at most CACHE_SIZE of them and
# MAX_PERIOD_CACHE_BYTES together
_period_tables: OrderedDict[QuotientGroup, PeriodTable | MolienTable] = OrderedDict()


def _evict() -> None:
    """Drop the oldest tables until the cache is within CACHE_SIZE and
    MAX_PERIOD_CACHE_BYTES; a table larger than that alone is not kept."""
    while (len(_period_tables) > CACHE_SIZE
           or sum(t.nbytes for t in _period_tables.values()) > MAX_PERIOD_CACHE_BYTES):
        _period_tables.popitem(last=False)


def period_route(group: QuotientGroup, cells: int) -> bool:
    """Whether an n = 2 request of this many cells fills its group's base:
    it holds at least the E^2 residue pairs, and they and step's E entries
    fit the cell budget, so E <= 2047."""
    square = group.exponent ** 2
    return cells >= square and square + group.exponent <= MAX_CELLS


def period_table(group: QuotientGroup, cells: int) -> PeriodTable | MolienTable:
    """The group's table, new and added at the cache's newest end, or cached
    and moved there: for n = 2 the PeriodTable, its base filled once
    period_route allows a request of this many cells; for n >= 3 the
    MolienTable, whatever the request.  Where an n >= 3 group's product
    does not fit, its SizeLimit (Int64Limit included) is raised before the
    product is allocated, and nothing is cached."""
    if group not in _period_tables:
        _period_tables[group] = (PeriodTable if group.n == 2 else MolienTable)(group)
    _period_tables.move_to_end(group)
    table = _period_tables[group]
    _evict()
    if group.n == 2 and table.base is None and period_route(group, cells):
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
        i = _first_cell(lambda p, q: np.maximum(p, q) == degree, p, q)
    else:
        # n - 1 cumulative sums of [0, 1, 1, ...] give C[x + 1] = C(x + n - 1, n - 1)
        C = np.ones(degree + 2, dtype=np.int64)
        C[0] = 0
        for _ in range(n - 1):
            np.cumsum(C, out=C)
        # no cell's C_p C_q reaches 2^62 unless top^2 does
        i = (_first_cell(lambda p, q: np.take(C[1:], p) > ((1 << 62) - 1) // np.take(C[1:], q), p, q)
             if top * top >= 1 << 62 else None)
    if i is not None:
        raise Int64Limit(f"exact integer intermediate C_p C_q at (p,q)=({p[i]},{q[i]}) may reach 2^62, beyond int64")
    return C


def _first_cell(test, *cells: np.ndarray) -> int | None:
    """The index of the first cell at which test is true, None if there is
    none: test maps blocks of the cell arrays, _BLOCK_ENTRIES cells at a
    time, to boolean masks, so that no mask is longer than a block."""
    for i in range(0, len(cells[0]), _BLOCK_ENTRIES):
        bad = test(*(c[i:i + _BLOCK_ENTRIES] for c in cells))
        j = int(bad.argmax())
        if bad[j]:
            return i + j
    return None


def _sphere(C: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The sphere dimensions C_p C_q - C_(p-1) C_(q-1) of Folland's split
    P(p, q) = H(p, q) + |z|^2 P(p - 1, q - 1), from _monomial_row's C."""
    sphere = np.take(C[1:], p)
    sphere *= np.take(C[1:], q)
    lower = np.take(C, p)
    lower *= np.take(C, q)
    sphere -= lower
    return sphere


def _outside(dims: np.ndarray, sphere: np.ndarray) -> np.ndarray:
    """Where dims leave [0, sphere]: as the sphere dimensions are >= 0, a
    negative dimension read unsigned exceeds its sphere's, so one unsigned
    comparison makes both checks."""
    return dims.view(np.uint64) > sphere.view(np.uint64)


def _times_binomial(x: np.ndarray, e: int, n: int) -> np.ndarray:
    """Multiply by (1 - t^e)^n along axis 0, truncated at the array's end:
    n factors, each new[a] = x[a] - x[a - e]."""
    for _ in range(n):
        x = np.concatenate((x[:e], x[e:] - x[:-e]))
    return x


def _series_tables(group: QuotientGroup, degree: int, truncated: bool = False) -> tuple[np.ndarray, np.ndarray, int]:
    """The folded h-vector table G to this degree, its column weights w and
    its blocks' summed |weight|.  An orbit of element order o has angles
    (E / o) a and an h-vector over Z/o; the trace of h_p(conj g) h_q(g)
    down from Q(zeta_E) is phi(E) / phi(o) times the sum of
    mu(o / d) d <h_p mod d, h_q mod d> over _ramanujan_divisors(o), h mod d
    summing h into d residues.  So the orbit, of summed multiplicity m,
    holds a block h mod d of weight m (phi(E) / phi(o)) mu(o / d) d per d.
    Row x stands for degree x - 1: the zero row 0 makes the (p - 1, q - 1)
    term vanish at p = 0 or q = 0.  Truncated, each block is multiplied by
    (1 - z^E)^n along the degrees, so that its row of degree x counts the
    tuples j in [0, E)^n summing to x by residue: non-negative, each block
    of a row summing to the same count, and each column to at most E^n.
    The table and one orbit's h-vectors are counted against the budget
    before either is allocated; a truncated table's intermediates, at most
    2^n C(degree + n - 1, n - 1), and its row sums are bounded below 2^63
    first, a plain table's entries by the caller's _monomial_row."""
    E, n = group.exponent, group.n
    orbits = [(key, E // math.gcd(E, *key), mult) for key, mult in _rational_classes(group)]
    width = sum(d for _, o, _ in orbits for d, _ in _ramanujan_divisors(o))
    entries = (degree + 2) * width + (degree + 1) * max(o for _, o, _ in orbits)
    if entries > MAX_SERIES_ENTRIES:
        raise SizeLimit(f"the series table of {group.name} needs at least {entries} int64 entries, "
                        f"above the budget of {MAX_SERIES_ENTRIES}")
    if truncated:
        _require_int64(max(2 ** n * math.comb(degree + n - 1, n - 1), width * E ** n))
    G = np.zeros((degree + 2, width), dtype=np.int64)
    w = np.empty(width, dtype=np.int64)
    col = abs_weight = 0
    for key, o, mult in orbits:
        h = _h_vectors([k * o // E for k in key], o, degree)
        for d, mu in _ramanujan_divisors(o):
            block = G[1:, col:col + d]
            h.reshape(degree + 1, o // d, d).sum(axis=1, out=block)
            if truncated:
                block[:] = _times_binomial(block, E, n)
            weight = mult * (_totient(E) // _totient(o)) * mu * d
            w[col:col + d] = weight
            abs_weight += abs(weight)
            col += d
        del h       # before the next orbit's h-vectors, as the budget counts one orbit's
    return G, w, abs_weight


def _direct_dims(group: QuotientGroup, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The n >= 3 dimensions at cells p, q >= 0 of a group with no
    MolienTable: the character is h_p(conj g) h_q(g) - h_(p-1)(conj g)
    h_(q-1)(g), so each cell's weighted trace sum is (G[q] w) . G[p] -
    (G[q-1] w) . G[p-1], rows of _series_tables' plain table to the largest
    p or q, a block of cells at a time.  Each block of a row of degree x
    sums to its C_x monomials, so every partial sum of a cell's two terms
    stays below 2 |w| C_p C_q, |w| the summed |weight|: a cell where that
    may reach 2^63 is refused, after _monomial_row's refusals.  Each cell is
    gated against its sphere dimension in its block, so that the scratch
    beside the answer is one block's."""
    C = _monomial_row(group.n, p, q)
    G, w, abs_weight = _series_tables(group, int(max(p.max(), q.max())))
    limit = ((1 << 63) - 1) // (2 * abs_weight)
    i = _first_cell(lambda p, q: np.take(C[1:], p) > limit // np.take(C[1:], q), p, q)
    if i is not None:
        raise Int64Limit(f"exact integer intermediate 2 |w| C_p C_q at (p,q)=({p[i]},{q[i]}) may reach 2^63, "
                         f"beyond int64")
    denom = _totient(group.exponent) * group.order
    dims = np.empty(len(p), dtype=np.int64)
    block = max(1, _BLOCK_ENTRIES // len(w))
    for i in range(0, len(p), block):
        a, b = p[i:i + block], q[i:i + block]
        traces = np.einsum("ij,j,ij->i", G[b + 1], w, G[a + 1]) - np.einsum("ij,j,ij->i", G[b], w, G[a])
        d = traces // denom
        bad = (traces != d * denom) | _outside(d, _sphere(C, a, b))
        j = int(bad.argmax())
        if bad[j]:
            raise NonIntegralDimension(
                f"{group.name} at (p,q)=({a[j]},{b[j]}): weighted trace sum {traces[j]} "
                f"is not {denom} times a dimension in [0, sphere dim]"
            )
        dims[i:i + block] = d
    return dims


def dim_cells(group: QuotientGroup, p, q) -> np.ndarray:
    """Invariant dimensions at the cells (p[i], q[i]) in one exact
    evaluation, 0 at a cell with p < 0 or q < 0; beside the cells and the
    answer, transient memory stays at one block of at most _BLOCK_ENTRIES
    cells, through period_table.  For n = 2 each is
    base + (p // E + q // E) step[(q - p) mod E], base read from the table
    once a request that period_route allows has filled it, and until then
    traced and checked at the request's own residues.  For n >= 3 each is
    read from the group's MolienTable, or, for a group whose product does
    not fit, traced by _direct_dims; either gates it against its sphere
    dimension."""
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
    if group.n == 2:
        # every dimension is at most the sphere's p + q + 1, which fits
        # int64 exactly where p <= 2^63 - 2 - q
        if (int(p.max()) + int(q.max()) > 2**63 - 2
                and _first_cell(lambda p, q: p > 2**63 - 2 - q, p, q) is not None):
            raise Int64Limit("exact integer intermediate p + q + 1 may reach 2^63, beyond int64")
        return period_table(group, len(p)).read(p, q)
    try:
        table = period_table(group, len(p))
    except SizeLimit:       # Int64Limit included: the group has no table
        return _direct_dims(group, p, q)
    return table.read(p, q)


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
