"""Eigenvalue multiplicities, counting functions, and Weyl-law verification.

The positive spectrum on a quotient consists of the eigenvalues 2q(p + n - 1)
for q >= 1, each with multiplicity the sum of the invariant dimensions of the
contributing bidegree spaces.  The counting function N(lam) is compared
against the sphere count divided by the group order, with the exact
binomial-sum tail bound, and against the Weyl constant, an exact polynomial
in pi rounded once.

Spectrum tables sum the dimensions of every cell under the hyperbola; they
serve listings, comparisons and n >= 3.  For n = 2, weyl_report counts from
the group's period table by Dirichlet's hyperbola method, O(sqrt(lam)) line
sums per cutoff and no cell, and the sphere from the sphere's own table; for
n >= 3 it counts the sphere by one closed floor-run sum per cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .group_catalog import CACHE_SIZE, QuotientGroup, make_trivial
from .errors import ConstraintError, SizeLimit, _require_int64
from .invariant_dims import _BLOCK_ENTRIES, PeriodTable, dim_cells, period_route, period_table, require_cells


def box_eigenvalue(p: int, q: int, n: int) -> int:
    """Eigenvalue of the bidegree-(p, q) harmonic space, 2q(p + n - 1)."""
    return 2 * q * (p + n - 1)


# largest eigenvalue multiplicity takes: its bidegrees come from trial
# division up to sqrt(lam/2), about 1.5 million steps at this bound
MAX_EIGENVALUE = 1 << 42


def eigenvalue_bidegrees(lam: int, n: int) -> list[tuple[int, int]]:
    """All (p, q), q >= 1, with 2q(p + n - 1) = lam, ordered by ascending q:
    one per divisor q of lam/2 with q(n - 1) <= lam/2.

    Empty for odd or non-realizable lam."""
    if lam > MAX_EIGENVALUE:
        raise SizeLimit(f"eigenvalue {lam} is above the budget of {MAX_EIGENVALUE}")
    if lam <= 0 or lam % 2 != 0:
        return []
    half = lam // 2
    small = [d for d in range(1, math.isqrt(half) + 1) if half % d == 0]
    large = [half // d for d in reversed(small) if d * d != half]
    return [(half // q - (n - 1), q) for q in small + large if q * (n - 1) <= half]


def multiplicity(group: QuotientGroup, lam: int) -> tuple[int, list[tuple[int, int]]]:
    """Multiplicity of lam in the positive spectrum, with the sphere-level
    contributor list, from one dim_cells call over the contributors.  Zero
    (with no contributors) for odd or unrealizable lam."""
    contributors = eigenvalue_bidegrees(lam, group.n)
    p, q = np.array(contributors, dtype=np.int64).reshape(-1, 2).T
    return sum(dim_cells(group, p, q).tolist()), contributors


@dataclass
class SpectrumEntry:
    eigenvalue: int
    mult: int
    contributors: list[tuple[int, int]]


class SpectrumTable:
    """Positive spectrum up to a cutoff, held as one slot per half-eigenvalue.

    ``slots[h]`` is the multiplicity of the eigenvalue 2h, for 2h <=
    lambda_max, and 0 where no bidegree space contributes.  ``entries`` keeps
    an eigenvalue of multiplicity zero whenever the sphere has a contributing
    bidegree space: explicit zeros matter for comparisons.  The slots are
    summed a block of cells at a time, so that the table's scratch is one
    block's.
    """

    def __init__(self, lambda_max, n: int, p: np.ndarray, q: np.ndarray, dims: np.ndarray):
        """Sum the dimensions of the cells from _cells into the slots of their
        half-eigenvalues q(p + n - 1), formed a block of at most
        _BLOCK_ENTRIES cells at a time; no cell is sorted."""
        _require_int64(len(dims) * int(dims.max(initial=0)))
        self.lambda_max = int(lambda_max)
        self.slots = np.zeros(max(self.lambda_max // 2, 0) + 1, dtype=np.int64)
        for i in range(0, len(dims), _BLOCK_ENTRIES):
            at = slice(i, i + _BLOCK_ENTRIES)
            np.add.at(self.slots, q[at] * (p[at] + n - 1), dims[at])
        self._cumulative = np.cumsum(self.slots)
        self._n, self._p, self._q = n, p, q

    def count(self, lam: float) -> int:
        """N(lam): number of positive eigenvalues <= lam, with multiplicity."""
        # the eigenvalues are even integers, so lam counts as its floor
        h = len(self.slots) - 1 if lam >= self.lambda_max else math.floor(lam) // 2
        return int(self._cumulative[h]) if h >= 0 else 0

    @property
    def entries(self) -> list[SpectrumEntry]:
        """One entry per eigenvalue with a contributing bidegree, in ascending
        order, its contributors by ascending q: one stable sort of the q-major
        cells by eigenvalue, done afresh on each read."""
        half = self._q * (self._p + self._n - 1)
        order = np.argsort(half, kind="stable")
        half = half[order]
        starts = np.flatnonzero(np.diff(half, prepend=0))
        heads = half[starts]
        p, q = self._p[order].tolist(), self._q[order].tolist()
        bounds = starts.tolist() + [len(p)]
        return [
            SpectrumEntry(2 * h, mult, list(zip(p[a:b], q[a:b])))
            for h, mult, a, b in zip(heads.tolist(), self.slots[heads].tolist(), bounds, bounds[1:])
        ]


def _cells(n: int, lambda_max) -> tuple[np.ndarray, np.ndarray]:
    """Every bidegree (p, q), q >= 1, with eigenvalue 2q(p + n - 1) <= lambda_max,
    row by row: by ascending q and then p."""
    half_max = int(lambda_max) // 2
    what = f"the spectrum up to lambda {lambda_max}"
    # the q = 1 row alone holds half_max - n + 2 cells: refuse a cutoff that
    # large before the per-row widths are allocated
    require_cells(half_max - n + 2, what)
    q = np.arange(1, half_max // (n - 1) + 1, dtype=np.int64)
    width = half_max // q - (n - 1) + 1
    require_cells(int(width.sum()), what)
    return _ranges(width, 0), np.repeat(q, width)


def _ranges(lengths: np.ndarray, first: int) -> np.ndarray:
    """The ranges first .. first + length - 1, concatenated."""
    return np.arange(int(lengths.sum())) - np.repeat(np.cumsum(lengths) - lengths, lengths) + first


def counting_function(group: QuotientGroup, lambda_max: int) -> SpectrumTable:
    """Assemble the spectrum table for all eigenvalues <= lambda_max."""
    p, q = _cells(group.n, lambda_max)
    return SpectrumTable(lambda_max, group.n, p, q, dim_cells(group, p, q))


# ---------------------------------------------------------------------------
# Counting by the hyperbola method, n = 2

# the sphere's own period table: dim(p, q) = 1 + (p + q) 1 = p + q + 1
_SPHERE_PERIOD = period_table(make_trivial(), 1)


def _line_sums(base: np.ndarray, step: np.ndarray):
    """sums(y, K): the sum over x = 0..K-1 of base[x mod E, y mod E] +
    (x // E + y // E) step[(y - x) mod E], elementwise over arrays y, K >= 0.
    With K = A E + R and y = b E + yr, the A whole periods give A times
    the column sum of base and S (A (A - 1) / 2 + A b), S the sum of step;
    the last R terms one prefix of base's column yr and (A + b) times one
    cyclic window of step, a difference of one prefix of step taken twice."""
    E = len(step)
    prefix = np.zeros((E, E + 1), dtype=np.int64)
    np.cumsum(base.T, axis=1, out=prefix[:, 1:])
    whole = prefix[:, E].copy()
    prefix = prefix.ravel()
    window = np.zeros(2 * E + 1, dtype=np.int64)
    np.cumsum(np.concatenate([step, step]), out=window[1:])
    S = int(step.sum())

    def sums(y: np.ndarray, K: np.ndarray) -> np.ndarray:
        b = y // E
        yr = y - b * E
        A = K // E
        R = K - A * E
        end = yr + (E + 1)
        return (A * whole[yr] + prefix[yr * (E + 1) + R] + S * (A * (A - 1 + 2 * b) // 2)
                + (A + b) * (window[end] - window[end - R]))
    return sums


def _hyperbola_cells(L: int) -> int:
    """The number of cells q(p + 1) <= L, q >= 1: the sum of L // q over
    q = 1..L, one product per run of equal floors."""
    return sum((b - a + 1) * v for a, b, v in _floor_runs(L, 1, L))


def period_counts(tables: list[PeriodTable], grid) -> list[list[int]]:
    """N(lam) for n = 2 groups with these period tables, one list per table,
    at each integer cutoff of grid, by Dirichlet's hyperbola method.  With
    L = lam // 2 and s = isqrt(L), the cells q(p + 1) <= L are the rows
    q = 1..s, p + 1 <= L // q, and the columns p + 1 <= M = L // (s + 1),
    q = s + 1..L // (p + 1): each row is one line sum of a table along p,
    each column a difference of two along q, so a cutoff costs s + 2 M <=
    3 sqrt(L) line sums per table.  They are evaluated for blocks of
    cutoffs at once, and the tables share the blocks' rows and columns."""
    half = [max(int(lam), 0) // 2 for lam in grid]
    top = max(half, default=0)
    # N and every partial sum below are at most about 2 L^2 per cutoff
    _require_int64(len(half) * 4 * (top + 1) * (top + 1 + max(t.E for t in tables)))
    # along q the roles of the axes swap, and step[(q - p) mod E] is read backwards
    sums = [(_line_sums(t.base, t.step), _line_sums(t.base.T, t.step[-np.arange(t.E)])) for t in tables]
    counts = [[] for _ in tables]
    lo = 0
    while lo < len(half):
        # the rows q = 1..s and the columns p = 0..M-1 of each cutoff in the block, cutoff by cutoff
        rows, cols, L, size = [], [], [], 0
        for x in half[lo:]:
            if rows and size > _BLOCK_ENTRIES:
                break
            s = math.isqrt(x)
            rows.append(s)
            cols.append(x // (s + 1))
            L.append(x)
            size += s + 2 * cols[-1]
        lo += len(L)
        rows, cols, L = (np.array(v, dtype=np.int64) for v in (rows, cols, L))
        q = _ranges(rows, 1)
        row_K = np.repeat(L, rows) // q
        p = _ranges(cols, 0)
        # each column reads the prefixes up to q = L // (p + 1) and q = s
        col_K = np.concatenate([np.repeat(L, cols) // (p + 1) + 1, np.repeat(rows + 1, cols)])
        p = np.concatenate([p, p])
        for (along_p, along_q), out in zip(sums, counts):
            by_col = along_q(p, col_K)
            by_col = by_col[:len(p) // 2] - by_col[len(p) // 2:]
            out += (_segment_sums(along_p(q, row_K), rows) + _segment_sums(by_col, cols)).tolist()
    return counts


def _segment_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The sums of consecutive segments of values of the given lengths."""
    ends = np.cumsum(lengths)
    total = np.concatenate([[0], np.cumsum(values)])
    return total[ends] - total[ends - lengths]


# ---------------------------------------------------------------------------
# Exact tail bound

# largest lam xi_bound takes.  The cost is O(sqrt(lam)) big-integer steps,
# a few ms at this bound; the bound admits the half-cutoff of every spectrum
# table within the cell budget
MAX_XI_CUTOFF = 1 << 22

# most decimal digits xi_bound returns: Python converts no longer int to a
# string by default, so a larger bound could not be printed
MAX_XI_DIGITS = 4300
_XI_CEILING = 10**MAX_XI_DIGITS


def _floor_runs(L: int, lo: int, hi: int):
    """(a, b, L // a) for the maximal runs a..b within lo..hi (lo >= 1) on
    which L // m is constant: O(sqrt(L)) runs."""
    a = lo
    while a <= hi:
        v = L // a
        b = min(hi, L // v)
        yield a, b, v
        a = b + 1


def sphere_count(lam: int, n: int) -> int:
    """N_S(lam), the sphere's positive eigenvalues <= lam with multiplicity,
    in closed form.  Row q >= 1 holds the cells p = 0..v - n + 1, v = L // q,
    L = floor(lam / 2), whose sphere dimensions sum to
    C(v+1, n) C(q+n-1, n-1) - C(v, n) C(q+n-2, n-1).  Over each run of
    constant v the sums over q are hockey-stick differences."""
    L = int(lam) // 2
    last = L // (n - 1)
    # the runs a..b of _floor_runs(L, 1, last), walked inline as in xi_bound;
    # as v >= n - 1, b = L // v <= last.  below, below1 = C(q+n-1, n),
    # C(q+n-2, n) at q = a, carried over from the run before
    total, below, below1, a = 0, 1, 0, 1
    while a <= last:
        v = L // a
        b = L // v
        upto, upto1 = math.comb(b + n, n), math.comb(b + n - 1, n)
        total += math.comb(v + 1, n) * (upto - below) - math.comb(v, n) * (upto1 - below1)
        below, below1, a = upto, upto1, b + 1
    return total


def xi_bound(lam, n: int) -> int:
    """Exact big-integer tail bound controlling |N_G - N_S/|G|| at cutoff 2*lam:

        sum_{m = n-1}^{L} C(m-1, n-2) [C(v+n-2, n-1) + C(v+n-1, n-1) - 1],
        v = L // m,   L = floor(lam).

    That is the sum over the lattice points m >= n-1, k >= 0 under the
    hyperbola m*k <= L of the bound's two double sums, the inner sum over k
    taken by the hockey-stick identity.  lam may be an int, a Fraction or a
    float (taken at its exact binary value); floor(lam/m) = L // m for
    integer m.  The sum runs over the O(sqrt(L)) runs of constant L // m,
    each summing C(m-1, n-2) by the hockey stick again.  An empty range
    gives 0 (the bound is only used asymptotically).  A bound of more than
    MAX_XI_DIGITS digits raises SizeLimit: before the sum when its part
    (n-1) C(L, n-1) from k = 1 already has them, else once the total does.
    """
    lam = Fraction(lam)
    if n < 2:
        raise ConstraintError("ambient dimension must be at least 2")
    if lam > MAX_XI_CUTOFF:
        raise SizeLimit(f"xi_bound needs lam <= {MAX_XI_CUTOFF}, the cutoff budget")
    L = lam.numerator // lam.denominator
    _require_xi_digits((n - 1) * math.comb(max(L, 0), n - 1), n, L)
    # the runs a..b of _floor_runs(L, n - 1, L), walked inline: a generator
    # step costs about as much as the rest of a run's work
    total, below, a = 0, 0, n - 1       # below = C(a-1, n-1), carried over from the run before
    while a <= L:
        v = L // a
        b = L // v
        upto = math.comb(b, n - 1)
        inner = math.comb(v + n - 2, n - 1)
        # C(v+n-1, n-1) = C(v+n-2, n-1) (v+n-1) / v, exactly, as v >= 1
        total += (upto - below) * (inner + inner * (v + n - 1) // v - 1)
        below, a = upto, b + 1
    _require_xi_digits(total, n, L)
    return total


def _require_xi_digits(value: int, n: int, L: int) -> None:
    if value >= _XI_CEILING:
        raise SizeLimit(f"xi_bound at n = {n}, floor(lam) = {L} has more than {MAX_XI_DIGITS} digits, "
                        f"the digit budget")


def _within_tail_bound(order: int, n_quotient: int, n_sphere: int, xi: int) -> bool:
    return abs(order * n_quotient - n_sphere) <= order * (order - 1) * xi


# ---------------------------------------------------------------------------
# Weyl constant and report

# pi to 62 decimals: the powers below stay accurate far past the 17
# significant digits a float keeps, so one rounding at the end is exact
_PI = Fraction("3.14159265358979323846264338327950288419716939937510582097494459")


def sphere_volume(n: int) -> float:
    """Volume of the unit sphere in C^n (real dimension 2n - 1)."""
    return 2 * math.pi**n / math.factorial(n - 1)


def _bernoulli(m: int) -> list[Fraction]:
    """B_0, ..., B_m from sum_{k <= j} C(j+1, k) B_k = 0."""
    B = [Fraction(1)]
    for j in range(1, m + 1):
        B.append(-sum(math.comb(j + 1, k) * B[k] for k in range(j)) / (j + 1))
    return B


def weyl_integral_coefficients(n: int) -> dict[int, Fraction]:
    """The convergence-factor integral I(n) of (tau/sinh tau)^n e^{-(n-2) tau}
    over the real line, exactly: I(n) = sum of c * pi^k over the returned
    {k: c}, k = 2, 4, ..., 2 floor(n/2).

    Splitting at 0 and expanding sinh^-n as a series gives
    I(n) = (n!/2) sum_k C(n+k-1, n-1) [(k+n-1)^(-n-1) + (k+1)^(-n-1)].
    With m(m+1)...(m+n-2) = sum_j s_j m^j (integer s_j) the odd zeta values
    and the head terms cancel, leaving I(n) = n sum_r s_(n+1-2r) zeta(2r),
    r = 1..floor(n/2), and zeta(2r) = |B_2r| (2 pi)^(2r) / (2 (2r)!)."""
    s = [1]     # coefficients of m(m+1)...(m+n-2), lowest degree first
    for i in range(n - 1):
        s = [i * c + below for c, below in zip(s + [0], [0] + s)]
    B = _bernoulli(n)
    return {
        2 * r: n * s[n + 1 - 2 * r] * 2 ** (2 * r) * abs(B[2 * r]) / (2 * math.factorial(2 * r))
        for r in range(1, n // 2 + 1)
    }


@lru_cache(maxsize=CACHE_SIZE)
def weyl_constant(n: int) -> float:
    """Constant C with N(lam)/lam^n -> C * Vol(quotient):
    C = (n - 1) I(n) / (n (2 pi)^n n!), evaluated in exact rationals with a
    62-digit pi and rounded to a float once."""
    integral = sum(c * _PI**k for k, c in weyl_integral_coefficients(n).items())
    return float((n - 1) * integral / (n * (2 * _PI) ** n * math.factorial(n)))


@dataclass
class WeylReport:
    grid: list[int]
    n_quotient: list[int]
    n_sphere: list[int]
    ratios: list[float]
    xi: list[int]
    bound_ok: list[bool]
    weyl_constant: float
    expected_limit: float      # C * Vol(sphere) / |G|
    empirical_limit: float     # N(lam_max) / lam_max^n
    richardson_limit: float    # two-point fit assuming an O(1/lam) error term


def weyl_report(group: QuotientGroup, grid) -> WeylReport:
    """Counting-function comparison against the sphere over an ascending grid
    of eigenvalue cutoffs."""
    grid = [int(x) for x in grid]
    if grid != sorted(grid):
        raise ConstraintError("grid must be ascending")
    if not grid or grid[-1] < 1:
        raise ConstraintError("grid must end at a cutoff >= 1")
    n = group.n
    lam_max = grid[-1]
    # an n = 2 group counts from its period table by the rule dim_cells
    # follows; the hyperbola holds at least L cells, so counting it up to
    # L = E^2 decides the rule.  The cell route refuses a cutoff past the
    # cell budget before xi_bound is called, the table route, which has no
    # such budget, only after, by xi_bound's own cutoff budget, and before
    # it builds the table
    E = group.exponent
    cells = _hyperbola_cells(min(lam_max // 2, E * E)) if n == 2 else 0
    tabled = n == 2 and period_route(group, cells)
    if not tabled:
        table = counting_function(group, lam_max)
        n_quot = [table.count(lam) for lam in grid]
    xi = [xi_bound(Fraction(lam, 2), n) for lam in grid]
    if tabled:
        n_quot, n_sph = period_counts([period_table(group, cells), _SPHERE_PERIOD], grid)
    elif n == 2:
        [n_sph] = period_counts([_SPHERE_PERIOD], grid)
    else:
        n_sph = [sphere_count(lam, n) for lam in grid]
    ratios = [ns / ng if ng else math.inf for ns, ng in zip(n_sph, n_quot)]
    ok = [_within_tail_bound(group.order, ng, ns, x) for ng, ns, x in zip(n_quot, n_sph, xi)]
    const = weyl_constant(n)
    expected = const * sphere_volume(n) / group.order
    empirical = n_quot[-1] / lam_max**n
    # the two-point fit needs a second positive cutoff
    if len(grid) >= 2 and 1 <= grid[-2] != lam_max:
        l1, l2 = grid[-2], grid[-1]
        v1 = n_quot[-2] / l1**n
        v2 = n_quot[-1] / l2**n
        richardson = (v2 * l2 - v1 * l1) / (l2 - l1)
    else:
        richardson = empirical
    return WeylReport(grid, n_quot, n_sph, ratios, xi, ok, const, expected, empirical, richardson)


# ---------------------------------------------------------------------------
# Isospectrality comparison


@dataclass
class SpectrumComparison:
    lambda_max: int
    eigenvalue: int | None     # least distinguishing eigenvalue, None if isospectral
    mult_a: int | None
    mult_b: int | None

    @property
    def isospectral(self) -> bool:
        return self.eigenvalue is None


def compare_spectra(a: QuotientGroup, b: QuotientGroup, lambda_max: int) -> SpectrumComparison:
    """Least eigenvalue <= lambda_max whose multiplicities differ: the first
    differing slot of the two counting tables, which share one set of cells."""
    if a.n != b.n:
        raise ConstraintError("groups must act on the same sphere")
    p, q = _cells(a.n, lambda_max)
    ta = SpectrumTable(lambda_max, a.n, p, q, dim_cells(a, p, q))
    tb = SpectrumTable(lambda_max, b.n, p, q, dim_cells(b, p, q))
    differ = np.flatnonzero(ta.slots != tb.slots)
    if not len(differ):
        return SpectrumComparison(int(lambda_max), None, None, None)
    h = int(differ[0])
    return SpectrumComparison(int(lambda_max), 2 * h, int(ta.slots[h]), int(tb.slots[h]))
