"""Reference implementations that only the tests use.

Exact characters of the harmonic bidegree spaces: the space of bidegree
(p, q) on the sphere in C^n has a basis indexed by the admissible
multiindex pairs (alpha, beta), |alpha| = p, |beta| = q, alpha_1 = 0 or
beta_1 = 0.  A diagonal unitary with eigenvalue angles t acts on the basis
element of (alpha, beta) by the root of unity with angle (beta - alpha) . t,
so char_general sums those angles into a formal integer combination of roots
of unity.  The engine in :mod:`kohnspec.invariant_dims` never builds
characters; the tests check its dimensions and the oracle's traces against
these.  fraction_angles reads a class's integer angles k over the group
exponent E as the Fractions k/E of a turn that char_general takes, and
class_multiset and element_orders are the structural fingerprints built on
them.  exact_matmul is the overflow-guarded int64 product of the per-class
E x E Ramanujan kernel that the n >= 3 engine is checked against, and
mobius, by trial division, checks the engine's Ramanujan divisor signs.
pg_expansion and reconstruct_expansion expand (z^e - 1)^n (w^e - 1)^n and
its inverse series term by term, one shifted 2-D block per pair of binomial
terms; genfun's one-axis operators are checked against them.

series_dims is the n >= 3 band kernel, the independent check of the
Molien tables: the traces T = (G w) G^T of plain h-vectors to each cell's
own degree, formed over bands of the q-sorted cells whose bounding boxes
hold at most about twice their cells, each cell reading
T[p, q] - T[p-1, q-1].  It shares the engine's series table but not its
truncation, its product over the classes or its binomial expansion.

The oracle's independent reference lives here: the harmonic space as the
kernel of the Laplacian, built monomial by monomial on the whole monomial
space of bidegree (p, q), stacked over the actions of all generators as
N x N matrices; ReductionError, raised only here, flags a Laplacian whose
rank mod the prime falls short.  Production (:mod:`kohnspec.oracle`) takes
no Laplacian: it differences the invariant dimensions of all polynomials of
bidegrees (p, q) and (p-1, q-1), each eliminated only on the monomials the
diagonal generators fix; the tests compare the two cell by cell.
invariant_dim_bruteforce is that difference for one cell, as the tests
call it.

sphere_dim is the sphere dimension as a difference of monomial counts, in
Python integers; sphere_dims is Folland's product form in int64, apart from
the engine's difference form.  The sphere's own spectrum table, from
sphere_dims cell by cell, checks the sphere counts of :func:`kohnspec.spectrum.weyl_report` and its
closed floor-run sum :func:`kohnspec.spectrum.sphere_count`; weyl_report_cells is
the report counted cell by cell, as weyl_report counts a group without a
period table; the Gauss-Legendre quadrature checks the exact Weyl integral,
and tail_bound_holds states the tail bound for a group.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from kohnspec.errors import KohnspecError, NonIntegralDimension, SizeLimit, _require_int64
from kohnspec.genfun import PGPolynomial
from kohnspec.group_catalog import Angle, ConjugacyClass, QuotientGroup
from kohnspec.invariant_dims import _monomial_row, _series_tables, _sphere, _totient
from kohnspec.oracle import (_BASIS_LIMIT, ElementAction, _poly_dim, _prime, _rank, modular_image,
                             monomial_exponents)
from kohnspec.spectrum import (
    SpectrumTable,
    WeylReport,
    _cells,
    _within_tail_bound,
    counting_function,
    sphere_volume,
    weyl_constant,
    xi_bound,
)


def mobius(n: int) -> int:
    """The Moebius function by trial division."""
    out, d = 1, 2
    while n > 1:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return out


def fraction_angles(group: QuotientGroup, c: ConjugacyClass) -> tuple[Fraction, ...]:
    """The class's angles as Fractions k/E of a turn, E the group exponent."""
    return tuple(Fraction(k, group.exponent) for k in c.angles)


def class_multiset(group: QuotientGroup) -> Counter:
    """Multiset of eigenvalue-angle tuples, each sorted within the tuple.

    Canonical structural fingerprint: two groups with equal multisets have
    identical characters on every bidegree space.
    """
    out: Counter = Counter()
    for c in group.classes:
        out[tuple(sorted(fraction_angles(group, c)))] += c.mult
    return out


def element_orders(group: QuotientGroup) -> Counter:
    """Multiset of element orders: each class's lcm of angle denominators."""
    out: Counter = Counter()
    for c in group.classes:
        out[math.lcm(*(a.denominator for a in fraction_angles(group, c)))] += c.mult
    return out


def sphere_dim(p: int, q: int, n: int) -> int:
    """Dimension of the bidegree-(p, q) harmonic space on the sphere in C^n."""
    if p < 0 or q < 0:
        return 0
    full = math.comb(p + n - 1, n - 1) * math.comb(q + n - 1, n - 1)
    lower = math.comb(p + n - 2, n - 1) * math.comb(q + n - 2, n - 1)
    return full - lower


def sphere_dims(p: np.ndarray, q: np.ndarray, n: int) -> np.ndarray:
    """sphere_dim elementwise, in Folland's product form (p + q + n - 1)
    C(p + n - 2, n - 2) C(q + n - 2, n - 2) / (n - 1), in int64 after that
    product at the largest p and q rules out overflow."""
    x, y = int(p.max(initial=0)), int(q.max(initial=0))
    _require_int64((x + y + n - 1) * math.comb(x + n - 2, n - 2) * math.comb(y + n - 2, n - 2))
    a = b = 1     # C(x + i, i) at x = p and q after step i, exact at every step
    for i in range(1, n - 1):
        a, b = a * (p + i) // i, b * (q + i) // i
    return (p + q + n - 1) * a * b // (n - 1)


def exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integer matrix product in int64, formed only after the bound
    max|a| * max|b| * inner < 2^63 rules out overflow."""
    _require_int64(int(np.abs(a).max(initial=0)) * int(np.abs(b).max(initial=0)) * a.shape[1])
    return a @ b


def pg_expansion(F: np.ndarray, n: int, e: int) -> np.ndarray:
    """P = F (z^e - 1)^n (w^e - 1)^n / (1 - zw) on F's square by the binomial
    expansion: one shifted copy of F per pair of terms C(n, j) (-1)^(n - j)
    z^(j e), then running sums down the diagonals."""
    size = len(F)
    P = np.zeros((size, size), dtype=np.int64)
    shifts = [(j, math.comb(n, j) * (-1) ** (n - j)) for j in range(n + 1)]
    for jz, cz in shifts:
        for jw, cw in shifts:
            dz, dw = jz * e, jw * e
            if dz >= size or dw >= size:
                continue
            P[dz:, dw:] += cz * cw * F[: size - dz, : size - dw]
    for a in range(1, size):
        P[a, 1:] += P[a - 1, :-1]
    return P


def reconstruct_expansion(poly: PGPolynomial, ceiling: int) -> np.ndarray:
    """F = (1 - zw) P / ((1 - z^e)^n (1 - w^e)^n) on the square p, q <=
    ceiling by the binomial series: one shifted copy of (1 - zw) P per pair
    of terms C(k + n - 1, n - 1) z^(k e)."""
    n, e, size = poly.group.n, poly.e, ceiling + 1
    padded = np.zeros((size, size), dtype=np.int64)
    d = min(size, poly.degree + 1)
    padded[:d, :d] = poly.coeffs[:d, :d]
    U = padded.copy()
    U[1:, 1:] -= padded[:-1, :-1]
    F = np.zeros((size, size), dtype=np.int64)
    coeff = [math.comb(k + n - 1, n - 1) for k in range(size // e + 1)]
    for jz, cz in enumerate(coeff):
        for jw, cw in enumerate(coeff):
            dz, dw = jz * e, jw * e
            if dz >= size or dw >= size:
                continue
            F[dz:, dw:] += cz * cw * U[: size - dz, : size - dw]
    return F


# a band of cells may compute this many entries beyond twice its cells
BAND_SLACK = 64

# int64 entries per chunk of a band's rows
BLOCK_ENTRIES = 1 << 14


def bands(p: np.ndarray, q: np.ndarray):
    """Runs of the cells, sorted by q, as (start, stop, least p, largest p).
    A run never splits a row q, and it ends before the row that would make
    its bounding box hold more than twice its cells plus BAND_SLACK; only a
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
            over = np.flatnonzero(box > 2 * (ends[first:last] - starts[first]) + BAND_SLACK)
            if len(over) or last == rows:
                break
            width *= 2
        run = max(1, int(over[0])) if len(over) else last - first
        yield int(starts[first]), int(ends[first + run - 1]), int(lo[run - 1]), int(hi[run - 1])
        first += run


def series_traces(group: QuotientGroup, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted traces from the h-vector series, and the monomial row C.
    The character is h_p(conj g) h_q(g) - h_(p-1)(conj g) h_(q-1)(g), so
    T = (G w) G^T sums the weighted traces of the first product over the
    rational classes, and cell (p, q) reads T[p, q] - T[p-1, q-1].  T is
    formed one band of cells at a time, in chunks of rows q near
    BLOCK_ENTRIES entries, once the band's own rows bound every entry it
    reads below 2^63; a chunk reads its cells, sorted by q unless they
    already are, in one flat gather."""
    C = _monomial_row(group.n, p, q)
    G, w, abs_weight = _series_tables(group, int(max(p.max(), q.max())))
    order = None if (q[1:] >= q[:-1]).all() else np.argsort(q, kind="stable")
    p, q = (p, q) if order is None else (p[order], q[order])
    traces = np.empty(len(p), dtype=np.int64)
    for start, stop, lo, hi in bands(p, q):
        q_lo, q_hi = int(q[start]), int(q[stop - 1])
        # the band reads rows lo .. hi + 1 as p, q_lo .. q_hi + 1 as q.  Each block of the row
        # of degree x sums to its C(x + n - 1, n - 1) monomials, so G[p] |w| is at most that
        # count at x = hi times abs_weight, and no partial sum of (G[q] w) . G[p] exceeds it times max G[q]
        _require_int64(2 * math.comb(hi + group.n - 1, group.n - 1) * abs_weight
                       * int(G[q_lo:q_hi + 2].max()))
        cols = G[lo:hi + 2].T       # columns p = lo - 1 .. hi
        width = hi - lo + 1
        step = max(1, BLOCK_ENTRIES // (width + 1))
        for q0 in range(q_lo, q_hi + 1, step):
            i, j = start + np.searchsorted(q[start:stop], [q0, q0 + step])
            if i == j:
                continue
            T = (G[q0:min(q0 + step, q_hi + 1) + 1] * w) @ cols      # rows q = q0 - 1 .. min(q0 + step - 1, q_hi)
            D = T[1:, 1:] - T[:-1, :-1]     # D[q - q0, p - lo] is cell (p, q)'s T[p, q] - T[p-1, q-1]
            traces[slice(i, j) if order is None else order[i:j]] = D.ravel()[(q[i:j] - q0) * width + (p[i:j] - lo)]
    return traces, C


def series_dims(group: QuotientGroup, p, q) -> np.ndarray:
    """The band kernel's dimensions at cells p, q >= 0: each cell traced
    and gated against its sphere dimension."""
    p, q = np.asarray(p, dtype=np.int64), np.asarray(q, dtype=np.int64)
    denom = _totient(group.exponent) * group.order
    traces, C = series_traces(group, p, q)
    dims = traces // denom
    bad = np.flatnonzero((traces != dims * denom) | (dims < 0) | (dims > _sphere(C, p, q)))
    if len(bad):
        i = bad[0]
        raise NonIntegralDimension(
            f"{group.name} at (p,q)=({p[i]},{q[i]}): weighted trace sum {traces[i]} "
            f"is not {denom} times a dimension in [0, sphere dim]"
        )
    return dims


def series_square(group: QuotientGroup, ceiling: int) -> np.ndarray:
    """F[p, q] for p, q <= ceiling from the band kernel."""
    p, q = np.indices((ceiling + 1, ceiling + 1), dtype=np.int64)
    return series_dims(group, p.ravel(), q.ravel()).reshape(p.shape)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def admissible_pairs(p: int, q: int, n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (alpha, beta) with |alpha| = p, |beta| = q, alpha_1 = 0 or beta_1 = 0.

    The number of pairs equals ``sphere_dim(p, q, n)``.
    """
    betas_all = list(_compositions(q, n))
    betas_b1_zero = [b for b in betas_all if b[0] == 0]
    for alpha in _compositions(p, n):
        betas = betas_all if alpha[0] == 0 else betas_b1_zero
        for beta in betas:
            yield alpha, beta


@dataclass
class CharacterValue:
    """Formal integer combination of roots of unity: angle -> count."""

    terms: dict[Angle, int]

    def __post_init__(self):
        self.terms = {a: c for a, c in self.terms.items() if c != 0}

    def term_count(self) -> int:
        return sum(self.terms.values())

    def conjugate(self) -> "CharacterValue":
        return CharacterValue({(-a) % 1: c for a, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, CharacterValue):
            return self.terms == other.terms
        return NotImplemented


def char_general(p: int, q: int, angles: Sequence[Angle]) -> CharacterValue:
    """Character at an element with the given eigenvalue angles, by direct
    summation over admissible pairs.  Works in any dimension n = len(angles)."""
    n = len(angles)
    counts: Counter[Angle] = Counter()
    for alpha, beta in admissible_pairs(p, q, n):
        term = sum((b - a) * t for a, b, t in zip(alpha, beta, angles)) % 1
        counts[term] += 1
    return CharacterValue(dict(counts))


@dataclass
class BidegreeSpace:
    """Monomial model of the bidegree-(p, q) polynomials with the Laplacian
    down to (p-1, q-1), as an integer matrix."""

    n: int
    p: int
    q: int
    basis: list[tuple[tuple[int, ...], tuple[int, ...]]]
    laplacian: np.ndarray        # maps (p, q) coefficients to (p-1, q-1)

    @property
    def kernel_dim(self) -> int:
        """Dimension of the harmonic kernel: N minus the Laplacian's rank,
        taken mod the oracle prime of the trivial group."""
        ell = _prime(1, _BASIS_LIMIT, ())
        return len(self.basis) - _rank(self.laplacian % ell, ell)


def build_space(n: int, p: int, q: int) -> BidegreeSpace:
    """Monomial basis and Laplacian for bidegree (p, q)."""
    a_monos = monomial_exponents(p, n)
    b_monos = monomial_exponents(q, n)
    size = len(a_monos) * len(b_monos)
    if size > _BASIS_LIMIT:
        raise SizeLimit(f"bidegree ({p},{q}) basis of size {size} exceeds {_BASIS_LIMIT}")
    basis = [(a, b) for a in a_monos for b in b_monos]
    if p == 0 or q == 0:
        return BidegreeSpace(n, p, q, basis, np.zeros((0, size), dtype=np.int64))
    a_prev = monomial_exponents(p - 1, n)
    b_prev = monomial_exponents(q - 1, n)
    prev_index = {(a, b): i for i, (a, b) in enumerate((a, b) for a in a_prev for b in b_prev)}
    lap = np.zeros((len(a_prev) * len(b_prev), size), dtype=np.int64)
    for col, (a, b) in enumerate(basis):
        for i in range(n):
            if a[i] == 0 or b[i] == 0:
                continue
            ar = list(a)
            br = list(b)
            ar[i] -= 1
            br[i] -= 1
            lap[prev_index[(tuple(ar), tuple(br))], col] += 4 * a[i] * b[i]
    return BidegreeSpace(n, p, q, basis, lap)


class ReductionError(KohnspecError):
    """Reduction mod the oracle's prime lost rank: the Laplacian's rank mod
    the prime fell below its rank over the rationals."""


def invariant_dim_reference(group: QuotientGroup, p: int, q: int,
                            actions: list[ElementAction] | None = None) -> int:
    """N minus the rank mod ell of the Laplacian stacked over A_g - I for
    every generator g, after checking the Laplacian's own rank."""
    actions = actions or modular_image(group).actions()
    ell = actions[0].ell
    space = build_space(group.n, p, q)
    size = len(space.basis)
    lap_rank = _rank(space.laplacian % ell, ell)
    expected = size - sphere_dim(p, q, group.n)
    if lap_rank != expected:
        raise ReductionError(
            f"{group.name}: Laplacian at ({p},{q}) has rank {lap_rank} mod {ell}, expected {expected}"
        )
    ident = np.eye(size, dtype=np.int64)
    stacked = np.vstack([space.laplacian % ell] + [(a.matrix(p, q) - ident) % ell for a in actions])
    return size - _rank(stacked, ell)


def invariant_dim_bruteforce(group: QuotientGroup, p: int, q: int,
                             actions: list[ElementAction] | None = None) -> int:
    """The invariant harmonic dimension at (p, q), d_P(p, q) - d_P(p-1, q-1),
    one cell at a time from the oracle's own d_P."""
    actions = actions or modular_image(group).actions()
    lower = _poly_dim(actions, group.n, p - 1, q - 1) if p and q else 0
    return _poly_dim(actions, group.n, p, q) - lower


def trace_bruteforce(action: ElementAction, p: int, q: int) -> int:
    """Trace mod ell of an element's action on the harmonic (p, q) space:
    the monomial trace at (p, q) minus the one at (p-1, q-1)."""
    total = int(np.trace(action.holo[p])) * int(np.trace(action.anti[q]))
    if p >= 1 and q >= 1:
        total -= int(np.trace(action.holo[p - 1])) * int(np.trace(action.anti[q - 1]))
    return total % action.ell


def sphere_counting_table(n: int, lambda_max: int) -> SpectrumTable:
    """Spectrum table of the sphere itself, from the exact sphere dimensions."""
    p, q = _cells(n, lambda_max)
    return SpectrumTable(lambda_max, n, p, q, sphere_dims(p, q, n))


def weyl_report_cells(group: QuotientGroup, grid: list[int]) -> WeylReport:
    """weyl_report with both counts read from spectrum tables: the group's
    counting table and the sphere's table on the same cells."""
    n, lam_max = group.n, grid[-1]
    table = counting_function(group, lam_max)
    sphere = SpectrumTable(lam_max, n, table._p, table._q, sphere_dims(table._p, table._q, n))
    n_quot = [table.count(lam) for lam in grid]
    n_sph = [sphere.count(lam) for lam in grid]
    xi = [xi_bound(Fraction(lam, 2), n) for lam in grid]
    const = weyl_constant(n)
    empirical = n_quot[-1] / lam_max**n
    richardson = empirical
    if len(grid) >= 2 and 1 <= grid[-2] != lam_max:
        l1, l2 = grid[-2], grid[-1]
        richardson = (n_quot[-1] / l2**n * l2 - n_quot[-2] / l1**n * l1) / (l2 - l1)
    return WeylReport(grid, n_quot, n_sph, [ns / ng if ng else math.inf for ns, ng in zip(n_sph, n_quot)], xi,
                      [_within_tail_bound(group.order, ng, ns, x) for ng, ns, x in zip(n_quot, n_sph, xi)],
                      const, const * sphere_volume(n) / group.order, empirical, richardson)


def tail_bound_holds(group: QuotientGroup, half_cutoff: int,
                     n_quotient: int, n_sphere: int) -> bool:
    """Exact integer check of |N_G(2 lam) - N_S(2 lam)/|G|| <= (|G|-1) Xi_lam."""
    return _within_tail_bound(group.order, n_quotient, n_sphere, xi_bound(half_cutoff, group.n))


def _weyl_integrand(tau: float, n: int) -> float:
    if tau == 0.0:
        return 1.0
    # one exp of the summed logarithms: e^{-(n-2) tau} alone overflows at
    # tau = -60 once n >= 14, though the product is small
    return math.exp(n * math.log(tau / math.sinh(tau)) - (n - 2) * tau)


def weyl_integral(n: int) -> float:
    """I(n) by composite fixed-order Gauss-Legendre quadrature on [-60, 60]:
    the independent numerical check of weyl_integral_coefficients.  The
    integrand decays like |tau|^n e^{-2|tau|}."""
    T = 60
    nodes, weights = np.polynomial.legendre.leggauss(40)
    total = 0.0
    for k in range(-T, T):
        x = k + 0.5 + 0.5 * nodes
        vals = [_weyl_integrand(float(t), n) for t in x]
        total += 0.5 * float(np.dot(weights, vals))
    return total
