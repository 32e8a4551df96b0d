"""Invariant-subspace dimensions: one exact engine and the closed forms.

The invariant dimension at bidegree (p, q) is the class-weighted average of
the character of the harmonic space over the group.  Each character value is
an integer combination of E-th roots of unity, E the group exponent; the
engine replaces it by its Galois trace down to the rationals, an integer sum
of Ramanujan sums c_E.  The average is then the exact quotient of the
weighted trace sum by phi(E) |G|: a sum that is not divisible, or a quotient
outside [0, sphere_dim], raises NonIntegralDimension.  No float enters.

dim_cells evaluates whole arrays of cells in one call, dim_triangle every
cell with p + q <= pq_max; dim_invariant is the memoised single-cell entry
point.  Every enumeration of cells counts them against one cell budget
before it allocates.  dim_closed_form evaluates the per-family
piecewise formulas; reconcile checks the two against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NonIntegralDimension, SizeLimit, UnsupportedFamily
from .genfun import _exact_matmul, _h_vectors, _magnitude, _ramanujan_row, _require_int64, _totient, exponent
from .group_catalog import QuotientGroup

# int64 entries per transient array while evaluating a block of cells (128 kB)
_BLOCK_ENTRIES = 1 << 14

# most cells one enumeration may hold: building a spectrum table peaks near
# 80 bytes per cell, so the budget caps one table near 0.35 GB
MAX_CELLS = 1 << 22


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


def _sphere_dims(p: np.ndarray, q: np.ndarray, n: int) -> np.ndarray:
    """sphere_dim elementwise: C(p+n-1, n-1) C(q+n-1, n-1) minus the same at
    (p-1, q-1)."""
    def binom(x):   # C(x + n - 1, n - 1), exact at every step, 0 at x = -1
        out = np.ones_like(x)
        for i in range(1, n):
            out = out * (x + i) // i
        return out
    p_max, q_max = int(p.max(initial=0)), int(q.max(initial=0))
    _require_int64(math.comb(p_max + n - 1, n - 1) * math.comb(q_max + n - 1, n - 1))
    return binom(p) * binom(q) - binom(p - 1) * binom(q - 1)


class _ProgressionTraces:
    """Galois traces of the n = 2 characters, for every class of one group.

    For n = 2 the character at a class with integer angles (k1, k2) mod E is
    the progression sum of zeta^(base + j step), j = 0..p+q, with
    base = q k2 - p k1 and step = k1 - k2.  The residues mod E fall into
    gcd(step, E) cycles of r -> r + step, each of length period.  Prefix sums
    of c_E along each cycle, stored twice over, turn a run starting anywhere
    into one difference; O(E) integers per distinct step.  A whole period
    traces to 0 unless step = 0 (period 1)."""

    def __init__(self, group: QuotientGroup, E: int):
        ram = _ramanujan_row(E)
        k = np.array([[int(a * E) % E for a in c.angles] for c in group.classes], dtype=np.int64)
        self.E = E
        self.k1, self.k2 = k[:, :1], k[:, 1:]
        self.mult = np.array([c.mult for c in group.classes], dtype=np.int64)
        steps = ((k[:, 0] - k[:, 1]) % E).tolist()
        # per distinct step: pos maps a residue to its prefix-sum slot in pre
        pos_parts, pre_parts, table_of = [], [], {}
        for step in dict.fromkeys(steps):
            cycles = math.gcd(step, E)
            period = E // cycles
            seq = (np.arange(cycles)[:, None] + step * np.arange(2 * period)) % E
            pre = np.zeros((cycles, 2 * period + 1), dtype=np.int64)
            np.cumsum(ram[seq], axis=1, out=pre[:, 1:])
            pos = np.empty(E, dtype=np.int64)
            offset = sum(map(len, pre_parts))
            pos[seq[:, :period]] = offset + np.arange(cycles)[:, None] * (2 * period + 1) + np.arange(period)
            table_of[step] = (E * len(pos_parts), period)
            pos_parts.append(pos)
            pre_parts.append(pre.ravel())
        self.pos = np.concatenate(pos_parts)
        self.pre = np.concatenate(pre_parts)
        self.pos_offset = np.array([[table_of[s][0]] for s in steps], dtype=np.int64)
        self.period = np.array([[table_of[s][1]] for s in steps], dtype=np.int64)
        self.bound = group.order * _totient(E)

    def weighted_traces(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        length = p + q + 1
        _require_int64(self.bound * (int(length.max()) + self.E))
        start = self.pos[self.pos_offset + (q * self.k2 - p * self.k1) % self.E]
        whole, part = np.divmod(length, self.period)
        traces = whole * (self.pre[start + self.period] - self.pre[start])
        traces += self.pre[start + part] - self.pre[start]
        return self.mult @ traces


def _su2_traces(group: QuotientGroup, E: int, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    if group._trace_tables is None:
        group._trace_tables = _ProgressionTraces(group, E)
    tables = group._trace_tables
    block = max(1, _BLOCK_ENTRIES // len(group.classes))
    return np.concatenate([
        tables.weighted_traces(p[i:i + block], q[i:i + block]) for i in range(0, len(p), block)
    ])


def _series_traces(group: QuotientGroup, E: int, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Weighted traces from the h-vector series, class by class: the
    character is h_p(conj g) h_q(g) - h_(p-1)(conj g) h_(q-1)(g), and the
    trace of a product of exponent-count vectors a, b is a . CE . b with
    CE[r1, r2] = c_E(r1 + r2)."""
    ram = _ramanujan_row(E)
    CE = ram[np.add.outer(np.arange(E), np.arange(E)) % E]
    zero = np.zeros((1, E), dtype=np.int64)
    out = np.zeros(len(p), dtype=np.int64)
    block = max(1, _BLOCK_ENTRIES // E)
    for cls in group.classes:
        ks = [int(a * E) % E for a in cls.angles]
        # a trailing zero row makes index -1, the (p-1, q-1) term at p = 0 or q = 0, vanish
        AC = np.vstack([_exact_matmul(_h_vectors([-k % E for k in ks], E, int(p.max())), CE), zero])
        B = np.vstack([_h_vectors(ks, E, int(q.max())), zero])
        _require_int64(2 * group.order * _magnitude(AC) * _magnitude(B) * E)
        for i in range(0, len(p), block):
            pb, qb = p[i:i + block], q[i:i + block]
            out[i:i + block] += cls.mult * (AC[pb] * B[qb] - AC[pb - 1] * B[qb - 1]).sum(axis=1)
    return out


def dim_cells(group: QuotientGroup, p, q) -> np.ndarray:
    """Invariant dimensions at the cells (p[i], q[i]), all nonnegative, in one
    exact evaluation; transient memory stays at a few MB per block of cells."""
    p = np.asarray(p, dtype=np.int64)
    q = np.asarray(q, dtype=np.int64)
    if not len(p):
        return np.zeros(0, dtype=np.int64)
    E = exponent(group)
    traces = (_su2_traces if group.n == 2 else _series_traces)(group, E, p, q)
    denom = _totient(E) * group.order
    dims, residue = np.divmod(traces, denom)
    bad = np.flatnonzero((residue != 0) | (dims < 0) | (dims > _sphere_dims(p, q, group.n)))
    if len(bad):
        i = bad[0]
        raise NonIntegralDimension(
            f"{group.name} at (p,q)=({p[i]},{q[i]}): weighted trace sum {traces[i]} "
            f"is not {denom} times a dimension in [0, sphere dim]"
        )
    return dims


def dim_triangle(group: QuotientGroup, pq_max: int) -> list[tuple[int, int, int]]:
    """(p, q, dim) for every cell with p + q <= pq_max, by ascending p + q and
    then p, from one dim_cells call."""
    p, q = triangle_cells(pq_max)
    return list(zip(p.tolist(), q.tolist(), dim_cells(group, p, q).tolist()))


def dim_invariant(group: QuotientGroup, p: int, q: int) -> int:
    """Dimension of the group-invariant subspace of the bidegree-(p, q)
    harmonic space: dim_cells at one cell, memoised per group."""
    key = (p, q)
    cached = group._dim_cache.get(key)
    if cached is not None:
        return cached
    if p < 0 or q < 0:
        return 0
    dim = int(dim_cells(group, [p], [q])[0])
    group._dim_cache[key] = dim
    return dim


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


def closed_form_q_semidirect(l: int, p: int, q: int) -> int:
    d = q - p
    first = Fraction(closed_form_binary_dihedral(2, p, q), 3) if d % (6 * l) == 0 else Fraction(0)
    r = d % (18 * l)
    twist = 2 if r == 0 else (-1 if r in (6 * l, 12 * l) else 0)
    s = p + q
    bump = 2 if s % 6 == 0 else (-2 if s % 6 == 4 else 0)
    total = first + Fraction(twist * bump, 6)
    assert total.denominator == 1
    return int(total)


def closed_form_cyclic_semidirect(m: int, l: int, p: int, q: int) -> int:
    d = q - p
    first = Fraction(closed_form_cyclic(2 * m, p, q), 2) if d % (2 * l) == 0 else Fraction(0)
    r = d % (4 * l)
    twist = 1 if r == 0 else (-1 if r == 2 * l else 0)
    total = first + Fraction(twist * _sign_mod4(p + q), 2)
    assert total.denominator == 1
    return int(total)


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
    group: QuotientGroup
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
    return ReconcileReport(group, pq_ceiling, mismatches)
