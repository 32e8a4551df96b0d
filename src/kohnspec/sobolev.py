"""Sobolev constants for the complex Green's operator on sphere quotients.

For a nonvanishing invariant bidegree (p, q) the relevant constant is
sqrt(1 + mu) / (D q (p + n - 1)) with mu = (p+q)(p+q+2n-2) the
Laplace-Beltrami eigenvalue of degree p+q; the group constant is the
supremum over nonvanishing cells.  The default convention D = 2 makes the
denominator exactly the Kohn Laplacian eigenvalue; D = 4 reproduces the
literal display some references use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConstraintError
from .genfun import dim_h0_polynomial, h0_coefficients
from .group_catalog import QuotientGroup
from .invariant_dims import dim_cells, require_cells


def laplace_eigenvalue(s: int, n: int) -> int:
    """Laplace-Beltrami eigenvalue of spherical harmonics of degree s."""
    return s * (s + 2 * n - 2)


def c_pq(p: int, q: int, n: int, convention: int = 2) -> float:
    """Cell constant sqrt(1 + mu)/(D q (p + n - 1)), q >= 1."""
    if q < 1:
        raise ConstraintError("q must be at least 1")
    if convention not in (2, 4):
        raise ConstraintError("convention must be 2 or 4")
    mu = laplace_eigenvalue(p + q, n)
    return math.sqrt(1 + mu) / (convention * q * (p + n - 1))


def c_pq_squared(p: int, q: int, n: int, convention: int = 2) -> Fraction:
    """Exact square of the cell constant, for order comparisons."""
    if q < 1:
        raise ConstraintError("q must be at least 1")
    mu = laplace_eigenvalue(p + q, n)
    return Fraction(1 + mu, (convention * q * (p + n - 1)) ** 2)


def _line_denominator(s: int, n: int, convention: int) -> int:
    """Smallest cell denominator D q (p + n - 1) on the line p + q = s: it is
    concave in q, so its minimum sits at an endpoint."""
    if s < 1:
        raise ConstraintError("s must be at least 1")
    return convention * min(s + n - 2, s * (n - 1))


def envelope(s: int, n: int, convention: int = 2) -> float:
    """Largest possible cell constant on the line p + q = s."""
    return math.sqrt(1 + laplace_eigenvalue(s, n)) / _line_denominator(s, n, convention)


def envelope_squared(s: int, n: int, convention: int = 2) -> Fraction:
    """Exact square of the envelope, for order comparisons."""
    return Fraction(1 + laplace_eigenvalue(s, n), _line_denominator(s, n, convention) ** 2)


# key of a cell that cannot be a line's best: q = 0 or dimension zero
_NO_CELL = np.iinfo(np.int64).max


@dataclass
class SobolevConstant:
    value: float
    p: int
    q: int
    convention: int
    ceiling: int
    certified: bool
    envelope_at_ceiling: float
    plateau: float          # limit of the envelope: 1/(D(n-1))
    value_squared: Fraction


def c_group(group: QuotientGroup, ceiling: int, convention: int = 2) -> SobolevConstant:
    """Maximum cell constant over nonvanishing invariant bidegrees with
    p + q <= ceiling, ties broken toward the lexicographically smallest cell.

    The triangle is read in blocks of whole lines, lines 0..15 first and
    then twice as many each round, and the scan stops after the block
    ending at line hi once the best cell so far lies strictly above the
    envelope of line hi + 1: no later cell can beat it or tie it.  With
    t = s + n - 2 the squared envelope is ((t + 1)^2 - n(n - 2)) / (D t)^2,
    which rises up to s* = max(1, n^2 - 3n + 1) and falls after it.  From
    s* on, line hi + 1 bounds every later line; before s*, it bounds every
    line read, so the best cell cannot lie above it and the scan goes on.
    A cell past the stop line is never evaluated.  The ceiling's whole
    triangle is still counted against MAX_CELLS before any cell is read.

    Certified means the whole-line envelope at the ceiling already lies below
    the found maximum, compared exactly as squares, so no deeper cell can
    beat it; when the envelope plateau sits above the found maximum the
    result stays uncertified no matter the ceiling.  Certified and
    envelope_at_ceiling refer to the ceiling, not to the stop line.
    """
    if ceiling < 2:
        raise ConstraintError("ceiling must be at least 2")
    require_cells((ceiling + 1) * (ceiling + 2) // 2, f"the triangle p + q <= {ceiling}")
    n = group.n
    best: tuple[int, int, tuple[int, int]] | None = None
    lo, hi = 0, min(ceiling, 15)
    while True:
        # on a line p + q = s the numerator 1 + mu is fixed, so the line's
        # best cell is the nonvanishing one with the least q(p + n - 1), then
        # least p: each line's least key, one minimum.reduceat over the block
        lines = np.arange(lo, hi + 1, dtype=np.int64)
        starts = (lines * (lines + 1) - lo * (lo + 1)) // 2
        p = np.arange(starts[-1] + hi + 1, dtype=np.int64) - np.repeat(starts, lines + 1)
        q = np.repeat(lines, lines + 1) - p
        dims = dim_cells(group, p, q)
        key = (q * (p + n - 1)) * (ceiling + 1) + p
        key[(q < 1) | (dims == 0)] = _NO_CELL
        # the lines' squared constants (1 + mu) / den, compared by cross-multiplying
        for s, k in enumerate(np.minimum.reduceat(key, starts).tolist(), lo):
            if k == _NO_CELL:
                continue
            p = k % (ceiling + 1)
            cell = (p, s - p)
            num, den = 1 + laplace_eigenvalue(s, n), (convention * (s - p) * (p + n - 1)) ** 2
            if best is None or (order := num * best[1] - best[0] * den) > 0 or (order == 0 and cell < best[2]):
                best = (num, den, cell)
        if hi == ceiling or best is not None and envelope_squared(hi + 1, n, convention) < Fraction(*best[:2]):
            break
        lo, hi = hi + 1, min(ceiling, 2 * hi + 1)
    if best is None:
        raise ConstraintError(f"{group.name}: no nonvanishing bidegree with q >= 1 below ceiling {ceiling}")
    p, q = best[2]
    best_sq = c_pq_squared(p, q, n, convention)
    value = c_pq(p, q, n, convention)
    env = envelope(ceiling, n, convention)
    plateau = 1.0 / (convention * (n - 1))
    certified = envelope_squared(ceiling, n, convention) < best_sq
    return SobolevConstant(value, p, q, convention, ceiling, certified, env, plateau, best_sq)


def greens_lower_witness(group: QuotientGroup, m_max: int, convention: int = 2) -> list[tuple[int, float]]:
    """Witness sequence (m, C at bidegree (0, m e)) over the multiples of the
    exponent with nonvanishing invariant dimension; decreases to the plateau
    1/(D(n-1)) from above."""
    if m_max < 1:
        raise ConstraintError("m_max must be at least 1")
    coeffs, e = h0_coefficients(group), group.exponent
    return [(m, c_pq(0, m * e, group.n, convention))
            for m in range(1, m_max + 1) if dim_h0_polynomial(coeffs, m) >= 1]
