"""Generating-function machinery for invariant dimensions.

The bivariate series F(z, w) = sum dim z^p w^q of invariant dimensions equals
a finite average of rational functions (1 - zw) / (det(z - g) det(w - conj g))
over the group.  Expanding each determinant factor as a product of geometric
series in the eigenvalues gives the coefficients as integer combinations of
roots of unity whose order divides the group exponent e; the combination
collapses exactly to an integer through Galois averaging (Ramanujan sums).
The invariant-dimension engine (:func:`kohnspec.invariant_dims.dim_cells`)
evaluates that expansion cell by cell; the coefficient table here is its
square case.  Multiplying the series by (z^e - 1)^n (w^e - 1)^n / (1 - zw)
produces an integer polynomial P of degree at most n(e - 1) in each
variable; for n >= 3 the engine builds P from the classes, keeps it with
U = (1 - zw) P as one cached MolienTable per group, and the square and P
are read from it.  A closed
polynomial formula for the dimensions at bidegree (0, m*e) follows; it
reads n coefficients of P, found from n cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError, NonIntegralDimension, SizeLimit, TruncationError
from .group_catalog import QuotientGroup
from .invariant_dims import _times_binomial, dim_cells, period_table, require_cells


def fg_coefficients(group: QuotientGroup, ceiling: int) -> np.ndarray:
    """Series coefficients F[p, q] of F(z, w) for p, q <= ceiling: the
    invariant dimensions on the square, counted against the cell budget and,
    for n >= 3, evaluated by MolienTable.square where the group has a table
    and the square passes its bounds, else in one engine call row by row in
    q, then transposed."""
    if ceiling < 0:
        raise ConstraintError("ceiling must be nonnegative")
    require_cells((ceiling + 1) ** 2, f"the series square p, q <= {ceiling}")
    F = None
    if group.n > 2:
        try:
            F = period_table(group, 0).square(ceiling)
        except SizeLimit:       # no table: dim_cells takes the direct route
            pass
    if F is None:
        q, p = np.indices((ceiling + 1, ceiling + 1), dtype=np.int64)
        F = dim_cells(group, p.ravel(), q.ravel()).reshape(p.shape).T
    return F


@dataclass
class PGPolynomial:
    """Integer polynomial P(z, w) with F * (z^e - 1)^n (w^e - 1)^n / (1 - zw)
    = P; degree at most n(e - 1) in each variable."""

    group: QuotientGroup
    e: int
    degree: int
    coeffs: np.ndarray  # shape (degree+1, degree+1), int64

    def c(self, a: int, b: int) -> int:
        if 0 <= a <= self.degree and 0 <= b <= self.degree:
            return int(self.coeffs[a, b])
        return 0


def _over_binomial(x: np.ndarray, e: int, n: int) -> np.ndarray:
    """Divide by (1 - t^e)^n along axis 0: n running sums over the rows of
    each residue class mod e, the rows padded to a multiple of e and grouped
    by one reshape."""
    y = np.pad(x, ((0, -len(x) % e), (0, 0))).reshape(-1, e, x.shape[1])
    for _ in range(n):
        y = y.cumsum(axis=0)
    return y.reshape(-1, x.shape[1])[: len(x)]


def pg_polynomial(group: QuotientGroup, ceiling: int | None = None) -> PGPolynomial:
    """P, of degree n(e - 1).  For n >= 3 a copy of the P of the group's
    MolienTable, built from the classes, whatever the ceiling; a group
    whose product does not fit raises its SizeLimit.  For n = 2 P comes from
    the series square p, q <= ceiling (max(4 e, 24) by default, at least
    2 e + 1) by truncated series arithmetic: one factor (1 - t^e) at a
    time along each axis, then running sums down the diagonals, with its
    degree bound verified: a nonzero coefficient beyond 2(e - 1) raises
    TruncationError, and P(0, 0) != 1 NonIntegralDimension."""
    e = group.exponent
    if group.n > 2:
        P = period_table(group, 0).P.copy()
        return PGPolynomial(group, e, len(P) - 1, P)
    degree = 2 * (e - 1)
    ceiling = max(max(4 * e, 24) if ceiling is None else ceiling, degree + 3)
    P = _times_binomial(_times_binomial(fg_coefficients(group, ceiling).T, e, 2).T, e, 2)
    for a in range(1, ceiling + 1):
        P[a, 1:] += P[a - 1, :-1]
    beyond = P.copy()
    beyond[: degree + 1, : degree + 1] = 0
    if np.any(beyond):
        raise TruncationError(f"{group.name}: nonzero coefficient at {tuple(np.argwhere(beyond)[0])} "
                              f"beyond degree {degree}")
    P = P[: degree + 1, : degree + 1].copy()
    if P[0, 0] != 1:
        raise NonIntegralDimension(f"{group.name}: P(0,0) = {P[0, 0]}, expected 1")
    return PGPolynomial(group, e, degree, P)


def reconstruct_dims(poly: PGPolynomial, ceiling: int) -> np.ndarray:
    """Round trip: recover the F series from P by multiplying back with
    (1 - zw) / ((z^e - 1)^n (w^e - 1)^n).  The two sign flips cancel, leaving
    n running sums per residue class along each axis."""
    n = poly.group.n
    e = poly.e
    size = ceiling + 1
    padded = np.zeros((size, size), dtype=np.int64)
    d = min(size, poly.degree + 1)
    padded[:d, :d] = poly.coeffs[:d, :d]
    U = padded.copy()
    U[1:, 1:] -= padded[:-1, :-1]
    return _over_binomial(_over_binomial(U.T, e, n).T, e, n)


def h0_coefficients(group: QuotientGroup) -> list[int]:
    """c(0, j e), j < n, the coefficients of P that dim_h0_polynomial reads.
    Row 0 of P is row 0 of F (z^e - 1)^n (w^e - 1)^n, so they need only the
    n cells (0, k e): c(0, j e) = sum_i (-1)^i C(n, i) dim(0, (j - i) e)."""
    n, e = group.n, group.exponent
    dims = dim_cells(group, np.zeros(n, dtype=np.int64), e * np.arange(n, dtype=np.int64)).tolist()
    return [sum((-1) ** i * math.comb(n, i) * dims[j - i] for i in range(j + 1)) for j in range(n)]


def dim_h0_polynomial(coeffs: list[int], m: int) -> int:
    """Invariant dimension at bidegree (0, m*e) through the polynomial-in-m
    formula from the coefficients c(0, j*e), j < n, of h0_coefficients."""
    if m < 0:
        raise ConstraintError("m must be nonnegative")
    n = len(coeffs)
    return sum(math.comb(m - j + n - 1, n - 1) * c for j, c in enumerate(coeffs))
