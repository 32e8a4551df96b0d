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
produces an integer polynomial of degree at most n(e - 1) in each variable,
from which a closed polynomial formula for the dimensions at bidegree
(0, m*e) follows; it reads n coefficients of P, found from n cells.

All series arithmetic runs over int64.  Every product is preceded by an
a-priori magnitude bound, and a bound at or above 2^63 raises Int64Limit, an
OverflowError, before the product is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError, Int64Limit, NonIntegralDimension, TruncationError
from .group_catalog import QuotientGroup

def exponent(group: QuotientGroup) -> int:
    """Exponent of the group: lcm of element orders, read off the angle
    denominators once per group."""
    if group._exponent is None:
        group._exponent = math.lcm(*(a.denominator for c in group.classes for a in c.angles))
    return group._exponent


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _totient(n: int) -> int:
    out = n
    for p in _factorize(n):
        out = out // p * (p - 1)
    return out


def _mobius(n: int) -> int:
    fac = _factorize(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def _ramanujan_row(E: int) -> np.ndarray:
    """c_E(r) for r = 0..E-1: the trace of the r-th power of a primitive E-th
    root of unity down to the rationals.  It depends on r only through
    g = gcd(r, E), so it is evaluated once per divisor g."""
    phi_E = _totient(E)
    by_gcd = {}
    for g in range(1, E + 1):
        if E % g == 0:
            mu = _mobius(E // g)
            by_gcd[g] = 0 if mu == 0 else mu * (phi_E // _totient(E // g))
    return np.array([by_gcd[math.gcd(r, E)] for r in range(E)], dtype=np.int64)


def _require_int64(bound: int) -> None:
    """Raise Int64Limit (an OverflowError and a SizeLimit) unless an a-priori
    magnitude bound fits int64."""
    if bound >= 2**63:
        raise Int64Limit(f"exact integer intermediate may reach {bound}, beyond int64")


def _magnitude(a: np.ndarray) -> int:
    return int(np.abs(a).max(initial=0))


def _h_vectors(angles_int: list[int], E: int, degree: int) -> np.ndarray:
    """Rows p = 0..degree: the complete homogeneous sum h_p of the roots of
    unity with the given integer angles, as exponent-count vectors mod E."""
    # each entry of row p is at most the row total, C(p + n - 1, n - 1)
    _require_int64(math.comb(degree + len(angles_int) - 1, len(angles_int) - 1))
    # folding in a variable with angle a is h'[d] = h[d] + roll(h'[d-1], a);
    # un-rotating row d by d*a turns that recurrence into a cumulative sum
    h = np.zeros((degree + 1, E), dtype=np.int64)
    h[0, 0] = 1
    d = np.arange(degree + 1)[:, None]
    r = np.arange(E)
    for a in angles_int:
        g = np.cumsum(np.take_along_axis(h, (r + d * a) % E, axis=1), axis=0)
        h = np.take_along_axis(g, (r - d * a) % E, axis=1)
    return h


def _exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integer matrix product in int64, formed only after the bound
    max|a| * max|b| * inner < 2^63 rules out overflow."""
    _require_int64(_magnitude(a) * _magnitude(b) * a.shape[1])
    return a @ b


def fg_coefficients(group: QuotientGroup, ceiling: int) -> np.ndarray:
    """Series coefficients of F(z, w) for p, q <= ceiling: the invariant
    dimensions on the square of cells, counted against the cell budget and
    evaluated in one engine call."""
    from .invariant_dims import dim_cells, require_cells

    if ceiling < 0:
        raise ConstraintError("ceiling must be nonnegative")
    require_cells((ceiling + 1) ** 2, f"the series square p, q <= {ceiling}")
    p, q = np.indices((ceiling + 1, ceiling + 1), dtype=np.int64)
    return dim_cells(group, p.ravel(), q.ravel()).reshape(p.shape)


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


def pg_polynomial(group: QuotientGroup, ceiling: int | None = None) -> PGPolynomial:
    """Compute P by truncated series arithmetic and verify the degree bound:
    any nonzero coefficient beyond n(e - 1) raises TruncationError."""
    n = group.n
    e = exponent(group)
    degree = n * (e - 1)
    if ceiling is None:
        ceiling = max(2 * n * e, 24)
    ceiling = max(ceiling, degree + n + 1)
    F = fg_coefficients(group, ceiling)
    size = ceiling + 1

    # multiply by (z^e - 1)^n (w^e - 1)^n
    G1 = np.zeros((size, size), dtype=np.int64)
    shifts = [(j, math.comb(n, j) * (-1) ** (n - j)) for j in range(n + 1)]
    for jz, cz in shifts:
        for jw, cw in shifts:
            dz, dw = jz * e, jw * e
            if dz >= size or dw >= size:
                continue
            G1[dz:, dw:] += cz * cw * F[: size - dz, : size - dw]

    # divide by (1 - zw): running sums down the diagonals
    P = G1.copy()
    for a in range(1, size):
        P[a, 1:] += P[a - 1, :-1]

    beyond = P.copy()
    beyond[: degree + 1, : degree + 1] = 0
    if np.any(beyond):
        bad = np.argwhere(beyond)
        raise TruncationError(
            f"{group.name}: nonzero coefficient at {tuple(bad[0])} beyond degree {degree}"
        )
    poly = PGPolynomial(group, e, degree, P[: degree + 1, : degree + 1].copy())
    if poly.c(0, 0) != 1:
        raise NonIntegralDimension(f"{group.name}: P(0,0) = {poly.c(0, 0)}, expected 1")
    return poly


def reconstruct_dims(poly: PGPolynomial, ceiling: int) -> np.ndarray:
    """Round trip: recover the F series from P by multiplying back with
    (1 - zw) / ((z^e - 1)^n (w^e - 1)^n).  The two sign flips cancel, leaving
    products of nonnegative binomial series."""
    n = poly.group.n
    e = poly.e
    size = ceiling + 1
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


def h0_coefficients(group: QuotientGroup) -> list[int]:
    """c(0, j e), j < n, the coefficients of P that dim_h0_polynomial reads.
    Row 0 of P is row 0 of F (z^e - 1)^n (w^e - 1)^n, so they need only the
    n cells (0, k e): c(0, j e) = sum_i (-1)^i C(n, i) dim(0, (j - i) e)."""
    from .invariant_dims import dim_cells

    n, e = group.n, exponent(group)
    dims = dim_cells(group, np.zeros(n, dtype=np.int64), e * np.arange(n, dtype=np.int64)).tolist()
    return [sum((-1) ** i * math.comb(n, i) * dims[j - i] for i in range(j + 1)) for j in range(n)]


def dim_h0_polynomial(coeffs: list[int], m: int) -> int:
    """Invariant dimension at bidegree (0, m*e) through the polynomial-in-m
    formula from the coefficients c(0, j*e), j < n, of h0_coefficients."""
    if m < 0:
        raise ConstraintError("m must be nonnegative")
    n = len(coeffs)
    return sum(math.comb(m - j + n - 1, n - 1) * c for j, c in enumerate(coeffs))
