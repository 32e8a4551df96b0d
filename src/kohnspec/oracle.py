"""Brute-force verification path: explicit polynomial spaces, the group acting
through its exact generators, and invariant dimensions as ranks over a finite
field.

No character theory enters here.  Bidegree-(p, q) polynomials P(p, q) are
spanned by the N monomials z^a conj(z)^b.  A group element acts by
precomposition with the inverse matrix, expanded multinomially on monomials.
For unitary G, P(p, q) = H(p, q) + |z|^2 P(p-1, q-1) as G-modules (Folland,
*The tangential Cauchy-Riemann complex on spheres*, Trans. AMS 1972), H the
harmonics, so the invariant harmonic dimension is d_P(p, q) - d_P(p-1, q-1),
d_P the invariant dimension of all of P, and d_P(p, q) where p or q is 0.
Both sides depend on the group only up to conjugacy in GL(n), and a finite
group is conjugate to a unitary one, so the split needs no check of its own.

Diagonal generators cut the space down before any elimination:

- A generator whose reduced pair (U, conj U) is diagonal mod ell acts on
  z^a conj(z)^b by the scalar prod_i conj(u_ii)^a_i * prod_i u_ii^b_i.
- Every invariant therefore lies in the span W of the monomials on which that
  scalar is 1 for every diagonal generator.
- So d_P(p, q) is |W| - rank [(A_h - I) restricted to the columns W, for
  each non-diagonal generator h], and |W| itself when there is no such h
  (every lens and cyclic group) or W is empty: no matrix is built.

Every catalog family has a diagonal generator: the quaternion i = diag(i, -i)
(2T, 2O, 2I, qsemi), the cyclic generator (cyclic, lens, bindih, cycsemi) or
the scalar one (xC:l).  A group with none has W = every monomial, on the same
code path.

The rank is taken over F_ell, and it is exact:

- Every generator entry is a rational combination of E-th roots of unity, E
  the lcm of the angle denominators of the generators and of the group
  exponent (so every eigenvalue and every character value reduces too).  For a
  prime ell = 1 (mod E) dividing no coefficient denominator, zeta_E -> r,
  r a primitive E-th root of unity mod ell, maps those entries into F_ell.
  Conjugation is zeta -> zeta^-1, applied before reduction.
- ell > |G| (Maschke): |G| is a unit mod ell, so the group average on
  P(p, q) is an idempotent over the ring of the entries, and reduced mod ell
  it is still the idempotent whose image is the common fixed space of the
  reduced generators.  Its rank mod ell equals its trace mod ell, the
  characteristic-zero invariant dimension d_P reduced mod ell.
- ell > _BASIS_LIMIT >= N >= d_P, so that rank is d_P itself.
- The order check closes the reduced generators mod ell.  Reduction is
  injective on a finite group of order prime to ell, since its kernel has
  ell-power order (Minkowski; Serre, *Bounds for the orders of the finite
  subgroups of G(k)*, 2007), so the closure count is the order of the group
  the generators generate, and it must equal the catalog order.

Every product of residues is below ell^2; the magnitude bound goes through
the int64 guard of :mod:`kohnspec.errors`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import NamedTuple

import numpy as np

from .errors import ClosureMismatch, SizeLimit, _require_int64
from .group_catalog import Cyclotomic, QuotientGroup
from .invariant_dims import _primes, dim_triangle

_BASIS_LIMIT = 4000
# estimated multiply-adds of one oracle_check, closure plus elimination on the
# weight blocks, an upper bound: 2I at p+q <= 39 takes about 6.8 s (2 vCPUs)
_WORK_LIMIT = 2 * 10**9


@lru_cache(maxsize=64)
def monomial_exponents(degree: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples of the degree-d monomials in n variables, in a fixed
    deterministic order."""
    out = []
    for combo in combinations_with_replacement(range(n), degree):
        exp = [0] * n
        for i in combo:
            exp[i] += 1
        out.append(tuple(exp))
    return tuple(sorted(out, reverse=True))


def _degree_size(degree: int, n: int) -> int:
    """Number of degree-d monomials in n variables (0 for d = -1)."""
    return math.comb(degree + n - 1, n - 1)


# ---------------------------------------------------------------------------
# The field


def _is_prime(m: int) -> bool:
    return m > 1 and all(m % k for k in range(2, math.isqrt(m) + 1))


def _prime(E: int, floor: int, denominators) -> int:
    """Smallest prime ell = 1 (mod E) above floor dividing no denominator."""
    ell = floor - floor % E + 1
    while ell <= floor or not _is_prime(ell) or any(d % ell == 0 for d in denominators):
        ell += E
    return ell


def _root_of_unity(E: int, ell: int) -> int:
    """A primitive E-th root of unity mod ell, for E dividing ell - 1."""
    candidates = (pow(x, (ell - 1) // E, ell) for x in range(2, ell))
    return next(r for r in candidates if all(pow(r, E // f, ell) != 1 for f in _primes(E)))


class ModularImage(NamedTuple):
    """A group's generators reduced mod ell, each as the pair (U, conj U)."""

    ell: int
    E: int
    root: int
    gens: tuple[tuple[np.ndarray, np.ndarray], ...]

    def reduce(self, entry: Cyclotomic, sign: int = 1) -> int:
        """Residue of sum c * exp(2*pi*i*sign*t) over the entry's terms."""
        ell, E = self.ell, self.E
        return sum(c.numerator * pow(c.denominator, -1, ell) * pow(self.root, int(sign * t * E) % E, ell)
                   for c, t in entry) % ell

    def actions(self) -> list["ElementAction"]:
        return [ElementAction(g, self.ell) for g in self.gens]


def modular_image(group: QuotientGroup) -> ModularImage:
    """Reduce the group's exact generators mod the smallest admissible prime."""
    if not group.generators:
        raise ClosureMismatch(f"{group.name} carries no generator matrices")
    terms = [term for g in group.generators for row in g for entry in row for term in entry]
    E = math.lcm(group.exponent, *(t.denominator for _, t in terms))
    ell = _prime(E, max(group.order, _BASIS_LIMIT), {c.denominator for c, _ in terms})
    _require_int64(group.n * ell * ell)
    image = ModularImage(ell, E, _root_of_unity(E, ell), ())
    gens = tuple(tuple(np.array([[image.reduce(x, sign) for x in row] for row in g], dtype=np.int64)
                       for sign in (1, -1))
                 for g in group.generators)
    return image._replace(gens=gens)


# ---------------------------------------------------------------------------
# Spaces and actions


@lru_cache(maxsize=64)
def _peel(degree: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index maps from degree d - 1 to degree d: for each degree-d monomial a,
    its first variable i and the index of a - e_i; for each degree-(d-1)
    monomial b and variable j, the index of b + e_j."""
    monos = monomial_exponents(degree, n)
    prev = monomial_exponents(degree - 1, n)
    index = {m: k for k, m in enumerate(monos)}
    prev_index = {m: k for k, m in enumerate(prev)}
    first = [next(i for i, e in enumerate(a) if e) for a in monos]
    reduced = [prev_index[a[:i] + (a[i] - 1,) + a[i + 1:]] for a, i in zip(monos, first)]
    up = [[index[b[:j] + (b[j] + 1,) + b[j + 1:]] for j in range(n)] for b in prev]
    return np.array(first), np.array(reduced), np.array(up)


class _SymPowers:
    """Matrices of z^a -> (h z)^a mod ell on monomial bases, built degree by
    degree: peel one variable off each monomial and multiply the
    lower-degree expansion by the matching linear form."""

    def __init__(self, h: np.ndarray, ell: int):
        self.h = h
        self.ell = ell
        self._mats = [np.ones((1, 1), dtype=np.int64)]

    def __getitem__(self, degree: int) -> np.ndarray:
        n = self.h.shape[0]
        while len(self._mats) <= degree:
            first, reduced, up = _peel(len(self._mats), n)
            prev = self._mats[-1][reduced]
            coeff = self.h[first]
            out = np.zeros((len(first), len(first)), dtype=np.int64)
            for j in range(n):
                out[:, up[:, j]] += coeff[:, j, None] * prev
            self._mats.append(out % self.ell)
        return self._mats[degree]


class _Weights:
    """Scalars mod ell by which diag(d) acts on the monomials of each degree:
    prod_i d_i^a_i, built degree by degree from the peel maps as
    w(a) = d_i w(a - e_i), i the first variable of a."""

    def __init__(self, d: np.ndarray, ell: int):
        self.d = d
        self.ell = ell
        self._tables = [np.ones(1, dtype=np.int64)]

    def __getitem__(self, degree: int) -> np.ndarray:
        while len(self._tables) <= degree:
            first, reduced, _ = _peel(len(self._tables), len(self.d))
            self._tables.append(self._tables[-1][reduced] * self.d[first] % self.ell)
        return self._tables[degree]


class ElementAction:
    """The action of one group element, given as the pair (U, conj U) mod
    ell, on every bidegree: precomposition with U^-1 = conj(U)^T.  A
    diagonal pair scales z^a conj(z)^b by prod conj(u_ii)^a_i * prod u_ii^b_i;
    weights holds those two factors, and is None for a non-diagonal pair."""

    def __init__(self, element: tuple[np.ndarray, np.ndarray], ell: int):
        u, u_bar = element
        self.ell = ell
        self.holo = _SymPowers(u_bar.T, ell)
        self.anti = _SymPowers(u.T, ell)
        off = ~np.eye(len(u), dtype=bool)
        self.weights = (None if u[off].any() or u_bar[off].any()
                        else (_Weights(np.diag(u_bar), ell), _Weights(np.diag(u), ell)))

    def matrix(self, p: int, q: int, cols: np.ndarray | None = None) -> np.ndarray:
        """The operator on bidegree-(p, q) coefficient vectors, at the given
        basis columns (all by default).  The basis is a-major, so the
        substitution is the Kronecker product of the two symmetric powers;
        coefficient vectors transform by its transpose, whose column (a, b)
        is the outer product of row a and row b."""
        holo, anti = self.holo[p], self.anti[q]
        size = len(holo) * len(anti)
        a, b = np.divmod(np.arange(size) if cols is None else cols, len(anti))
        return (holo[a, :, None] * anti[b, None, :]).reshape(len(a), size).T % self.ell


def _rank(M: np.ndarray, ell: int) -> int:
    """Rank mod ell of M, overwriting M: Gaussian elimination column by column."""
    free = np.ones(M.shape[0], dtype=bool)
    rank = 0
    for c in range(M.shape[1]):
        rows = np.flatnonzero(free & (M[:, c] != 0))
        if rows.size == 0:
            continue
        r, rest = rows[0], rows[1:]
        free[r] = False
        rank += 1
        if rest.size:
            factor = M[rest, c] * pow(int(M[r, c]), -1, ell) % ell
            M[rest, c:] = (M[rest, c:] - np.outer(factor, M[r, c:])) % ell
    return rank


# ---------------------------------------------------------------------------
# The check


def matrix_closure(group: QuotientGroup, image: ModularImage | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Enumerate the group mod ell by closing its reduced generators, as
    pairs (U, conj U); the element count must reproduce the catalog order."""
    image = image or modular_image(group)
    ell = image.ell
    ident = np.eye(group.n, dtype=np.int64)
    elements = {ident.tobytes(): (ident, ident)}
    work = [(ident, ident)]
    cap = 16 * group.order + 16
    while work:
        u, u_bar = work.pop()
        for g, g_bar in image.gens:
            nxt = u @ g % ell
            key = nxt.tobytes()
            if key not in elements:
                elements[key] = (nxt, u_bar @ g_bar % ell)
                work.append(elements[key])
                if len(elements) > cap:
                    raise ClosureMismatch(
                        f"{group.name}: matrix closure exceeded {cap} elements"
                    )
    if len(elements) != group.order:
        raise ClosureMismatch(
            f"{group.name}: matrix closure has {len(elements)} elements, catalog order is {group.order}"
        )
    return list(elements.values())


def _weight_block(actions: list[ElementAction], n: int, p: int, q: int) -> tuple[int, np.ndarray]:
    """N and W of the cell (p, q): the basis size, refused above _BASIS_LIMIT,
    and the flat indices of the monomials z^a conj(z)^b of weight one,
    prod conj(u_ii)^a_i * prod u_ii^b_i = 1, under every diagonal action."""
    size = _degree_size(p, n) * _degree_size(q, n)
    if size > _BASIS_LIMIT:
        raise SizeLimit(f"bidegree ({p},{q}) basis of size {size} exceeds {_BASIS_LIMIT}")
    fixed = np.ones((_degree_size(p, n), _degree_size(q, n)), dtype=bool)
    for a in actions:
        if a.weights is not None:
            holo, anti = a.weights
            fixed &= np.outer(holo[p], anti[q]) % a.ell == 1
    return size, np.flatnonzero(fixed)


def _poly_dim(actions: list[ElementAction], n: int, p: int, q: int,
              block: tuple[int, np.ndarray] | None = None) -> int:
    """d_P(p, q): |W| minus the rank mod ell of A_h - I at the columns W,
    stacked over the non-diagonal generators h; no matrix where there is
    none or W is empty.  block is the cell's _weight_block when the caller
    has counted it already, as oracle_check's budget has."""
    _, cols = block or _weight_block(actions, n, p, q)
    moving = [a for a in actions if a.weights is None]
    if not (moving and len(cols)):
        return len(cols)
    ell = actions[0].ell
    unit = cols, np.arange(len(cols))      # the entries of I at the columns W
    stacked = []
    for a in moving:
        m = a.matrix(p, q, cols)
        m[unit] = (m[unit] - 1) % ell
        stacked.append(m)
    return len(cols) - _rank(np.vstack(stacked), ell)


def _budgeted_blocks(group: QuotientGroup, pq_max: int, actions: list[ElementAction]) -> list[tuple]:
    """The _weight_block of each cell with p + q <= pq_max, in dim_triangle's
    order.  SizeLimit before any matrix is built if the closure and the
    eliminations exceed the budget: a cell stacks N rows per non-diagonal
    generator over |W| columns, so building and eliminating it takes at most
    moving N |W| (|W| + 1) multiply-adds."""
    n, k = group.n, len(group.generators)
    moving = sum(a.weights is None for a in actions)
    work = group.order * k * n ** 3
    blocks = []
    for s in range(pq_max + 1):
        for p in range(s + 1):
            size, cols = block = _weight_block(actions, n, p, s - p)
            work += moving * size * len(cols) * (len(cols) + 1)
            if work > _WORK_LIMIT:
                raise SizeLimit(
                    f"oracle check of {group.name} up to p+q={pq_max} needs more than "
                    f"{_WORK_LIMIT} multiply-adds"
                )
            blocks.append(block)
    return blocks


def oracle_check(group: QuotientGroup, pq_max: int) -> list[tuple[int, int, int, int, bool]]:
    """Compare brute-force and character-averaged dimensions on a grid.
    d_P is found once per cell; the cell (p-1, q-1) lies 2(p + q) places
    earlier in dim_triangle's order.

    Returns rows (p, q, brute, averaged, ok)."""
    image = modular_image(group)
    actions = image.actions()      # symmetric powers are built once, shared by every cell
    blocks = _budgeted_blocks(group, pq_max, actions)
    matrix_closure(group, image)
    rows, d_P = [], []
    for i, ((p, q, averaged), block) in enumerate(zip(dim_triangle(group, pq_max), blocks)):
        d_P.append(_poly_dim(actions, group.n, p, q, block))
        brute = d_P[i] - (d_P[i - 2 * (p + q)] if p and q else 0)
        rows.append((p, q, brute, averaged, brute == averaged))
    return rows
