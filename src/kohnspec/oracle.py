"""Brute-force verification path: explicit harmonic polynomial spaces, the
group acting through its exact generators, and invariant dimensions as ranks
over a finite field.

No character theory enters here.  Bidegree-(p, q) polynomials are spanned by
the N monomials z^a conj(z)^b.  The Laplacian L = 4 sum_i d^2/dz_i dconj(z_i)
maps them onto bidegree (p-1, q-1), and its kernel, of dimension sphere_dim,
is the harmonic space.  A group element acts by precomposition with the inverse
matrix, expanded multinomially on monomials.  The invariant harmonics are the
common kernel of L and of A_g - I over the generators g, so

    invariant dimension = N - rank [L; A_g - I for each generator g].

The rank is taken over F_ell, and it is exact:

- Every generator entry is a rational combination of E-th roots of unity, E
  the lcm of the angle denominators of the generators and of the classes
  (so every eigenvalue and every character value reduces too).  For a
  prime ell = 1 (mod E) dividing no coefficient denominator, zeta_E -> r,
  r a primitive E-th root of unity mod ell, maps those entries into F_ell.
  Conjugation is zeta -> zeta^-1, applied before reduction.
- ell > |G| (Maschke): |G| is a unit mod ell, so the group average is an
  idempotent over the ring of the entries, and reduced mod ell it is still
  the idempotent whose image is the common fixed space of the reduced
  generators.  On the harmonic kernel its rank mod ell equals its trace mod
  ell, the characteristic-zero invariant dimension d reduced mod ell.
- ell > _BASIS_LIMIT >= N >= sphere_dim >= d, so that rank is d itself.
- The harmonic kernel must keep its dimension: rank mod ell of the integer
  matrix L can only fall below its rank over the rationals, N - sphere_dim.
  Every cell checks rank_ell(L) = N - sphere_dim and raises ReductionError
  on a drop.
- The order check closes the reduced generators mod ell.  Reduction is
  injective on a finite group of order prime to ell, since its kernel has
  ell-power order (Minkowski; Serre, *Bounds for the orders of the finite
  subgroups of G(k)*, 2007), so the closure count is the order of the group
  the generators generate, and it must equal the catalog order.

Every product of residues is below ell^2; the magnitude bound goes through
the int64 guard of :mod:`kohnspec.genfun`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import NamedTuple

import numpy as np

from .characters import sphere_dim
from .errors import ClosureMismatch, ReductionError, SizeLimit
from .genfun import _factorize, _require_int64
from .group_catalog import Cyclotomic, QuotientGroup

_BASIS_LIMIT = 4000
# estimated multiply-adds of one oracle_check, closure plus elimination: the
# estimate is an upper bound, and 2I at p+q <= 24 (8e8) takes about 2.5 s
_WORK_LIMIT = 2 * 10**9


@lru_cache(maxsize=None)
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
    return next(r for r in candidates if all(pow(r, E // f, ell) != 1 for f in _factorize(E)))


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
    E = math.lcm(*(t.denominator for _, t in terms),
                 *(a.denominator for c in group.classes for a in c.angles))
    ell = _prime(E, max(group.order, _BASIS_LIMIT), {c.denominator for c, _ in terms})
    _require_int64(group.n * ell * ell)
    image = ModularImage(ell, E, _root_of_unity(E, ell), ())
    gens = tuple(tuple(np.array([[image.reduce(x, sign) for x in row] for row in g], dtype=np.int64)
                       for sign in (1, -1))
                 for g in group.generators)
    return image._replace(gens=gens)


# ---------------------------------------------------------------------------
# Spaces and actions


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
        return len(self.basis) - _rank(self.laplacian % ell, ell)[0]


def build_space(n: int, p: int, q: int) -> BidegreeSpace:
    """Monomial basis and sparse-structured Laplacian for bidegree (p, q)."""
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


@lru_cache(maxsize=None)
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


class ElementAction:
    """The action of one group element, given as the pair (U, conj U) mod
    ell, on every bidegree: precomposition with U^-1 = conj(U)^T."""

    def __init__(self, element: tuple[np.ndarray, np.ndarray], ell: int):
        u, u_bar = element
        self.ell = ell
        self.holo = _SymPowers(u_bar.T, ell)
        self.anti = _SymPowers(u.T, ell)

    def matrix(self, p: int, q: int) -> np.ndarray:
        """The operator on bidegree-(p, q) coefficient vectors.  The basis is
        a-major, so the substitution factors as a Kronecker product that
        expands along rows; coefficient vectors transform by its transpose."""
        return (np.kron(self.holo[p], self.anti[q]) % self.ell).T


def _rank(M: np.ndarray, ell: int, head: int = 0) -> tuple[int, int]:
    """Ranks mod ell of M and of its first head rows, overwriting M.

    Gaussian elimination column by column.  Each pivot is the lowest free row
    with a nonzero entry, and only the free rows below it with a nonzero
    entry are updated, so head rows only ever combine with head rows."""
    free = np.ones(M.shape[0], dtype=bool)
    rank = head_rank = 0
    for c in range(M.shape[1]):
        rows = np.flatnonzero(free & (M[:, c] != 0))
        if rows.size == 0:
            continue
        r, rest = rows[0], rows[1:]
        free[r] = False
        rank += 1
        head_rank += r < head
        if rest.size:
            factor = M[rest, c] * pow(int(M[r, c]), -1, ell) % ell
            M[rest, c:] = (M[rest, c:] - np.outer(factor, M[r, c:])) % ell
    return rank, head_rank


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


def invariant_dim_bruteforce(group: QuotientGroup, p: int, q: int,
                             actions: list[ElementAction] | None = None) -> int:
    """N minus the rank mod ell of the Laplacian stacked over A_g - I for
    every generator g, after checking the Laplacian's rank."""
    actions = actions or modular_image(group).actions()
    ell = actions[0].ell
    space = build_space(group.n, p, q)
    size = len(space.basis)
    ident = np.eye(size, dtype=np.int64)
    stacked = np.vstack([space.laplacian % ell] + [(a.matrix(p, q) - ident) % ell for a in actions])
    rank, lap_rank = _rank(stacked, ell, space.laplacian.shape[0])
    expected = size - sphere_dim(p, q, group.n)
    if lap_rank != expected:
        raise ReductionError(
            f"{group.name}: Laplacian at ({p},{q}) has rank {lap_rank} mod {ell}, expected {expected}"
        )
    return size - rank


def trace_bruteforce(action: ElementAction, p: int, q: int) -> int:
    """Trace mod ell of an element's action on the harmonic (p, q) space:
    the monomial trace at (p, q) minus the one at (p-1, q-1)."""
    total = int(np.trace(action.holo[p])) * int(np.trace(action.anti[q]))
    if p >= 1 and q >= 1:
        total -= int(np.trace(action.holo[p - 1])) * int(np.trace(action.anti[q - 1]))
    return total % action.ell


def _check_budget(group: QuotientGroup, pq_max: int) -> None:
    """Raise SizeLimit before any matrix is built if the closure and the
    elimination of every cell (rows * N^2 each) would exceed the budget."""
    n, k = group.n, len(group.generators)
    work = group.order * k * n ** 3
    for s in range(pq_max + 1):
        for p in range(s + 1):
            size = _degree_size(p, n) * _degree_size(s - p, n)
            rows = _degree_size(p - 1, n) * _degree_size(s - p - 1, n) + k * size
            work += rows * size * size
            if work > _WORK_LIMIT:
                raise SizeLimit(
                    f"oracle check of {group.name} up to p+q={pq_max} needs more than "
                    f"{_WORK_LIMIT} multiply-adds"
                )


def oracle_check(group: QuotientGroup, pq_max: int) -> list[tuple[int, int, int, int, bool]]:
    """Compare brute-force and character-averaged dimensions on a grid.

    Returns rows (p, q, brute, averaged, ok)."""
    from .invariant_dims import dim_triangle

    _check_budget(group, pq_max)
    image = modular_image(group)
    matrix_closure(group, image)
    actions = image.actions()      # symmetric powers are built once, shared by every cell
    rows = []
    for p, q, averaged in dim_triangle(group, pq_max):
        brute = invariant_dim_bruteforce(group, p, q, actions)
        rows.append((p, q, brute, averaged, brute == averaged))
    return rows
