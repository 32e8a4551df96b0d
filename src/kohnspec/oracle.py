"""Brute-force verification path: explicit harmonic polynomial spaces,
matrix group actions, and invariant dimensions by projector averaging.

No character theory enters here.  Bidegree spaces are spanned by monomials
z^a conj(z)^b; the complex Laplacian maps bidegree (p, q) onto (p-1, q-1)
and its kernel is the harmonic space.  A group element acts by precomposition
with the inverse matrix, expanded multinomially on monomials; averaging the
action matrices over the whole group gives an idempotent whose restriction to
the harmonic kernel has rank equal to the invariant dimension.  Nonzero
singular values of any idempotent are at least 1, so the rank threshold 1/2
is maximally robust.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .errors import ClosureMismatch, SizeLimit
from .group_catalog import QuotientGroup

_BASIS_LIMIT = 4000
_RANK_TOL = 0.5


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


class _SymPowers:
    """Per-element cache of the matrices of z^a -> (h z)^a on monomial bases,
    built degree by degree: peel one variable off each monomial and multiply
    the lower-degree expansion by the matching linear form."""

    def __init__(self, h: np.ndarray):
        self.h = h
        self._mats = [np.ones((1, 1), dtype=complex)]

    def __getitem__(self, degree: int) -> np.ndarray:
        n = self.h.shape[0]
        while len(self._mats) <= degree:
            d = len(self._mats)
            monos = monomial_exponents(d, n)
            prev_monos = monomial_exponents(d - 1, n)
            prev = self._mats[d - 1]
            index = {m: i for i, m in enumerate(monos)}
            prev_index = {m: i for i, m in enumerate(prev_monos)}
            out = np.zeros((len(monos), len(monos)), dtype=complex)
            for row, a in enumerate(monos):
                i = next(k for k, e in enumerate(a) if e > 0)
                reduced = list(a)
                reduced[i] -= 1
                prev_row = prev[prev_index[tuple(reduced)]]
                for col_prev, coeff in enumerate(prev_row):
                    if coeff == 0:
                        continue
                    base = prev_monos[col_prev]
                    for j in range(n):
                        hij = self.h[i, j]
                        if hij == 0:
                            continue
                        target = list(base)
                        target[j] += 1
                        out[row, index[tuple(target)]] += coeff * hij
            self._mats.append(out)
        return self._mats[degree]


@dataclass
class BidegreeSpace:
    """Monomial model of the bidegree-(p, q) polynomials with the complex
    Laplacian down to (p-1, q-1)."""

    n: int
    p: int
    q: int
    basis: list[tuple[tuple[int, ...], tuple[int, ...]]]
    laplacian: np.ndarray        # maps (p, q) coefficients to (p-1, q-1)

    _kernel: np.ndarray | None = None

    @property
    def kernel_basis(self) -> np.ndarray:
        """Orthonormal coordinate basis of the harmonic kernel (columns)."""
        if self._kernel is None:
            if self.laplacian.size == 0:
                self._kernel = np.eye(len(self.basis), dtype=complex)
            else:
                _, s, vh = np.linalg.svd(self.laplacian)
                tol = max(self.laplacian.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
                rank = int(np.sum(s > tol))
                self._kernel = vh[rank:].conj().T
        return self._kernel

    @property
    def kernel_dim(self) -> int:
        return self.kernel_basis.shape[1]


def build_space(n: int, p: int, q: int) -> BidegreeSpace:
    """Monomial basis and sparse-structured Laplacian for bidegree (p, q)."""
    a_monos = monomial_exponents(p, n)
    b_monos = monomial_exponents(q, n)
    size = len(a_monos) * len(b_monos)
    if size > _BASIS_LIMIT:
        raise SizeLimit(f"bidegree ({p},{q}) basis of size {size} exceeds {_BASIS_LIMIT}")
    basis = [(a, b) for a in a_monos for b in b_monos]
    if p == 0 or q == 0:
        lap = np.zeros((0, size))
        return BidegreeSpace(n, p, q, basis, lap)
    a_prev = monomial_exponents(p - 1, n)
    b_prev = monomial_exponents(q - 1, n)
    prev_index = {(a, b): i for i, (a, b) in enumerate((a, b) for a in a_prev for b in b_prev)}
    lap = np.zeros((len(a_prev) * len(b_prev), size))
    for col, (a, b) in enumerate(basis):
        for i in range(n):
            if a[i] == 0 or b[i] == 0:
                continue
            ar = list(a)
            br = list(b)
            ar[i] -= 1
            br[i] -= 1
            lap[prev_index[(tuple(ar), tuple(br))], col] += 4.0 * a[i] * b[i]
    return BidegreeSpace(n, p, q, basis, lap)


def matrix_closure(group: QuotientGroup) -> list[np.ndarray]:
    """Enumerate the group by closing its stored generator matrices; the
    element count must reproduce the catalog order."""
    if not group.generators:
        raise ClosureMismatch(f"{group.name} carries no generator matrices")

    def key2(mat: np.ndarray) -> tuple:
        flat = mat.ravel()
        return tuple(np.round(flat.real * 1e6).astype(np.int64).tolist()) + tuple(
            np.round(flat.imag * 1e6).astype(np.int64).tolist()
        )

    n = group.n
    ident = np.eye(n, dtype=complex)
    elements = {key2(ident): ident}
    work = [ident]
    cap = 16 * group.order + 16
    while work:
        current = work.pop()
        for gen in group.generators:
            nxt = current @ gen
            k = key2(nxt)
            if k not in elements:
                elements[k] = nxt
                work.append(nxt)
                if len(elements) > cap:
                    raise ClosureMismatch(
                        f"{group.name}: matrix closure exceeded {cap} elements"
                    )
    if len(elements) != group.order:
        raise ClosureMismatch(
            f"{group.name}: matrix closure has {len(elements)} elements, catalog order is {group.order}"
        )
    return list(elements.values())


def _action_matrix(powers_p: np.ndarray, powers_q: np.ndarray) -> np.ndarray:
    # basis is a-major, so the action factors as a Kronecker product; the
    # symmetric-power convention expands along rows, and the operator on
    # coefficient vectors is its transpose
    return np.kron(powers_p, powers_q.conj()).T


def averaged_projector(group: QuotientGroup, p: int, q: int,
                       elements: list[np.ndarray] | None = None) -> tuple[np.ndarray, BidegreeSpace]:
    """Group average of the precomposition action on bidegree-(p, q)
    monomials, an idempotent projecting onto the invariants."""
    space = build_space(group.n, p, q)
    if elements is None:
        elements = matrix_closure(group)
    size = len(space.basis)
    acc = np.zeros((size, size), dtype=complex)
    for U in elements:
        V = U.conj().T          # unitary inverse: action is by g^{-1}
        sp = _SymPowers(V)
        acc += _action_matrix(sp[p], sp[q])
    return acc / len(elements), space


def invariant_dim_bruteforce(group: QuotientGroup, p: int, q: int,
                             elements: list[np.ndarray] | None = None) -> int:
    """Rank of the averaged projector restricted to the harmonic kernel."""
    proj, space = averaged_projector(group, p, q, elements)
    K = space.kernel_basis
    restricted = K.conj().T @ proj @ K
    if restricted.size == 0:
        return 0
    s = np.linalg.svd(restricted, compute_uv=False)
    return int(np.sum(s > _RANK_TOL))


def trace_bruteforce(U: np.ndarray, p: int, q: int) -> complex:
    """Trace of the element's action on the harmonic (p, q) space, as the
    monomial trace at (p, q) minus the monomial trace at (p-1, q-1)."""
    V = np.asarray(U, dtype=complex).conj().T
    sp = _SymPowers(V)
    total = np.trace(sp[p]) * np.conj(np.trace(sp[q]))
    if p >= 1 and q >= 1:
        total -= np.trace(sp[p - 1]) * np.conj(np.trace(sp[q - 1]))
    return complex(total)


def projector_defect(group: QuotientGroup, p: int, q: int,
                     elements: list[np.ndarray] | None = None) -> float:
    """Operator-norm defect ||P^2 - P|| of the averaged projector."""
    proj, _ = averaged_projector(group, p, q, elements)
    return float(np.linalg.norm(proj @ proj - proj, 2))


def action_unitarity_defect(U: np.ndarray, p: int, q: int) -> float:
    """Deviation from unitarity of the action matrix in the factorial-weighted
    basis (the monomial basis is not orthonormal; the weighted one is)."""
    n = U.shape[0]
    V = np.asarray(U, dtype=complex).conj().T
    sp = _SymPowers(V)
    act = _action_matrix(sp[p], sp[q])
    weights = []
    for a in monomial_exponents(p, n):
        for b in monomial_exponents(q, n):
            wa = math.prod(math.factorial(e) for e in a)
            wb = math.prod(math.factorial(e) for e in b)
            weights.append(math.sqrt(wa * wb))
    W = np.diag(weights)
    Winv = np.diag([1.0 / w for w in weights])
    conj = W @ act @ Winv
    return float(np.linalg.norm(conj.conj().T @ conj - np.eye(conj.shape[0]), 2))


def laplacian_commutation_defect(group: QuotientGroup, p: int, q: int) -> float:
    """||L A_{p,q} - A_{p-1,q-1} L|| over the group generators: the action
    commutes with the Laplacian, so restriction to the kernel is legitimate."""
    if p < 1 or q < 1:
        return 0.0
    space = build_space(group.n, p, q)
    worst = 0.0
    for U in group.generators:
        V = np.asarray(U, dtype=complex).conj().T
        sp = _SymPowers(V)
        act_pq = _action_matrix(sp[p], sp[q])
        act_prev = _action_matrix(sp[p - 1], sp[q - 1])
        defect = np.linalg.norm(space.laplacian @ act_pq - act_prev @ space.laplacian, 2)
        worst = max(worst, float(defect))
    return worst


def oracle_check(group: QuotientGroup, pq_max: int) -> list[tuple[int, int, int, int, bool]]:
    """Compare brute-force and character-averaged dimensions on a grid.

    Returns rows (p, q, brute, averaged, ok)."""
    from .invariant_dims import dim_triangle

    elements = matrix_closure(group)
    rows = []
    for p, q, averaged in dim_triangle(group, pq_max):
        brute = invariant_dim_bruteforce(group, p, q, elements)
        rows.append((p, q, brute, averaged, brute == averaged))
    return rows
