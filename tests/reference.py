"""Reference implementations that only the tests use.

The oracle's full stacked-matrix rank lives here: the whole monomial space of
bidegree (p, q), the Laplacian built monomial by monomial, and the actions of
all generators as N x N matrices.  Production (:mod:`kohnspec.oracle`)
eliminates only on the monomials the diagonal generators fix; the tests
compare the two cell by cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kohnspec.characters import sphere_dim
from kohnspec.errors import ReductionError, SizeLimit
from kohnspec.group_catalog import QuotientGroup
from kohnspec.oracle import _BASIS_LIMIT, ElementAction, _prime, _rank, modular_image, monomial_exponents


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


def invariant_dim_reference(group: QuotientGroup, p: int, q: int,
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
