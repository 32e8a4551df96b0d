"""Exact characters of the harmonic bidegree spaces.

The space of harmonic polynomials of bidegree (p, q) on the sphere in C^n has
a basis indexed by admissible multiindex pairs (alpha, beta): |alpha| = p,
|beta| = q, and alpha_1 = 0 or beta_1 = 0.  A diagonal unitary with
eigenvalue angles t acts on the basis element for (alpha, beta) by the root
of unity with angle (beta - alpha) . t, so characters are formal integer
combinations of roots of unity.  This module keeps them exact.  They are
the reference the tests check dimensions and the oracle's traces against;
the engine in :mod:`kohnspec.invariant_dims` never builds them, and works
with their exact Galois traces instead.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

from .group_catalog import Angle


def sphere_dim(p: int, q: int, n: int) -> int:
    """Dimension of the bidegree-(p, q) harmonic space on the sphere in C^n."""
    if p < 0 or q < 0:
        return 0
    full = math.comb(p + n - 1, n - 1) * math.comb(q + n - 1, n - 1)
    lower = math.comb(p + n - 2, n - 1) * math.comb(q + n - 2, n - 1)
    return full - lower


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

