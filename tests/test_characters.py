"""Character evaluation: admissible pairs and the exact general sum."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from reference import CharacterValue, admissible_pairs, char_general, fraction_angles, sphere_dim

F = Fraction


def count_admissible(p, q, n):
    return sum(1 for _ in admissible_pairs(p, q, n))


class TestAdmissiblePairs:
    def test_n2_count_is_linear(self):
        assert count_admissible(1, 1, 2) == 3

    def test_empty_bidegree(self):
        for n in (2, 3, 4):
            assert count_admissible(0, 0, n) == 1

    def test_n3_count(self):
        # brute-force enumeration agrees with the two-binomial formula
        assert count_admissible(2, 1, 3) == 15
        assert math.comb(4, 2) * math.comb(3, 2) - math.comb(3, 2) * math.comb(2, 2) == 15

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("p,q", [(0, 0), (1, 0), (0, 2), (1, 1), (2, 3), (3, 2), (4, 1)])
    def test_count_matches_dimension_formula(self, p, q, n):
        assert count_admissible(p, q, n) == sphere_dim(p, q, n)

    def test_constraint_holds(self):
        for alpha, beta in admissible_pairs(3, 2, 3):
            assert sum(alpha) == 3 and sum(beta) == 2
            assert alpha[0] == 0 or beta[0] == 0


class TestCharGeneral:
    def test_identity_value(self):
        for p, q in [(0, 0), (1, 1), (3, 2), (4, 2)]:
            chi = char_general(p, q, (F(0), F(0)))
            assert chi.terms == {F(0): p + q + 1}
            assert chi.term_count() == p + q + 1

    def test_minus_identity_odd_degree(self):
        # every term is (-1)^(p+q) = -1: the value is -(2 + 1 + 1)
        chi = char_general(2, 1, (F(1, 2), F(1, 2)))
        assert chi.terms == {F(1, 2): 4}

    def test_quarter_turn_value(self):
        # eigenvalues (i, -i) at bidegree (1,1): i^-2 + 1 + i^2 = -1
        chi = char_general(1, 1, (F(1, 4), F(3, 4)))
        assert chi.terms == {F(0): 1, F(1, 2): 2}

    def test_quarter_turn_bidegree_31(self):
        # direct expansion over the five admissible pairs gives
        # 1 - 1 + 1 - 1 + 1 = 1 at eigenvalue i
        chi = char_general(3, 1, (F(1, 4), F(3, 4)))
        assert chi.terms == {F(0): 3, F(1, 2): 2}

    def test_degenerate_equal_eigenvalues(self):
        chi = char_general(2, 2, (F(1, 2), F(1, 2)))
        assert chi.terms == {F(0): 5}


class TestClosedForm:
    def test_identity(self):
        # at the identity the character is the dimension, sphere_dim(p, q, n)
        assert char_general(4, 2, (F(0), F(0))).terms == {F(0): 7}
        for n in (2, 3, 4):
            for p, q in [(0, 0), (1, 0), (2, 3), (4, 2)]:
                chi = char_general(p, q, (F(0),) * n)
                assert chi.terms == {F(0): sphere_dim(p, q, n)}


class TestSymmetries:
    def test_permutation_invariance(self):
        # characters depend only on the eigenvalue multiset
        import itertools

        angles = (F(1, 5), F(1, 3), F(3, 7))
        for p, q in [(1, 1), (2, 1), (0, 3)]:
            reference = char_general(p, q, angles)
            for perm in itertools.permutations(angles):
                assert char_general(p, q, perm) == reference

    def test_conjugation(self):
        angles = (F(1, 5), F(2, 5))
        neg = tuple((-a) % 1 for a in angles)
        chi = char_general(2, 1, angles)
        assert char_general(2, 1, neg) == chi.conjugate()

    def test_pq_swap_on_su2_classes(self, su2_groups):
        for g in su2_groups[:6]:
            for c in g.classes[:4]:
                angles = fraction_angles(g, c)
                assert char_general(1, 2, angles) == char_general(2, 1, angles)
                assert char_general(0, 4, angles) == char_general(4, 0, angles)

    def test_value_consistency(self):
        chi = CharacterValue({F(1, 3): 2, F(2, 3): 2, F(0): 1, F(1, 2): 0})
        # zero counts drop out, and the value 2 cos(2 pi / 3) * 2 + 1 = -1
        # is real: the character equals its conjugate
        assert chi == CharacterValue({F(0): 1, F(1, 3): 2, F(2, 3): 2})
        assert chi.conjugate() == chi and chi.term_count() == 5
