"""Stand-alone property suites over the stated parameter grids, plus
randomized structural identities."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kohnspec import (
    c_group,
    check_free_action,
    counting_function,
    dim_invariant,
    make_binary_dihedral,
    make_binary_icosahedral,
    make_binary_octahedral,
    make_binary_tetrahedral,
    make_cyclic,
    make_cyclic_semidirect,
    make_product_with_center,
    make_q_semidirect,
)
from kohnspec.group_catalog import ZERO, from_classes
from kohnspec.invariant_dims import dim_cells

from conftest import lens3_sample, su2_sample, u2_sample
from reference import char_general, fraction_angles
from test_sobolev import reference_c_group

F = Fraction

angles_st = st.builds(
    lambda num, den: F(num, den) % 1,
    st.integers(min_value=0, max_value=24),
    st.integers(min_value=1, max_value=12),
)


def minus_identity_groups():
    return [
        make_cyclic(2), make_cyclic(4), make_cyclic(6), make_cyclic(8),
        make_binary_dihedral(2), make_binary_dihedral(3), make_binary_dihedral(5),
        make_binary_tetrahedral(), make_binary_octahedral(), make_binary_icosahedral(),
        make_product_with_center(make_binary_dihedral(2), 3),
        make_q_semidirect(1),
        make_cyclic_semidirect(3, 2),
    ]


class TestParityVanishing:
    @pytest.mark.parametrize("group", minus_identity_groups(), ids=lambda g: g.name)
    def test_odd_degree_vanishes(self, group):
        minus = (F(1, 2), F(1, 2))
        assert any(fraction_angles(group, c) == minus for c in group.classes)
        for s in range(1, 16, 2):
            for p in range(s + 1):
                assert dim_invariant(group, p, s - p) == 0


class TestPQSymmetry:
    def test_su2_grid(self, su2_groups):
        for g in su2_groups:
            for s in range(0, 13):
                for p in range(s + 1):
                    assert dim_invariant(g, p, s - p) == dim_invariant(g, s - p, p)

    def test_u2_grid(self, u2_groups):
        for g in u2_groups:
            for s in range(0, 11):
                for p in range(s + 1):
                    assert dim_invariant(g, p, s - p) == dim_invariant(g, s - p, p)


class TestSubgroupMonotonicity:
    def test_chains(self):
        chains = [
            (make_binary_tetrahedral(), make_binary_dihedral(2)),
            (make_binary_octahedral(), make_binary_tetrahedral()),
            (make_binary_icosahedral(), make_binary_tetrahedral()),
        ]
        for big, small in chains:
            for s in range(13):
                for p in range(s + 1):
                    q = s - p
                    assert dim_invariant(big, p, q) <= dim_invariant(small, p, q)


class TestFreeAction:
    def test_catalog_free(self, all_n2_groups, lens3_groups):
        for g in all_n2_groups + lens3_groups:
            assert check_free_action(g).free

    def test_planted_fixed_point_found(self):
        g = from_classes("bad", 2, 5, [((0, 0), 1), ((0, 1), 4)])
        report = check_free_action(g)
        assert not report.free and fraction_angles(g, report.witness) == (ZERO, F(1, 5))


class TestCountingMonotone:
    @pytest.mark.parametrize("group", minus_identity_groups()[:6], ids=lambda g: g.name)
    def test_nondecreasing(self, group):
        table = counting_function(group, 120)
        values = [table.count(lam) for lam in range(0, 121)]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestRandomizedCharacterIdentities:
    @settings(max_examples=40, deadline=None)
    @given(t1=angles_st, t2=angles_st,
           p=st.integers(min_value=0, max_value=6), q=st.integers(min_value=0, max_value=6))
    def test_conjugation_symmetry(self, t1, t2, p, q):
        chi = char_general(p, q, (t1, t2))
        negated = char_general(p, q, ((-t1) % 1, (-t2) % 1))
        assert negated == chi.conjugate()

    @settings(max_examples=40, deadline=None)
    @given(t=angles_st, p=st.integers(min_value=0, max_value=6),
           q=st.integers(min_value=0, max_value=6))
    def test_su2_pq_swap(self, t, p, q):
        angles = (t, (-t) % 1)
        assert char_general(p, q, angles) == char_general(q, p, angles)

    @settings(max_examples=30, deadline=None)
    @given(num=st.integers(min_value=0, max_value=40), den=st.integers(min_value=1, max_value=20))
    def test_angle_normalization(self, num, den):
        a = F(num, den) % 1
        assert 0 <= a < 1
        assert a.denominator >= 1


class TestDimCellsRoutes:
    """dim_cells reads the n = 2 period table once a request holds E^2
    cells, and traces each cell at its own residues below that; either way
    one call equals the single cells."""

    @settings(max_examples=20, deadline=None)
    @given(group=st.sampled_from([g for g in su2_sample() + u2_sample() if g.exponent <= 60]),
           side=st.integers(min_value=-8, max_value=8), seed=st.integers(min_value=0, max_value=2**32 - 1),
           reach=st.sampled_from([1, 3, 10**6, 10**17]))
    def test_one_call_equals_single_cells(self, group, side, seed, reach):
        # up to reach periods of p and of q, within p + q + 1 < 2^63
        E = group.exponent
        p, q = np.random.default_rng(seed).integers(0, min(reach * E, 2**62 - 1) + 1, (2, max(1, E * E + side)))
        singles = [dim_invariant(group, a, b) for a, b in zip(p.tolist(), q.tolist())]
        assert dim_cells(group, p, q).tolist() == singles


class TestSobolevStop:
    """c_group, which stops once the envelope of every later line is below
    its best cell, equals the per-cell scan of the whole triangle."""

    @settings(max_examples=40, deadline=None)
    @given(group=st.sampled_from(su2_sample() + u2_sample() + lens3_sample()),
           ceiling=st.integers(min_value=2, max_value=60), convention=st.sampled_from([2, 4]))
    def test_equals_the_per_cell_scan(self, group, ceiling, convention):
        best_sq, cell = reference_c_group(group, ceiling, convention)
        if cell is None:
            with pytest.raises(ValueError, match="no nonvanishing bidegree"):
                c_group(group, ceiling, convention)
            return
        const = c_group(group, ceiling, convention)
        assert (const.value_squared, const.p, const.q) == (best_sq, *cell)
