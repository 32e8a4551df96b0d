"""Sobolev constants of the complex Green's operator."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from kohnspec import (
    box_eigenvalue,
    c_group,
    c_pq,
    c_pq_squared,
    greens_lower_witness,
    make_binary_icosahedral,
    make_binary_tetrahedral,
    make_cyclic,
    make_cyclic_semidirect,
    make_lens,
    make_q_semidirect,
    make_trivial,
    parse_group_spec,
)
from kohnspec.invariant_dims import dim_triangle
from kohnspec.sobolev import envelope, laplace_eigenvalue


def reference_c_group(group, ceiling, convention):
    """The per-cell maximum c_group replaced: one exact square per
    nonvanishing cell, ties toward the lexicographically smallest cell."""
    best_sq, best_cell = None, None
    for p, q, dim in dim_triangle(group, ceiling):
        if q < 1 or not dim:
            continue
        sq = c_pq_squared(p, q, group.n, convention)
        if best_sq is None or sq > best_sq or (sq == best_sq and (p, q) < best_cell):
            best_sq, best_cell = sq, (p, q)
    return best_sq, best_cell


class TestCellConstant:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_11_value(self, n):
        assert c_pq(1, 1, n) == pytest.approx(math.sqrt(1 + 4 * n) / (2 * n), abs=1e-12)

    def test_n2_value(self):
        assert c_pq(1, 1, 2) == pytest.approx(0.75, abs=1e-15)

    def test_convention_flag(self):
        assert c_pq(1, 1, 2, convention=4) == pytest.approx(0.375, abs=1e-15)

    def test_diagonal_squared_formula(self):
        for n in (2, 3):
            for k in (1, 2, 5):
                expected = Fraction(1 + 2 * k * (2 * k + 2 * n - 2), (2 * k) ** 2 * (k + n - 1) ** 2)
                assert c_pq_squared(k, k, n) == expected

    def test_denominator_is_box_eigenvalue(self):
        # with the default convention the denominator is exactly the Kohn
        # Laplacian eigenvalue: cross-module identity
        for n in (2, 3):
            for p, q in [(0, 1), (1, 1), (3, 2)]:
                mu = laplace_eigenvalue(p + q, n)
                assert c_pq(p, q, n) == pytest.approx(math.sqrt(1 + mu) / box_eigenvalue(p, q, n))

    def test_diagonal_strictly_decreasing(self):
        for n in (2, 3):
            vals = [c_pq_squared(k, k, n) for k in range(1, 51)]
            assert all(a > b for a, b in zip(vals, vals[1:]))


class TestGroupConstant:
    def test_trivial_attains_upper_cell(self):
        # the sphere itself scans (0,1): sqrt(1+3)/2 = 1, certified once the
        # envelope drops below it
        const = c_group(make_trivial(), 20)
        assert const.value == pytest.approx(1.0, abs=1e-12)
        assert (const.p, const.q) == (0, 1)
        assert const.certified

    def test_cyclic_lower_bound(self):
        for m in (2, 3, 4, 7):
            const = c_group(make_cyclic(m), 30)
            assert const.value >= math.sqrt(9) / 4 - 1e-12  # sqrt(1+4n)/(2n) at n=2

    def test_lens_cyclic_bound_n3(self):
        const = c_group(make_lens(4, (1, 3, 3)), 16)
        assert const.value >= math.sqrt(13) / 6 - 1e-12

    def test_icosahedral_value(self):
        const = c_group(make_binary_icosahedral(), 40)
        assert const.value == pytest.approx(13 / 24, abs=1e-12)
        assert (const.p, const.q) == (0, 12)
        assert const.certified

    def test_all_catalog_above_plateau(self, all_n2_groups):
        for g in all_n2_groups:
            const = c_group(g, 36)
            assert const.value > 0.5, g.name

    def test_uncertified_below_envelope(self):
        # tight ceiling: the envelope at the ceiling still dominates the
        # found maximum for the icosahedral group
        const = c_group(make_binary_icosahedral(), 12)
        assert not const.certified
        assert const.envelope_at_ceiling >= const.value
        assert const.plateau == pytest.approx(0.5)

    def test_tie_break_lexicographic(self):
        # 13/24 is attained at both (0,12) and (11,1); the smallest cell wins
        const = c_group(make_binary_icosahedral(), 40)
        assert (const.p, const.q) == (0, 12)

    def test_stops_at_the_first_block_the_envelope_clears(self, monkeypatch):
        # 2I's best cell (0, 12) lies above the envelope of line 16 and of
        # every later line, so only the first block, lines 0..15, is read
        from kohnspec import sobolev

        reads = []
        kernel = sobolev.dim_cells
        monkeypatch.setattr(sobolev, "dim_cells", lambda g, p, q: reads.append(len(p)) or kernel(g, p, q))
        const = c_group(make_binary_icosahedral(), 2000)
        assert (const.p, const.q, const.certified) == (0, 12, True)
        assert sum(reads) == 136

    # the least ceiling at which c_group certifies: s0 + 1, s0 the line of the best cell
    @pytest.mark.parametrize("spec, ceiling", [
        ("cyclic:4", 3), ("cyclic:7", 3), ("lens:5:1,2,3", 3), ("2T", 7), ("cycsemi:3:2", 7), ("2O", 9),
        ("qsemi:1", 9), ("2I", 13), ("lens:5:1,2,3,4", 6), ("2IxC:7", 31), ("qsemi:5", 31),
    ])
    def test_certifying_ceiling(self, spec, ceiling):
        g = parse_group_spec(spec)
        const = c_group(g, ceiling)
        assert const.certified and not c_group(g, ceiling - 1).certified
        # 2894 is the largest ceiling whose triangle fits MAX_CELLS
        deepest = c_group(g, 2894)
        assert (deepest.value_squared, deepest.p, deepest.q) == (const.value_squared, const.p, const.q)

    @pytest.mark.parametrize("convention", [2, 4])
    def test_line_maxima_match_per_cell_reference(self, all_n2_groups, lens3_groups, convention):
        # ceilings on both sides of the ends of the first two blocks (lines 15
        # and 31), of the best lines s0 (12, 30) and of the envelope peaks
        # s* = 5, 11, 19, 29 for n = 4 to 7; make_trivial(6) peaks at
        # (18, 1) and make_trivial(7) at (28, 1), past the first block
        for g in all_n2_groups + lens3_groups + [make_lens(5, (1, 2, 3, 4))] + [make_trivial(n) for n in range(2, 8)]:
            for ceiling in (2, 3, 4, 5, 6, 7, 11, 12, 13, 15, 16, 17, 18, 19, 20, 28, 29, 30, 31, 32, 33):
                best_sq, cell = reference_c_group(g, ceiling, convention)
                if cell is None:
                    with pytest.raises(ValueError, match="no nonvanishing bidegree"):
                        c_group(g, ceiling, convention)
                    continue
                const = c_group(g, ceiling, convention)
                p, q = cell
                assert (const.value_squared, const.p, const.q) == (best_sq, p, q), (g.name, ceiling)
                assert const.value == c_pq(p, q, g.n, convention)
                assert type(const.p) is int and type(const.q) is int


class TestGreensWitness:
    def test_decreasing_to_plateau(self):
        for g in (make_cyclic(4), make_binary_tetrahedral(), make_q_semidirect(1)):
            seq = greens_lower_witness(g, 12)
            assert len(seq) >= 4
            values = [v for _, v in seq]
            assert all(a > b for a, b in zip(values, values[1:]))
            assert all(v > 0.5 for v in values)
            assert values[-1] - 0.5 < 0.1

    def test_first_term_definition(self):
        g = make_cyclic_semidirect(3, 2)
        seq = greens_lower_witness(g, 4)
        m0, v0 = seq[0]
        assert v0 == pytest.approx(c_pq(0, m0 * g.exponent, 2))

    def test_bounded_by_group_constant(self):
        g = make_cyclic(4)
        const = c_group(g, 40)
        for _, v in greens_lower_witness(g, 8):
            assert v <= const.value + 1e-12


class TestEnvelope:
    def test_envelope_dominates_line(self):
        for n in (2, 3):
            for s in (2, 5, 9):
                env = envelope(s, n)
                for p in range(s):
                    q = s - p
                    assert c_pq(p, q, n) <= env + 1e-12

    def test_plateau_limit(self):
        vals = [envelope(s, 2) for s in (10, 100, 1000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(0.5, abs=1e-3)
