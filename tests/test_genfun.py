"""Generating functions: series coefficients, polynomial factor, h0 formula."""

from __future__ import annotations

import math

import numpy as np
import pytest

from kohnspec import (
    dim_h0_polynomial,
    h0_coefficients,
    dim_invariant,
    fg_coefficients,
    make_binary_dihedral,
    make_binary_icosahedral,
    make_binary_octahedral,
    make_binary_tetrahedral,
    make_cyclic,
    make_cyclic_semidirect,
    make_lens,
    make_product_with_center,
    make_q_semidirect,
    make_trivial,
    parse_group_spec,
    pg_polynomial,
    reconstruct_dims,
)
from kohnspec import invariant_dims
from kohnspec.errors import SizeLimit, TruncationError
from kohnspec.invariant_dims import _ramanujan_divisors, _ramanujan_row, _totient, period_table
from kohnspec.oracle import modular_image
from reference import element_orders, mobius, pg_expansion, reconstruct_expansion, series_square


GENFUN_GROUPS = [
    make_trivial(),
    make_cyclic(2),
    make_cyclic(4),
    make_cyclic(6),
    make_binary_dihedral(2),
    make_binary_dihedral(3),
    make_binary_tetrahedral(),
    make_binary_octahedral(),
    make_binary_icosahedral(),
    make_product_with_center(make_binary_dihedral(2), 3),
    make_product_with_center(make_binary_tetrahedral(), 5),
    make_q_semidirect(1),
    make_cyclic_semidirect(3, 2),
]


class TestNumberTheoryHelpers:
    def test_totient(self):
        assert [_totient(k) for k in (1, 2, 6, 12, 60)] == [1, 1, 2, 4, 16]

    def test_ramanujan_divisors(self):
        # each divisor d of o with mu(o/d) != 0, paired with mu(o/d)
        assert [mobius(k) for k in (1, 2, 4, 6, 30)] == [1, -1, 0, 1, -1]
        for o in range(1, 61):
            want = sorted((d, mobius(o // d)) for d in range(1, o + 1) if o % d == 0 and mobius(o // d))
            assert sorted(_ramanujan_divisors(o)) == want, o

    def test_ramanujan_row_sums(self):
        # row sums over one period vanish for E > 1 (geometric cancellation)
        for E in (2, 3, 8, 12):
            assert int(_ramanujan_row(E).sum()) == 0
        assert _ramanujan_row(12)[0] == _totient(12)


class TestExponent:
    def test_values(self, all_n2_groups, lens3_groups):
        # the lcm of the element orders, and a divisor of the root order the
        # oracle reduces the generators with
        for g in all_n2_groups + lens3_groups:
            assert g.exponent == math.lcm(*element_orders(g)), g.name
            assert modular_image(g).E % g.exponent == 0, g.name
        pinned = (make_cyclic(6), make_binary_dihedral(2), make_binary_tetrahedral(), make_binary_icosahedral())
        assert [g.exponent for g in pinned] == [6, 4, 12, 60]


class TestSeriesCoefficients:
    def test_trivial_series(self):
        F = fg_coefficients(make_trivial(), 8)
        for p in range(9):
            for q in range(9):
                assert F[p, q] == p + q + 1

    def test_corner_is_one(self):
        for g in GENFUN_GROUPS:
            assert fg_coefficients(g, 2)[0, 0] == 1

    def test_cyclic4_value(self):
        assert fg_coefficients(make_cyclic(4), 4)[3, 1] == 3

    @pytest.mark.parametrize("group", GENFUN_GROUPS, ids=lambda g: g.name)
    def test_matches_character_averaging(self, group):
        F = fg_coefficients(group, 24)
        dims = np.array([[dim_invariant(group, p, q) for q in range(25)] for p in range(25)])
        assert np.array_equal(F, dims)

    def test_lens_n3(self):
        g = make_lens(3, (1, 1, 2))
        F = fg_coefficients(g, 8)
        for p in range(9):
            for q in range(9):
                assert F[p, q] == dim_invariant(g, p, q)


class TestPolynomialFactor:
    def test_trivial_is_one(self):
        poly = pg_polynomial(make_trivial())
        assert poly.degree == 0 and poly.c(0, 0) == 1

    @pytest.mark.parametrize("group", GENFUN_GROUPS, ids=lambda g: g.name)
    def test_degree_bound_and_roundtrip(self, group):
        poly = pg_polynomial(group)
        assert poly.degree == group.n * (poly.e - 1)
        # test_matches_character_averaging checks the square against single cells
        assert np.array_equal(reconstruct_dims(poly, 24), fg_coefficients(group, 24))

    def test_coefficients_integral(self):
        poly = pg_polynomial(make_binary_tetrahedral())
        assert poly.coeffs.dtype == np.int64

    def test_operators_match_the_binomial_expansions(self, all_n2_groups, lens3_groups):
        for g in all_n2_groups + lens3_groups:
            poly = pg_polynomial(g)
            P = pg_expansion(fg_coefficients(g, max(2 * g.n * poly.e, 24)), g.n, poly.e)
            d = poly.degree + 1
            assert np.array_equal(P[:d, :d], poly.coeffs), g.name
            assert np.count_nonzero(P) == np.count_nonzero(poly.coeffs), g.name
            c = 2 * poly.degree + 5
            assert np.array_equal(reconstruct_dims(poly, c), reconstruct_expansion(poly, c)), g.name

    @pytest.mark.parametrize("spec, ceiling", [("cyclic:1", 200), ("cyclic:2", 200), ("lens:1:1,1,1", 150)])
    def test_roundtrip_at_small_exponents(self, spec, ceiling):
        # e = 1 or 2: the binomial series has (ceiling / e + 1)^2 pairs of terms
        g = parse_group_spec(spec)
        assert np.array_equal(reconstruct_dims(pg_polynomial(g), ceiling), fg_coefficients(g, ceiling))

    def test_n2_numerator_is_the_expanded_series(self, all_n2_groups):
        # U = (1 - zw) P from base and step, against the binomial expansion of
        # the band kernel's square p, q < 2 E, where U lives
        for g in all_n2_groups:
            E = g.exponent
            P = pg_expansion(series_square(g, 2 * E - 1), 2, E)
            U = P.copy()
            U[1:, 1:] -= P[:-1, :-1]
            assert np.array_equal(period_table(g, E * E).numerator(), U), g.name

    def test_a_corrupt_base_does_not_divide(self, monkeypatch):
        # one base entry off by one adds 2 to one diagonal sum of U and -1 to
        # two others, so U is not (1 - zw) times a polynomial of degree 118
        g = make_binary_icosahedral()
        table = period_table(g, 3600)
        base = table.base.copy()
        base[7, 3] += 1
        monkeypatch.setattr(table, "base", base)
        with pytest.raises(TruncationError, match="^2I: U is not \\(1 - zw\\) times a polynomial of degree <= 118$"):
            pg_polynomial(g)

    def test_n2_edge_is_the_product_budget(self):
        # P's square p, q <= 2(e - 1) fits the cell budget up to e = 1024, as
        # for n >= 3; at e = 1025 it is refused before any base is filled
        g = make_cyclic(1024)
        poly = pg_polynomial(g)
        assert poly.degree == 2046 and int(poly.coeffs.sum()) * g.order == 1024 ** 4
        assert np.array_equal(reconstruct_dims(poly, 40), fg_coefficients(g, 40))
        over = make_cyclic(1025)
        assert dim_invariant(over, 3, 5) == 1     # one cell: the group's traces, and no base
        with pytest.raises(SizeLimit, match="^the Molien product of cyclic:1025, p, q <= 2048, needs at least "
                                            "4198401 cells, above the budget of 4194304$"):
            pg_polynomial(over)
        assert invariant_dims._period_tables[over].base is None


class TestH0Polynomial:
    def test_m0_is_one(self):
        for g in GENFUN_GROUPS:
            assert dim_h0_polynomial(h0_coefficients(g), 0) == 1

    @pytest.mark.parametrize("group", GENFUN_GROUPS, ids=lambda g: g.name)
    def test_column_is_row_zero_of_p(self, group):
        poly = pg_polynomial(group)
        assert h0_coefficients(group) == [poly.c(0, j * poly.e) for j in range(group.n)]

    @pytest.mark.parametrize("group", GENFUN_GROUPS, ids=lambda g: g.name)
    def test_agrees_with_averaging(self, group):
        coeffs = h0_coefficients(group)
        e = group.exponent
        for m in range(7):
            assert dim_h0_polynomial(coeffs, m) == dim_invariant(group, 0, m * e)

    def test_eventually_positive(self):
        for g in GENFUN_GROUPS:
            coeffs = h0_coefficients(g)
            values = [dim_h0_polynomial(coeffs, m) for m in range(51)]
            threshold = next(M for M in range(51) if all(v >= 1 for v in values[M:]))
            assert threshold <= 10, (g.name, values[:12])

    def test_polynomial_degree(self):
        # n-th forward difference vanishes: the formula is a polynomial in m
        # of degree at most n - 1
        for g in GENFUN_GROUPS:
            n = g.n
            coeffs = h0_coefficients(g)
            vals = [dim_h0_polynomial(coeffs, m) for m in range(n + 5)]
            diff = vals
            for _ in range(n):
                diff = [b - a for a, b in zip(diff, diff[1:])]
            assert all(d == 0 for d in diff), (g.name, vals)
