"""Spectrum assembly: multiplicities, counting, tail bound, Weyl checks."""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest

from kohnspec import (
    box_eigenvalue,
    compare_spectra,
    counting_function,
    dim_invariant,
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
    multiplicity,
    weyl_constant,
    weyl_report,
    xi_bound,
)
from kohnspec.errors import ConstraintError, SizeLimit
from kohnspec.group_catalog import parse_group_spec
from kohnspec.invariant_dims import MAX_CELLS, dim_cells, period_table
from kohnspec.spectrum import (
    _SPHERE_PERIOD,
    SpectrumEntry,
    _cells,
    eigenvalue_bidegrees,
    period_counts,
    sphere_count,
    sphere_volume,
    weyl_integral_coefficients,
)

from conftest import TWISTED_SPECS, WEYL_GROUP_SPECS
from reference import (
    sphere_counting_table,
    sphere_dim,
    sphere_dims,
    tail_bound_holds,
    weyl_integral,
    weyl_report_cells,
)

F = Fraction


def fraction_xi_bound(lam, n):
    """Reference tail bound: the Fraction-division loop xi_bound replaced."""
    lam = Fraction(lam)
    total = 0
    for k in range(0, math.floor(lam) - n + 2):
        inner = math.floor(lam / (k + n - 1))
        total += math.comb(k + n - 2, n - 2) * math.comb(inner + n - 2, n - 1)
    for k in range(1, math.floor(lam / (n - 1)) + 1):
        inner = math.floor(lam / k)
        total += math.comb(k + n - 2, n - 2) * math.comb(inner, n - 1)
    return total


def loop_xi_bound(lam, n):
    """Reference tail bound: the integer-floor loop, one step per k, that the
    hyperbola-blocked sum replaced."""
    lam = Fraction(lam)
    num, den = lam.numerator, lam.denominator
    total = 0
    for k in range(0, num // den - n + 2):
        inner = num // (den * (k + n - 1))
        total += math.comb(k + n - 2, n - 2) * math.comb(inner + n - 2, n - 1)
    for k in range(1, num // (den * (n - 1)) + 1):
        inner = num // (den * k)
        total += math.comb(k + n - 2, n - 2) * math.comb(inner, n - 1)
    return total


def loop_eigenvalue_bidegrees(lam, n):
    """Reference contributor list: the loop over every q up to lam/(2(n-1))
    that trial division replaced."""
    if lam <= 0 or lam % 2 != 0:
        return []
    half = lam // 2
    out = []
    q = 1
    while q * (n - 1) <= half:
        if half % q == 0:
            out.append((half // q - (n - 1), q))
        q += 1
    return out


def reference_cells(n, lam_max):
    """Every (p, q), q >= 1, with 2q(p + n - 1) <= lam_max, by eigenvalue and
    then q, as two int64 arrays."""
    half = lam_max // 2
    cells = sorted((q * (p + n - 1), q, p) for q in range(1, half + 1) for p in range(half + 1)
                   if q * (p + n - 1) <= half)
    return np.array([c[2] for c in cells], dtype=np.int64), np.array([c[1] for c in cells], dtype=np.int64)


def reference_entries(n, p, q, dims):
    """The per-cell bucketing loop the array table replaced: one entry per
    eigenvalue, contributors in cell order."""
    entries = []
    for pi, qi, d in zip(p.tolist(), q.tolist(), dims.tolist()):
        lam = box_eigenvalue(pi, qi, n)
        if entries and entries[-1].eigenvalue == lam:
            entries[-1].mult += d
            entries[-1].contributors.append((pi, qi))
        else:
            entries.append(SpectrumEntry(lam, d, [(pi, qi)]))
    return entries


def reference_count(entries, lam):
    i = bisect_right([e.eigenvalue for e in entries], lam)
    return sum(e.mult for e in entries[:i])


def invariant_count_direct(group, half_cutoff):
    """Double-loop evaluation of the dimension of the span of all invariant
    bidegree spaces with 0 < q(p + n - 1) <= half_cutoff.

    Equals counting_function(group, 2*half_cutoff).count(2*half_cutoff); a
    cross-check of the bucketed enumeration through the same dim_invariant."""
    n = group.n
    total = 0
    p = 0
    while (p + n - 1) <= half_cutoff:
        for q in range(1, half_cutoff // (p + n - 1) + 1):
            total += dim_invariant(group, p, q)
        p += 1
    return total


def closed_form_integral(n):
    return float(sum(c * math.pi**k for k, c in weyl_integral_coefficients(n).items()))


class TestMultiplicity:
    def test_eigenvalue_contributors(self):
        assert eigenvalue_bidegrees(4, 2) == [(1, 1), (0, 2)]
        assert eigenvalue_bidegrees(24, 2) == [(11, 1), (5, 2), (3, 3), (2, 4), (1, 6), (0, 12)]
        assert eigenvalue_bidegrees(7, 2) == []
        for p, q in eigenvalue_bidegrees(40, 3):
            assert box_eigenvalue(p, q, 3) == 40

    def test_contributors_match_loop(self):
        for n in (2, 3, 4):
            for lam in range(-2, 2001):
                assert eigenvalue_bidegrees(lam, n) == loop_eigenvalue_bidegrees(lam, n), (lam, n)

    def test_eigenvalue_budget(self):
        from kohnspec.errors import SizeLimit
        from kohnspec.spectrum import MAX_EIGENVALUE

        assert eigenvalue_bidegrees(MAX_EIGENVALUE, 2)[0] == (MAX_EIGENVALUE // 2 - 1, 1)
        with pytest.raises(SizeLimit):
            eigenvalue_bidegrees(MAX_EIGENVALUE + 2, 2)

    def test_mult4_separates_cyclic_from_dihedral(self):
        for m in range(2, 7):
            assert multiplicity(make_cyclic(4 * m), 4)[0] == 2
            assert multiplicity(make_binary_dihedral(m), 4)[0] == 0

    def test_mult8(self):
        for k in range(3, 7):
            assert multiplicity(make_binary_dihedral(k), 8)[0] == 2
        for g in (make_binary_tetrahedral(), make_binary_octahedral(), make_binary_icosahedral()):
            assert multiplicity(g, 8)[0] == 0

    def test_mult12(self):
        assert multiplicity(make_binary_tetrahedral(), 12)[0] == 2
        assert multiplicity(make_product_with_center(make_binary_dihedral(2), 3), 12)[0] == 3
        assert multiplicity(make_binary_octahedral(), 12)[0] == 0
        assert multiplicity(make_q_semidirect(1), 12)[0] == 0

    def test_mult24(self):
        assert multiplicity(make_binary_tetrahedral(), 24)[0] == 6
        assert multiplicity(make_binary_icosahedral(), 24)[0] == 2
        assert multiplicity(make_product_with_center(make_binary_tetrahedral(), 5), 24)[0] == 3
        assert multiplicity(make_cyclic_semidirect(3, 2), 24)[0] == 3

    def test_odd_and_unrealizable(self):
        g = make_cyclic(4)
        assert multiplicity(g, 7) == (0, [])
        assert multiplicity(g, -2) == (0, [])
        g3 = make_lens(2, (1, 1, 1))
        assert multiplicity(g3, 2) == (0, [])  # 2q(p+2) >= 4 in C^3

    def test_contributors_in_one_engine_call(self, monkeypatch):
        # the value is the sum the per-cell path gave over the same cells
        import kohnspec.spectrum as spectrum

        calls = []

        def counted(group, p, q):
            calls.append(len(p))
            return dim_cells(group, p, q)

        monkeypatch.setattr(spectrum, "dim_cells", counted)
        total, contributors = multiplicity(make_lens(5, (1, 2, 3)), 10**5)
        assert (total, len(contributors), calls) == (1210835783, 29, [29])

    def test_large_eigenvalue_matches_closed_form(self, capsys):
        # one batch over 156 contributors whose p and q each reach 5e11: the
        # sphere-dimension bound holds per cell, not jointly
        from kohnspec.cli import run
        from kohnspec.invariant_dims import dim_closed_form

        g = make_binary_tetrahedral()
        total, contributors = multiplicity(g, 10**12)
        assert total == sum(dim_closed_form(g, p, q) for p, q in contributors) == 104217529218
        assert run(["multiplicity", "--group", "2T", "--lambda", "1000000000000"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split()[:2] == ["1000000000000", "104217529218"]


class TestCountingFunction:
    def test_trivial_entries(self):
        table = counting_function(make_trivial(), 4)
        assert [e.eigenvalue for e in table.entries] == [2, 4]
        assert table.entries[0].mult == 2          # bidegree (0,1)
        assert table.entries[1].mult == 6          # bidegrees (1,1) and (0,2)
        assert table.entries[1].contributors == [(1, 1), (0, 2)]
        assert table.count(4) == 8

    def test_monotone(self):
        table = counting_function(make_binary_tetrahedral(), 100)
        counts = [table.count(lam) for lam in range(0, 101, 2)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_direct_double_loop_agrees(self, all_n2_groups):
        for g in all_n2_groups[:8]:
            table = counting_function(g, 60)
            assert table.count(60) == invariant_count_direct(g, 30), g.name

    def test_quotient_below_sphere(self):
        sphere = sphere_counting_table(2, 200)
        for g in (make_cyclic(5), make_binary_dihedral(3)):
            table = counting_function(g, 200)
            for lam in range(2, 201, 2):
                assert table.count(lam) <= sphere.count(lam)

    def test_sphere_table_matches_scalar_sphere_dim(self):
        for n, lam in ((2, 400), (3, 120), (4, 60)):
            for e in sphere_counting_table(n, lam).entries:
                assert e.mult == sum(sphere_dim(p, q, n) for p, q in e.contributors), (n, e)
        assert sphere_counting_table(3, 3).entries == []

    def test_zero_multiplicity_entries_retained(self):
        table = counting_function(make_binary_tetrahedral(), 10)
        assert [e.eigenvalue for e in table.entries] == [2, 4, 6, 8, 10]
        assert all(e.mult == 0 for e in table.entries)


TABLE_GROUPS = [
    (make_trivial, (2,), 240), (make_trivial, (3,), 160), (make_binary_tetrahedral, (), 240),
    (make_binary_icosahedral, (), 240), (make_cyclic_semidirect, (3, 2), 240),
    (make_lens, (5, (1, 2, 3)), 160),
]


class TestInt64BoundsPerCell:
    def test_lens3_counts_past_the_joint_bound(self):
        # the int64 bound of the n >= 3 kernel holds per band of cells: a
        # joint bound over all cells raised Int64Limit at this cutoff
        g = make_lens(5, (1, 2, 3))
        table = counting_function(g, 60000)
        assert (table.count(50000), table.count(60000)) == (1713478028787, 2960967380227)
        report = weyl_report(g, [50000, 60000])
        assert report.n_quotient == [1713478028787, 2960967380227]
        assert all(report.bound_ok)

    def test_series_bound_still_trips_on_one_cell(self):
        from kohnspec.errors import Int64Limit

        g = make_lens(5, (1, 2, 3))
        # three far cells, each read from the Molien table under its own
        # bound: the single-cell values, where one bound over all three rows
        # raised Int64Limit.  (64500, 64500) passes the C_p C_q < 2^62 guard
        # but not the table's sum |U| C_P' C_Q' < 2^63
        assert dim_cells(g, [20000, 100000, 0], [20000, 0, 100000]).tolist() == [
            1600240012001, 1000030001, 1000030001]
        assert math.comb(64502, 2) ** 2 < 2**62
        with pytest.raises(Int64Limit, match="sum \\|U\\| C_P' C_Q' at \\(p,q\\)=\\(64500,64500\\)"):
            dim_cells(g, [0, 64500], [1, 64500])

    def test_n2_trace_bound_reads_each_cells_own_degree(self):
        # qsemi:101: the contributors' largest p + q is ~6e11, while
        # p.max() + q.max() ~1.2e12; either is far below the n = 2 limit p + q + 1 < 2^63
        assert multiplicity(make_q_semidirect(101), 1_199_880_000_000)[0] == 49995797261

    def test_n2_trace_refuses_a_cell_whose_degree_wraps(self):
        from kohnspec.errors import Int64Limit

        # p + q = 10^19 wraps in int64, so a bound read from max(p + q) alone would pass it
        with pytest.raises(Int64Limit):
            dim_cells(make_cyclic(3), np.array([0, 5 * 10**18]), np.array([0, 5 * 10**18]))

    def test_n2_limit_is_the_sphere_dimension(self):
        from kohnspec.errors import Int64Limit

        # cyclic:1 leaves every harmonic invariant: dim = p + q + 1, at most 2^63 - 1
        g = make_cyclic(1)
        assert dim_invariant(g, 2**62, 2**62 - 2) == 2**63 - 1
        with pytest.raises(Int64Limit):
            dim_invariant(g, 2**62, 2**62 - 1)

    def test_n5_reaches_the_band_guard(self):
        from kohnspec.errors import Int64Limit

        # at (p, 0) the cell guard C(p + 4, 4) < 2^62 and the band guard 2 C(p + 4, 4) < 2^63
        # agree: C(102570, 4) fits
        g = parse_group_spec("lens:1:1,1,1,1,1")
        assert dim_invariant(g, 102566, 0) == 4611527207790103770 == math.comb(102570, 4)
        with pytest.raises(Int64Limit):
            dim_invariant(g, 102567, 0)


def guard_edge(n, p):
    """The largest q whose single cell (p, q) of a trivial group passes the
    band guard 2 C(p + n - 1, n - 1) C(q + n - 1, n - 1) < 2^63."""
    cp = math.comb(p + n - 1, n - 1)
    lo, hi = 0, 2**62
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if 2 * cp * math.comb(mid + n - 1, n - 1) < 2**63 else (lo, mid - 1)
    return lo


class TestSphereGate:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_trivial_group_is_the_sphere_to_the_band_edge(self, n):
        from kohnspec.errors import Int64Limit

        # every harmonic is invariant, so each dimension meets the gate's upper
        # end: a sphere dimension read too small raises NonIntegralDimension
        g = parse_group_spec("lens:1:" + ",".join(["1"] * n))
        rng = random.Random(n)
        cap = 100_000   # keeps the series table near a MB
        cells = 0
        while cells < 12:
            p = rng.randint(0, min(cap, guard_edge(n, 0)))
            edge = guard_edge(n, p)
            if edge >= cap:
                continue
            cells += 1
            for a, b in ((p, edge), (edge, p), (p, rng.randint(0, edge)), (rng.randint(0, edge), p)):
                assert dim_cells(g, [a], [b]).tolist() == [sphere_dim(a, b, n)], (a, b)
            with pytest.raises(Int64Limit):
                dim_cells(g, [p], [edge + 1])


class TestArrayTable:
    """The array table against the per-cell bucketing loop it replaced."""

    @staticmethod
    def assert_matches(table, entries, lam_max):
        assert table.entries == entries
        for e in table.entries:
            assert type(e.eigenvalue) is int and type(e.mult) is int
            assert all(type(p) is int and type(q) is int for p, q in e.contributors)
        for lam in [*range(0, lam_max + 1, 2), 37, 101.5, lam_max + 0.5]:
            got = table.count(lam)
            assert type(got) is int
            assert got == reference_count(entries, lam), lam

    @pytest.mark.parametrize("make, args, lam_max", TABLE_GROUPS)
    def test_group_table_matches_reference(self, make, args, lam_max):
        g = make(*args)
        p, q = reference_cells(g.n, lam_max)
        entries = reference_entries(g.n, p, q, dim_cells(g, p, q))
        assert any(e.mult == 0 for e in entries) == (g.order > 1)   # zero entries are covered
        self.assert_matches(counting_function(g, lam_max), entries, lam_max)

    @pytest.mark.parametrize("n, lam_max", [(2, 240), (3, 160), (4, 100)])
    def test_sphere_table_matches_reference(self, n, lam_max):
        p, q = reference_cells(n, lam_max)
        entries = reference_entries(n, p, q, sphere_dims(p, q, n))
        self.assert_matches(sphere_counting_table(n, lam_max), entries, lam_max)

    @pytest.mark.parametrize("n, lam_max", [(2, 240), (3, 160), (4, 100)])
    def test_cells_are_q_major(self, n, lam_max):
        # row by row, unsorted by eigenvalue: the table sorts only for entries
        p, q = _cells(n, lam_max)
        assert (p.dtype, q.dtype) == (np.int64, np.int64)
        assert np.all(np.diff(q) >= 0) and np.all((np.diff(p) == 1) | (np.diff(q) == 1))
        ref = reference_cells(n, lam_max)
        assert sorted(zip(p.tolist(), q.tolist())) == sorted(zip(*(a.tolist() for a in ref)))

    def test_empty_table(self):
        for table in (counting_function(make_lens(5, (1, 2, 3)), 3), sphere_counting_table(3, 3)):
            assert table.entries == []
            assert [table.count(lam) for lam in (0, 3, 3.5, 100)] == [0, 0, 0, 0]
            assert type(table.count(3)) is int
            assert (table.lambda_max, type(table.lambda_max)) == (3, int)

    def test_results_hold_python_ints(self):
        res = compare_spectra(make_binary_dihedral(6), make_binary_tetrahedral(), 48)
        assert all(type(x) is int for x in (res.lambda_max, res.eigenvalue, res.mult_a, res.mult_b))
        rep = weyl_report(make_cyclic(4), [100, 200])
        assert all(type(x) is int for x in rep.n_quotient + rep.n_sphere + rep.xi)


class TestXiBound:
    def test_hand_value_n2(self):
        # both inner binomials degenerate to floors: (2+1) + (2+1) = 6
        assert xi_bound(2, 2) == 6

    def test_empty_sums(self):
        assert xi_bound(F(1, 2), 2) == 0
        assert xi_bound(0, 3) == 0
        assert xi_bound(1, 3) == xi_bound(1, 3)  # total, no error

    def test_nonnegative_and_growth(self):
        prev = None
        for k in range(4, 13):
            lam = 2**k
            val = xi_bound(lam, 2)
            assert val >= 0
            ratio = val / lam**2
            if prev is not None:
                assert ratio < prev
            prev = ratio
        assert prev < 0.02  # o(lambda^2) in practice by lambda = 4096

    def test_fraction_input(self):
        assert xi_bound(F(5, 2), 2) == xi_bound(2.5, 2)

    def test_blocked_sum_matches_loop(self):
        large = [65537, 100_000, F(199_999, 2), F(700_001, 7), 99_999.75, 12_345.5]
        for n in (2, 3, 4, 5, 6, 7, 8):
            for lam in list(range(0, 300)) + large:
                assert xi_bound(lam, n) == loop_xi_bound(lam, n), (lam, n)

    def test_integer_floors_match_fraction_loop(self):
        lams = [0, 1, 2, 7, 100, 1001, F(1, 2), F(7, 3), F(2001, 2), F(999, 7), 0.1, 2.5, 10.75, 333.3]
        for n in (2, 3, 4):
            for lam in lams:
                assert xi_bound(lam, n) == fraction_xi_bound(lam, n), (lam, n)


class TestTailBound:
    def test_exact_bound_all_groups(self, all_n2_groups):
        sphere = sphere_counting_table(2, 400)
        for g in all_n2_groups:
            table = counting_function(g, 400)
            for lam_half in range(10, 201, 10):
                ng = table.count(2 * lam_half)
                ns = sphere.count(2 * lam_half)
                assert tail_bound_holds(g, lam_half, ng, ns), (g.name, lam_half)

    def test_exact_bound_n3_lens(self, lens3_groups):
        sphere = sphere_counting_table(3, 80)
        for g in lens3_groups:
            table = counting_function(g, 80)
            for lam_half in range(4, 41, 4):
                ng = table.count(2 * lam_half)
                ns = sphere.count(2 * lam_half)
                assert tail_bound_holds(g, lam_half, ng, ns), (g.name, lam_half)

    def test_half_integer_cutoffs(self):
        g = make_cyclic(4)
        table = counting_function(g, 200)
        sphere = sphere_counting_table(2, 200)
        for lam in (25, 75, 133):   # odd cutoffs: counts step at even values only
            assert table.count(lam) == table.count(lam - 1)
            assert tail_bound_holds(g, F(lam, 2), table.count(lam), sphere.count(lam))


class TestWeylConstant:
    def test_quadrature_schemes_agree(self):
        # the exact pi-polynomial against the independent Legendre quadrature
        for n in range(2, 31):
            a = closed_form_integral(n)
            b = weyl_integral(n)
            assert abs(a - b) / abs(a) < 1e-9, n

    def test_integral_pi_polynomials(self):
        # identified independently from 40-digit numerical integrals
        assert weyl_integral_coefficients(2) == {2: F(1, 3)}
        assert weyl_integral_coefficients(3) == {2: F(1, 2)}
        assert weyl_integral_coefficients(4) == {2: F(2, 3), 4: F(4, 45)}
        assert weyl_integral_coefficients(5) == {2: F(5, 6), 4: F(11, 18)}
        assert weyl_integral_coefficients(6) == {2: F(1), 4: F(7, 3), 6: F(16, 105)}

    def test_n2_integral_analytic(self):
        # the n = 2 convergence integral evaluates to pi^2 / 3
        assert weyl_integral(2) == pytest.approx(math.pi**2 / 3, rel=1e-12)

    def test_n2_limit_value(self):
        # sphere limit N(lam)/lam^2 -> pi^2 / 24
        assert weyl_constant(2) * sphere_volume(2) == pytest.approx(math.pi**2 / 24, rel=1e-12)

    def test_pinned_constants(self):
        # published regression constants; numerically these agree with the
        # closed forms 1/48 and 1/(144 pi) to full precision
        assert weyl_constant(2) == pytest.approx(1 / 48, rel=1e-12)
        assert weyl_constant(3) == pytest.approx(1 / (144 * math.pi), rel=1e-12)

    def test_closed_form_values_exact(self):
        assert weyl_constant(2) == 1 / 48
        # the correctly rounded value of 1/(144 pi)
        assert repr(weyl_constant(3)) == "0.0022104853207207684"


class TestWeylReport:
    def test_cyclic4_ratio(self):
        rep = weyl_report(make_cyclic(4), [500, 1000, 2000])
        assert abs(rep.ratios[-1] - 4) / 4 < 0.02
        assert all(rep.bound_ok)
        assert rep.empirical_limit == pytest.approx(rep.expected_limit, rel=0.02)

    def test_trivial_ratio_is_one(self):
        rep = weyl_report(make_trivial(), [100, 200])
        assert rep.ratios == [1.0, 1.0]

    def test_richardson_improves(self):
        rep = weyl_report(make_cyclic(3), [1000, 2000])
        raw_err = abs(rep.empirical_limit - rep.expected_limit)
        rich_err = abs(rep.richardson_limit - rep.expected_limit)
        assert rich_err <= raw_err

    def test_xi_bound_once_per_grid_point(self, monkeypatch):
        import kohnspec.spectrum as spectrum

        calls = []

        def counted(lam, n):
            calls.append(lam)
            return xi_bound(lam, n)

        monkeypatch.setattr(spectrum, "xi_bound", counted)
        rep = weyl_report(make_cyclic(4), [100, 200, 300, 400])
        assert len(calls) == 4
        assert rep.xi == [xi_bound(F(lam, 2), 2) for lam in rep.grid]
        assert all(rep.bound_ok)

    @pytest.mark.parametrize("grid", [[], [0], [-4, 0]])
    def test_grid_without_a_positive_end_is_refused(self, grid):
        # the limits divide by the last cutoff to the n-th power
        with pytest.raises(ConstraintError, match="grid must end at a cutoff >= 1"):
            weyl_report(make_binary_tetrahedral(), grid)

    @pytest.mark.parametrize("grid", [[0, 2], [-3, 40], [0, 0, 60]])
    def test_fit_below_one_falls_back_to_one_point(self, grid):
        rep = weyl_report(make_binary_tetrahedral(), grid)
        assert rep.richardson_limit == rep.empirical_limit == rep.n_quotient[-1] / grid[-1] ** 2


class TestSphereCount:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_floor_runs_match_the_reference_table(self, n):
        table = sphere_counting_table(n, 5001)
        lams = [0, 1, 2, 3, 2 * (n - 1) - 1, 2 * (n - 1), 4, 10, 11, 100, 999, 1000, 2001, 4999, 5000]
        for lam in lams + list(range(0, 200)):
            assert sphere_count(lam, n) == table.count(lam), (n, lam)

    @pytest.mark.parametrize("group", [make_binary_icosahedral(), make_trivial(3), make_lens(5, (1, 2, 3, 4))],
                             ids=["2I", "trivial3", "lens4"])
    def test_weyl_report_sphere_counts(self, group):
        n = group.n
        grid = sorted({0, 1, 2 * (n - 1) - 1, 2 * (n - 1), 11, 101, 1000, 2001})
        rep = weyl_report(group, grid)
        sphere = sphere_counting_table(n, grid[-1])
        assert rep.n_sphere == [sphere.count(lam) for lam in grid]
        assert all(type(x) is int for x in rep.n_sphere)


class TestCompareSpectra:
    def test_cyclic8_vs_quaternion(self):
        res = compare_spectra(make_cyclic(8), make_binary_dihedral(2), 48)
        assert res.eigenvalue == 4 and (res.mult_a, res.mult_b) == (2, 0)

    def test_dihedral12_vs_tetrahedral(self):
        res = compare_spectra(make_binary_dihedral(6), make_binary_tetrahedral(), 48)
        assert res.eigenvalue == 8 and (res.mult_a, res.mult_b) == (2, 0)

    def test_self_isospectral(self):
        res = compare_spectra(make_binary_octahedral(), make_binary_octahedral(), 100)
        assert res.isospectral

    def test_product_vs_semidirect_scan(self):
        # equal-order pair from the two twisted families (2 * 3 = 3 * 2):
        # first distinguishing eigenvalue found by scanning
        a = make_product_with_center(make_binary_dihedral(2), 3)
        b = make_cyclic_semidirect(3, 2)
        res = compare_spectra(a, b, 300)
        assert res.eigenvalue == 16
        assert (res.mult_a, res.mult_b) == (3, 2)

    def test_prime_eigenvalue_criterion(self):
        # for twists l=3, l'=2 the smallest prime r = 1 mod 4ll' with
        # r > 2/|1/m - 1/m'| is 73; the multiplicity of 4r = 292 must differ
        # and by the floor formulas equals 54 vs 36
        a = make_product_with_center(make_binary_dihedral(2), 3)
        b = make_cyclic_semidirect(3, 2)
        r = 73
        assert r % (4 * 3 * 2) == 1
        ma, _ = multiplicity(a, 4 * r)
        mb, _ = multiplicity(b, 4 * r)
        assert (ma, mb) == (54, 36)
        assert ma == (2 * r - 1) // 4 + r // 4
        assert mb == (2 * r - 1) // 6 + r // 6


# ---------------------------------------------------------------------------
# n = 2 counts from the period table, by the hyperbola method

COUNT_SPECS = WEYL_GROUP_SPECS + TWISTED_SPECS + ["lens:7:1,3", "cyclic:5"]


def rows_of_cells(L, most):
    """The cells q(p + 1) <= L, q >= 1, as q-major chunks of whole rows q,
    each chunk holding at most `most` cells plus one row."""
    width = L // np.arange(1, L + 1)
    ends = np.cumsum(width)
    starts = np.flatnonzero(np.diff(ends // most, prepend=-1))
    for a, b in zip(starts.tolist(), starts[1:].tolist() + [L]):
        w = width[a:b]
        q = np.repeat(np.arange(a + 1, b + 1), w)
        yield np.arange(len(q)) - np.repeat(np.cumsum(w) - w, w), q


class TestPeriodCounts:
    @pytest.mark.parametrize("spec", COUNT_SPECS)
    def test_floor_runs_match_the_counting_table(self, spec):
        g = parse_group_spec(spec)
        table = counting_function(g, 8000)
        grid = list(range(-3, 401)) + list(range(401, 8001, 97)) + [7999, 8000]
        assert period_counts([period_table(g, g.exponent ** 2)], grid) == [[table.count(lam) for lam in grid]]

    @pytest.mark.parametrize("spec", COUNT_SPECS)
    def test_weyl_report_matches_the_cell_route(self, spec):
        g = parse_group_spec(spec)
        for grid in ([250, 500, 1000, 2000], [8000 * i // 24 for i in range(1, 25)], [0, 3, 2 * g.exponent ** 2]):
            assert weyl_report(g, grid) == weyl_report_cells(g, grid), grid

    def test_sphere_table_gives_the_closed_sphere_count(self):
        lams = list(range(-2, 300)) + [4999, 5000, 10**6, 8 * 10**6 + 1]
        assert period_counts([_SPHERE_PERIOD], lams) == [[sphere_count(lam, 2) for lam in lams]]

    @pytest.mark.parametrize("spec", ["2I", "cycsemi:3:2"])
    def test_counts_past_the_cell_budget(self, spec):
        # lambda = 10^6 holds about 7e6 cells, which counting_function refuses:
        # sum dim_cells over chunks of whole rows instead, each below the budget
        g = parse_group_spec(spec)
        with pytest.raises(SizeLimit):
            counting_function(g, 10**6)
        total = sum(int(dim_cells(g, p, q).sum()) for p, q in rows_of_cells(5 * 10**5, MAX_CELLS // 4))
        assert period_counts([period_table(g, g.exponent ** 2)], [10**6]) == [[total]]
        assert weyl_report(g, [10**6]).n_quotient == [total]
