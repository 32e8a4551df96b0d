"""Invariant dimensions: averaging, closed forms, and their reconciliation.

Pinned values come from the worked multiplicity computations for the
classification theorems; the reconciliation sweep checks averaging against
every closed form on the full parameter grid.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kohnspec import (
    NonIntegralDimension,
    SizeLimit,
    UnsupportedFamily,
    dim_closed_form,
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
    multiplicity,
    pg_polynomial,
    reconcile,
    reconstruct_dims,
    weyl_report,
)
from kohnspec import invariant_dims
from kohnspec.group_catalog import from_classes
from kohnspec.invariant_dims import (
    PeriodTable,
    _h_vectors,
    _ramanujan_row,
    _totient,
    _rational_classes,
    _direct_dims,
    closed_form_cyclic,
    closed_form_q_semidirect,
    dim_cells,
    dim_triangle,
    period_table,
    triangle_cells,
)
from kohnspec import spectrum
from kohnspec.spectrum import _cells, counting_function

import reference
from conftest import full_reconcile_sweep, lens3_sample
from reference import (char_general, exact_matmul, fraction_angles, mobius, pg_expansion, series_dims, series_square,
                       series_traces, sphere_dim)


class TestPinnedDimensions:
    def test_cyclic_11(self):
        for m in (3, 4, 5, 8):
            assert dim_invariant(make_cyclic(m), 1, 1) == 1

    def test_binary_dihedral_11(self):
        for m in (2, 3, 5):
            assert dim_invariant(make_binary_dihedral(m), 1, 1) == 0

    def test_bidegree_31_chain(self):
        assert dim_invariant(make_cyclic(4), 3, 1) == 3
        assert dim_invariant(make_binary_dihedral(2), 3, 1) == 2
        assert dim_invariant(make_binary_tetrahedral(), 3, 1) == 0

    def test_bidegree_0_12_chain(self):
        assert dim_invariant(make_cyclic(4), 0, 12) == 7
        assert dim_invariant(make_binary_dihedral(2), 0, 12) == 4
        assert dim_invariant(make_binary_tetrahedral(), 0, 12) == 2
        assert dim_invariant(make_binary_icosahedral(), 0, 12) == 1

    def test_trivial_group_full_dimension(self):
        g = make_trivial()
        for p, q in [(0, 0), (2, 3), (5, 1)]:
            assert dim_invariant(g, p, q) == sphere_dim(p, q, 2)

    def test_bidegree_33(self):
        assert dim_invariant(make_cyclic(4), 3, 3) == 3
        assert dim_invariant(make_binary_dihedral(2), 3, 3) == 1
        assert dim_invariant(make_binary_tetrahedral(), 3, 3) == 1
        assert dim_invariant(make_binary_icosahedral(), 3, 3) == 0

    def test_product_family_values(self):
        t5 = make_product_with_center(make_binary_tetrahedral(), 5)
        assert dim_invariant(t5, 3, 3) == 1
        assert dim_invariant(t5, 11, 1) == 2
        assert dim_invariant(t5, 0, 12) == 0
        assert dim_invariant(t5, 2, 4) == 0

    def test_semidirect_values(self):
        q18 = make_q_semidirect(1)
        assert dim_invariant(q18, 2, 2) == 0
        assert dim_invariant(q18, 0, 6) == 0
        c8 = make_cyclic_semidirect(3, 2)
        assert dim_invariant(c8, 3, 3) == 1
        assert dim_invariant(c8, 0, 12) == 2
        assert dim_invariant(c8, 2, 2) == 1
        assert dim_invariant(c8, 1, 3) == 0


class TestClosedForms:
    def test_cyclic_even_formula(self):
        g = make_cyclic(4)
        for s in range(0, 26, 2):
            assert dim_closed_form(g, s // 2, s - s // 2) == 2 * (s // 4) + 1

    def test_cyclic_odd_formula(self):
        for m in (3, 5, 7):
            for p, q in [(0, 1), (2, 1), (4, 3), (0, 9)]:
                s = p + q
                assert closed_form_cyclic(m, p, q) == 2 * ((s + m) // (2 * m))

    def test_mod12_table(self):
        assert dim_closed_form(make_binary_dihedral(3), 2, 2) == 1
        assert dim_closed_form(make_binary_dihedral(4), 2, 2) == 1
        assert dim_closed_form(make_cyclic(6), 0, 6) == 3
        assert dim_closed_form(make_binary_dihedral(3), 0, 6) == 1
        assert dim_closed_form(make_binary_octahedral(), 0, 6) == 0

    def test_q_semidirect_l_branch(self):
        # twist order 18: value 0 at (0,6) through cancellation; for larger
        # twists the congruence filters kill both terms
        assert closed_form_q_semidirect(1, 0, 6) == 0
        for l in (3, 5, 7):
            assert closed_form_q_semidirect(l, 0, 6) == 0
        assert closed_form_q_semidirect(1, 0, 12) == 1

    def test_lens_has_no_closed_form(self):
        with pytest.raises(UnsupportedFamily):
            dim_closed_form(make_lens(5, (1, 2)), 1, 1)


class TestReconcile:
    @pytest.mark.parametrize("spec_idx,group", list(enumerate(full_reconcile_sweep())),
                             ids=lambda v: v.name if hasattr(v, "name") else str(v))
    def test_full_sweep_to_24(self, spec_idx, group):
        report = reconcile(group, 24)
        assert report.ok, f"{group.name}: {report.mismatches[:5]}"

    def test_trivial(self):
        assert reconcile(make_trivial(), 6).ok

    def test_icosahedral_to_14(self):
        assert reconcile(make_binary_icosahedral(), 14).ok

    def test_cyclic_semidirect_to_12(self):
        assert reconcile(make_cyclic_semidirect(3, 2), 12).ok

    def test_deep_sweep_twisted_families(self):
        # beyond the acceptance ceiling: twisted families to degree 36
        for g in (make_q_semidirect(3), make_cyclic_semidirect(7, 6),
                  make_product_with_center(make_binary_icosahedral(), 7)):
            assert reconcile(g, 36).ok, g.name


def _ramanujan(E: int, r: int) -> int:
    """c_E(r), the trace of zeta_E^r down to Q: sum of d mu(E/d) over d | (r, E)."""
    return sum(d * mobius(E // d) for d in range(1, E + 1) if E % d == 0 and r % d == 0)


def traced_average(group, p: int, q: int) -> int:
    """Reference dimension, independent of the engine: the exact Galois trace
    of each character from char_general, averaged over the group."""
    E = math.lcm(*(a.denominator for c in group.classes for a in fraction_angles(group, c)))
    total = sum(
        c.mult * count * _ramanujan(E, int(angle * E))
        for c in group.classes
        for angle, count in char_general(p, q, fraction_angles(group, c)).terms.items()
    )
    dim, residue = divmod(total, _ramanujan(E, 0) * group.order)
    assert residue == 0, (group.name, p, q, total)
    return dim


def test_ramanujan_row_matches_divisor_sum():
    for E in list(range(1, 61)) + [72, 210, 360]:
        assert _ramanujan_row(E).tolist() == [_ramanujan(E, r) for r in range(E)], E


class TestIntegralityGate:
    def test_non_group_classes_detected(self):
        # the identity and one scalar element do not form a group: the
        # weighted trace sum is not divisible by phi(E)|G|, and the engine
        # must fail loudly, on the n = 2 kernel and on the n >= 3 series
        for n in (2, 3):
            fake = from_classes(f"not-a-group-{n}", n, 3, [((0,) * n, 1), ((1,) * n, 1)],
                                expect_free=True)
            with pytest.raises(NonIntegralDimension):
                dim_invariant(fake, 0, 1)

    def test_dimension_above_the_sphere_detected(self):
        # at (0, 1) the average (3 + (-2)(-3) + 2(-1)) / 1 = 7 is integral and
        # nonnegative, but above the sphere dimension 3
        fake = from_classes("over-sphere-3", 3, 2, [((0, 0, 0), 1), ((1, 1, 1), -2), ((0, 1, 1), 2)])
        with pytest.raises(NonIntegralDimension):
            dim_invariant(fake, 0, 1)

    def test_lens3_matches_traced_characters(self, lens3_groups):
        # an n >= 3 check independent of the engine, on every cell with p + q <= 10
        for g in lens3_groups:
            for s in range(11):
                for p in range(s + 1):
                    assert dim_invariant(g, p, s - p) == traced_average(g, p, s - p), (g.name, p, s - p)


class TestNegativeCells:
    def test_cells_outside_the_quadrant_are_zero(self):
        # residues of negative cells, or a series row -1, would read garbage
        # (-4 and 1 for the first two) or raise (the two lens cells)
        lens = make_lens(5, (1, 2, 3))
        for g, p, q in [(make_cyclic(1), -5, 0), (make_cyclic(4), 3, -1), (lens, -1, 0), (lens, -4, -7)]:
            assert dim_cells(g, [p], [q]).tolist() == [0] and dim_invariant(g, p, q) == 0, (g.name, p, q)
            assert dim_cells(g, [p] * 3, [q] * 3).tolist() == [0] * 3, (g.name, p, q)

    def test_mixed_request(self, all_n2_groups, lens3_groups):
        p = np.array([3, -1, 5, 0, -2, 12, 7])
        q = np.array([3, 2, -2, 12, -9, 0, 1])
        inside = (p >= 0) & (q >= 0)
        for g in all_n2_groups + lens3_groups:
            expected = [dim_invariant(g, a, b) if a >= 0 and b >= 0 else 0 for a, b in zip(p.tolist(), q.tolist())]
            assert dim_cells(g, p, q).tolist() == expected, g.name
            assert np.array_equal(dim_cells(g, p[inside], q[inside]), dim_cells(g, p, q)[inside]), g.name

    def test_int64_overflowing_cells_are_refused(self):
        from kohnspec.errors import Int64Limit

        for p in (10**20, -10**20):
            with pytest.raises(Int64Limit, match="beyond int64"):
                dim_invariant(make_cyclic(3), p, 0)


class TestSeriesCellGuard:
    def test_refused_before_the_series_table(self):
        # C(10^6 + 2, 2)^2 >= 2^62: refused with the monomial row alone (8 MB),
        # before the h-vector table of about 300 MB is built
        from kohnspec.errors import Int64Limit

        g = make_lens(7, (1, 2, 4))
        tracemalloc.start()
        try:
            with pytest.raises(Int64Limit, match="C_p C_q at \\(p,q\\)=\\(1000000,1000000\\) may reach 2\\^62"):
                dim_invariant(g, 10**6, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * 10**6, peak

    def test_h_vectors_in_blocks_count_monomials(self, monkeypatch):
        # blocks of one to ten rows, each carried on from the block before,
        # against the monomials of each degree counted by residue
        monkeypatch.setattr(invariant_dims, "_BLOCK_ENTRIES", 10)
        degree = 12
        for angles, E in [((1, 2, 3), 5), ((0, 1, 3, 4), 6), ((2,), 7), ((0, 0, 0), 1)]:
            want = np.zeros((degree + 1, E), dtype=np.int64)
            for exps in itertools.product(range(degree + 1), repeat=len(angles)):
                if sum(exps) <= degree:
                    want[sum(exps), sum(e * a for e, a in zip(exps, angles)) % E] += 1
            assert np.array_equal(_h_vectors(list(angles), E, degree), want), angles

    def test_kernel_peaks_near_its_budget(self):
        # one far cell of lens:5:1,2,3 on the direct route, which serves the
        # groups with no table, holds the series table (7 columns) and one
        # orbit's h-vectors (o = 5) per degree, the entries the budget counts,
        # and the monomial row: each variable is folded into the h-vectors a
        # block of degree rows at a time, and each divisor's residues are
        # summed straight into the table.  Read from the group's Molien table
        # the same cell holds little beyond its monomial row, twice: as built
        # and padded for the terms with P' < alpha
        g = make_lens(5, (1, 2, 3))
        p = 2 * 10**5
        entries = (p + 2) * 7 + (p + 1) * 5 + (p + 2)
        period_table(g, 1)
        for call, held in [(lambda: invariant_dims._direct_dims(g, np.array([p]), np.array([0]))[0], entries),
                           (lambda: dim_invariant(g, p, 0), 2 * (p + 2))]:
            tracemalloc.start()
            try:
                assert call() == 4000060001
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.25 * 8 * held, (peak, 8 * held)

    def test_guard_is_exact_per_cell(self):
        # lens:1:1,1,1,1,1, C_x = C(x + 4, 4): the largest p with C_p C_q < 2^62
        # is answered, and a request holding (p + 1, q) is refused there first
        from kohnspec.errors import Int64Limit

        g = make_trivial(5)
        for q in (1, 2, 3):
            cq = math.comb(q + 4, 4)
            lo, hi = 0, 10**6
            while lo < hi:
                mid = (lo + hi + 1) // 2
                lo, hi = (mid, hi) if math.comb(mid + 4, 4) * cq < 2**62 else (lo, mid - 1)
            assert dim_cells(g, [lo], [q]).tolist() == [sphere_dim(lo, q, 5)], q
            with pytest.raises(Int64Limit, match=f"\\(p,q\\)=\\({lo + 1},{q}\\)"):
                dim_cells(g, [0, lo + 1, lo + 2, 5], [0, q, q, 5])


class TestStructuralProperties:
    def test_pq_symmetry(self, all_n2_groups):
        for g in all_n2_groups:
            for p, q in [(0, 2), (1, 3), (2, 5), (0, 12), (3, 4)]:
                assert dim_invariant(g, p, q) == dim_invariant(g, q, p), g.name

    def test_parity_vanishing_with_minus_identity(self, all_n2_groups):
        from fractions import Fraction
        minus = (Fraction(1, 2), Fraction(1, 2))
        for g in all_n2_groups:
            has_minus = any(fraction_angles(g, c) == minus for c in g.classes)
            if not has_minus:
                continue
            for p, q in [(0, 1), (1, 2), (2, 3), (0, 7), (4, 1)]:
                assert dim_invariant(g, p, q) == 0, g.name

    def test_subgroup_monotonicity(self):
        q8 = make_binary_dihedral(2)
        t = make_binary_tetrahedral()
        o = make_binary_octahedral()
        i = make_binary_icosahedral()
        for s in range(13):
            for p in range(s + 1):
                q = s - p
                assert dim_invariant(t, p, q) <= dim_invariant(q8, p, q)
                assert dim_invariant(o, p, q) <= dim_invariant(t, p, q)
                assert dim_invariant(i, p, q) <= dim_invariant(t, p, q)

    def test_product_filter_matches_averaging(self):
        base = make_binary_tetrahedral()
        g = make_product_with_center(base, 5)
        for s in range(13):
            for p in range(s + 1):
                q = s - p
                expected = dim_invariant(base, p, q) if (q - p) % 5 == 0 else 0
                assert dim_invariant(g, p, q) == expected

    def test_triangle_matches_single_cells(self, all_n2_groups, lens3_groups):
        for g in all_n2_groups + lens3_groups:
            expected = [(p, s - p, dim_invariant(g, p, s - p)) for s in range(7) for p in range(s + 1)]
            assert dim_triangle(g, 6) == expected, g.name
        assert dim_triangle(make_cyclic(3), -1) == []

    def test_h00_always_one(self, all_n2_groups, lens3_groups):
        for g in all_n2_groups + lens3_groups:
            assert dim_invariant(g, 0, 0) == 1

    def test_lens3_dims_bounded(self, lens3_groups):
        for g in lens3_groups:
            for p, q in [(1, 1), (2, 1), (0, 3)]:
                d = dim_invariant(g, p, q)
                assert 0 <= d <= sphere_dim(p, q, 3)


# ---------------------------------------------------------------------------
# The per-class kernels the orbit engine replaced, kept as references: one
# Galois trace for every class, by progression prefix sums (n = 2) and by
# gathering h-vector rows per cell (n >= 3).  For n >= 3 the orbit traces
# are the band kernel's, in reference.py.


def per_class_su2_traces(group, E, p, q):
    ram = _ramanujan_row(E)
    total = np.zeros(len(p), dtype=np.int64)
    for cls in group.classes:
        k1, k2 = (int(a * E) % E for a in fraction_angles(group, cls))
        step = (k1 - k2) % E
        cycles = math.gcd(step, E)
        period = E // cycles
        seq = (np.arange(cycles)[:, None] + step * np.arange(2 * period)) % E
        pre = np.zeros((cycles, 2 * period + 1), dtype=np.int64)
        np.cumsum(ram[seq], axis=1, out=pre[:, 1:])
        cycle, slot = np.empty(E, dtype=np.int64), np.empty(E, dtype=np.int64)
        cycle[seq[:, :period]] = np.arange(cycles)[:, None]
        slot[seq[:, :period]] = np.arange(period)
        base = (q * k2 - p * k1) % E
        row, start = pre[cycle[base]], slot[base]
        whole, part = np.divmod(p + q + 1, period)
        at = np.arange(len(p))
        full = row[at, start + period] - row[at, start]
        total += cls.mult * (whole * full + row[at, start + part] - row[at, start])
    return total


def per_class_series_traces(group, E, p, q):
    ram = _ramanujan_row(E)
    CE = ram[np.add.outer(np.arange(E), np.arange(E)) % E]
    zero = np.zeros((1, E), dtype=np.int64)
    out = np.zeros(len(p), dtype=np.int64)
    for cls in group.classes:
        ks = [int(a * E) % E for a in fraction_angles(group, cls)]
        AC = np.vstack([exact_matmul(_h_vectors([-k % E for k in ks], E, int(p.max())), CE), zero])
        B = np.vstack([_h_vectors(ks, E, int(q.max())), zero])
        out += cls.mult * (AC[p] * B[q] - AC[p - 1] * B[q - 1]).sum(axis=1)
    return out


def per_class_traces(group, p, q):
    E = group.exponent
    return (per_class_su2_traces if group.n == 2 else per_class_series_traces)(group, E, p, q)


def orbit_traces(group, p, q):
    """The engine's traces at the cells: for n = 2 the period table's traces
    at the residues, (pr + qr + 1) central[r] plus the non-central ones, and
    then k E central[r], k = p // E + q // E, r = (q - p) mod E; for n >= 3
    the band kernel's traces."""
    E = group.exponent
    if group.n != 2:
        return series_traces(group, p, q)[0]
    table = period_table(group, 0)      # no request of 0 cells fills base
    a, b = p // E, q // E
    pr, qr = p - a * E, q - b * E
    r = (qr - pr) % E
    return table.noncentral(pr, qr) + (pr + qr + 1 + (a + b) * E) * table.central[r]


def cell_sets(n, seed):
    """Named cell sets: square (p-major and q-major), triangle, hyperbola,
    scattered, unsorted, duplicated and single."""
    rng = np.random.default_rng(seed)
    p, q = np.indices((25, 25), dtype=np.int64)
    square = (p.ravel(), q.ravel())
    q_major = (q.ravel(), p.ravel())
    tri = triangle_cells(30)
    hyper = _cells(n, 400)
    scattered = (rng.integers(0, 60, 200), rng.integers(0, 60, 200))
    perm = rng.permutation(len(tri[0]))
    pick = rng.integers(0, len(hyper[0]), 150)
    dup = (np.concatenate([hyper[0][pick], hyper[0][pick[:40]]]), np.concatenate([hyper[1][pick], hyper[1][pick[:40]]]))
    return {
        "square": square, "q-major square": q_major, "triangle": tri, "hyperbola": hyper, "scattered": scattered,
        "unsorted": (tri[0][perm], tri[1][perm]), "duplicated": dup,
        "single": (np.array([17]), np.array([4])),
    }


class TestRationalClasses:
    def test_orbit_engine_matches_per_class_kernels(self, all_n2_groups, lens3_groups):
        # U(2) lens groups where the inverse of step / c mod E / c is not a
        # unit mod E: 2 of 3 non-central orbits in lens:12:1,5, all 4 in lens:30:1,7.
        # Each cell set is read from an empty table cache, where an n = 2 set
        # below E^2 cells is traced at its own residues, and again once the
        # group's table is built, an n = 2 base filled
        lifted = [make_lens(12, (1, 5)), make_lens(30, (1, 7))]
        for seed, g in enumerate(all_n2_groups + lifted + lens3_groups):
            denom = _totient(g.exponent) * g.order
            sets = cell_sets(g.n, seed)
            expected = {name: per_class_traces(g, p, q) for name, (p, q) in sets.items()}
            for filled in (False, True):
                for name, (p, q) in sets.items():
                    if not filled:
                        invariant_dims._period_tables.clear()
                    assert np.array_equal(orbit_traces(g, p, q), expected[name]), (g.name, name, filled)
                    assert np.array_equal(dim_cells(g, p, q), expected[name] // denom), (g.name, name, filled)
                period_table(g, invariant_dims.MAX_CELLS)

    def test_row_chunks_split_bands(self, lens3_groups, monkeypatch):
        # a block of 40 entries cuts every band of the reference kernel into chunks of a few rows q
        monkeypatch.setattr(reference, "BLOCK_ENTRIES", 40)
        for g in lens3_groups:
            for name, (p, q) in cell_sets(g.n, 7).items():
                assert np.array_equal(orbit_traces(g, p, q), per_class_traces(g, p, q)), (g.name, name)

    def test_orbits_group_conjugate_classes(self):
        for g, classes, orbits in [(make_binary_icosahedral(), 10, 7), (make_cyclic_semidirect(3, 2), 16, 7),
                                   (make_lens(5, (1, 2, 3)), 5, 2), (make_lens(7, (1, 2, 4)), 7, 2),
                                   (make_cyclic(12), 12, 6)]:
            rational = _rational_classes(g)
            assert (len(g.classes), len(rational)) == (classes, orbits), g.name
            assert sum(mult for _, mult in rational) == g.order
            assert _rational_classes(g) is rational     # cached per group

    def test_classes_not_closed_under_powers(self):
        # {identity, one element of order 5}: its four Galois conjugates are
        # absent, so the orbit holds one class, and its trace counts once
        for n in (2, 3):
            fake = from_classes(f"not-closed-{n}", n, 5, [((0,) * n, 1), ((1,) * n, 1)],
                                expect_free=True)
            assert [mult for _, mult in _rational_classes(fake)] == [1, 1]
            for name, (p, q) in cell_sets(n, n).items():
                assert np.array_equal(orbit_traces(fake, p, q), per_class_traces(fake, p, q)), (n, name)

    @settings(max_examples=25, deadline=None)
    @given(m=st.sampled_from([m for m in range(4, 61) if any(m % k == 0 for k in range(2, m))]),
           n=st.sampled_from([3, 4]), data=st.data())
    def test_series_matches_the_per_class_reference(self, m, n, data):
        # composite exponents, squarefree (6, 30, ...), prime powers (8, 49, ...)
        # and mixed (12, 60, ...): orbits of several orders o, each traced in Q(zeta_o)
        units = [r for r in range(1, m) if math.gcd(r, m) == 1]
        g = make_lens(m, data.draw(st.lists(st.sampled_from(units), min_size=n, max_size=n)))
        sets = cell_sets(n, data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
        p, q = sets[data.draw(st.sampled_from(sorted(sets)))]
        denom = _totient(g.exponent) * g.order
        dims, rest = np.divmod(per_class_traces(g, p, q), denom)
        assert not rest.any(), g.name
        assert np.array_equal(dim_cells(g, p, q), dims), g.name

    def test_bands_bound_their_boxes(self):
        def bands(p, q):
            order = np.argsort(q, kind="stable")
            return list(reference.bands(p[order], q[order]))

        p, q = np.indices((200, 200), dtype=np.int64)
        assert len(bands(p.ravel(), q.ravel())) == 1
        assert len(bands(*triangle_cells(300))) == 1
        assert len(bands(np.array([5]), np.array([9]))) == 1
        for lam in (2000, 20000, 200000):
            p, q = _cells(3, lam)
            runs = bands(p, q)
            assert len(runs) <= 2 * math.log2(lam), (lam, len(runs))
            order = np.argsort(q, kind="stable")
            for start, stop, lo, hi in runs:
                qs = q[order][start:stop]
                assert (qs[-1] - qs[0] + 1) * (hi - lo + 1) <= 2 * (stop - start) + reference.BAND_SLACK


class CountingNumpy:
    """numpy for one module, counting its argsort calls."""

    def __init__(self):
        self.argsorts = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def argsort(self, *args, **kwargs):
        self.argsorts += 1
        return np.argsort(*args, **kwargs)


class TestSortFreeSeries:
    def test_q_major_requests_are_not_sorted(self, lens3_groups, monkeypatch):
        counting = CountingNumpy()
        monkeypatch.setattr(invariant_dims, "np", counting)
        for g in lens3_groups:
            sets = cell_sets(g.n, 3)
            h0 = (np.zeros(g.n, dtype=np.int64), g.exponent * np.arange(g.n, dtype=np.int64))
            for name, (p, q) in [*((k, sets[k]) for k in ("q-major square", "hyperbola", "single")), ("h0", h0)]:
                dim_cells(g, p, q)
                assert counting.argsorts == 0, (g.name, name)
            dim_cells(g, *sets["triangle"])     # not q-major: one sort
            assert counting.argsorts == 1, g.name
            counting.argsorts = 0

    def test_shuffled_cells_give_the_same_dims(self, lens3_groups):
        rng = np.random.default_rng(11)
        for g in lens3_groups:
            for name, (p, q) in cell_sets(g.n, 5).items():
                perm = rng.permutation(len(p))
                assert np.array_equal(dim_cells(g, p[perm], q[perm]), dim_cells(g, p, q)[perm]), (g.name, name)

    def test_fg_coefficients_is_the_p_major_square(self, lens3_groups):
        for g in lens3_groups:
            p, q = np.indices((41, 41), dtype=np.int64)
            F = fg_coefficients(g, 40)
            assert np.array_equal(F, dim_cells(g, p.ravel(), q.ravel()).reshape(p.shape)), g.name


# ---------------------------------------------------------------------------
# The n = 2 residue routes: the non-central traces are E-periodic in p and q


@pytest.fixture
def kernel_points(monkeypatch):
    """Counts the residue pairs the n = 2 non-central kernel evaluates."""
    points = []
    kernel = PeriodTable.noncentral

    def counted(self, p, q):
        points.append(len(p))
        return kernel(self, p, q)

    monkeypatch.setattr(PeriodTable, "noncentral", counted)
    return points


class TestPrefixRows:
    def test_rows_difference_to_the_ramanujan_sums(self):
        # one class (c, 0) per divisor c < E: each twists to step c and reads row F_c
        for E in list(range(1, 121)) + [3636]:
            divisors = [c for c in range(1, E) if E % c == 0]
            fake = from_classes(f"divisors-{E}", 2, E, [((0, 0), 1)] + [((c, 0), 1) for c in divisors])
            tables = PeriodTable(fake)
            ram, r = _ramanujan_row(E), np.arange(E)
            seen = []
            for k1, k2, offset in zip(tables.k1.ravel().tolist(), tables.k2.ravel().tolist(),
                                      tables.offset.ravel().tolist()):
                c = (k1 - k2) % E
                F = tables.F[offset:offset + E]
                assert np.array_equal(F[(r + c) % E] - F[r], ram), (E, c)
                seen.append(c)
            assert sorted(seen) == divisors and tables.F.size == E * len(divisors), E

    def test_tables_hold_a_row_per_distinct_divisor(self):
        g = make_cyclic(40000)
        E = g.exponent
        rows = {math.gcd(k1 - k2, E) for (k1, k2), _ in _rational_classes(g) if k1 != k2}
        tables = period_table(g, 1)
        assert (tables.F.size, tables.central.size) == (E * len(rows), E)
        assert len(rows) == 29      # 9.6 MB with central


class TestResidueRoutes:
    def test_square_route_matches_cell_route_and_closed_forms(self, all_n2_groups, kernel_points, monkeypatch):
        rng = np.random.default_rng(13)
        for g in all_n2_groups:
            E = g.exponent
            cells = E * E + E
            # half the cells far out, so that the periodicity is what joins them
            p, q = rng.integers(0, 3 * E + 2, (2, cells))
            p[::2] += 10**6
            kernel_points.clear()
            square = dim_cells(g, p, q)
            assert sum(kernel_points) == E * E, g.name
            # each call below E^2 cells, from an empty cache, so at the cells' own residues
            step = max(1, E * E - 1)
            invariant_dims._period_tables.clear()
            kernel_points.clear()
            with monkeypatch.context() as no_base:
                if E == 1:      # no request is below E^2 = 1 cell: trace one cell at a time without a base
                    no_base.setattr(invariant_dims, "period_route", lambda group, cells: False)
                per_cell = np.concatenate([dim_cells(g, p[i:i + step], q[i:i + step]) for i in range(0, cells, step)])
            assert sum(kernel_points) == cells, g.name
            assert np.array_equal(square, per_cell), g.name
            closed = [dim_closed_form(g, a, b) for a, b in zip(p.tolist(), q.tolist())]
            assert square.tolist() == closed, g.name

    def test_a_filled_base_serves_every_later_request(self, all_n2_groups, kernel_points):
        # after a fill, requests of a few cells read base and trace no residue
        # pair, with the answers they get from an empty cache
        rng = np.random.default_rng(17)
        for g in all_n2_groups:
            requests = [rng.integers(0, 10**6, (2, k)) for k in (1, 5)] + [rng.integers(0, 50, (2, 5))]
            invariant_dims._period_tables.clear()
            cold = [dim_cells(g, p, q) for p, q in requests]
            assert period_table(g, g.exponent ** 2).base is not None, g.name
            kernel_points.clear()
            for (p, q), want in zip(requests, cold):
                assert np.array_equal(dim_cells(g, p, q), want), g.name
            assert sum(kernel_points) == 0, g.name

    def test_table_is_read_from_E_squared_cells(self, kernel_points):
        g = make_binary_icosahedral()       # E = 60
        p, q = triangle_cells(90)
        dims = dim_cells(g, p[:3599], q[:3599])
        assert sum(kernel_points) == 3599 and invariant_dims._period_tables[g].base is None
        kernel_points.clear()
        assert np.array_equal(dim_cells(g, p[:3600], q[:3600])[:3599], dims)
        assert sum(kernel_points) == 3600 and invariant_dims._period_tables[g].base is not None

    def test_kernel_runs_at_the_fewer_of_cells_and_residue_pairs(self, kernel_points):
        weyl_report(make_binary_icosahedral(), [6000])        # 24496 cells, E = 60
        assert sum(kernel_points) == 60 * 60
        kernel_points.clear()
        _, contributors = multiplicity(make_q_semidirect(101), 292)     # E = 3636
        assert 0 < sum(kernel_points) <= len(contributors)


# ---------------------------------------------------------------------------
# The n = 2 period table: dim(p, q) = base[p mod E, q mod E] + (p // E + q // E) step[(q - p) mod E]


def not_a_group():
    """The identity and one scalar of order 3: not closed under products."""
    return from_classes("not-a-group-2", 2, 3, [((0, 0), 1), ((1, 1), 1)], expect_free=True)


def gate_table(W, central):
    """A table with E = 2 and phi(E) |G| = 4 (the class set of Z/2 x Z/2 in
    U(2)) whose weighted trace sums at the square's residue pairs (0, 0),
    (0, 1), (1, 0), (1, 1) are W: its central row is replaced, with step and
    checks (2) and (4) formed from it as the constructor forms them, and its
    non-central traces make up the rest of W."""
    table = PeriodTable(from_classes("gates", 2, 2, [((0, 0), 1), ((1, 1), 1), ((0, 1), 1), ((1, 0), 1)]))
    assert (table.E, table.denom) == (2, 4)
    table.central = np.array(central)
    stepped = 2 * table.central
    table.step = stepped // 4
    table.step_indivisible = stepped != 4 * table.step
    table.step_outside = (table.step < 0) | (table.step > 2)
    table.noncentral = lambda p, q: W[2 * p + q] - (p + q + 1) * table.central[q - p]
    return table


class TestPeriodGates:
    # E = 2, phi(E) |G| = 4: at the residue pairs (pr, qr) of the square W is
    # 4 times the sphere dimension pr + qr + 1, and central 4 gives the
    # sphere's own increment step = E
    pr, qr = np.divmod(np.arange(4), 2)
    sphere = pr + qr + 1

    def test_sphere_traces_pass(self):
        table = gate_table(4 * self.sphere, [4, 4])
        base = table.residue_dims(self.pr, self.qr, self.qr - self.pr)
        assert base.tolist() == self.sphere.tolist() and table.step.tolist() == [2, 2]

    @pytest.mark.parametrize("cell, value, central, match", [
        ((0, 1), 9, [4, 4], "weighted trace sum 9 at residues \\(0, 1\\) is not divisible by 4"),
        (None, 0, [4, 3], "period increment 2 \\* 3 at \\(q - p\\) mod 2 = 1 is not divisible by 4"),
        ((1, 1), 16, [4, 4], "dimension 4 at residues \\(1, 1\\) is outside \\[0, sphere dim\\]"),
        ((0, 0), -4, [4, 4], "dimension -1 at residues \\(0, 0\\) is outside"),
        (None, 0, [8, 4], "period increment 4 at \\(q - p\\) mod 2 = 0 is outside \\[0, 2\\]"),
        (None, 0, [4, -2], "period increment -1 at \\(q - p\\) mod 2 = 1 is outside"),
    ])
    def test_each_condition_fails_alone(self, cell, value, central, match):
        # each input breaks one of: phi(E)|G| divides W, divides E central,
        # 0 <= base <= pr + qr + 1, 0 <= step <= E
        W = 4 * self.sphere
        if cell:
            W[2 * cell[0] + cell[1]] = value
        table = gate_table(W, central)
        with pytest.raises(NonIntegralDimension, match=match):
            table.residue_dims(self.pr, self.qr, self.qr - self.pr)

    def test_non_group_classes_raise_on_the_table(self):
        # each cell (3, 3j) passes the checks at its residues, where r = 0,
        # though central[1] fails the second; a request of E^2 = 9 of them
        # reads the table, which covers every residue pair, and raises
        g = not_a_group()
        p, q = np.full(9, 3), np.arange(9) * 3
        assert [dim_invariant(g, a, b) for a, b in zip(p.tolist(), q.tolist())] == list(range(4, 29, 3))
        # (3, 4) reads residues (0, 1), where the first check fails
        with pytest.raises(NonIntegralDimension, match="not-a-group-2: weighted trace sum 2 at residues \\(0, 1\\)"):
            dim_invariant(g, 3, 4)
        with pytest.raises(NonIntegralDimension, match="not-a-group-2: weighted trace sum"):
            dim_cells(g, p, q)
        with pytest.raises(NonIntegralDimension, match="not-a-group-2: weighted trace sum"):
            weyl_report(g, [40])
        assert invariant_dims._period_tables[g].base is None      # a failed fill caches no base

    def test_class_sets_fail_the_first_and_third_checks(self):
        # weighted class sets, not groups, with non-integral averages or
        # dimensions below zero at some residue pair
        for den, classes, match in [(2, [((0, 0), 1), ((0, 1), 2)], "weighted trace sum"),
                                    (2, [((0, 0), 1), ((0, 1), 1), ((1, 1), -1)], "outside \\[0, sphere dim\\]")]:
            g = from_classes(f"weighted-{den}", 2, den, classes)
            with pytest.raises(NonIntegralDimension, match=match):
                period_table(g, den * den)
            # below E^2 cells the request is checked at its own residues, here every pair but (0, 0)
            with pytest.raises(NonIntegralDimension, match=match):
                dim_cells(g, [10**6 + 1, 10**17, 1], [1, 10**17 + 1, 10**9])


class TestPeriodCache:
    def test_tables_are_reused(self, kernel_points):
        g = make_binary_icosahedral()
        table = period_table(g, 60 * 60)
        assert sum(kernel_points) == 60 * 60
        assert period_table(g, 10**6) is table and sum(kernel_points) == 60 * 60
        assert (table.base.nbytes, table.step.nbytes) == (8 * 60 * 60, 8 * 60)

    def test_cache_is_bounded_in_bytes(self, monkeypatch):
        # room for two filled tables of 2IxC:7 (E = 420, 1.4 MB of base each) but not three
        groups = [from_classes(f"2IxC:7 copy {i}", 2, 420, [(c.angles, c.mult) for c in
                                                            make_product_with_center(make_binary_icosahedral(), 7).classes])
                  for i in range(3)]
        size = PeriodTable(groups[0]).nbytes + 8 * 420 * 420
        monkeypatch.setattr(invariant_dims, "MAX_PERIOD_CACHE_BYTES", 3 * size - 1)
        for i, g in enumerate(groups):
            assert period_table(g, 420 * 420).nbytes == size
            assert list(invariant_dims._period_tables)[-1] is g
        assert list(invariant_dims._period_tables) == groups[1:]

    def test_traces_and_base_count_together(self, monkeypatch):
        # copies of 2I: room for one filled table and the traces of another,
        # not for two filled tables; a table over the cap alone is returned
        # and not kept, and with room for no traces each request builds its own
        cache = invariant_dims._period_tables
        classes = [(c.angles, c.mult) for c in make_binary_icosahedral().classes]
        a, b = (from_classes(f"2I copy {i}", 2, 60, classes) for i in range(2))
        traces = PeriodTable(a).nbytes
        full = traces + 8 * 60 * 60
        monkeypatch.setattr(invariant_dims, "MAX_PERIOD_CACHE_BYTES", full + traces)
        period_table(a, 60 * 60)
        i2 = make_binary_icosahedral()
        assert dim_cells(b, [6, 60], [6, 0]).tolist() == [dim_closed_form(i2, 6, 6), dim_closed_form(i2, 60, 0)]
        assert list(cache) == [a, b] and cache[a].nbytes == full and cache[b].nbytes == traces
        period_table(b, 60 * 60)        # b's base joins its traces: a, the oldest, goes
        assert list(cache) == [b] and cache[b].nbytes == full
        monkeypatch.setattr(invariant_dims, "MAX_PERIOD_CACHE_BYTES", full - 1)
        table = period_table(a, 60 * 60)
        assert table.base is not None and not cache
        monkeypatch.setattr(invariant_dims, "MAX_PERIOD_CACHE_BYTES", traces - 1)
        g = make_binary_icosahedral()
        assert period_table(g, 1) is not period_table(g, 1) and not cache
        assert dim_cells(g, [6, 60], [6, 0]).tolist() == [dim_closed_form(g, 6, 6), dim_closed_form(g, 60, 0)]

    def test_step_is_computed_once_per_group(self, kernel_points, monkeypatch):
        # a residue-route request builds the table, traces and step; a later
        # fill and later requests read that same step, and the filled base
        built = []
        init = PeriodTable.__init__

        def counted(self, group):
            built.append(group)
            init(self, group)

        monkeypatch.setattr(PeriodTable, "__init__", counted)
        g = make_binary_icosahedral()
        assert dim_cells(g, [6, 61], [6, 0]).tolist() == [dim_closed_form(g, 6, 6), dim_closed_form(g, 61, 0)]
        step = invariant_dims._period_tables[g].step
        table = period_table(g, 60 * 60)
        assert table.step is step and table.base is not None
        dim_cells(g, [7], [120])
        assert built == [g] and table.step is step and sum(kernel_points) == 2 + 60 * 60

    def test_building_a_table_peaks_near_its_size(self):
        # the square is traced and checked a block of rows at a time, so
        # filling 2IxC:7's table (E = 420) holds little beyond its base
        g = make_product_with_center(make_binary_icosahedral(), 7)
        period_table(g, 1)
        tracemalloc.start()
        try:
            table = period_table(g, 420 * 420)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * table.base.nbytes, (peak, table.base.nbytes)

    def test_cache_is_bounded_in_count(self):
        for m in range(1, 2 * invariant_dims.CACHE_SIZE + 1):
            period_table(make_cyclic(m), m * m)
        assert len(invariant_dims._period_tables) == invariant_dims.CACHE_SIZE

    def test_weyl_refuses_past_the_xi_cutoff_before_building(self, kernel_points):
        # cyclic:2047 has the largest table within budget; lambda = 10^12 is
        # refused by xi_bound before any residue pair is traced
        with pytest.raises(SizeLimit, match="xi_bound needs lam <= 4194304"):
            weyl_report(make_cyclic(2047), [10**12])
        assert sum(kernel_points) == 0 and not invariant_dims._period_tables

    def test_over_budget_exponent_keeps_the_cell_route(self, kernel_points, monkeypatch):
        # E^2 + E = 13223136 entries of qsemi:101 (E = 3636) exceed the cell
        # budget, so no request fills a base, however many cells it holds
        assert not invariant_dims.period_route(make_q_semidirect(101), 10**12)
        # n = 3: the Molien product of lens:701 (p, q <= n (e - 1) = 2100) exceeds it too
        with pytest.raises(SizeLimit, match="the Molien product of lens:701:1,2,3, p, q <= 2100, needs at least "
                                            "4414201 cells"):
            period_table(make_lens(701, (1, 2, 3)), 10**12)
        # a cell budget below 2I's E^2 + E = 3660: a request of E^2 cells or
        # more is traced cell by cell, at its cells' own residues
        monkeypatch.setattr(invariant_dims, "MAX_CELLS", 60 * 60 + 60 - 1)
        g = make_binary_icosahedral()
        assert period_table(g, 10**12).base is None
        p, q = triangle_cells(84)       # 3655 cells
        assert dim_cells(g, p, q).tolist() == [dim_closed_form(g, a, b) for a, b in zip(p.tolist(), q.tolist())]
        assert sum(kernel_points) == len(p)
        assert period_table(make_cyclic(4), 16).base is not None     # E = 4 fits


# ---------------------------------------------------------------------------
# The n >= 3 Molien table: dim(p, q) = sum U[pr + alpha e, qr + beta e] C_(P' - alpha) C_(Q' - beta)


@pytest.fixture
def direct_calls(monkeypatch):
    """Counts the cells of each call to the n >= 3 direct route, which only
    a group with no Molien table takes."""
    calls = []
    direct = invariant_dims._direct_dims

    def counted(group, p, q):
        calls.append(len(p))
        return direct(group, p, q)

    monkeypatch.setattr(invariant_dims, "_direct_dims", counted)
    return calls


@pytest.fixture(scope="module")
def molien_groups(lens3_groups):
    return lens3_groups + [make_lens(5, (1, 2, 3, 4))]


def outcome(call, *args):
    """A call's answer as a list, or its refusal as (error type, message)."""
    try:
        return call(*args).tolist()
    except (SizeLimit, NonIntegralDimension) as exc:
        return type(exc).__name__, str(exc)


class TestMolienTable:
    def test_route_both_sides_of_the_square(self, molien_groups, direct_calls):
        # requests on both sides of the square p, q <= max(2 n e, 24) read the
        # table, which the first request builds from the classes
        rng = np.random.default_rng(19)
        for g in molien_groups:
            c = max(2 * g.n * g.exponent, 24)
            square = (c + 1) ** 2
            p, q = rng.integers(0, 12 * c, (2, square))
            p[::3] += 10**4 if g.n == 3 else 10**3     # within the kernel's own int64 bound
            want = series_dims(g, p, q)
            assert np.array_equal(dim_cells(g, p[:-1], q[:-1]), want[:-1]), g.name
            assert isinstance(invariant_dims._period_tables[g], invariant_dims.MolienTable), g.name
            assert np.array_equal(dim_cells(g, p, q), want), g.name
            perm = rng.permutation(square)
            assert np.array_equal(dim_cells(g, p[perm], q[perm]), want[perm]), g.name
        assert direct_calls == []

    def test_table_equals_the_kernel_on_a_hyperbola(self, molien_groups, direct_calls, monkeypatch):
        for g in molien_groups:
            p, q = _cells(g.n, 6000 if g.n == 3 else 1000)
            want = series_dims(g, p, q)
            assert np.array_equal(dim_cells(g, p, q), want), g.name
            # blocks of a few rows and cells split the hyperbola many times
            with monkeypatch.context() as small:
                small.setattr(invariant_dims, "_BLOCK_ENTRIES", 50)
                assert np.array_equal(dim_cells(g, p, q), want), g.name
            assert isinstance(invariant_dims._period_tables[g], invariant_dims.MolienTable), g.name
        assert direct_calls == []

    def test_table_equals_the_kernel_near_and_far(self, lens3_groups, direct_calls):
        # random cells near the origin in one request, and far cells, with p or
        # q near 10^5, one kernel call each so that no band bound joins them
        rng = np.random.default_rng(23)
        for g in lens3_groups:
            p, q = rng.integers(0, 40, (2, 300))
            assert np.array_equal(dim_cells(g, p, q), series_dims(g, p, q)), g.name
            far = rng.integers(10**5 - 100, 10**5 + 100, 3)
            near = rng.integers(0, 40, 3)
            for a, b in [*zip(far, near), *zip(near, far)]:
                assert dim_invariant(g, a, b) == series_dims(g, [a], [b])[0], (g.name, a, b)
        assert direct_calls == []

    def test_series_square_equals_the_kernel(self, molien_groups, direct_calls):
        for g in molien_groups:
            c = max(2 * g.n * g.exponent, 24)
            for ceiling in (c - 1, c, c + 1, 4 * c):
                assert np.array_equal(fg_coefficients(g, ceiling), series_square(g, ceiling)), (g.name, ceiling)
            assert isinstance(invariant_dims._period_tables[g], invariant_dims.MolienTable), g.name
        assert direct_calls == []

    def test_polynomial_equals_the_kernel_expansion(self, direct_calls):
        # P from the classes in one product, bit for bit the expansion of the
        # kernel's square p, q <= max(2 n e, 24)
        for g in lens3_sample() + [make_lens(5, (1, 2, 3, 4)), make_lens(7, (1, 2, 3, 4)), make_lens(9, (1, 2, 4, 5))]:
            n, e = g.n, g.exponent
            c = max(2 * n * e, 24)
            d = n * (e - 1) + 1
            P = pg_expansion(series_square(g, c), n, e)
            assert not P[d:].any() and not P[:, d:].any(), g.name
            poly = pg_polynomial(g)
            assert np.array_equal(poly.coeffs, P[:d, :d]) and poly.degree == d - 1, g.name
            assert isinstance(invariant_dims._period_tables[g], invariant_dims.MolienTable), g.name
        assert direct_calls == []

    def test_polynomial_is_not_shared(self):
        g = make_lens(5, (1, 2, 3))
        first = pg_polynomial(g)
        want = first.coeffs.copy()
        U = invariant_dims._period_tables[g].numerator()
        first.coeffs[:] = 7
        assert np.array_equal(pg_polynomial(g).coeffs, want)
        assert np.array_equal(invariant_dims._period_tables[g].numerator(), U)

    def test_table_bytes(self):
        # U alone, padded to (n + 1) e square: 3.2 kB for lens:5, 307 kB for lens:49
        for g, U in [(make_lens(5, (1, 2, 3)), 20), (make_lens(49, (1, 8, 22)), 196)]:
            table = period_table(g, 10**7)
            assert table.nbytes == 8 * U * U == invariant_dims._period_tables[g].nbytes, g.name

    def test_outcomes_do_not_depend_on_the_cache(self, direct_calls):
        # one cell gives the same answer or the same refusal alone, inside a
        # triangle, inside a counting hyperbola, from an empty cache, and
        # before and after pg_polynomial built (or refused) the group's
        # table.  The cells: near, far on either side, past the table's
        # int64 bound, past the C_p C_q guard, past the monomial row's budget;
        # lens:701:1,2,3 has no table and takes the direct route, whose far
        # cells meet the series budget
        cells = [(3, 4), (120000, 7), (9, 1500000), (64500, 64500), (10**6, 10**6), (2 * 10**7, 0)]
        groups = [make_lens(5, (1, 2, 3)), make_lens(7, (1, 2, 4)), make_lens(9, (1, 2, 4, 5)), make_lens(701, (1, 2, 3))]
        for g in groups:
            requests = [(triangle_cells(30), slice(-1, None)), (_cells(g.n, 300), slice(-1, None))]
            for a, b in cells:
                alone = outcome(dim_cells, g, [a], [b])
                invariant_dims._period_tables.clear()
                for (p, q), last in requests:
                    joint = outcome(dim_cells, g, np.append(p, a), np.append(q, b))
                    assert (joint if isinstance(joint, tuple) else joint[last]) == alone, (g.name, a, b)
                invariant_dims._period_tables.clear()
                built = outcome(lambda: pg_polynomial(g).coeffs)
                assert outcome(dim_cells, g, [a], [b]) == alone, (g.name, a, b)
                assert isinstance(built, tuple) == (g.n == 3 and g.exponent == 701), g.name
        assert outcome(dim_cells, groups[0], [120000], [7]) == [dim_invariant(groups[0], 7, 120000)]
        assert outcome(dim_cells, groups[0], [64500], [64500])[0] == "Int64Limit"
        assert outcome(dim_cells, groups[3], [9], [1500000])[1].startswith("the series table of lens:701:1,2,3 needs")
        assert set(direct_calls) == {1, len(triangle_cells(30)[0]) + 1, len(_cells(3, 300)[0]) + 1}

    def test_square_then_polynomial_build_the_table_once(self, molien_groups, monkeypatch):
        built = []
        init = invariant_dims.MolienTable.__init__

        def counted(self, group):
            built.append(group)
            init(self, group)

        monkeypatch.setattr(invariant_dims.MolienTable, "__init__", counted)
        for g in molien_groups:
            c = max(2 * g.n * g.exponent, 24)
            F = fg_coefficients(g, c)
            poly = pg_polynomial(g)
            assert built[-1:] == [g], g.name
            assert np.array_equal(reconstruct_dims(poly, c), F), g.name
        assert built == molien_groups

    def test_route_rule_at_the_budget_edge(self, monkeypatch):
        # the product's square p, q <= n (e - 1): 2047^2 cells fit for e = 683,
        # 2050^2 do not for e = 684, refused before anything is allocated.  With
        # no series budget at all, e = 683 passes its square and meets that budget
        over = make_lens(684, (1, 5, 7))
        with pytest.raises(SizeLimit, match="the Molien product of lens:684:1,5,7, p, q <= 2049, needs at least "
                                            "4202500 cells"):
            period_table(over, 1)
        assert over not in invariant_dims._period_tables
        # the trivial groups: a 1 x 1 P whatever n
        assert pg_polynomial(make_trivial(6)).coeffs.tolist() == [[1]]
        monkeypatch.setattr(invariant_dims, "MAX_SERIES_ENTRIES", 0)
        with pytest.raises(SizeLimit, match="the series table of lens:683:1,2,4 needs at least"):
            period_table(make_lens(683, (1, 2, 4)), 1)

    def test_int64_bound_refuses_per_cell(self, direct_calls, monkeypatch):
        # sum |U| C_P' C_Q' is checked cell by cell: with a weight that lets
        # (p, q) = (400, 400) pass exactly, the request is read from the table,
        # and one that also holds (405, 400) is refused there
        from kohnspec.errors import Int64Limit

        g = make_lens(5, (1, 2, 3))
        table = period_table(g, 10**7)
        C = lambda x: math.comb(x // 5 + 2, 2)     # C_P' for n = 3
        monkeypatch.setattr(table, "weight", ((1 << 63) - 1) // (C(400) * C(400)))
        p, q = _cells(3, 1200)
        p = np.concatenate([p, [400, 0]])
        q = np.concatenate([q, [400, 400]])
        assert np.array_equal(dim_cells(g, p, q), series_dims(g, p, q))
        with pytest.raises(Int64Limit, match="sum \\|U\\| C_P' C_Q' at \\(p,q\\)=\\(405,400\\) may reach 2\\^63"):
            dim_cells(g, np.append(p, [405, 5]), np.append(q, [400, 5]))
        assert direct_calls == []

    def test_a_group_without_a_table_takes_the_direct_route(self, direct_calls):
        # lens:701:1,2,3: the product's square p, q <= 2100 is over the cell
        # budget, so every request takes the direct route, refused a priori and
        # tried again each time, as nothing is cached; its answers are the
        # kernel's, and pg_polynomial is refused on that budget
        g = make_lens(701, (1, 2, 3))
        p, q = triangle_cells(40)
        want = series_dims(g, p, q)
        for _ in range(2):
            assert np.array_equal(dim_cells(g, p, q), want)
        assert direct_calls == [len(p)] * 2 and g not in invariant_dims._period_tables
        with pytest.raises(SizeLimit, match="the Molien product of lens:701:1,2,3, p, q <= 2100, needs"):
            pg_polynomial(g)
        # blocks of one cell each, and far cells one at a time
        for a, b in [(4000, 3), (5, 3000), (2000, 2000)]:
            assert dim_invariant(g, a, b) == series_dims(g, [a], [b])[0], (a, b)

    def test_a_refused_table_is_remembered(self, direct_calls, monkeypatch):
        # lens:509:1,2,3,4 passes the product's cell and series budgets, builds
        # its truncated series table, and only then fails the int64 bound on
        # it: the refusal is kept at 0 bytes, so a second request builds no
        # table, takes the direct route at once and answers the same
        from kohnspec.errors import Int64Limit

        built = []
        tables = invariant_dims._series_tables

        def counted(group, degree, truncated=False):
            built.append(truncated)
            return tables(group, degree, truncated)

        monkeypatch.setattr(invariant_dims, "_series_tables", counted)
        g = make_lens(509, (1, 2, 3, 4))
        assert [dim_invariant(g, 1, 1) for _ in range(2)] == [3, 3]
        assert built == [True, False, False] and direct_calls == [1, 1]
        assert isinstance(invariant_dims._period_tables[g], Int64Limit)
        refusals = [outcome(period_table, g, 1) for _ in range(2)]
        assert refusals[0] == refusals[1] and refusals[0][0] == "Int64Limit" and built == [True, False, False]
        assert invariant_dims._period_tables[g].__traceback__ is None
        # the refusal counts no bytes against the cache
        invariant_dims._evict()
        assert g in invariant_dims._period_tables

    def test_monomial_row_refusal_stays_per_cell(self):
        # lens:1:1,1,1,1,1 (C_x = C(x + 4, 4)): the largest p with C_p C_1 < 2^62
        # is answered on the table route, and p + 1 refused
        from kohnspec.errors import Int64Limit

        g = make_trivial(5)
        lo, hi = 0, 10**6
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if math.comb(mid + 4, 4) * 5 < 2**62 else (lo, mid - 1)
        p, q = triangle_cells(40)
        p, q = np.append(p, lo), np.append(q, 1)
        assert dim_cells(g, p, q)[-1] == sphere_dim(lo, 1, 5) and g in invariant_dims._period_tables
        with pytest.raises(Int64Limit, match=f"C_p C_q at \\(p,q\\)=\\({lo + 1},1\\) may reach 2\\^62"):
            dim_cells(g, np.append(p, lo + 1), np.append(q, 1))

    def test_non_group_fails_on_the_table_build(self):
        # a class set whose averages are not integral fails the product's
        # divisibility check, and no table is kept
        fake = from_classes("not-a-group-3", 3, 3, [((0, 0, 0), 1), ((1, 1, 1), 1)], expect_free=True)
        p, q = triangle_cells(60)
        with pytest.raises(NonIntegralDimension, match="weighted trace sum"):
            dim_cells(fake, p, q)
        assert fake not in invariant_dims._period_tables

    def test_product_is_checked_at_one_one(self, monkeypatch):
        # (1 - z^(2e))^n in place of (1 - z^e)^n still gives an integral
        # numerator with constant term 1, P (1 + z^e)^n (1 + w^e)^n cut at
        # degree n (e - 1); only P(1, 1) |G| = e^(2n) refuses it
        times = invariant_dims._times_binomial
        monkeypatch.setattr(invariant_dims, "_times_binomial", lambda x, e, n: times(x, 2 * e, n))
        with pytest.raises(NonIntegralDimension, match="lens:5:1,2,3: P\\(1,1\\) \\|G\\| = .*, expected e\\^\\(2n\\) = "
                                                       "15625"):
            period_table(make_lens(5, (1, 2, 3)), 1)

    def test_a_group_that_does_not_act_freely_passes_at_one_one(self):
        # at z = w = 1 every element but the identity has a factor
        # 1 + lambda + ... + lambda^(e - 1) = 0, lambda != 1 one of its
        # eigenvalues, whether or not it also has the eigenvalue 1: so the
        # check holds for the group generated by diag(zeta_3, zeta_3, 1), which
        # fixes a circle, and its table gives the traced averages
        g = from_classes("fixes-a-circle", 3, 3, [((0, 0, 0), 1), ((1, 1, 0), 1), ((2, 2, 0), 1)])
        assert int(pg_polynomial(g).coeffs.sum()) * g.order == 3 ** 6
        for s in range(7):
            for p in range(s + 1):
                assert dim_invariant(g, p, s - p) == traced_average(g, p, s - p), (p, s - p)

    def test_answers_past_the_kernels_budgets(self):
        # the band kernel refuses each of these: lens:401:1,2,3's P, from its
        # square p, q <= max(2 n e, 24) = 2406, over the cell budget; a far
        # cell of lens:5:1,2,3, over the series budget; lens:101:1,2,3,4,5's
        # P, whose square reaches C_p C_q >= 2^62 near its corner
        poly = pg_polynomial(make_lens(401, (1, 2, 3)))
        assert poly.degree == 1200 and poly.c(0, 0) == 1
        # (p, 0) counts the invariant monomials z1^a z2^b z3^c, a + b + c = p,
        # a + 2 b + 3 c = p + b + 2 c = 0 mod 5: for each c, the b <= p - c in one residue class
        p = 1500000
        c = np.arange(p + 1)
        r = (-p - 2 * c) % 5
        assert dim_invariant(make_lens(5, (1, 2, 3)), p, 0) == int(np.maximum((p - c - r) // 5 + 1, 0).sum())
        g = make_lens(101, (1, 2, 3, 4, 5))
        assert pg_polynomial(g).degree == 500
        assert [dim_invariant(g, a, b) for a, b in [(0, 0), (1, 1), (3, 2)]] == [
            traced_average(g, a, b) for a, b in [(0, 0), (1, 1), (3, 2)]]

    def test_cells_read_from_a_corrupt_table_are_gated(self, monkeypatch):
        # U[5, 0] and U[0, 10] of lens:5:1,2,3 made very negative: the cells
        # (5, 0) and (0, 10) first go below 0; each route names the first
        # failing cell in its request's order, q-major for the square
        g = make_lens(5, (1, 2, 3))
        table = period_table(g, 10**7)
        columns = table.columns.copy()
        columns[0, 0, 5] = columns[0, 2, 0] = -10**6       # columns[qr, beta, alpha e + pr]
        monkeypatch.setattr(table, "columns", columns)
        with pytest.raises(NonIntegralDimension, match="\\(p,q\\)=\\(5,0\\): the dimension read from the Molien"):
            fg_coefficients(g, 40)
        p, q = triangle_cells(60)
        order = np.lexsort((q, p))      # p-major: (0, 10) comes before (5, 0)
        with pytest.raises(NonIntegralDimension, match="\\(p,q\\)=\\(0,10\\): the dimension read from the Molien"):
            dim_cells(g, p[order], q[order])

    def test_square_reads_as_its_cells_would(self, monkeypatch):
        # fg_coefficients names the first refused cell row by row in q, as
        # dim_cells does on the square's cells: C_p C_q >= 2^62 for
        # lens:1:1,1,1,1,1 at ceiling 600.  With a weight that (200, 200),
        # P' = Q' = 40, passes exactly, the square to 204 is read as the
        # product B U B^T, and the one to 205 refused at (205, 200)
        from kohnspec.errors import Int64Limit

        def refusal(call, *args):
            with pytest.raises(Int64Limit) as exc:
                call(*args)
            return str(exc.value)

        q, p = np.indices((601, 601), dtype=np.int64)
        g = make_trivial(5)
        assert refusal(fg_coefficients, g, 600) == refusal(dim_cells, g, p.ravel(), q.ravel())
        g = make_lens(5, (1, 2, 3))
        table = period_table(g, 10**7)
        monkeypatch.setattr(table, "weight", ((1 << 63) - 1) // math.comb(40 + 2, 2) ** 2)
        assert np.array_equal(fg_coefficients(g, 204), series_square(g, 204))
        q, p = np.indices((206, 206), dtype=np.int64)
        assert refusal(fg_coefficients, g, 205) == refusal(dim_cells, g, p.ravel(), q.ravel())
        assert "at (p,q)=(205,200)" in refusal(fg_coefficients, g, 205)


# ---------------------------------------------------------------------------
# Scratch a block at a time: every transient array of the engine and of the
# spectrum tables holds at most _BLOCK_ENTRIES cells


def small_blocks(monkeypatch, entries=7):
    """Blocks of a few cells, in the engine and in the spectrum tables."""
    monkeypatch.setattr(invariant_dims, "_BLOCK_ENTRIES", entries)
    monkeypatch.setattr(spectrum, "_BLOCK_ENTRIES", entries)


def mixed_cells(pq_max, scale):
    """The cells of the triangle p + q <= pq_max times scale, and four with
    p < 0 or q < 0, in a fixed random order."""
    p, q = triangle_cells(pq_max)
    p, q = np.append(scale * p, [-1, 3, -2, 0]), np.append(scale * q, [2, -1, -5, -1])
    order = np.random.default_rng(7).permutation(len(p))
    return p[order], q[order]


def closed_forms(g, p, q):
    return [dim_closed_form(g, a, b) if min(a, b) >= 0 else 0 for a, b in zip(p.tolist(), q.tolist())]


def sha1(values: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(values, dtype="<i8").tobytes()).hexdigest()


class TestBlocks:
    # each route over a request of several blocks of 7 cells against the
    # same request in one block

    def test_n2_on_a_filled_base(self, monkeypatch):
        g = make_binary_icosahedral()
        assert period_table(g, 60 * 60).base is not None
        p, q = mixed_cells(40, 7)
        whole = dim_cells(g, p, q)
        assert whole.tolist() == closed_forms(g, p, q)
        small_blocks(monkeypatch)
        assert np.array_equal(dim_cells(g, p, q), whole)

    def test_n2_on_the_residue_route(self, monkeypatch):
        g = make_q_semidirect(101)      # E = 3636: 865 cells trace their own residues
        p, q = mixed_cells(40, 1001)
        whole = dim_cells(g, p, q)
        assert whole.tolist() == closed_forms(g, p, q)
        small_blocks(monkeypatch)
        assert np.array_equal(dim_cells(g, p, q), whole)
        assert invariant_dims._period_tables[g].base is None

    def test_n3_read_square_and_direct(self, monkeypatch):
        g = make_lens(5, (1, 2, 3))
        p, q = mixed_cells(40, 3)
        inside = (p >= 0) & (q >= 0)
        cp, cq = _cells(3, 600)     # q-major, as counting reads them

        def routes():
            return [dim_cells(g, p, q), dim_cells(g, cp, cq), fg_coefficients(g, 40),
                    _direct_dims(g, p[inside], q[inside]), _direct_dims(g, cp, cq)]

        whole = routes()
        assert np.array_equal(whole[0][inside], whole[3]) and np.array_equal(whole[1], whole[4])
        assert np.array_equal(whole[2], series_square(g, 40))
        small_blocks(monkeypatch)
        for a, b in zip(routes(), whole):
            assert np.array_equal(a, b)

    def test_spectrum_tables(self, monkeypatch):
        def tables():
            return [counting_function(make_binary_icosahedral(), 2000), counting_function(make_lens(5, (1, 2, 3)), 600)]

        whole = tables()
        small_blocks(monkeypatch)
        for a, b in zip(tables(), whole):
            assert np.array_equal(a.slots, b.slots) and a.entries == b.entries

    def test_answers_are_pinned(self):
        # the sha1 of their int64 bytes, recorded before the scratch was blocked
        assert sha1(counting_function(make_binary_icosahedral(), 10**5).slots) == (
            "dd49ac571387cff37fed468c90ef672fd3bc6645")
        g = make_cyclic(509)
        assert g.exponent == 509
        p, q = np.divmod(np.arange(509 * 509, dtype=np.int64), 509)
        assert sha1(dim_cells(g, p, q)) == "71b59691ca70e4a247b8fb0a6798b9a3f325a6fa"


class TestBlockedRefusals:
    # a request that fails in several blocks is refused as in one block: at
    # the first check that fails, at its first failing cell in request order

    def test_n2_first_check_in_a_later_block(self, monkeypatch):
        # residues (1, 1) fail the third check (dimension 4 > 3) in the first
        # block, residues (0, 1) the first (9 is not divisible by 4) in the second
        W = 4 * (TestPeriodGates.pr + TestPeriodGates.qr + 1)
        W[3], W[1] = 16, 9
        table = gate_table(W, [4, 4])
        k = np.arange(7)
        p, q = np.concatenate([2 * k + 1, 2 * k]), np.concatenate([2 * k + 1, 2 * k + 1])
        whole = outcome(table.read, p, q)
        assert whole == ("NonIntegralDimension", "gates: weighted trace sum 9 at residues (0, 1) is not divisible by 4")
        small_blocks(monkeypatch)
        assert outcome(table.read, p, q) == whole

    @pytest.mark.parametrize("classes", [[((0, 0), 1), ((0, 1), 2)], [((0, 0), 1), ((0, 1), 1), ((1, 1), -1)]])
    def test_n2_class_sets(self, monkeypatch, classes):
        # weighted class sets, not groups: many of the request's cells fail
        g = from_classes(f"weighted {classes}", 2, 2, classes)
        p, q = mixed_cells(12, 5)
        whole = outcome(dim_cells, g, p, q)
        assert whole[0] == "NonIntegralDimension"
        small_blocks(monkeypatch)
        assert outcome(dim_cells, g, p, q) == whole

    def test_n3_corrupt_table(self, monkeypatch):
        # as in test_cells_read_from_a_corrupt_table_are_gated: (5, 0) fails
        # first in q-major order, (0, 10) in p-major order, many cells after them
        g = make_lens(5, (1, 2, 3))
        table = period_table(g, 10**7)
        columns = table.columns.copy()
        columns[0, 0, 5] = columns[0, 2, 0] = -10**6
        monkeypatch.setattr(table, "columns", columns)
        p, q = triangle_cells(60)
        by_p = np.lexsort((q, p))
        by_q = np.lexsort((p, q))
        calls = [(fg_coefficients, g, 40), (dim_cells, g, p[by_p], q[by_p]), (dim_cells, g, p[by_q], q[by_q])]
        whole = [outcome(*call) for call in calls]
        assert [message.split(" at ")[1][:13] for _, message in whole] == ["(p,q)=(5,0): ", "(p,q)=(0,10):",
                                                                            "(p,q)=(5,0): "]
        small_blocks(monkeypatch)
        assert [outcome(*call) for call in calls] == whole

    def test_direct_route_and_int64_bounds(self, monkeypatch):
        fake = from_classes("not-a-group-3", 3, 3, [((0, 0, 0), 1), ((1, 1, 1), 1)], expect_free=True)
        p, q = mixed_cells(20, 1)
        inside = (p >= 0) & (q >= 0)
        # lens:1:1,1,1,1,1 at q = 1: the cells from p = 68590 on have C_p C_q >= 2^62
        far = (np.array([0, 5, 71270, 71271, 3, 71272], dtype=np.int64), np.ones(6, dtype=np.int64))
        calls = [(_direct_dims, fake, p[inside], q[inside]), (dim_cells, make_trivial(5), *far)]
        whole = [outcome(*call) for call in calls]
        assert whole[0][1].startswith("not-a-group-3 at (p,q)=") and "(p,q)=(71270,1)" in whole[1][1]
        for entries in (1, 2):
            small_blocks(monkeypatch, entries)
            assert [outcome(*call) for call in calls] == whole


class TestScratchPeaks:
    # under tracemalloc a request holds its cells, its answer, the rows it
    # reads and a few blocks of scratch; nothing else the size of the request
    few_blocks = 12 * 8 * invariant_dims._BLOCK_ENTRIES

    @staticmethod
    def peak(call):
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_n2_period_square(self):
        # from a cold cache: the table is built and its base filled, then read
        g = make_cyclic(509)
        p, q = np.divmod(np.arange(509 * 509, dtype=np.int64), 509)
        dims, peak = self.peak(lambda: dim_cells(g, p, q))
        assert peak <= dims.nbytes + invariant_dims._period_tables[g].nbytes + self.few_blocks

    @pytest.mark.parametrize("g", [make_binary_icosahedral(), make_lens(5, (1, 2, 3))], ids=lambda g: g.name)
    def test_counting(self, g):
        # the cells p and q, their dimensions, the slots and their cumulative
        # sums, and for n = 3 the monomial row, twice
        period_table(g, 10**7)
        table, peak = self.peak(lambda: counting_function(g, 10**5))
        cells = len(table._p)
        assert cells > 4 * 10**5
        rows = 2 * 8 * (5 * 10**4 + 2) if g.n > 2 else 0
        assert peak <= 24 * cells + 2 * table.slots.nbytes + rows + self.few_blocks, (peak, cells)

    def test_n3_square(self):
        g = make_lens(5, (1, 2, 3))
        period_table(g, 1)
        F, peak = self.peak(lambda: fg_coefficients(g, 1000))
        assert peak <= F.base.nbytes + self.few_blocks, (peak, F.base.nbytes)

    def test_direct_route(self):
        g = make_lens(5, (1, 2, 3))
        p, q = triangle_cells(800)
        dims, peak = self.peak(lambda: _direct_dims(g, p, q))
        assert peak <= dims.nbytes + self.few_blocks, (peak, dims.nbytes)
