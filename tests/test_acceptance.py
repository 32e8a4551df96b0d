"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with its measured runtime (run with ``pytest -v -s`` to see the lines).

Criterion 4b checks that the Weyl-ratio error N_S/N_G - |G| tends to 0 in
the only form a finite grid can show: the largest error over each dyadic
window of cutoffs does not increase.  The error itself is not monotone
pointwise -- the remainder oscillates in sign, so for the binary octahedral
group the error at cutoff 500 (0.043%) is a near-zero crossing below the
error at 1000 (0.158%).  The counts behind the ratios are first recounted
from the closed-form dimension formulas, so two independent paths agree.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np

import kohnspec as ks
from kohnspec.spectrum import (
    sphere_volume,
    weyl_integral_coefficients,
)

from conftest import WEYL_GROUP_SPECS, full_reconcile_sweep
from reference import fraction_angles, sphere_counting_table, tail_bound_holds, weyl_integral


@contextmanager
def criterion(num: str, name: str, cap_seconds: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] {name}: FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    dt = time.perf_counter() - t0
    print(f"[criterion {num}] {name}: PASS ({dt:.2f}s)")
    if cap_seconds is not None:
        assert dt < cap_seconds, f"criterion {num} exceeded its {cap_seconds}s budget: {dt:.1f}s"


WEYL_GRID = (250, 500, 1000, 2000)

_tables_cache: dict = {}


def _weyl_tables():
    """Counting tables to cutoff 2000 for the Weyl/tail-bound criteria."""
    if not _tables_cache:
        _tables_cache["sphere"] = sphere_counting_table(2, 2000)
        for spec in WEYL_GROUP_SPECS:
            g = ks.parse_group_spec(spec)
            _tables_cache[spec] = (g, ks.counting_function(g, 2000))
    return _tables_cache


def test_criterion_1_multiplicity_table():
    with criterion("1", "multiplicity table reproduction", 5.0):
        for m in range(2, 7):
            assert ks.multiplicity(ks.make_cyclic(4 * m), 4)[0] == 2
            assert ks.multiplicity(ks.make_binary_dihedral(m), 4)[0] == 0
        for k in range(3, 7):
            assert ks.multiplicity(ks.make_binary_dihedral(k), 8)[0] == 2
        for spec in ("2T", "2O", "2I"):
            assert ks.multiplicity(ks.parse_group_spec(spec), 8)[0] == 0
        assert ks.multiplicity(ks.parse_group_spec("2T"), 12)[0] == 2
        assert ks.multiplicity(ks.parse_group_spec("QxC:3"), 12)[0] == 3
        for spec in ("bindih:6xC:5", "bindih:10xC:3", "cycsemi:3:2", "cycsemi:5:2", "cycsemi:3:4"):
            assert ks.multiplicity(ks.parse_group_spec(spec), 12)[0] >= 1, spec
        assert ks.multiplicity(ks.parse_group_spec("2O"), 12)[0] == 0
        assert ks.multiplicity(ks.parse_group_spec("qsemi:1"), 12)[0] == 0
        assert ks.multiplicity(ks.parse_group_spec("2T"), 24)[0] == 6
        assert ks.multiplicity(ks.parse_group_spec("2I"), 24)[0] == 2
        assert ks.multiplicity(ks.parse_group_spec("2TxC:5"), 24)[0] == 3
        assert ks.multiplicity(ks.parse_group_spec("cycsemi:3:2"), 24)[0] == 3


def test_criterion_2_closed_form_reconciliation():
    with criterion("2", "closed form vs averaging, m<=8 l<=7, p+q<=24", 30.0):
        groups = full_reconcile_sweep()
        assert len(groups) >= 60
        for g in groups:
            report = ks.reconcile(g, 24)
            assert report.ok, f"{g.name}: first mismatches {report.mismatches[:3]}"


ORACLE_N2_SPECS = [
    "cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6",
    "cyclic:7", "cyclic:8", "cyclic:12", "cyclic:16", "cyclic:24", "cyclic:48",
    "lens:4:1,1", "lens:5:1,2", "lens:8:1,3",
    "bindih:4", "bindih:6", "bindih:8", "bindih:10", "bindih:12", "bindih:24",
    "2T", "2O",
    "QxC:3", "QxC:5", "bindih:8xC:3",
    "cycsemi:3:2", "cycsemi:5:2", "cycsemi:3:4",
    "qsemi:1",
]


def test_criterion_3_oracle_equivalence():
    with criterion("3", "brute-force oracle equivalence", 180.0):
        for spec in ORACLE_N2_SPECS:
            g = ks.parse_group_spec(spec)
            rows = ks.oracle_check(g, 8)
            bad = [r for r in rows if not r[4]]
            assert not bad, f"{spec}: {bad[:3]}"
        for m, rot in ((2, (1, 1, 1)), (3, (1, 1, 2)), (4, (1, 3, 3)), (5, (1, 2, 3))):
            g = ks.make_lens(m, rot)
            rows = ks.oracle_check(g, 5)
            bad = [r for r in rows if not r[4]]
            assert not bad, f"lens:{m}: {bad[:3]}"


def test_criterion_4_weyl_ratio_two_percent():
    with criterion("4a", "Weyl ratio within 2% of |G| at lambda=2000", 120.0):
        tables = _weyl_tables()
        sphere = tables["sphere"]
        for spec in WEYL_GROUP_SPECS:
            g, table = tables[spec]
            ratio = sphere.count(2000) / table.count(2000)
            assert abs(ratio - g.order) / g.order < 0.02, (spec, ratio)


def _closed_form_count(group, lam: int) -> int:
    """N_G(lam) summed from dim_closed_form, independently of counting_function."""
    half, n = lam // 2, group.n
    return sum(
        ks.dim_closed_form(group, p, q)
        for q in range(1, half // (n - 1) + 1)
        for p in range(half // q - (n - 1) + 1)
    )


def test_criterion_4_monotone_improvement():
    with criterion("4b", "Weyl ratio error: dyadic-window maxima non-increasing over {250,500,1000,2000}"):
        tables = _weyl_tables()
        sphere = tables["sphere"]
        failures = []
        for spec in WEYL_GROUP_SPECS:
            g, table = tables[spec]
            for lam in WEYL_GRID:
                assert _closed_form_count(g, lam) == table.count(lam), (spec, lam)

            def err(lam):
                return abs(sphere.count(lam) / table.count(lam) - g.order) / g.order

            # eigenvalues are even, so even cutoffs see every value N takes
            maxima, lo = [], WEYL_GRID[0] // 2
            for hi in WEYL_GRID:
                maxima.append(max(err(lam) for lam in range(2 * (lo // 2) + 2, hi + 1, 2)))
                lo = hi
            if not all(a >= b for a, b in zip(maxima, maxima[1:])):
                failures.append((spec, [f"{err(lam):.3%}" for lam in WEYL_GRID], [f"{m:.2%}" for m in maxima]))
        assert not failures, (
            "largest ratio error over the dyadic windows (125,250], (250,500], "
            "(500,1000], (1000,2000] increases for (spec, pointwise errors at "
            f"the grid, window maxima): {failures}"
        )


def test_counting_matches_closed_forms_to_8000():
    # the closed-form recount of criterion 4b, carried to cutoff 8000
    for spec in WEYL_GROUP_SPECS:
        g = ks.parse_group_spec(spec)
        table = ks.counting_function(g, 8000)
        for lam in (2000, 4000, 8000):
            assert table.count(lam) == _closed_form_count(g, lam), (spec, lam)


def test_criterion_5_tail_bound_exact():
    with criterion("5", "exact tail bound at lambda in {10,...,1000}"):
        tables = _weyl_tables()
        sphere = tables["sphere"]
        for spec in WEYL_GROUP_SPECS:
            g, table = tables[spec]
            for half in range(10, 1001, 10):
                ng = table.count(2 * half)
                ns = sphere.count(2 * half)
                assert tail_bound_holds(g, half, ng, ns), (spec, half)


def test_criterion_6_weyl_constant():
    with criterion("6", "closed-form constant matches quadrature and counting"):
        for n in range(2, 7):
            a = float(sum(c * math.pi**k for k, c in weyl_integral_coefficients(n).items()))
            b = weyl_integral(n)
            assert abs(a - b) / abs(a) < 1e-9, n
        tables = _weyl_tables()
        empirical = tables["sphere"].count(2000) / 2000**2
        predicted = ks.weyl_constant(2) * sphere_volume(2)
        assert abs(empirical - predicted) / predicted < 0.03


ISOSPECTRAL_SETS = [
    ["bindih:4", "cyclic:8"],
    ["bindih:6", "cyclic:12"],
    ["bindih:8", "cyclic:16"],
    ["bindih:10", "cyclic:20"],
    ["2T", "bindih:12", "cyclic:24", "QxC:3", "cycsemi:3:2"],
    ["2O", "bindih:24", "cyclic:48"],
    ["2I", "bindih:60", "cyclic:120", "2TxC:5"],
]

# least distinguishing eigenvalues, pinned after first computation
PINNED_DISTINGUISHERS = {
    ("bindih:4", "cyclic:8"): 4,
    ("2T", "bindih:12"): 8,
    ("2T", "cyclic:24"): 4,
    ("2T", "QxC:3"): 12,
    ("2T", "cycsemi:3:2"): 12,
    ("bindih:12", "QxC:3"): 8,
    ("QxC:3", "cycsemi:3:2"): 16,
    ("2I", "2TxC:5"): 24,
}


def test_criterion_7_isospectrality_casework():
    with criterion("7", "distinguishing eigenvalue <= 48 for all same-order pairs", 120.0):
        for group_set in ISOSPECTRAL_SETS:
            groups = [ks.parse_group_spec(s) for s in group_set]
            orders = {g.order for g in groups}
            assert len(orders) == 1, group_set
            for i in range(len(groups)):
                for j in range(i + 1, len(groups)):
                    res = ks.compare_spectra(groups[i], groups[j], 48)
                    assert res.eigenvalue is not None, (group_set[i], group_set[j])
                    assert res.eigenvalue <= 48
                    pinned = PINNED_DISTINGUISHERS.get((group_set[i], group_set[j]))
                    if pinned is not None:
                        assert res.eigenvalue == pinned, (group_set[i], group_set[j], res.eigenvalue)
        # twisted-family pair with matching order parameter product (2*3 = 3*2):
        # the prime-eigenvalue argument guarantees a difference; the scan pins
        # the least distinguishing eigenvalue and the 4r multiplicities differ
        a = ks.parse_group_spec("QxC:3")
        b = ks.parse_group_spec("cycsemi:3:2")
        res = ks.compare_spectra(a, b, 300)
        assert res.eigenvalue == 16 and (res.mult_a, res.mult_b) == (3, 2)
        r = 73
        assert r % 24 == 1 and r > 12
        assert ks.multiplicity(a, 4 * r)[0] == 54
        assert ks.multiplicity(b, 4 * r)[0] == 36


GENFUN_SPECS = ["cyclic:1", "cyclic:2", "cyclic:4", "cyclic:6", "bindih:4", "bindih:6",
                "2T", "2O", "2I", "QxC:3", "2TxC:5", "qsemi:1", "cycsemi:3:2"]


def test_criterion_8_generating_functions():
    with criterion("8", "generating polynomial degree bound, round trip, h0 formula"):
        for spec in GENFUN_SPECS:
            g = ks.parse_group_spec(spec)
            e = g.exponent
            poly = ks.pg_polynomial(g)   # raises TruncationError beyond n(e-1)
            assert poly.degree == g.n * (e - 1)
            dims = np.array([[ks.dim_invariant(g, p, q) for q in range(25)] for p in range(25)])
            assert np.array_equal(ks.fg_coefficients(g, 24), dims), spec
            assert np.array_equal(ks.reconstruct_dims(poly, 24), dims), spec
            coeffs = ks.h0_coefficients(g)
            assert coeffs == [poly.c(0, j * e) for j in range(g.n)], spec
            for m in range(7):
                assert ks.dim_h0_polynomial(coeffs, m) == ks.dim_invariant(g, 0, m * e), (spec, m)
            values = [ks.dim_h0_polynomial(coeffs, m) for m in range(51)]
            threshold = next(M for M in range(51) if all(v >= 1 for v in values[M:]))
            assert threshold <= 10, (spec, threshold)


def test_criterion_9_sobolev_constants():
    with criterion("9", "Sobolev constants and witness sequences"):
        for n in range(2, 7):
            assert abs(ks.c_pq(1, 1, n) - math.sqrt(1 + 4 * n) / (2 * n)) < 1e-12
        for n in (2, 3):
            diag = [ks.c_pq_squared(k, k, n) for k in range(1, 51)]
            assert all(a > b for a, b in zip(diag, diag[1:]))
        for spec in ["cyclic:1", "cyclic:4", "cyclic:7", "bindih:4", "bindih:6",
                     "2T", "2O", "2I", "QxC:3", "qsemi:1", "cycsemi:3:2"]:
            g = ks.parse_group_spec(spec)
            const = ks.c_group(g, 36)
            assert const.value > 1 / (2 * (g.n - 1)), spec
        for m in (1, 2, 3, 4, 5, 8):
            g = ks.make_cyclic(m)
            assert ks.c_group(g, 30).value >= math.sqrt(1 + 8) / 4 - 1e-12, m
        for spec in ["cyclic:4", "2T", "qsemi:1"]:
            g = ks.parse_group_spec(spec)
            seq = ks.greens_lower_witness(g, 10)
            vals = [v for _, v in seq]
            assert all(a > b for a, b in zip(vals, vals[1:])), spec
            assert all(v > 0.5 for v in vals)
            assert vals[-1] < 0.56


def test_criterion_10_property_suites():
    with criterion("10", "stand-alone property suites over stated grids"):
        from fractions import Fraction as F

        minus = (F(1, 2), F(1, 2))
        groups = [ks.parse_group_spec(s) for s in
                  ["cyclic:4", "bindih:4", "bindih:6", "2T", "2O", "2I", "QxC:3", "qsemi:1", "cycsemi:3:2"]]
        # parity vanishing
        for g in groups:
            if any(fraction_angles(g, c) == minus for c in g.classes):
                for s in range(1, 14, 2):
                    for p in range(s + 1):
                        assert ks.dim_invariant(g, p, s - p) == 0
        # p <-> q symmetry
        for g in groups:
            for s in range(11):
                for p in range(s + 1):
                    assert ks.dim_invariant(g, p, s - p) == ks.dim_invariant(g, s - p, p)
        # subgroup monotonicity
        chains = [("2T", "Q"), ("2O", "2T"), ("2I", "2T")]
        for big_s, small_s in chains:
            big, small = ks.parse_group_spec(big_s), ks.parse_group_spec(small_s)
            for s in range(13):
                for p in range(s + 1):
                    assert ks.dim_invariant(big, p, s - p) <= ks.dim_invariant(small, p, s - p)
        # free action over the catalog
        for g in groups:
            assert ks.check_free_action(g).free
        # counting monotonicity
        for g in groups[:4]:
            table = ks.counting_function(g, 150)
            vals = [table.count(lam) for lam in range(0, 151, 2)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))
