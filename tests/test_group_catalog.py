"""Group catalog: exact element enumerations and free-action validation."""

from __future__ import annotations

import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from kohnspec import (
    ConstraintError,
    NonFreeAction,
    SizeLimit,
    c_group,
    check_free_action,
    counting_function,
    from_classes,
    make_binary_dihedral,
    make_binary_icosahedral,
    make_binary_octahedral,
    make_binary_tetrahedral,
    make_cyclic,
    make_cyclic_semidirect,
    make_lens,
    make_product_with_center,
    make_q_semidirect,
    oracle_check,
    parse_group_spec,
    weyl_report,
)
from kohnspec import group_catalog
from kohnspec.group_catalog import MAX_ORDER, ZERO
from reference import class_multiset, element_orders, fraction_angles

F = Fraction


def expanded_multiset(group) -> Counter:
    return class_multiset(group)


class TestCyclic:
    def test_trivial_group(self):
        g = make_cyclic(1)
        assert g.order == 1
        assert g.classes[0].angles == (ZERO, ZERO)

    def test_order_four_classes(self):
        g = make_cyclic(4)
        pairs = [fraction_angles(g, c) for c in g.classes]
        assert len(pairs) == 4
        assert set(pairs) == {
            (F(0), F(0)), (F(1, 4), F(3, 4)), (F(1, 2), F(1, 2)), (F(3, 4), F(1, 4)),
        }

    def test_order_two_is_center(self):
        g = make_cyclic(2)
        assert [fraction_angles(g, c) for c in g.classes] == [(F(0), F(0)), (F(1, 2), F(1, 2))]

    def test_rejects_nonpositive(self):
        with pytest.raises(ConstraintError):
            make_cyclic(0)


class TestLens:
    def test_matches_cyclic_multiset(self):
        assert expanded_multiset(make_lens(4, (1, -1))) == expanded_multiset(make_cyclic(4))

    def test_trivial_u3(self):
        g = make_lens(1, (1, 1, 1))
        assert g.order == 1 and g.n == 3

    def test_generator_angles(self):
        g = make_lens(5, (1, 2))
        assert g.order == 5
        assert (F(1, 5), F(2, 5)) in {fraction_angles(g, c) for c in g.classes}

    def test_noncoprime_rejected(self):
        with pytest.raises(NonFreeAction):
            make_lens(4, (1, 2))


class TestBinaryDihedral:
    def test_quaternion_group(self):
        g = make_binary_dihedral(2)
        assert g.order == 8
        ms = expanded_multiset(g)
        assert ms[(F(0), F(0))] == 1            # identity
        assert ms[(F(1, 2), F(1, 2))] == 1      # -I
        assert ms[(F(1, 4), F(3, 4))] == 6      # six elements of trace zero

    def test_order_and_split(self):
        # order 12: six trace-zero elements plus the cyclic subgroup of order 6
        g = make_binary_dihedral(3)
        assert g.order == 12
        ms = expanded_multiset(g)
        assert ms[(F(1, 4), F(3, 4))] == 6
        cyclic_part = expanded_multiset(make_cyclic(6))
        for angles, mult in cyclic_part.items():
            assert ms[angles] >= mult

    def test_m1_rejected(self):
        with pytest.raises(ConstraintError):
            make_binary_dihedral(1)


class TestExceptional:
    def test_orders(self):
        assert make_binary_tetrahedral().order == 24
        assert make_binary_octahedral().order == 48
        assert make_binary_icosahedral().order == 120

    def test_octahedral_eighth_roots(self):
        ms = expanded_multiset(make_binary_octahedral())
        assert ms[(F(1, 8), F(7, 8))] == 6
        assert ms[(F(3, 8), F(5, 8))] == 6
        assert ms[(F(1, 4), F(3, 4))] == 6 + 12

    def test_icosahedral_table(self):
        ms = expanded_multiset(make_binary_icosahedral())
        assert ms[(F(1, 10), F(9, 10))] == 12   # real part phi/2
        assert ms[(F(1, 5), F(4, 5))] == 12
        assert ms[(F(3, 10), F(7, 10))] == 12
        assert ms[(F(2, 5), F(3, 5))] == 12
        assert ms[(F(1, 6), F(5, 6))] == 20
        assert ms[(F(1, 3), F(2, 3))] == 20
        assert ms[(F(1, 4), F(3, 4))] == 30

    def test_element_orders_icosahedral(self):
        orders = element_orders(make_binary_icosahedral())
        assert orders == Counter({1: 1, 2: 1, 4: 30, 6: 20, 3: 20, 10: 24, 5: 24})


class TestProductWithCenter:
    def test_l1_is_base(self):
        base = make_binary_tetrahedral()
        assert expanded_multiset(make_product_with_center(base, 1)) == expanded_multiset(base)

    def test_2t_c5_order(self):
        g = make_product_with_center(make_binary_tetrahedral(), 5)
        assert g.order == 120
        assert expanded_multiset(g) != expanded_multiset(make_binary_icosahedral())

    def test_q_c3(self):
        g = make_product_with_center(make_binary_dihedral(2), 3)
        assert g.order == 24

    def test_constraint_violations(self):
        with pytest.raises(ConstraintError):
            make_product_with_center(make_binary_tetrahedral(), 2)   # even l
        with pytest.raises(NonFreeAction):
            make_product_with_center(make_binary_tetrahedral(), 3)   # gcd(3, 6) > 1
        with pytest.raises(NonFreeAction):
            make_product_with_center(make_binary_icosahedral(), 5)   # gcd(5, 30) > 1
        with pytest.raises(ConstraintError):
            make_product_with_center(make_cyclic(4), 3)              # not a binary family


class TestQSemidirect:
    def test_enumerated_order(self):
        # the fibre product in SU(2) x U(1) has order 24 * 6l = 144 l and
        # contains the kernel of the double cover, so the image order is 72 l
        for l in (1, 3):
            g = make_q_semidirect(l)
            assert g.order == 72 * l
            assert sum(c.mult for c in g.classes) == 72 * l

    def test_acts_freely(self):
        assert check_free_action(make_q_semidirect(1)).free

    def test_even_l_rejected(self):
        with pytest.raises(ConstraintError):
            make_q_semidirect(2)


class TestCyclicSemidirect:
    def test_order_24(self):
        g = make_cyclic_semidirect(3, 2)
        assert g.order == 24
        assert sum(c.mult for c in g.classes) == 24

    def test_order_formula(self):
        for m, l in ((3, 4), (5, 2), (7, 6)):
            assert make_cyclic_semidirect(m, l).order == 4 * m * l

    def test_invalid_parameters(self):
        with pytest.raises(NonFreeAction):
            make_cyclic_semidirect(3, 3)    # l odd: an element picks up eigenvalue 1
        with pytest.raises(NonFreeAction):
            make_cyclic_semidirect(3, 6)    # gcd(m, l) > 1
        with pytest.raises(ConstraintError):
            make_cyclic_semidirect(1, 2)    # degenerate abelian case


class TestOrderBudget:
    @pytest.mark.parametrize("build, order", [
        (lambda: make_cyclic(10**8), 10**8),
        (lambda: make_lens(10**8 + 1, (1, 2, 3)), 10**8 + 1),
        (lambda: make_binary_dihedral(10**6), 4 * 10**6),
        (lambda: make_product_with_center(make_binary_icosahedral(), 10**4 + 1), 120 * (10**4 + 1)),
        (lambda: make_q_semidirect(10**4 + 1), 72 * (10**4 + 1)),
        (lambda: make_cyclic_semidirect(3, 10**4), 12 * 10**4),
    ])
    def test_order_above_budget_refused(self, build, order):
        with pytest.raises(SizeLimit, match=f"has order {order}, above the budget of {MAX_ORDER}"):
            build()


class TestClassMemory:
    def test_cyclic_classes_kept_per_class(self):
        # two small ints and a multiplicity per class: about 200 bytes kept,
        # where Fraction angles kept 350
        build = make_cyclic.__wrapped__
        tracemalloc.start()
        try:
            g = build(20000)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept / len(g.classes) <= 256


class TestFreeAction:
    def test_catalog_groups_free(self, all_n2_groups):
        for g in all_n2_groups:
            assert check_free_action(g).free, g.name

    def test_eigenvalue_one_witness(self):
        g = from_classes("diag(1,zeta3)", 2, 3, [((0, 0), 1), ((0, 1), 1), ((0, 2), 1)])
        report = check_free_action(g)
        assert not report.free
        assert fraction_angles(g, report.witness) == (ZERO, F(1, 3))


class TestMatrixAgreement:
    def test_float_closure_matches_exact_enumeration(self):
        # independent closure of the exact generator matrices (mod the oracle
        # prime) reproduces every enumerated order, including the large
        # twisted groups
        from kohnspec.oracle import matrix_closure

        for g in (make_q_semidirect(3), make_q_semidirect(5),
                  make_cyclic_semidirect(5, 4), make_cyclic_semidirect(7, 2),
                  make_product_with_center(make_binary_icosahedral(), 7)):
            assert len(matrix_closure(g)) == g.order

    @pytest.mark.parametrize("spec", [
        "cyclic:7", "bindih:12", "2T", "2O", "2I", "QxC:3", "2TxC:5", "2IxC:7",
        "qsemi:1", "qsemi:3", "qsemi:5", "cycsemi:3:2", "cycsemi:5:4", "cycsemi:7:6", "cycsemi:3:8",
    ])
    def test_classes_match_generated_elements(self, spec):
        # the multiset of (trace, det) mod ell over the closure of the
        # generators equals the class list's.  The check is exact: ell = 1
        # (mod E) makes reduction injective on E-th roots of unity, and
        # (trace, det) fixes an unordered pair of eigenvalues
        from kohnspec.oracle import matrix_closure, modular_image

        group = parse_group_spec(spec)
        image = modular_image(group)
        ell = image.ell
        generated = Counter()
        for u, _ in matrix_closure(group, image):
            (a, b), (c, d) = u.tolist()
            generated[(a + d) % ell, (a * d - b * c) % ell] += 1
        listed = Counter()
        for cls in group.classes:
            z1, z2 = (pow(image.root, int(t * image.E), ell) for t in fraction_angles(group, cls))
            listed[(z1 + z2) % ell, z1 * z2 % ell] += cls.mult
        assert generated == listed


LAZY_SPECS = ["cyclic:8", "lens:5:1,2,3", "bindih:12", "2T", "2O", "2I", "2IxC:7", "qsemi:1", "cycsemi:3:2"]


class TestLazyGenerators:
    """Exact generator matrices are built on the first read of .generators,
    which only the oracle does."""

    def test_counting_builds_no_exact_entries(self, monkeypatch):
        def refuse(*terms):
            raise AssertionError("an exact generator entry was built")

        for fn in vars(group_catalog).values():
            if getattr(fn, "__name__", "").lstrip("_").startswith("make_") and hasattr(fn, "cache_clear"):
                fn.cache_clear()
        monkeypatch.setattr(group_catalog, "_cyc", refuse)
        groups = [parse_group_spec(spec) for spec in LAZY_SPECS]
        for g in groups:
            counting_function(g, 120)
            weyl_report(g, [60, 120])
            c_group(g, 12)
        monkeypatch.undo()
        two_i = groups[LAZY_SPECS.index("2I")]
        assert all(ok for *_, ok in oracle_check(two_i, 4))

    @pytest.mark.parametrize("spec", LAZY_SPECS)
    def test_generators_are_the_builders(self, spec):
        g = parse_group_spec(spec)
        assert g.generators and g.generators == tuple(g._generators())


class TestInvariants:
    def test_order_equals_weighted_classes(self, all_n2_groups):
        for g in all_n2_groups:
            assert sum(c.mult for c in g.classes) == g.order

    def test_su2_determinant_one(self, su2_groups):
        for g in su2_groups:
            for c in g.classes:
                assert sum(fraction_angles(g, c)) % 1 == 0, (g.name, c)

    def test_angles_are_integers_over_the_exponent(self, all_n2_groups, lens3_groups):
        # each angle k in [0, E) stands for exp(2 pi i k / E), and the
        # angles share no factor with E: the exponent is the least common
        # denominator
        for g in all_n2_groups + lens3_groups:
            E = g.exponent
            angles = [k for c in g.classes for k in c.angles]
            assert all(type(k) is int and 0 <= k < E for k in angles), g.name
            assert math.gcd(E, *angles) == 1, g.name

    def test_identity_class_unique(self, all_n2_groups):
        for g in all_n2_groups:
            idents = [c for c in g.classes if c.angles == (ZERO, ZERO)]
            assert len(idents) == 1 and idents[0].mult == 1
