"""Group catalog: exact element enumerations and free-action validation."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest

from kohnspec import (
    ConstraintError,
    NonFreeAction,
    SizeLimit,
    check_free_action,
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
)
from kohnspec.group_catalog import (
    MAX_ORDER,
    DihedralElement,
    QUAT_ONE,
    ZERO,
    close_in_su2_x_u1,
    quat,
)

F = Fraction


def expanded_multiset(group) -> Counter:
    return group.class_multiset()


class TestCyclic:
    def test_trivial_group(self):
        g = make_cyclic(1)
        assert g.order == 1
        assert g.classes[0].angles == (ZERO, ZERO)

    def test_order_four_classes(self):
        g = make_cyclic(4)
        pairs = [c.angles for c in g.classes]
        assert len(pairs) == 4
        assert set(pairs) == {
            (F(0), F(0)), (F(1, 4), F(3, 4)), (F(1, 2), F(1, 2)), (F(3, 4), F(1, 4)),
        }

    def test_order_two_is_center(self):
        g = make_cyclic(2)
        assert [c.angles for c in g.classes] == [(F(0), F(0)), (F(1, 2), F(1, 2))]

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
        assert (F(1, 5), F(2, 5)) in {c.angles for c in g.classes}

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
        orders = make_binary_icosahedral().element_orders()
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
        # ground truth by exact closure: the double-cover lift has order 144 l
        # and contains the kernel, so the image order is 72 l
        for l in (1, 3):
            g = make_q_semidirect(l)
            assert g.order == 72 * l
            assert sum(c.mult for c in g.classes) == 72 * l

    def test_acts_freely(self):
        assert check_free_action(make_q_semidirect(1)).free

    def test_even_l_rejected(self):
        with pytest.raises(ConstraintError):
            make_q_semidirect(2)

    def test_closure_idempotent(self):
        # regenerating from an enlarged generator set gives the same classes
        from kohnspec.group_catalog import _classes_from_pairs, from_classes

        g = make_q_semidirect(1)
        h = quat(F(1, 2), F(1, 2), F(1, 2), F(1, 2))
        gens = [(quat(0, 1, 0, 0), ZERO), (quat(0, 0, 1, 0), ZERO),
                (quat(0, 0, 0, 1), ZERO), (h, F(1, 18)),
                (h.mul(h), F(2, 18) % 1)]
        pairs = close_in_su2_x_u1(gens, QUAT_ONE)
        regenerated = from_classes("regen", 2, _classes_from_pairs(pairs), expect_free=True)
        assert regenerated.class_multiset() == g.class_multiset()


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

    def test_closure_idempotent(self):
        from kohnspec.group_catalog import _classes_from_pairs, from_classes

        g = make_cyclic_semidirect(3, 2)
        a = DihedralElement(F(1, 6), 0)
        x = DihedralElement(ZERO, 1)
        gens = [(a, ZERO), (x, F(1, 8)), (a.mul(a), ZERO), (x.mul(x), F(1, 4))]
        pairs = close_in_su2_x_u1(gens, DihedralElement(ZERO, 0))
        regenerated = from_classes("regen", 2, _classes_from_pairs(pairs), expect_free=True)
        assert regenerated.class_multiset() == g.class_multiset()


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


class TestFreeAction:
    def test_catalog_groups_free(self, all_n2_groups):
        for g in all_n2_groups:
            assert check_free_action(g).free, g.name

    def test_eigenvalue_one_witness(self):
        g = from_classes("diag(1,zeta3)", 2, [((ZERO, ZERO), 1), ((ZERO, F(1, 3)), 1), ((ZERO, F(2, 3)), 1)])
        report = check_free_action(g)
        assert not report.free
        assert report.witness.angles == (ZERO, F(1, 3))

    def test_rejected_tetrahedral_twist(self):
        # tetrahedral-by-scalar analog of the semidirect families: closing
        # with a quarter-turn phase on a trace-zero element produces a
        # trace-zero element carrying phase i, whose image has eigenvalues
        # +1 and -1
        from kohnspec.group_catalog import _classes_from_pairs

        gens = [(quat(0, 1, 0, 0), ZERO), (quat(0, 0, 1, 0), ZERO),
                (quat(F(1, 2), F(1, 2), F(1, 2), F(1, 2)), ZERO),
                (quat(0, 1, 0, 0), F(1, 4))]
        pairs = close_in_su2_x_u1(gens, QUAT_ONE)
        bad = from_classes("tet-twist", 2, _classes_from_pairs(pairs))
        report = check_free_action(bad)
        assert not report.free
        assert set(report.witness.angles) == {ZERO, F(1, 2)}


def _reference_closure(generators, identity):
    """The closure as a Fraction worklist: (g, phase) and (-g, phase + 1/2)
    name one element of U(2), represented by the smaller pair."""
    def canon(elem, phase):
        return min((elem, phase), (elem.neg(), (phase + F(1, 2)) % 1))

    start = canon(identity, ZERO)
    seen = {start}
    work = [start]
    while work:
        elem, phase = work.pop()
        for g, gphase in generators:
            nxt = canon(elem.mul(g), (phase + gphase) % 1)
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return sorted(seen)


_H = quat(F(1, 2), F(1, 2), F(1, 2), F(1, 2))
_I, _J, _K = quat(0, 1, 0, 0), quat(0, 0, 1, 0), quat(0, 0, 0, 1)


def _cycsemi_generators(m, l):
    return [(DihedralElement(F(1, 2 * m), 0), ZERO), (DihedralElement(ZERO, 1), F(1, 4 * l))]


class TestIntegerClosure:
    @pytest.mark.parametrize("generators, identity", [
        *[([(_I, ZERO), (_J, ZERO), (_H, F(1, 18 * l))], QUAT_ONE) for l in (1, 3, 5)],
        ([(_I, ZERO), (_J, ZERO), (_K, ZERO), (_H, F(1, 18)), (_H.mul(_H), F(2, 18))], QUAT_ONE),
        ([(_I, ZERO), (_J, ZERO), (_H, ZERO), (_I, F(1, 4))], QUAT_ONE),
        *[(_cycsemi_generators(m, l), DihedralElement(ZERO, 0)) for m, l in ((3, 2), (5, 2), (3, 4), (7, 6))],
        ([(DihedralElement(F(1, 6), 0), ZERO), (DihedralElement(ZERO, 1), F(1, 8)),
          (DihedralElement(F(1, 3), 0), ZERO), (DihedralElement(F(1, 2), 0), F(1, 4))],
         DihedralElement(ZERO, 0)),
        # a rational unit that is not Hurwitz, of order 4, and a phase with an odd denominator
        ([(quat(0, F(3, 5), F(4, 5), 0), F(1, 3))], QUAT_ONE),
    ])
    def test_matches_fraction_worklist(self, generators, identity):
        pairs = close_in_su2_x_u1(generators, identity)
        assert pairs == _reference_closure(generators, identity)
        assert all(type(phase) is F for _, phase in pairs)

    def test_infinite_order_generator_raises(self):
        # 3/5 + 4/5 i has trace 6/5: it generates an infinite group, which a
        # worklist would enumerate forever
        from kohnspec.errors import TraceLookupError

        stray = quat(F(3, 5), F(4, 5), 0, 0)
        with pytest.raises(TraceLookupError, match="6/5"):
            close_in_su2_x_u1([(_I, ZERO), (stray, ZERO)], QUAT_ONE)


class TestExactArithmetic:
    def test_unit_norm_preserved_under_closure(self):
        one = F(1)
        h = quat(F(1, 2), F(1, 2), F(1, 2), F(1, 2))
        assert h.norm_squared() == one
        gens = [(quat(0, 1, 0, 0), ZERO), (quat(0, 0, 1, 0), ZERO), (h, F(1, 18))]
        for elem, _phase in close_in_su2_x_u1(gens, QUAT_ONE):
            assert elem.norm_squared() == one

    def test_mul_is_the_hamilton_product(self):
        assert _I.mul(_J) == _K and _J.mul(_I) == _K.neg() and _I.mul(_I) == QUAT_ONE.neg()
        assert _H.mul(_H) == quat(F(-1, 2), F(1, 2), F(1, 2), F(1, 2))
        x, y = quat(F(1, 2), F(-1, 3), 0, 2), quat(F(3, 4), -1, F(1, 5), F(2, 7))
        (a1, b1, c1, d1), (a2, b2, c2, d2) = x, y
        assert x.mul(y) == (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)
        assert all(type(c) is F for c in x.mul(y))

    def test_trace_lookup_error(self):
        from kohnspec.errors import TraceLookupError
        from kohnspec.group_catalog import QuaternionExact

        # norm-1 quaternion with trace 6/5: outside every binary family
        stray = QuaternionExact(F(3, 5), F(4, 5), F(0), F(0))
        assert stray.norm_squared() == F(1)
        with pytest.raises(TraceLookupError):
            stray.eigen_angle()


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


class TestInvariants:
    def test_order_equals_weighted_classes(self, all_n2_groups):
        for g in all_n2_groups:
            assert sum(c.mult for c in g.classes) == g.order

    def test_su2_determinant_one(self, su2_groups):
        for g in su2_groups:
            for c in g.classes:
                assert (c.angles[0] + c.angles[1]) % 1 == 0, (g.name, c)

    def test_identity_class_unique(self, all_n2_groups):
        for g in all_n2_groups:
            idents = [c for c in g.classes if c.angles == (ZERO, ZERO)]
            assert len(idents) == 1 and idents[0].mult == 1
