"""Brute-force path: harmonic spaces, closure and ranks mod a prime, traces."""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

from kohnspec import (
    SizeLimit,
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
    matrix_closure,
    parse_group_spec,
)
from kohnspec import group_catalog as gc
from kohnspec import oracle
from kohnspec.errors import ClosureMismatch
from kohnspec.group_catalog import ZERO, QuotientGroup, from_classes
from kohnspec.invariant_dims import dim_triangle
from kohnspec.oracle import (
    ElementAction,
    _budgeted_blocks,
    _poly_dim,
    _weight_block,
    modular_image,
    monomial_exponents,
    oracle_check,
)
from reference import (build_space, char_general, fraction_angles, invariant_dim_bruteforce, invariant_dim_reference,
                       sphere_dim, trace_bruteforce)


def _reduce_character(chi, image) -> int:
    """A character value (angle -> count) reduced mod the image's prime."""
    return sum(count * image.reduce(((F(1), t),)) for t, count in chi.terms.items()) % image.ell


class TestBidegreeSpace:
    def test_basis_sizes(self):
        space = build_space(2, 1, 1)
        assert len(space.basis) == 4
        assert space.kernel_dim == 3

    def test_antiholomorphic_fully_harmonic(self):
        for q in (1, 2, 5):
            space = build_space(2, 0, q)
            assert space.kernel_dim == q + 1

    def test_n3_kernel_matches_admissible_count(self):
        space = build_space(3, 2, 1)
        assert space.kernel_dim == 15
        for p, q in [(1, 1), (2, 2), (0, 3)]:
            assert build_space(3, p, q).kernel_dim == sphere_dim(p, q, 3)

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            build_space(4, 12, 12)


class TestField:
    @pytest.mark.parametrize("group", [make_cyclic(48), make_binary_icosahedral(),
                                       make_q_semidirect(3), make_lens(5, (1, 2, 3))],
                             ids=lambda g: g.name)
    def test_prime_and_root(self, group):
        image = modular_image(group)
        ell, E, r = image.ell, image.E, image.root
        assert ell % E == 1 and ell > max(group.order, 4000)
        assert all(ell % k for k in range(2, int(ell ** 0.5) + 1))
        assert pow(r, E, ell) == 1
        assert all(pow(r, k, ell) != 1 for k in range(1, E))

    def test_conjugation_is_inverse_transpose(self, all_n2_groups):
        # unitary: U conj(U)^T = I holds exactly, so it holds mod ell
        for g in all_n2_groups:
            image = modular_image(g)
            for u, u_bar in image.gens:
                assert (u @ u_bar.T % image.ell == np.eye(2, dtype=np.int64)).all(), g.name


class TestMatrixClosure:
    def test_orders(self):
        for g in (make_cyclic(5), make_binary_dihedral(3), make_binary_tetrahedral(),
                  make_q_semidirect(1), make_cyclic_semidirect(3, 2)):
            assert len(matrix_closure(g)) == g.order

    def test_mismatch_detected(self):
        # corrupt group: catalog says order 1 but the generator diag(z8, z8^-1) has order 8
        bad = from_classes("corrupt", 2, 1, [((0, 0), 1)])
        z8, z8_inv = ((F(1), F(1, 8)),), ((F(1), F(7, 8)),)
        bad.generators = (((z8, ()), ((), z8_inv)),)
        with pytest.raises(ClosureMismatch):
            matrix_closure(bad)

    def test_missing_generators(self):
        bare = from_classes("bare", 2, 1, [((0, 0), 1)])
        with pytest.raises(ClosureMismatch):
            matrix_closure(bare)


def _icosahedral_with(generator) -> QuotientGroup:
    """2I's class list with its last generator replaced."""
    g = make_binary_icosahedral()
    return QuotientGroup("2I-mutant", "2I", 2, g.exponent, [(c.angles, c.mult) for c in g.classes],
                         generators=[*g.generators[:-1], generator])


class TestMutations:
    def test_icosahedral_grid(self):
        rows = oracle_check(make_binary_icosahedral(), 12)
        assert len(rows) == 91 and all(ok for *_, ok in rows)

    def test_wrong_golden_ratio_breaks_closure(self):
        # phi/2 replaced by 1/(2 phi) in the real part only: not a unit
        # quaternion, so the closure never ends
        bad = _icosahedral_with(gc._quat_matrix(gc._HALF_INV_PHI, gc._HALF_INV_PHI, gc._rational(gc.HALF), ()))
        with pytest.raises(ClosureMismatch):
            oracle_check(bad, 4)

    def test_swapped_golden_ratio_is_a_conjugate_group(self):
        # phi and 1/phi swapped between the real and i parts: an odd
        # permutation of the coordinates, outside 2I, which with 2T generates
        # the other binary icosahedral group containing this 2T.  A conjugate
        # group has the same order and the same dimensions: nothing to report.
        swapped = _icosahedral_with(gc._quat_matrix(gc._HALF_INV_PHI, gc._HALF_PHI, gc._rational(gc.HALF), ()))
        assert all(ok for *_, ok in oracle_check(swapped, 8))

    def test_generators_of_another_group_are_reported(self):
        # bindih:60 also has order 120, so only the ranks can tell
        two_i = make_binary_icosahedral()
        bad = QuotientGroup("2I-mutant", "2I", 2, two_i.exponent, [(c.angles, c.mult) for c in two_i.classes],
                            generators=make_binary_dihedral(30).generators)
        rows = oracle_check(bad, 8)
        assert not all(ok for *_, ok in rows)

    def test_wrong_diagonal_generator_is_reported(self):
        # lens:5:1,1,2 has the order and the exponent of lens:5:1,2,3 and a
        # diagonal generator too, so only the weight-one monomials differ
        lens = make_lens(5, (1, 2, 3))
        bad = QuotientGroup("lens-mutant", "lens", 3, lens.exponent, [(c.angles, c.mult) for c in lens.classes],
                            generators=make_lens(5, (1, 1, 2)).generators)
        rows = oracle_check(bad, 4)
        assert next(r for r in rows if not r[4]) == (0, 2, 0, 1, False)


class TestBruteForceDims:
    def test_cyclic4_31(self):
        assert invariant_dim_bruteforce(make_cyclic(4), 3, 1) == 3

    def test_octahedral_06(self):
        assert invariant_dim_bruteforce(make_binary_octahedral(), 0, 6) == 0

    def test_trivial_full_kernel(self):
        g = make_trivial()
        for p, q in [(1, 1), (2, 2), (3, 1)]:
            assert invariant_dim_bruteforce(g, p, q) == sphere_dim(p, q, 2)

    def test_su2_grid(self):
        for g in (make_binary_dihedral(2), make_binary_tetrahedral()):
            rows = oracle_check(g, 6)
            assert all(ok for *_, ok in rows), g.name

    def test_u2_families_grid(self):
        for g in (make_q_semidirect(1), make_cyclic_semidirect(3, 2),
                  make_product_with_center(make_binary_dihedral(2), 3)):
            rows = oracle_check(g, 5)
            assert all(ok for *_, ok in rows), g.name

    def test_lens_n3(self):
        g = make_lens(5, (1, 2, 3))
        for p, q in [(1, 1), (2, 1), (1, 2), (0, 3), (2, 2)]:
            assert invariant_dim_bruteforce(g, p, q) == dim_invariant(g, p, q)

    def test_budget_trips_before_any_matrix(self):
        with pytest.raises(SizeLimit):
            oracle_check(make_binary_icosahedral(), 400)

    def test_budget_prices_the_weight_blocks(self):
        # the full space priced 2I at p+q = 28 above the bound; its weight
        # blocks fit, and each block is the one the cell would count itself
        g = make_binary_icosahedral()
        actions = modular_image(g).actions()
        blocks = _budgeted_blocks(g, 28, actions)
        assert len(blocks) == 29 * 30 // 2
        for (p, q, _), (size, cols) in zip(dim_triangle(g, 28), blocks):
            want_size, want_cols = _weight_block(actions, g.n, p, q)
            assert size == want_size == (p + 1) * (q + 1), (p, q)
            assert np.array_equal(cols, want_cols), (p, q)
        with pytest.raises(SizeLimit, match="oracle check of 2I up to p[+]q=40"):
            _budgeted_blocks(g, 40, actions)

    def test_size_limit(self):
        # an n = 4 lens at (12, 12) has 455^2 monomials
        with pytest.raises(SizeLimit):
            invariant_dim_bruteforce(make_lens(3, (1, 1, 1, 2)), 12, 12)

    def test_non_unitary_diagonal_generator_raises(self):
        # diag(2, 1/2) has infinite order, so its closure mod ell never
        # reaches the catalog order 1
        bad = from_classes("non-unitary", 2, 1, [((0, 0), 1)])
        bad.generators = ((((F(2), ZERO),), ()), ((), ((F(1, 2), ZERO),))),
        with pytest.raises(ClosureMismatch):
            oracle_check(bad, 4)

    def test_group_without_diagonal_generator(self):
        # 2T generated by j and h: no generator is diagonal, so nothing is
        # cut away before elimination and the rows are 2T's
        two_t = make_binary_tetrahedral()
        g = QuotientGroup("2T-jh", "2T", 2, two_t.exponent, [(c.angles, c.mult) for c in two_t.classes],
                          generators=[gc._quat_matrix(*gc._QJ), gc._quat_matrix(*gc._QH)])
        assert all(a.weights is None for a in modular_image(g).actions())
        rows = oracle_check(g, 6)
        assert rows == oracle_check(two_t, 6) and all(ok for *_, ok in rows)

    def test_equals_reference(self, all_n2_groups, lens3_groups):
        # every cell against the full stacked-matrix rank of tests/reference.py
        grid = [(g, 6) for g in all_n2_groups] + [(g, 4) for g in lens3_groups]
        grid += [(make_lens(7, (1, 2, 4)), 4), (make_lens(3, (1, 1, 1, 2)), 3)]
        for g, pq_max in grid:
            actions = modular_image(g).actions()
            for p, q, brute, _, _ in oracle_check(g, pq_max):
                assert brute == invariant_dim_reference(g, p, q, actions), (g.name, p, q)


class TestWork:
    @pytest.mark.parametrize("spec, pq_max, columns", [("lens:5:1,2,3", 6, 0), ("2T", 6, 64), ("qsemi:1", 5, 24)])
    def test_columns_eliminated(self, monkeypatch, spec, pq_max, columns):
        # the elimination sees only the monomials the diagonal generators fix,
        # and a group whose generators are all diagonal eliminates nothing;
        # the full spaces have 924, 210 and 126 columns
        seen = []
        rank = oracle._rank

        def counting(M, ell):
            seen.append(M.shape[1])
            return rank(M, ell)

        monkeypatch.setattr(oracle, "_rank", counting)
        assert all(ok for *_, ok in oracle_check(parse_group_spec(spec), pq_max))
        assert sum(seen) == columns


class TestTraces:
    def test_identity_trace(self):
        ident = np.eye(2, dtype=np.int64)
        assert trace_bruteforce(ElementAction((ident, ident), 4001), 3, 2) == 6

    def test_quarter_turn(self):
        # cyclic:4 is generated by diag(i, -i)
        image = modular_image(make_cyclic(4))
        assert trace_bruteforce(image.actions()[0], 1, 1) == image.ell - 1

    def test_closure_traces_match_characters(self, all_n2_groups):
        for g in all_n2_groups:
            image = modular_image(g)
            actions = [ElementAction(u, image.ell) for u in matrix_closure(g, image)]
            for p in range(4):
                for q in range(4):
                    brute = Counter(trace_bruteforce(a, p, q) for a in actions)
                    averaged = Counter()
                    for c in g.classes:
                        averaged[_reduce_character(char_general(p, q, fraction_angles(g, c)), image)] += c.mult
                    assert brute == averaged, (g.name, p, q)


class TestOperatorInvariants:
    def test_projector_idempotent(self):
        # the average over the closure is idempotent; its trace is the
        # invariant dimension d_P of all (p, q) polynomials, which split as the
        # harmonics plus |z|^2 times bidegree (p-1, q-1)
        for g, cells in ((make_cyclic(4), [(2, 2), (3, 1)]),
                         (make_binary_tetrahedral(), [(2, 2), (3, 3), (0, 6)]),
                         (make_lens(3, (1, 1, 2)), [(1, 2), (2, 2)])):
            image = modular_image(g)
            ell = image.ell
            actions = [ElementAction(u, ell) for u in matrix_closure(g, image)]
            inv_order = pow(g.order, -1, ell)
            traces = {}
            for p, q in cells + [(p - 1, q - 1) for p, q in cells if p and q]:
                proj = sum(a.matrix(p, q) for a in actions) % ell * inv_order % ell
                assert ((proj @ proj - proj) % ell == 0).all(), (g.name, p, q)
                traces[p, q] = int(np.trace(proj)) % ell
                assert _poly_dim(image.actions(), g.n, p, q) == traces[p, q], (g.name, p, q)
            for p, q in cells:
                assert (traces[p, q] - traces.get((p - 1, q - 1), 0)) % ell == dim_invariant(g, p, q)

    def test_action_unitary_in_weighted_basis(self):
        # the Fischer inner product <z^a conj(z)^b, z^a conj(z)^b> = a! b! is
        # invariant: conj(A)^T D A = D with conj(A) the action of (conj U, U)
        for g in (make_binary_tetrahedral(), make_cyclic_semidirect(3, 2), make_binary_icosahedral()):
            image = modular_image(g)
            ell = image.ell
            p, q = 2, 1
            weights = [math.prod(map(math.factorial, a + b))
                       for a in monomial_exponents(p, 2) for b in monomial_exponents(q, 2)]
            D = np.diag(np.array(weights, dtype=np.int64) % ell)
            for u, u_bar in image.gens:
                A = ElementAction((u, u_bar), ell).matrix(p, q)
                A_conj = ElementAction((u_bar, u), ell).matrix(p, q)
                assert ((A_conj.T @ D % ell @ A - D) % ell == 0).all(), g.name

    def test_action_commutes_with_laplacian(self):
        for g in (make_binary_octahedral(), make_lens(3, (1, 1, 2)), make_binary_icosahedral()):
            image = modular_image(g)
            ell = image.ell
            lap = build_space(g.n, 2, 2).laplacian % ell
            for a in image.actions():
                assert ((lap @ a.matrix(2, 2) - a.matrix(1, 1) @ lap) % ell == 0).all(), g.name
