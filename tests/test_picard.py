import random

import pytest
from _helpers import divisor, oracle_monomial_count, oracle_roots, surface

from delpezzo import (
    DomainError,
    InvalidInputError,
    KClass,
    PairKind,
    Surface,
    anticanonical_divisor,
    canonical_divisor,
    classify_pair,
    descend_class,
    enumerate_roots,
    euler_form,
    exceptional_divisor,
    intersect,
    is_connected_effective_root,
    line_class,
    line_divisor,
    structure_class,
)
from delpezzo import picard as picard_module
from delpezzo.picard import (
    anticanonical_degree,
    blow_down_surface,
    effective_root_decomposition,
)


class TestIntersect:
    def test_h_dot_e1_is_zero(self):
        S = surface(1)
        assert intersect(S, line_divisor(1), exceptional_divisor(1, 1)) == 0

    def test_e1_squared(self):
        S = surface(1)
        e1 = exceptional_divisor(1, 1)
        assert intersect(S, e1, e1) == -1

    def test_h_squared_cross_checked_by_riemann_roch(self):
        # chi(O, O(h)) = 3 on the plane forces h^2 = 1 through the Euler form.
        S = surface(0)
        h = line_divisor(0)
        assert intersect(S, h, h) == 1
        from delpezzo import structure_class

        assert euler_form(S, structure_class(S), line_class(S, h)) == 3
        assert oracle_monomial_count(1) == 3

    def test_k_squared_d2(self):
        S = surface(2)
        K = canonical_divisor(2)
        assert intersect(S, K, K) == 7

    def test_dimension_mismatch(self):
        S = surface(2)
        with pytest.raises(InvalidInputError):
            intersect(S, line_divisor(1), line_divisor(2))

    def test_symmetric_and_bilinear(self):
        rng = random.Random(7)
        S = surface(3)
        for _ in range(200):
            C = divisor(*[rng.randint(-6, 6) for _ in range(4)])
            D = divisor(*[rng.randint(-6, 6) for _ in range(4)])
            E = divisor(*[rng.randint(-6, 6) for _ in range(4)])
            m, n = rng.randint(-4, 4), rng.randint(-4, 4)
            assert intersect(S, C, D) == intersect(S, D, C)
            assert intersect(S, m * C + n * D, E) == m * intersect(
                S, C, E
            ) + n * intersect(S, D, E)


class TestCanonicalClass:
    def test_plane(self):
        assert canonical_divisor(0) == divisor(-3)

    @pytest.mark.parametrize("d,expected", [(2, 7), (8, 1)])
    def test_k_squared(self, d, expected):
        S = surface(d)
        K = canonical_divisor(d)
        assert intersect(S, K, K) == expected

    def test_anticanonical_square_is_9_minus_d(self):
        for d in range(9):
            S = surface(d)
            H = anticanonical_divisor(d)
            assert intersect(S, H, H) == 9 - d == S.k_squared


class TestEnumerateRoots:
    def test_d1_empty(self):
        assert enumerate_roots(surface(1)) == []

    def test_d2_two_roots(self):
        roots = enumerate_roots(surface(2))
        assert {r.coeffs for r in roots} == {(0, -1, 1), (0, 1, -1)}

    def test_d3_eight_roots(self):
        assert len(enumerate_roots(surface(3))) == 8

    @pytest.mark.parametrize("d", range(9))
    def test_matches_oracle_and_defining_equations(self, d):
        S = surface(d)
        K = canonical_divisor(d)
        roots = enumerate_roots(S)
        got = {r.coeffs for r in roots}
        assert got == oracle_roots(d)
        for r in roots:
            assert intersect(S, r, r) == -2
            assert intersect(S, r, K) == 0
        assert got == {tuple(-x for x in c) for c in got}

    def test_deterministic_lex_order(self):
        roots = enumerate_roots(surface(4))
        assert [r.coeffs for r in roots] == sorted(r.coeffs for r in roots)


class TestEffectiveRoots:
    def test_declared_root_itself(self):
        S = surface(2, roots=[(0, -1, 1)])
        assert is_connected_effective_root(S, divisor(0, -1, 1)) is True

    def test_negative_of_declared_root(self):
        S = surface(2, roots=[(0, -1, 1)])
        assert is_connected_effective_root(S, divisor(0, 1, -1)) is False

    def test_difference_of_zuev_roots_is_not_effective(self):
        # Blowing up two points on one exceptional curve declares
        # e1 - e2 and e1 - e3; their difference e2 - e3 is not effective.
        S = surface(3, roots=[(0, -1, 1, 0), (0, -1, 0, 1)])
        assert is_connected_effective_root(S, divisor(0, 0, -1, 1)) is False

    def test_chain_sum_is_connected(self):
        S = surface(3, roots=[(0, -1, 1, 0), (0, 0, -1, 1)])
        assert is_connected_effective_root(S, divisor(0, -1, 0, 1)) is True

    def test_root_outside_declared_span(self):
        S = surface(3, roots=[(0, -1, 1, 0)])
        # h - e1 - e2 - e3 is a root but not a combination of e1 - e2.
        assert is_connected_effective_root(S, divisor(1, 1, 1, 1)) is False

    def test_precondition_violation(self):
        S = surface(2, roots=[(0, -1, 1)])
        with pytest.raises(DomainError):
            is_connected_effective_root(S, line_divisor(2))

    def test_no_declared_roots_means_nothing_effective(self):
        S = surface(2)
        assert is_connected_effective_root(S, divisor(0, -1, 1)) is False

    def test_decomposition_reported(self):
        S = surface(3, roots=[(0, -1, 1, 0), (0, 0, -1, 1)])
        assert effective_root_decomposition(S, divisor(0, -1, 0, 1)) == (1, 1)

    def test_declared_root_validation(self):
        with pytest.raises(InvalidInputError):
            surface(2, roots=[(1, 0, 0)])


# e1 - e2, e2 - e3 and their sum e1 - e3 on 4 blow-ups: rank 2, one free
# coefficient for the search to scan.
DEPENDENT_ROOTS = [(0, -1, 1, 0, 0), (0, 0, -1, 1, 0), (0, -1, 0, 1, 0)]


class TestDependentRoots:
    def test_decomposition_found_with_the_free_coefficient_at_zero(self):
        S = surface(4, roots=DEPENDENT_ROOTS)
        assert effective_root_decomposition(S, divisor(0, -1, 0, 1, 0)) == (1, 1, 0)
        assert effective_root_decomposition(S, divisor(0, -2, 1, 1, 0)) == (2, 1, 0)

    def test_no_non_negative_solution_in_the_box(self):
        # e3 - e1 is in the span, but only with a negative coefficient.
        S = surface(4, roots=DEPENDENT_ROOTS)
        assert effective_root_decomposition(S, divisor(0, 1, 0, -1, 0)) is None
        assert is_connected_effective_root(S, divisor(0, 1, 0, -1, 0)) is False

    def test_classify_pair_reads_the_decomposition(self):
        S = surface(4, roots=DEPENDENT_ROOTS)
        O = structure_class(S)
        singular = classify_pair(S, O, line_class(S, divisor(0, -1, 0, 1, 0)))
        assert (singular.kind, singular.chi) == (PairKind.SINGULAR, 0)
        zero = classify_pair(S, O, line_class(S, divisor(0, 1, 0, -1, 0)))
        assert (zero.kind, zero.chi) == (PairKind.ZERO, 0)

    def test_more_than_four_free_coefficients_refused(self):
        S = surface(2, roots=[(0, 1, -1)] * 6)
        with pytest.raises(InvalidInputError, match="too degenerate"):
            effective_root_decomposition(S, divisor(0, 1, -1))


class TestAnticanonicalDegree:
    def test_matches_the_form_against_h_and_k(self):
        rng = random.Random(11)
        for d in range(9):
            for _ in range(20):
                D = divisor(*(rng.randint(-9, 9) for _ in range(d + 1)))
                h = anticanonical_degree(D)
                assert h == intersect(surface(d), anticanonical_divisor(d), D)
                assert -h == intersect(surface(d), canonical_divisor(d), D)

    def test_surface_without_roots_builds_no_divisor(self, monkeypatch):
        built = []
        monkeypatch.setattr(
            picard_module.DivisorClass, "__post_init__", lambda D: built.append(D)
        )
        for d in range(9):
            Surface(d)
        assert built == []


class TestBlowDown:
    """A class blows down by ``descend_class``, which deletes the e_d
    coordinate of c1."""

    def test_cubic_class(self):
        S = surface(1)
        down = descend_class(S, line_class(S, divisor(3, 0)))
        assert down == line_class(surface(0), divisor(3))

    def test_line_through_point(self):
        S = surface(2)
        down = descend_class(S, line_class(S, divisor(1, 1, 0)))
        assert down == line_class(surface(1), divisor(1, 1))

    def test_nonzero_last_coefficient(self):
        S = surface(1)
        with pytest.raises(DomainError, match="contracted curve"):
            descend_class(S, line_class(S, divisor(1, 1)))

    def test_plane_cannot_blow_down(self):
        S = surface(0)
        with pytest.raises(DomainError, match="nothing left to blow down"):
            descend_class(S, line_class(S, divisor(1)))
        with pytest.raises(DomainError, match="nothing left to blow down"):
            blow_down_surface(S)

    def test_round_trip(self):
        rng = random.Random(3)
        S = surface(4)
        for _ in range(50):
            E = line_class(S, divisor(*([rng.randint(-5, 5) for _ in range(4)] + [0])))
            down = descend_class(S, E)
            assert KClass(down.r, divisor(*down.c1.coeffs, 0), down.two_ch2) == E

    def test_blow_down_surface_keeps_untouched_roots(self):
        S = surface(3, roots=[(0, -1, 1, 0), (0, 0, -1, 1)])
        S1 = blow_down_surface(S)
        assert S1.d == 2
        assert [r.coeffs for r in S1.effective_simple_roots] == [(0, -1, 1)]


class TestSurfaceValidation:
    def test_d_out_of_range(self):
        with pytest.raises(InvalidInputError):
            Surface(9)
        with pytest.raises(InvalidInputError):
            Surface(-1)

    def test_declared_roots_orthogonal_to_k(self):
        for d in range(1, 9):
            S = surface(d)
            K = canonical_divisor(d)
            for root in enumerate_roots(S):
                assert intersect(S, root, K) == 0

    def test_json_round_trip(self):
        S = surface(3, roots=[(0, -1, 1, 0)])
        assert Surface.from_json(S.to_json()) == S
