import random
from fractions import Fraction

import pytest
from _helpers import (
    divisor,
    line_bundle,
    oracle_chi_product_form,
    oracle_monomial_count,
    random_kclass,
    surface,
)

from delpezzo import (
    DomainError,
    InvalidInputError,
    KClass,
    curve_class,
    descend_class,
    dual_class,
    euler_form,
    exceptional_divisor,
    intersect,
    line_class,
    line_divisor,
    pull_back_class,
    slope_mu,
    structure_class,
    twist,
    vector_slope,
)
from delpezzo.chern import serre_twist


class TestKClass:
    def test_integrality_enforced(self):
        with pytest.raises(InvalidInputError):
            KClass(1, divisor(1), Fraction(2, 3))
        with pytest.raises(InvalidInputError):
            # c1^2 - 2 ch2 = 1 - 1 = 0 is fine; 1 - 2 = -1 is odd.
            KClass(1, divisor(1), 2)

    def test_c2_accessor(self):
        T = KClass(2, divisor(3), 3)
        assert T.c2 == 3
        assert T.two_ch2 == 3

    def test_rational_third_argument_rejected(self):
        # The third coordinate is 2*ch2; an old-style rational ch2 fails loudly.
        with pytest.raises(InvalidInputError):
            KClass(1, divisor(1), Fraction(1, 2))

    def test_json_ch2_must_be_half_integral(self):
        with pytest.raises(InvalidInputError):
            KClass.from_json({"r": 1, "c1": [1], "ch2": "1/3"})

    def test_json_round_trip(self):
        E = KClass(2, divisor(3, 0), -5)
        assert KClass.from_json(E.to_json()) == E
        assert E.to_json()["ch2"] == "-5/2"
        rng = random.Random(21)
        for d in range(9):
            for _ in range(20):
                E = random_kclass(rng, d)
                back = KClass.from_json(E.to_json())
                assert back == E
                assert hash(back) == hash(E)


class TestEulerForm:
    def test_structure_sheaf_self_pairing(self):
        for d in range(9):
            S = surface(d)
            O = structure_class(S)
            assert euler_form(S, O, O) == 1

    def test_plane_line_bundle_values(self):
        S = surface(0)
        O = structure_class(S)
        Oh = line_class(S, line_divisor(0))
        assert euler_form(S, O, Oh) == 3 == oracle_monomial_count(1)
        assert euler_form(S, Oh, O) == 0

    def test_monomial_counts_up_to_degree_five(self):
        S = surface(0)
        O = structure_class(S)
        for k in range(6):
            Ok = line_bundle(S, k)
            assert euler_form(S, O, Ok) == oracle_monomial_count(k)

    def test_torsion_class_is_exceptional(self):
        S = surface(1)
        L = curve_class(S, 1, -1)
        assert L == KClass(0, exceptional_divisor(1, 1), -1)
        assert euler_form(S, L, L) == 1

    @pytest.mark.parametrize("d", range(9))
    def test_matches_product_form(self, d):
        rng = random.Random(100 + d)
        S = surface(d)
        for _ in range(60):
            E = random_kclass(rng, d)
            F = random_kclass(rng, d)
            assert euler_form(S, E, F) == oracle_chi_product_form(S, E, F)

    def test_asymmetry_identity(self):
        rng = random.Random(5)
        for d in (0, 2, 5):
            S = surface(d)
            H = S.anticanonical_class()
            for _ in range(50):
                E = random_kclass(rng, d)
                F = random_kclass(rng, d)
                lhs = euler_form(S, E, F) - euler_form(S, F, E)
                assert lhs == intersect(S, H, E.r * F.c1 - F.r * E.c1)

    def test_serre_pairing(self):
        rng = random.Random(6)
        for d in (0, 1, 3, 8):
            S = surface(d)
            for _ in range(40):
                E = random_kclass(rng, d)
                F = random_kclass(rng, d)
                assert euler_form(S, E, F) == euler_form(S, F, serre_twist(S, E))

    def test_exceptional_discriminant_identity(self):
        # chi(E,E) = 1 and r > 0 force q = ((c1^2+1)/r^2 - 1)/2.
        from _helpers import braid_orbit_states

        for c in braid_orbit_states(4):
            S = c.surface
            for E in c.members:
                assert euler_form(S, E, E) == 1
                q = Fraction(E.ch2, E.r)
                c1sq = intersect(S, E.c1, E.c1)
                assert q == Fraction(Fraction(c1sq + 1, E.r**2) - 1, 2)


class TestSlopes:
    def test_structure_sheaf_slope_zero(self):
        S = surface(0)
        assert slope_mu(S, structure_class(S), S.anticanonical_class()) == 0

    def test_line_bundle_slope_d1(self):
        S = surface(1)
        Oh = line_bundle(S, 1, 0)
        assert slope_mu(S, Oh, S.anticanonical_class()) == 3

    def test_rank_zero_rejected(self):
        S = surface(1)
        with pytest.raises(DomainError):
            slope_mu(S, curve_class(S, 1, -1), S.anticanonical_class())

    def test_vector_slope_of_structure_sheaf(self):
        S = surface(0)
        sv = vector_slope(S, structure_class(S))
        assert sv.components() == (0, 0, 0)

    def test_vector_slope_root_line_bundle(self):
        S = surface(2)
        E = line_bundle(S, 0, -1, 1)  # O(e1 - e2)
        sv = vector_slope(S, E)
        assert sv.components() == (0, 0, -2)
        O = vector_slope(S, structure_class(S))
        assert sv < O

    def test_vector_slope_tangent_class_with_hyperplane_polarization(self):
        S = surface(0)
        T = KClass(2, divisor(3), 3)
        sv = vector_slope(S, T, A=line_divisor(0))
        assert sv.components() == (
            Fraction(9, 2),
            Fraction(3, 2),
            Fraction(3, 2),
        )

    def test_vector_slope_needs_positive_rank(self):
        S = surface(0)
        with pytest.raises(DomainError):
            vector_slope(S, KClass(-1, divisor(0), 0))


class TestTwistAndDual:
    def test_twist_structure_sheaf(self):
        S = surface(0)
        h = line_divisor(0)
        assert twist(S, structure_class(S), h) == line_class(S, h)

    def test_twist_by_canonical_on_plane(self):
        S = surface(0)
        Oh = line_bundle(S, 1)
        K = S.canonical_class()
        assert twist(S, Oh, K) == KClass(1, divisor(-2), 4)

    def test_twist_preserves_integrality_and_composes(self):
        rng = random.Random(11)
        for d in (0, 2, 4):
            S = surface(d)
            for _ in range(60):
                E = random_kclass(rng, d)
                D1 = divisor(*[rng.randint(-4, 4) for _ in range(d + 1)])
                D2 = divisor(*[rng.randint(-4, 4) for _ in range(d + 1)])
                once = twist(S, twist(S, E, D1), D2)
                assert once == twist(S, E, D1 + D2)

    def test_twist_slope_equivariance(self):
        rng = random.Random(12)
        S = surface(3)
        H = S.anticanonical_class()
        for _ in range(60):
            E = random_kclass(rng, 3)
            D = divisor(*[rng.randint(-4, 4) for _ in range(4)])
            line = line_class(S, D)
            assert slope_mu(S, twist(S, E, D), H) == slope_mu(S, E, H) + slope_mu(
                S, line, H
            )

    def test_dual_examples(self):
        S = surface(0)
        O = structure_class(S)
        assert dual_class(O) == O
        E = KClass(2, divisor(1), -1)
        assert dual_class(E) == KClass(2, divisor(-1), -1)

    def test_dual_negates_slope(self):
        rng = random.Random(13)
        S = surface(2)
        H = S.anticanonical_class()
        for _ in range(100):
            E = random_kclass(rng, 2)
            assert slope_mu(S, dual_class(E), H) == -slope_mu(S, E, H)


class TestCurveClass:
    def test_degree_minus_one(self):
        S = surface(1)
        assert curve_class(S, 1, -1) == KClass(
            0, exceptional_divisor(1, 1), -1
        )

    def test_chi_from_structure_sheaf_counts_sections(self):
        S = surface(2)
        O = structure_class(S)
        for deg in range(-3, 4):
            F = curve_class(S, 2, deg)
            assert euler_form(S, O, F) == deg + 1

    def test_unique_solution_of_pinning_equations(self):
        # (0, e, t) with chi(O, .) = deg + 1 forces t = deg + 1/2.
        S = surface(1)
        deg = -1
        t = Fraction(deg + 1) - Fraction(1, 2) * 1  # H.e = 1
        assert curve_class(S, 1, deg).ch2 == t

    def test_index_out_of_range(self):
        S = surface(1)
        with pytest.raises(InvalidInputError):
            curve_class(S, 2, -1)


class TestDescend:
    def test_structure_sheaf(self):
        S = surface(1)
        E = KClass(1, divisor(0, 0), 0)
        assert descend_class(S, E) == KClass(1, divisor(0), 0)

    def test_rank_two_class(self):
        S = surface(1)
        E = KClass(2, divisor(3, 0), 3)
        assert descend_class(S, E) == KClass(2, divisor(3), 3)

    def test_nonzero_restriction_degree_rejected(self):
        S = surface(1)
        with pytest.raises(DomainError):
            descend_class(S, line_bundle(S, 0, -1))

    def test_pull_back_inverts(self):
        rng = random.Random(17)
        S = surface(3)
        for _ in range(50):
            E = random_kclass(rng, 2)
            lifted = pull_back_class(E)
            assert descend_class(S, lifted) == E
