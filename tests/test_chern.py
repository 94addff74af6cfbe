import copy
import dataclasses
import json
import pickle
import random
from fractions import Fraction

import pytest
from _helpers import (
    divisor,
    line_bundle,
    oracle_chi_product_form,
    oracle_monomial_count,
    oracle_serre_twist,
    oracle_twice_chi,
    random_kclass,
    surface,
)

from delpezzo import (
    Direction,
    DivisorClass,
    DomainError,
    InvalidInputError,
    KClass,
    basic_collection,
    curve_class,
    anticanonical_divisor,
    canonical_divisor,
    compare_slope,
    descend_class,
    euler_form,
    euler_pairing,
    exceptional_divisor,
    intersect,
    line_class,
    line_divisor,
    mutate_pair,
    slope_mu,
    structure_class,
    twist,
    vector_slope,
)
from delpezzo.chern import skew_form, weighted_sum
from delpezzo.picard import anticanonical_degree, dot


class TestKClass:
    def test_integrality_enforced(self):
        with pytest.raises(InvalidInputError):
            KClass(1, divisor(1), Fraction(2, 3))
        with pytest.raises(InvalidInputError):
            # c1^2 - 2 ch2 = 1 - 1 = 0 is fine; 1 - 2 = -1 is odd.
            KClass(1, divisor(1), 2)

    def test_ch2_accessors(self):
        T = KClass(2, divisor(3), 3)
        assert T.two_ch2 == 3
        assert T.ch2 == Fraction(3, 2)

    @pytest.mark.parametrize("n", [True, False, 1.0])
    def test_scalar_multiple_needs_an_int(self, n):
        E = KClass(2, divisor(3), 3)
        assert 2 * E == KClass(4, divisor(6), 6)
        with pytest.raises(TypeError, match="^unsupported operand type"):
            n * E

    def test_rational_third_argument_rejected(self):
        # The third coordinate is 2*ch2; an old-style rational ch2 fails loudly.
        with pytest.raises(InvalidInputError):
            KClass(1, divisor(1), Fraction(1, 2))

    @pytest.mark.parametrize("r, two_ch2", [(True, 0), (1, False), (False, 0), (0, True)])
    def test_bool_rank_and_two_ch2_refused(self, r, two_ch2):
        # json.dumps writes a bool as true, which KClass.from_json refuses.
        with pytest.raises(InvalidInputError, match=r"^rank and 2\*ch2 must be integers$"):
            KClass(r, divisor(two_ch2 % 2), two_ch2)

    @pytest.mark.parametrize("coeffs", [(False,), (True, 1), (3, 1, False)])
    def test_bool_c1_coefficient_refused(self, coeffs):
        with pytest.raises(InvalidInputError, match=r"^divisor coefficients must be integers$"):
            KClass(1, DivisorClass(coeffs), 0)

    def test_json_ch2_must_be_half_integral(self):
        with pytest.raises(InvalidInputError):
            KClass.from_json({"r": 1, "c1": [1], "ch2": "1/3"})

    @pytest.mark.parametrize(
        "raw, two_ch2",
        [(3, 6), (-4, -8), ("4/2", 4), ("-5/2", -5), ("+3", 6), ("-0/7", 0), ("3/6", 1)],
    )
    def test_json_ch2_forms(self, raw, two_ch2):
        E = KClass.from_json({"r": 0, "c1": [two_ch2 % 2], "ch2": raw})
        assert E.two_ch2 == two_ch2

    @pytest.mark.parametrize(
        "raw, message",
        [
            ("2/6", "2*ch2 must be an integer, got ch2=1/3"),
            ("-7/3", "2*ch2 must be an integer, got ch2=-7/3"),
            ("1/0", "bad ch2 value '1/0'"),
            ("9" * 5000, "bad ch2 value '%s'" % ("9" * 5000)),
            ("1/" + "9" * 5000, "bad ch2 value '1/%s'" % ("9" * 5000)),
            (1.5, "ch2 must be a JSON integer or a 'p/q' string, got 1.5"),
            (True, "ch2 must be a JSON integer or a 'p/q' string, got True"),
            ("1.5", "ch2 must be a JSON integer or a 'p/q' string, got '1.5'"),
            (" 1", "ch2 must be a JSON integer or a 'p/q' string, got ' 1'"),
        ],
    )
    def test_json_ch2_refusals(self, raw, message):
        with pytest.raises(InvalidInputError) as refused:
            KClass.from_json({"r": 1, "c1": [1], "ch2": raw})
        assert str(refused.value) == message

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

    @pytest.mark.parametrize("two_ch2", range(-7, 8))
    def test_json_ch2_in_lowest_terms(self, two_ch2):
        E = KClass(0, divisor(two_ch2 % 2), two_ch2)
        ch2 = Fraction(two_ch2, 2)
        assert E.to_json()["ch2"] == f"{ch2.numerator}/{ch2.denominator}"

    @pytest.mark.parametrize(
        "r, c1, two_ch2",
        [
            (10**4300, (0,), 0),
            (-(10**4300), (0,), 0),
            (1, (2 * 10**4300,), 0),
            (1, (0, -(2 * 10**4300)), 0),
            (0, (0,), 2 * 10**4300),
            (0, (1,), 10**4301 + 1),
        ],
        ids=["rank", "negative-rank", "c1", "c1-e", "ch2", "half-ch2"],
    )
    def test_json_refuses_integers_past_the_digit_limit(self, r, c1, two_ch2):
        E = KClass(r, divisor(*c1), two_ch2)
        with pytest.raises(DomainError, match="more than 4300 digits"):
            E.to_json()
        with pytest.raises(DomainError, match="more than 4300 digits"):
            E.to_json_text()

    def test_json_writes_integers_up_to_the_digit_limit(self):
        big = 10**4300 - 1
        # 2*ch2 has 4301 digits; the ch2 written is big/1.
        E = KClass(-big, divisor(big - 1, 1 - big), 2 * big)
        assert len(E.to_json()["ch2"]) == 4302
        assert KClass.from_json(E.to_json()) == E


def seeded_json_classes(seed: int):
    """Classes on d = 0..8 with ranks of both signs and 0, coordinates
    small and near +-2**500, and 2*ch2 odd and even."""
    rng = random.Random(seed)
    big = 1 << 500

    def pick() -> int:
        return rng.choice((0, big, -big)) + rng.randint(-9, 9)

    for d in range(9):
        for r in (0, 1, -1, big + 3, -big - 5):
            for _ in range(6):
                c1 = divisor(*(pick() for _ in range(d + 1)))
                yield KClass(r, c1, anticanonical_degree(c1) + 2 * pick())


class TestJsonText:
    """``to_json_text`` is json.dumps of ``to_json``, written from the
    integers."""

    def test_seeded_classes_cover_the_cases(self):
        classes = list(seeded_json_classes(3))
        assert {E.d for E in classes} == set(range(9))
        assert {(E.r > 0) - (E.r < 0) for E in classes} == {-1, 0, 1}
        assert {E.two_ch2 % 2 for E in classes} == {0, 1}
        assert max(max(map(abs, E.c1.coeffs)).bit_length() for E in classes) == 501

    def test_text_is_json_dumps(self):
        for E in seeded_json_classes(3):
            assert E.to_json_text() == json.dumps(E.to_json())

    def test_text_reads_back(self):
        for E in seeded_json_classes(4):
            assert KClass.from_json(json.loads(E.to_json_text())) == E

    def test_text_of_the_longest_writable_integers(self):
        big = 10**4300 - 1
        E = KClass(-big, divisor(big - 1, 1 - big), 2 * big)
        assert E.to_json_text() == json.dumps(E.to_json())


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

    @pytest.mark.parametrize("d", range(9))
    def test_twice_chi_is_even(self, d):
        # c1^2 = 2ch2 and H.c1 = c1^2 (mod 2) for every class, so chi is an
        # integer without a check; ranks of every sign, torsion included.
        rng = random.Random(1000 + d)
        S = surface(d)
        for _ in range(200):
            E = random_kclass(rng, d, max_rank=4, min_rank=-4)
            F = random_kclass(rng, d, max_rank=4, min_rank=-4)
            twice = oracle_twice_chi(S, E, F)
            assert twice.denominator == 1 and twice.numerator % 2 == 0
            assert 2 * euler_form(S, E, F) == twice

    def test_asymmetry_identity(self):
        rng = random.Random(5)
        for d in (0, 2, 5):
            S = surface(d)
            H = anticanonical_divisor(d)
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
                assert euler_form(S, E, F) == euler_form(S, F, oracle_serre_twist(S, E))

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


class TestEulerPairing:
    """euler_pairing is euler_form less its surface checks: the same chi on
    every pair of classes of one surface."""

    @pytest.mark.parametrize("d", range(9))
    def test_equals_euler_form(self, d):
        rng = random.Random(2000 + d)
        S = surface(d)
        classes = [
            random_kclass(rng, d, max_rank=r, min_rank=r) for _ in range(3) for r in range(-3, 4)
        ]
        classes += [KClass(0, divisor(*[0] * (d + 1)), 2)]
        classes += [curve_class(S, i, rng.randint(-3, 3)) for i in range(1, d + 1)]
        # Twists by divisors with coordinates near 2**200, as orbit-p2 reaches.
        for E in classes[:8]:
            D = divisor(*[rng.choice((1, -1)) * (2**200 + rng.randint(-9, 9))] * (d + 1))
            classes.append(twist(S, E, D))
        assert {E.r for E in classes} == set(range(-3, 4))
        assert max(abs(x).bit_length() for E in classes for x in E.c1.coeffs) > 200
        for E in classes:
            for F in classes:
                chi = euler_pairing(E, F)
                assert chi == euler_form(S, E, F)
                assert 2 * chi == oracle_twice_chi(S, E, F)

    @pytest.mark.parametrize("d", range(9))
    def test_coordinates_near_2_to_500(self, d):
        # orbit-p2 reaches coordinates of about 500 bits at seed 5.  Every
        # coordinate is drawn near +-2**500, the rank too, and rank 0 is on
        # either side of some pair; the pairs include each class with itself.
        rng = random.Random(2100 + d)
        S = surface(d)

        def big(sign=None):
            sign = sign or rng.choice((1, -1))
            return sign * (2**500 + rng.randint(-(2**20), 2**20))

        classes = []
        for r in (big(1), big(1), big(-1), big(-1), big(), 0, 0):
            D = divisor(*[big() for _ in range(d + 1)])
            classes.append(KClass(r, D, 2 * big() + (anticanonical_degree(D) & 1)))
        assert {(E.r > 0) - (E.r < 0) for E in classes} == {-1, 0, 1}
        assert min(abs(x).bit_length() for E in classes for x in E.c1.coeffs) >= 500
        assert min(abs(E.r).bit_length() for E in classes if E.r) >= 500
        for E in classes:
            for F in classes:
                chi = euler_pairing(E, F)
                assert chi == euler_form(S, E, F)
                assert 2 * chi == oracle_twice_chi(S, E, F)

    def test_euler_form_refuses_classes_of_another_surface(self):
        S, T = surface(2), surface(1)
        on, off = structure_class(S), structure_class(T)
        for E, F in ((off, on), (on, off), (off, off)):
            with pytest.raises(InvalidInputError) as err:
                euler_form(S, E, F)
            assert str(err.value) == "class does not belong to this surface"
        # Without the surface, the lattice still refuses a mixed pair.
        with pytest.raises(InvalidInputError) as err:
            euler_pairing(on, off)
        assert str(err.value) == "divisor classes live on different surfaces"


def skew_classes(rng: random.Random, d: int) -> list[KClass]:
    """Seeded classes on d blow-ups: ranks -6..6, every one of them, torsion
    curve classes, and classes of about 1,000 bits built from them."""
    S = surface(d)
    classes = [random_kclass(rng, d, max_rank=6, min_rank=-6) for _ in range(26)]
    classes += [random_kclass(rng, d, max_rank=r, min_rank=r) for r in range(-6, 7)]
    classes += [curve_class(S, i, rng.randint(-3, 3)) for i in range(1, d + 1)]
    big = rng.getrandbits(1000) | 1 << 999
    classes += [big * E for E in classes[:6]]
    classes += [E - big * F for E, F in zip(classes[6:12], classes[12:18])]
    return classes


class TestSkewForm:
    """skew_form(E, F) = rE H.c1F - rF H.c1E is the antisymmetric part of
    the Euler pairing."""

    @pytest.mark.parametrize("d", range(9))
    def test_skew_form_is_chi_minus_its_transpose(self, d):
        classes = skew_classes(random.Random(3200 + d), d)
        assert {E.r for E in classes} >= set(range(-6, 7))
        assert max(abs(E.r).bit_length() for E in classes) >= 1000
        for E in classes:
            for F in classes:
                skew = skew_form(E, F)
                assert skew == euler_pairing(E, F) - euler_pairing(F, E)
                assert skew == -skew_form(F, E)


class TestSlopes:
    def test_structure_sheaf_slope_zero(self):
        S = surface(0)
        assert slope_mu(S, structure_class(S)) == 0

    def test_line_bundle_slope_d1(self):
        S = surface(1)
        Oh = line_bundle(S, 1, 0)
        assert slope_mu(S, Oh) == 3

    def test_rank_zero_rejected(self):
        S = surface(1)
        with pytest.raises(DomainError, match="^slope is undefined for rank-0 classes$"):
            slope_mu(S, curve_class(S, 1, -1))

    def test_class_of_another_surface_rejected(self):
        with pytest.raises(InvalidInputError, match="^inputs do not belong to this surface$"):
            slope_mu(surface(2), structure_class(surface(1)))

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
        assert compare_slope(sv, O) == -1

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
        K = canonical_divisor(0)
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
        for _ in range(60):
            E = random_kclass(rng, 3)
            D = divisor(*[rng.randint(-4, 4) for _ in range(4)])
            line = line_class(S, D)
            assert slope_mu(S, twist(S, E, D)) == slope_mu(S, E) + slope_mu(S, line)

    def test_wrong_surface_refused(self):
        S, T = surface(1), surface(2)
        with pytest.raises(InvalidInputError, match="^divisor does not belong to this surface$"):
            line_class(S, line_divisor(2))
        for E, D in ((structure_class(T), line_divisor(1)), (structure_class(S), line_divisor(2))):
            with pytest.raises(InvalidInputError, match="^inputs do not belong to this surface$"):
                twist(S, E, D)

    def test_dual_negates_slope(self):
        # The dual (r, -c1, ch2), built inline.
        rng = random.Random(13)
        S = surface(2)
        for _ in range(100):
            E = random_kclass(rng, 2)
            assert slope_mu(S, KClass(E.r, -E.c1, E.two_ch2)) == -slope_mu(S, E)


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

    def test_wrong_surface_refused(self):
        with pytest.raises(InvalidInputError, match="^class does not belong to this surface$"):
            descend_class(surface(1), structure_class(surface(2)))

    def test_pull_back_inverts(self):
        rng = random.Random(17)
        S = surface(3)
        for _ in range(50):
            E = random_kclass(rng, 2)
            lifted = KClass(E.r, divisor(*E.c1.coeffs, 0), E.two_ch2)
            assert descend_class(S, lifted) == E


def seeded_divisors(rng: random.Random, d: int, bits: int):
    bound = 1 << bits
    return divisor(*(rng.randint(-bound, bound) for _ in range(d + 1)))


class TestAnticanonicalCache:
    """KClass caches H.c1 at construction and reads c1^2 = H.c1 (mod 2) for
    its integrality check."""

    @pytest.mark.parametrize("d", range(9))
    def test_square_and_degree_agree_mod_two(self, d):
        rng = random.Random(40 + d)
        for bits in (3, 64, 300):
            for _ in range(40):
                D = seeded_divisors(rng, d, bits)
                assert (dot(D, D) - anticanonical_degree(D)) % 2 == 0

    @pytest.mark.parametrize("d", range(9))
    def test_refusals_follow_the_parity_of_c2(self, d):
        # The check accepts a class exactly when c1^2 - 2*ch2 is even, and
        # refuses with the message that names the class.
        rng = random.Random(60 + d)
        refused = 0
        for bits in (3, 300):
            for _ in range(20):
                c1 = seeded_divisors(rng, d, bits)
                r, two_ch2 = rng.randint(-3, 3), rng.randint(-(1 << bits), 1 << bits)
                if (dot(c1, c1) - two_ch2) % 2 == 0:
                    assert KClass(r, c1, two_ch2).two_ch2 == two_ch2
                    continue
                refused += 1
                message = f"class ({r}, {c1.coeffs}, {Fraction(two_ch2, 2)}) has non-integer c2"
                with pytest.raises(InvalidInputError) as err:
                    KClass(r, c1, two_ch2)
                assert str(err.value) == message
        assert refused > 0

    def test_existing_refusals_keep_their_messages(self):
        with pytest.raises(InvalidInputError, match=r"^class \(1, \(1,\), 1\) has non-integer c2$"):
            KClass(1, divisor(1), 2)
        with pytest.raises(InvalidInputError, match=r"^rank and 2\*ch2 must be integers$"):
            KClass(1, divisor(1), Fraction(1, 2))
        with pytest.raises(InvalidInputError, match=r"non-integer c2"):
            KClass.from_json({"r": 1, "c1": [0, 1], "ch2": "1"})

    def test_cache_on_every_construction(self):
        rng = random.Random(5)
        S = surface(3)
        c = basic_collection(S)
        E, F = random_kclass(rng, 3), random_kclass(rng, 3)
        D = divisor(2, -1, 0, 3)
        built = [
            KClass(2, divisor(1, 2, 3, 4), 0),
            KClass.from_json(E.to_json()),
            E + F,
            E - F,
            -E,
            3 * E,
            twist(S, E, D),
            weighted_sum(((E, 2), (F, -5))),
            *mutate_pair(S, c.members[1], c.members[2], Direction.LEFT),
            *mutate_pair(S, c.members[3], c.members[4], Direction.RIGHT),
            descend_class(S, KClass(2, divisor(3, 1, 0, 0), 2)),
        ]
        for x in built:
            assert x._hc1 == x.hc1 == anticanonical_degree(x.c1)

    def test_cache_takes_no_part_in_the_value(self):
        E = KClass(2, divisor(3, 1, 0), 2)
        assert "_hc1" not in repr(E)
        assert E.to_json() == {"r": 2, "c1": [3, 1, 0], "ch2": "1/1"}
        forged = KClass(2, divisor(3, 1, 0), 2)
        object.__setattr__(forged, "_hc1", 99)
        assert forged == E and hash(forged) == hash(E) and repr(forged) == repr(E)
        assert len({forged, E}) == 1
        with pytest.raises(TypeError):
            KClass(2, divisor(3, 1, 0), 2, 8)
        with pytest.raises(TypeError):
            KClass(2, divisor(3, 1, 0), 2, _hc1=8)

    def test_replace_recomputes_the_cache(self):
        """No copy keeps a stale cache: a changed class is built through the
        constructor, and copy and pickle rebuild through it too."""
        E = KClass(2, divisor(3, 1, 0), 2)
        with pytest.raises(TypeError):
            dataclasses.replace(E, c1=divisor(2, 1, 1))
        moved = KClass(E.r, divisor(2, 1, 1), E.two_ch2)
        assert E._hc1 == 8 and moved._hc1 == anticanonical_degree(divisor(2, 1, 1)) == 4
        with pytest.raises(InvalidInputError, match="non-integer c2"):
            KClass(E.r, divisor(1, 0, 0), E.two_ch2)
        forged = KClass(2, divisor(3, 1, 0), 2)
        object.__setattr__(forged, "_hc1", 99)
        for copied in (copy.copy(forged), pickle.loads(pickle.dumps(forged))):
            assert copied == E and copied._hc1 == 8


class TestWeightedSum:
    @pytest.mark.parametrize("d", [0, 4, 8])
    def test_matches_the_operators(self, d):
        rng = random.Random(90 + d)
        for k in range(1, 6):
            terms = [(random_kclass(rng, d, min_rank=-3), rng.randint(-4, 4)) for _ in range(k)]
            expected = terms[0][1] * terms[0][0]
            for E, m in terms[1:]:
                expected = expected + m * E
            assert weighted_sum(terms) == expected
            assert weighted_sum(iter(terms)) == expected

    def test_refusals(self):
        O1, O2 = structure_class(surface(1)), structure_class(surface(2))
        with pytest.raises(InvalidInputError, match="^a weighted sum needs at least one class$"):
            weighted_sum(())
        with pytest.raises(InvalidInputError, match="^divisor classes live on different surfaces$"):
            weighted_sum(((O1, 1), (O2, 1)))
        # A bool is refused too: json.dumps would write it as true.
        for m in (Fraction(1, 2), Fraction(2, 1), 1.0, "2", None, True, False):
            with pytest.raises(InvalidInputError, match="^multiplicities must be integers, got "):
                weighted_sum(((O1, 1), (O1, m)))
            with pytest.raises(InvalidInputError, match="^multiplicities must be integers, got "):
                weighted_sum(((O1, m),))
