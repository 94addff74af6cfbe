import random

import pytest
from _helpers import (
    divisor,
    line_bundle,
    oracle_pair_kind,
    oracle_rotation_index,
    random_kclass,
    surface,
)

from delpezzo import (
    BraidWord,
    DivisorClass,
    DomainError,
    InvalidInputError,
    InvariantViolationError,
    KClass,
    PairKind,
    PairType,
    apply_braid,
    basic_collection,
    classify_pair,
    curve_class,
    euler_form,
    intersect,
    rotation_index,
    slope_mu,
    splitting_type,
    structure_class,
)
from delpezzo.pairs import (
    require_equal_slope_pair,
    require_exceptional_pair,
    restriction_degree,
    splitting_degrees,
)


class TestClassifyPair:
    def test_hom_pair_on_blown_up_plane(self):
        S = surface(1)
        t = classify_pair(S, structure_class(S), line_bundle(S, 1, 0))
        assert t.kind is PairKind.HOM
        assert t.dims == (3,)

    def test_ext_pair(self):
        S = surface(1)
        t = classify_pair(S, line_bundle(S, 1, 1), line_bundle(S, 0, -1))
        assert t.kind is PairKind.EXT
        assert t.dims == (1,)

    def test_singular_pair_in_declared_configuration(self):
        S = surface(2, roots=[(0, -1, 1)])
        t = classify_pair(S, structure_class(S), line_bundle(S, 0, -1, 1))
        assert t.kind is PairKind.SINGULAR
        assert t.dims == (1, 1)

    def test_zero_pair_in_zuev_configuration(self):
        # The roots e1 - e2 and e1 - e3 meet at -1 and are refused; with
        # e1 - e2 alone, e2 - e3 is outside the declared span.
        S = surface(3, roots=[(0, -1, 1, 0)])
        E = line_bundle(S, 0, -1, 1, 0)
        F = line_bundle(S, 0, -1, 0, 1)
        t = classify_pair(S, E, F)
        assert t.kind is PairKind.ZERO
        assert t.dims == ()

    def test_swapped_hom_pair_fails_precondition(self):
        S = surface(1)
        with pytest.raises(InvalidInputError):
            classify_pair(S, line_bundle(S, 1, 0), structure_class(S))

    def test_identical_numerics_rejected(self):
        S = surface(0)
        O = structure_class(S)
        with pytest.raises(InvalidInputError):
            classify_pair(S, O, O)

    def test_rank_zero_rejected(self):
        S = surface(1)
        with pytest.raises(InvalidInputError):
            classify_pair(S, curve_class(S, 1, -1), structure_class(S))

    def test_singular_congruence(self):
        # D.C = -1 mod r for every singular classification.
        S = surface(2, roots=[(0, -1, 1)])
        E = structure_class(S)
        F = line_bundle(S, 0, -1, 1)
        assert classify_pair(S, E, F).kind is PairKind.SINGULAR
        C = F.c1 - E.c1
        D = F.c1
        r = F.r
        assert (intersect(S, D, C) + 1) % r == 0

    def test_equal_slope_pairs_share_rank(self):
        S = surface(2, roots=[(0, -1, 1)])
        t = classify_pair(S, structure_class(S), line_bundle(S, 0, -1, 1))
        assert t.kind in (PairKind.SINGULAR, PairKind.ZERO)

    def test_equal_slope_unequal_rank_flagged_inconsistent(self):
        # (O, F) with F = (3, -C', -3) for the norm -10 class
        # C' = -(2e1 - 2e2 + e3 - e4): both self-pairings are 1, the
        # backward pairing vanishes and the slopes agree, yet the ranks
        # differ, so the forced -2-class equations cannot hold.
        S = surface(4)
        F = KClass(3, divisor(0, -2, 2, -1, 1), -6)
        O = structure_class(S)
        assert euler_form(S, F, F) == 1
        assert euler_form(S, F, O) == 0
        with pytest.raises(InvariantViolationError):
            classify_pair(S, O, F)

    def test_hom_dim_matches_euler_form(self):
        S = surface(0)
        O = structure_class(S)
        for k in (1, 2):
            F = line_bundle(S, k)
            t = classify_pair(S, O, F)
            assert t.kind is PairKind.HOM
            assert t.dims == (euler_form(S, O, F),)

    @pytest.mark.parametrize(
        "kind, dims, message",
        [
            (PairKind.HOM, (0,), "hom pair needs a positive dim"),
            (PairKind.EXT, (1, 2), "ext pair needs a positive dim"),
            (PairKind.ZERO, (1,), "zero pair carries no dims"),
            (PairKind.SINGULAR, (1, 2), "singular pair dims are pinned to (1, 1)"),
        ],
    )
    def test_pair_type_dims_are_pinned(self, kind, dims, message):
        with pytest.raises(InvalidInputError) as err:
            PairType(kind, dims)
        assert str(err.value) == message

    def test_pair_type_defines_no_second_constructor(self):
        public = {k: v for k, v in vars(PairType).items() if not k.startswith("_")}
        assert not any(isinstance(v, staticmethod) for v in public.values())

    def test_self_pairing_other_than_one_refused(self):
        S = surface(1)
        O = structure_class(S)
        message = r"^not a numerically exceptional pair: chi\(X,X\) != 1$"
        with pytest.raises(InvalidInputError, match=message):
            require_exceptional_pair(S, KClass(2, O.c1, 0), O)

    def test_identical_numerics_refused(self):
        O = structure_class(surface(1))
        with pytest.raises(InvalidInputError, match="identical numerics"):
            require_equal_slope_pair(O, O)


class TestSplittingType:
    @pytest.mark.parametrize(
        "r,deg,expected",
        [(2, -1, (1, 0)), (3, 0, (0, 0)), (2, -3, (1, -1))],
    )
    def test_examples(self, r, deg, expected):
        assert splitting_type(r, deg) == expected

    def test_round_trip_exhaustive(self):
        for r in range(1, 65):
            for deg in range(-256, 257):
                alpha, s = splitting_type(r, deg)
                assert 0 <= alpha < r
                assert alpha * (s - 1) + (r - alpha) * s == deg

    def test_rank_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            splitting_type(0, 1)

    def test_bool_rank_refused(self):
        with pytest.raises(InvalidInputError, match="^splitting type needs rank >= 1$"):
            splitting_type(True, 1)

    @pytest.mark.parametrize("deg", [True, 1.0])
    def test_degree_must_be_an_int(self, deg):
        with pytest.raises(InvalidInputError, match="^splitting type needs an integer degree$"):
            splitting_type(2, deg)

    def test_degrees(self):
        assert splitting_degrees(2, -1) == {-1, 0}
        assert splitting_degrees(3, 0) == {0}


class TestRotationIndex:
    def test_identity_when_window_already_fits(self):
        S = surface(1)
        classes = [line_bundle(S, 0, -1), line_bundle(S, 1, 0)]
        i, window = rotation_index(S, classes, 1)
        assert i == 1
        assert window == (-1, 0)

    def test_needs_rotation_at_two(self):
        S = surface(1)
        classes = [line_bundle(S, 0, -2), line_bundle(S, 1, 0)]
        # degrees -2 and 0 do not fit; after rotating, O(h) and O(2e1)(-K)
        # have degrees 0 and -1.
        i, window = rotation_index(S, classes, 1)
        assert i == 2
        assert window == (-1, 0)

    def test_slope_precondition(self):
        S = surface(1)
        classes = [line_bundle(S, 1, 0), line_bundle(S, 0, -1)]
        with pytest.raises(DomainError):
            rotation_index(S, classes, 1)

    def test_empty_list_refused(self):
        with pytest.raises(InvalidInputError, match="^rotation index needs a nonempty list$"):
            rotation_index(surface(1), [], 0)

    def test_degree_computation(self):
        S = surface(2)
        assert restriction_degree(S, line_bundle(S, 0, -1, 0), 1) == -1
        assert restriction_degree(S, line_bundle(S, 0, -1, 0), 2) == 0

    def test_degree_is_read_off_the_coordinates(self, monkeypatch):
        """c1(E).e_i is the coefficient b_i: no DivisorClass is built."""
        S = surface(2)
        E = line_bundle(S, 3, 1, -2)
        built = []
        monkeypatch.setattr(DivisorClass, "__post_init__", lambda D: built.append(D))
        assert [restriction_degree(S, E, i) for i in (1, 2)] == [1, -2]
        assert built == []

    def test_degree_refusals_in_order(self):
        S, E1 = surface(2), line_bundle(surface(1), 0, 1)
        with pytest.raises(InvalidInputError, match=r"^e_3 does not exist with 2 blow-ups$"):
            restriction_degree(S, E1, 3)
        with pytest.raises(InvalidInputError, match=r"^e_0 does not exist with 2 blow-ups$"):
            restriction_degree(S, line_bundle(S, 0, 1, 0), 0)
        with pytest.raises(
            InvalidInputError, match=r"^class does not belong to this surface$"
        ):
            restriction_degree(S, E1, 1)

    @pytest.mark.parametrize("e_index", [True, 1.0])
    def test_e_index_must_be_an_int(self, e_index):
        S = surface(2)
        E = line_bundle(S, 0, -1, 0)
        message = f"^e_{e_index} does not exist with 2 blow-ups$"
        with pytest.raises(InvalidInputError, match=message):
            restriction_degree(S, E, e_index)
        with pytest.raises(InvalidInputError, match=message):
            rotation_index(S, [E], e_index)


def outcome(fn):
    """The value of fn(), or the type and message of its refusal."""
    try:
        return fn()
    except (InvalidInputError, DomainError) as exc:
        return type(exc), str(exc)


def scrambled_collections(rng, d, count):
    """The basic collection of Bl_d scrambled by seeded braid words."""
    basic = basic_collection(surface(d))
    n = len(basic.members)
    for _ in range(count):
        letters = [
            f"{rng.choice('LR')}{rng.randint(1, n - 1)}"
            for _ in range(rng.randint(1, 8))
        ]
        yield apply_braid(basic, BraidWord.parse(" ".join(letters)))[0]


class TestSignOfChi:
    """The pair type is the sign of chi(E,F): chi(E,F) - chi(F,E) =
    rE*rF*(mu(F) - mu(E)), and chi(F,E) = 0 on an exceptional pair."""

    def test_antisymmetric_part_is_the_slope_difference(self):
        rng = random.Random(61)
        for d in range(9):
            S = surface(d)
            for _ in range(200):
                E, F = random_kclass(rng, d), random_kclass(rng, d)
                mu_e, mu_f = slope_mu(S, E), slope_mu(S, F)
                assert euler_form(S, E, F) - euler_form(S, F, E) == E.r * F.r * (
                    mu_f - mu_e
                )

    def test_kind_matches_slope_order_on_scrambled_collections(self):
        rng = random.Random(62)
        kinds = set()
        for d in range(9):
            S = surface(d)
            for c in scrambled_collections(rng, d, 12):
                for i, E in enumerate(c.members):
                    for F in c.members[i + 1 :]:
                        if E.r <= 0 or F.r <= 0:
                            continue
                        t = classify_pair(S, E, F)
                        expected = oracle_pair_kind(S, E, F)
                        if expected is None:
                            assert t.kind in (PairKind.ZERO, PairKind.SINGULAR)
                        else:
                            assert t.kind is expected
                        assert t.chi == euler_form(S, E, F)
                        kinds.add(t.kind)
        assert {PairKind.HOM, PairKind.EXT} <= kinds


class TestRotationIndexOracle:
    def test_matches_twisted_copies_on_increasing_slopes(self):
        rng = random.Random(63)
        seen = {"first": 0, "later": 0, "none": 0}
        for d in range(9):
            S = surface(d)
            for _ in range(80):
                by_slope = {}
                for _ in range(rng.randint(1, 4)):
                    E = random_kclass(rng, d, max_rank=4)
                    by_slope.setdefault(slope_mu(S, E), E)
                classes = [by_slope[mu] for mu in sorted(by_slope)]
                for e_index in range(1, max(d, 1) + 1):
                    got = outcome(lambda: rotation_index(S, classes, e_index))
                    assert got == outcome(
                        lambda: oracle_rotation_index(S, classes, e_index)
                    )
                    if d and isinstance(got[0], int):
                        seen["first" if got[0] == 1 else "later"] += 1
                    elif d:
                        seen["none"] += 1
        assert min(seen.values()) > 0, seen
