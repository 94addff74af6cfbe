import pytest
from _helpers import divisor, line_bundle, surface

from delpezzo import (
    DecompositionType,
    DomainError,
    InvalidInputError,
    InvariantViolationError,
    KClass,
    PairKind,
    classify_pair,
    curve_class,
    decomposition_type,
    euler_form,
    intersect,
    rotation_index,
    splitting_type,
    structure_class,
)
from delpezzo.pairs import restriction_degree, splitting_degrees


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
        S = surface(3, roots=[(0, -1, 1, 0), (0, -1, 0, 1)])
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

    def test_degrees(self):
        assert splitting_degrees(2, -1) == {-1, 0}
        assert splitting_degrees(3, 0) == {0}


class TestDecompositionType:
    def test_zero_type(self):
        S = surface(1)
        E = structure_class(S)  # degrees {0}
        F = KClass(2, divisor(0, -1), -1)  # deg -1: {-1, 0}
        assert decomposition_type(S, E, F, 1) is DecompositionType.ZERO_TYPE

    def test_first_type(self):
        S = surface(1)
        E = KClass(2, divisor(0, -1), -1)  # deg -1: {-1, 0}
        F = KClass(2, divisor(0, 1), -1)  # deg +1: {0, 1}
        assert decomposition_type(S, E, F, 1) is DecompositionType.FIRST_TYPE

    def test_other(self):
        S = surface(1)
        E = line_bundle(S, 0, 2)  # degree -2
        F = line_bundle(S, 0, -2)  # degree 2
        assert decomposition_type(S, E, F, 1) is DecompositionType.OTHER

    def test_rank_zero_rejected(self):
        S = surface(1)
        with pytest.raises(DomainError):
            decomposition_type(S, curve_class(S, 1, -1), structure_class(S), 1)


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

    def test_degree_computation(self):
        S = surface(2)
        assert restriction_degree(S, line_bundle(S, 0, -1, 0), 1) == -1
        assert restriction_degree(S, line_bundle(S, 0, -1, 0), 2) == 0
