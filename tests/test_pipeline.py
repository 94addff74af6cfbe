import random
from fractions import Fraction

import pytest
from _helpers import braid_orbit_states, divisor, line_bundle, p2_basic, surface

from delpezzo import (
    Collection,
    DivisorClass,
    DomainError,
    ExcludedPairError,
    InvalidInputError,
    KClass,
    PipelineError,
    basic_collection,
    canonical_divisor,
    curve_class,
    euler_form,
    exceptional_divisor,
    global_twist,
    intersect,
    is_numerically_exceptional,
    line_class,
    normalize_and_descend,
    order_hom,
    peel_curve,
    reduce_spread,
    replay,
    rotate_twist,
    slope_mu,
    structure_class,
    twist,
)


def slopes(c):
    H = c.surface.anticanonical_class()
    return [slope_mu(c.surface, m, H) for m in c.members if m.r > 0]


class TestOrderHom:
    def test_already_ordered_identity(self):
        c = p2_basic()
        out, log = order_hom(c)
        assert out == c
        assert len(log) == 0

    def test_single_ext_pair(self):
        S = surface(1)
        c = Collection(S, (line_bundle(S, 1, 1), line_bundle(S, 0, -1)))
        out, log = order_hom(c)
        assert out.members == (
            KClass(2, divisor(1, 0), -1),
            line_bundle(S, 1, 1),
        )
        assert slopes(out) == [Fraction(3, 2), 2]
        assert len(log) == 1

    def test_braid_scrambled_foundations_reorder_within_window(self):
        rng = random.Random(51)
        states = braid_orbit_states(6)
        for c in rng.sample(states, 100):
            lo, hi = min(slopes(c)), max(slopes(c))
            out, _ = order_hom(c)
            ordered = slopes(out)
            assert all(x <= y for x, y in zip(ordered, ordered[1:]))
            assert min(ordered) >= lo
            assert max(ordered) <= hi

    def test_negative_rank_rejected(self):
        S = surface(0)
        c = Collection(S, (KClass(-1, divisor(0), 0),))
        with pytest.raises(InvalidInputError):
            order_hom(c)


class TestReduceSpread:
    def test_plane_pair_is_noop(self):
        S = surface(0)
        c = Collection(S, (structure_class(S), line_bundle(S, 1)))
        out, log = reduce_spread(c)
        assert out == c
        assert len(log) == 0

    def test_d1_pair_within_window(self):
        S = surface(1)
        c = Collection(S, (structure_class(S), line_bundle(S, 2, 0)))
        assert euler_form(S, c.members[1], c.members[0]) == 0
        out, log = reduce_spread(c)
        assert out == c and len(log) == 0

    def test_wide_pair_on_degree_one_surface(self):
        # On the 8-fold blow-up K^2 = 1 and the pair (O, O(h)) has
        # slope spread 3; reduction must land strictly below 1.
        S = surface(8)
        c = Collection(S, (structure_class(S), line_bundle(S, *([1] + [0] * 8))))
        assert is_numerically_exceptional(c)[0]
        out, log = reduce_spread(c)
        vals = slopes(out)
        assert max(vals) - min(vals) < 1
        assert len(log) > 0
        assert all(x <= y for x, y in zip(vals, vals[1:]))

    def test_wide_pairs_from_search_oracle(self):
        # Solving chi(O(D), O) = 0 for D = k h - sum_T e_i gives k in {1, 2}
        # with T arbitrary; every such pair with mu >= K^2 = 1 must reduce.
        rng = random.Random(52)
        S = surface(8)
        H = S.anticanonical_class()
        O = structure_class(S)
        candidates = []
        for k, max_t in ((1, 2), (2, 5)):
            for t in range(0, max_t + 1):
                coeffs = [k] + [1] * t + [0] * (8 - t)
                candidates.append(DivisorClass(tuple(coeffs)))
        found = 0
        for D in candidates:
            E = line_class(S, D)
            assert euler_form(S, E, O) == 0
            if slope_mu(S, E, H) < 1:
                continue
            found += 1
            c = Collection(S, (O, E))
            width_in = max(slopes(c)) - min(slopes(c))
            out, _ = reduce_spread(c)
            vals = slopes(out)
            assert max(vals) - min(vals) < 1
            assert max(vals) - min(vals) <= width_in
        assert found >= 5

    def test_unordered_input_rejected(self):
        S = surface(1)
        c = Collection(S, (line_bundle(S, 1, 1), line_bundle(S, 0, -1)))
        with pytest.raises(InvalidInputError):
            reduce_spread(c)


class TestRotateTwist:
    def test_identity(self):
        c = p2_basic()
        assert rotate_twist(c, 1) == c

    def test_plane_basic_at_two(self):
        c = p2_basic()
        out = rotate_twist(c, 2)
        S = c.surface
        assert out.members == (
            line_bundle(S, 1),
            line_bundle(S, 2),
            line_bundle(S, 3),
        )

    def test_two_rotations_compose_to_global_twist(self):
        c = p2_basic()
        K = canonical_divisor(0)
        twice = rotate_twist(rotate_twist(c, len(c.members)), 2)
        assert twice == global_twist(c, -K)

    def test_out_of_range(self):
        with pytest.raises(InvalidInputError):
            rotate_twist(p2_basic(), 4)


class TestPeelCurve:
    def test_single_exceptional_line_bundle(self):
        S = surface(1)
        c = Collection(S, (line_bundle(S, 0, -1),))
        G, alpha, log = peel_curve(c, [1], 1)
        assert alpha == 1
        assert G == KClass(1, divisor(0, 0), 0)
        assert len(log) == 1

    def test_degree_zero_members_peel_nothing(self):
        S = surface(1)
        c = Collection(S, (structure_class(S), line_bundle(S, 1, 0)))
        G, alpha, _ = peel_curve(c, [1, 1], 1)
        assert alpha == 0
        assert G == c.members[0] + c.members[1]

    def test_post_identities_on_random_valid_input(self):
        rng = random.Random(53)
        S = surface(2)
        L = curve_class(S, 2, -1)
        e = exceptional_divisor(2, 2)
        count = 0
        while count < 100:
            a = rng.randint(-3, 3)
            b1 = rng.randint(-3, 3)
            b2 = rng.randint(-1, 0)  # restriction degree in {-1, 0}
            E = line_bundle(S, a, b1, b2)
            c = Collection(S, (E,))
            mult = rng.randint(1, 3)
            G, alpha, _ = peel_curve(c, [mult], 2)
            assert intersect(S, G.c1, e) == 0
            assert euler_form(S, G, L) == 0
            assert euler_form(S, L, G) == -G.r
            count += 1

    def test_out_of_window_degree_rejected(self):
        S = surface(1)
        c = Collection(S, (line_bundle(S, 0, -2),))
        with pytest.raises(DomainError, match="rotate"):
            peel_curve(c, [1], 1)

    def test_empty_collection_rejected(self):
        with pytest.raises(InvalidInputError):
            peel_curve(Collection(surface(1), ()), [], 1)

    def test_forbidden_pair_on_degree_one_surface(self):
        S = surface(8)
        shift = exceptional_divisor(8, 8) + canonical_divisor(8)
        O = structure_class(S)
        F = twist(S, O, shift)
        c = Collection(S, (O, F))
        assert is_numerically_exceptional(c)[0]
        with pytest.raises(ExcludedPairError):
            peel_curve(c, [1, 1], 8)


class TestNormalizeAndDescend:
    def test_single_line_bundle_on_exceptional_curve(self):
        S = surface(1)
        c = Collection(S, (line_bundle(S, 0, -1),))
        G, log = normalize_and_descend(c)
        assert G == KClass(1, divisor(0), 0)
        assert [s.kind for s in log.steps] == ["rotate", "peel", "descend"]
        assert replay(log)

    def test_basic_collection_d1(self):
        S = surface(1)
        c = basic_collection(S)
        G, log = normalize_and_descend(c)
        # peeling the torsion layer leaves the pullback of O + O(h) + O(2h)
        assert G == KClass(1, divisor(0), 0) + line_bundle(
            surface(0), 1
        ) + line_bundle(surface(0), 2)
        assert G.r == 3
        peels = [s for s in log.steps if s.kind == "peel"]
        assert len(peels) == 1 and peels[0].params["alpha"] == 1
        assert replay(log)

    def test_basic_collection_d2(self):
        c = basic_collection(surface(2))
        G, log = normalize_and_descend(c)
        assert G.d == 1
        assert G.r == 3
        # the e1 torsion layer descends untouched
        assert G.c1.coeffs == (3, -1)
        assert replay(log)

    def test_needs_rotation(self):
        # (O(-3h + 2e1), O): slopes -7 < 0 within the window, restriction
        # degrees -2 and 0, so only the rotation at 2 fits a window.
        S = surface(1)
        c = Collection(S, (line_bundle(S, -3, -2), structure_class(S)))
        assert is_numerically_exceptional(c)[0]
        G, log = normalize_and_descend(c)
        rotate_steps = [s for s in log.steps if s.kind == "rotate"]
        assert rotate_steps and rotate_steps[-1].params["j"] == 2
        assert G == KClass(2, divisor(0), 0)
        assert intersect(S, log.steps[-1].before.c1, exceptional_divisor(1, 1)) == 0
        assert replay(log)

    def test_needs_global_twist(self):
        S = surface(1)
        c = Collection(S, (line_bundle(S, 0, 1),))  # degree +1 on e1
        G, log = normalize_and_descend(c)
        kinds = [s.kind for s in log.steps]
        assert "twist" in kinds
        assert replay(log)

    def test_forbidden_pair_raises_named_error(self):
        S = surface(8)
        shift = exceptional_divisor(8, 8) + canonical_divisor(8)
        O = structure_class(S)
        c = Collection(S, (O, twist(S, O, shift)))
        with pytest.raises(ExcludedPairError):
            normalize_and_descend(c)

    def test_plane_input_rejected(self):
        with pytest.raises(PipelineError):
            normalize_and_descend(p2_basic())

    def test_stage_tag_on_errors(self):
        S = surface(1)
        # chi(E_1, E_0) = 1: the input fails the certificate the first stage checks
        c = Collection(S, (curve_class(S, 1, 0), structure_class(S)))
        assert not is_numerically_exceptional(c)[0]
        with pytest.raises(PipelineError) as err:
            normalize_and_descend(c)
        assert err.value.stage == "order"
        with pytest.raises(PipelineError) as err:
            normalize_and_descend(basic_collection(surface(0)))
        assert err.value.stage == "descend"
        with pytest.raises(PipelineError) as err:
            normalize_and_descend(basic_collection(S), [1, 1])
        assert err.value.stage == "peel"
        S8 = surface(8)
        O = structure_class(S8)
        shift = exceptional_divisor(8, 8) + canonical_divisor(8)
        with pytest.raises(ExcludedPairError) as err:
            normalize_and_descend(Collection(S8, (O, twist(S8, O, shift))))
        assert not isinstance(err.value, PipelineError)

    @pytest.mark.parametrize("d", [1, 2])
    def test_basic_collection_log_steps(self, d):
        _, log = normalize_and_descend(basic_collection(surface(d)))
        assert [(s.kind, s.params) for s in log.steps] == [
            ("rotate", {"j": 1, "group_index": 1, "window": [0, 0]}),
            ("peel", {"mults": [1] * (d + 3), "e_index": d, "alpha": 1}),
            ("descend", {"e_index": d, "surface": {"blowups": d}}),
        ]

    def test_window_never_widens_along_pipeline(self):
        S = surface(1)
        c = Collection(S, (line_bundle(S, 1, 1), line_bundle(S, 0, -1)))
        out, _ = order_hom(c)
        lo, hi = min(slopes(c)), max(slopes(c))
        lo2, hi2 = min(slopes(out)), max(slopes(out))
        assert lo <= lo2 and hi2 <= hi
