import json
import random
import re
from fractions import Fraction

import pytest
from _helpers import (
    braid_orbit_states,
    divisor,
    line_bundle,
    oracle_slope,
    p2_basic,
    random_kclass,
    scrambled_collections,
    surface,
)

from delpezzo import (
    BraidWord,
    Collection,
    DivisorClass,
    DomainError,
    ExcludedPairError,
    InvalidInputError,
    KClass,
    PipelineError,
    apply_braid,
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
from delpezzo.cli import run
from delpezzo.pipeline import (
    _check_members,
    _forbidden_pair_guard,
    _member_degrees,
    rotation_start,
)


def slopes(c):
    return [oracle_slope(c.surface, m) for m in c.members if m.r > 0]


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

    @pytest.mark.parametrize("d", range(1, 9))
    def test_scrambled_collections_reorder_within_window(self, d):
        # A descent (E, F) has chi(E,F) < 0, so its left mutation
        # |chi|*E + F has a slope strictly between the two.  The plane's
        # orbit is the test above.
        moved = 0
        for c in scrambled_collections(d, 40, seed=1400 + d, max_letters=20):
            lo, hi = min(slopes(c)), max(slopes(c))
            try:
                out, log = order_hom(c)
            except DomainError:  # torsion the pipeline cannot place or pass
                continue
            moved += len(log) > 0
            ordered = slopes(out)
            assert all(x <= y for x, y in zip(ordered, ordered[1:]))
            assert lo <= min(ordered) and max(ordered) <= hi
        assert moved > 0


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
            if slope_mu(S, E) < 1:
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

    @pytest.mark.parametrize("d", range(1, 9))
    def test_riemann_roch_identities_for_every_class(self, d):
        # The identities peel_curve does not re-check: with L = O_e(-1),
        # alpha = chi(F, L) = -c1(F).e and G = F - alpha*L, for every F.
        rng = random.Random(1100 + d)
        S = surface(d)
        for _ in range(40):
            F = random_kclass(rng, d, max_rank=6, min_rank=-6)
            for i in range(1, d + 1):
                L = curve_class(S, i, -1)
                e = exceptional_divisor(d, i)
                alpha = euler_form(S, F, L)
                G = F - alpha * L
                assert alpha == -intersect(S, F.c1, e)
                assert intersect(S, G.c1, e) == 0
                assert euler_form(S, G, L) == 0
                assert euler_form(S, L, G) == -G.r
                assert euler_form(S, L, F) == alpha - F.r

    @pytest.mark.parametrize("d", range(1, 9))
    def test_alpha_is_non_negative_on_scrambled_collections(self, d):
        rng = random.Random(1200 + d)
        peeled = 0
        for c in scrambled_collections(d, 20, seed=1300 + d):
            mults = [rng.randint(1, 4) for _ in c.members]
            for e_index in range(1, d + 1):
                try:
                    _, alpha, _ = peel_curve(c, mults, e_index)
                except DomainError as exc:
                    assert "rotate first" in str(exc)
                    continue
                peeled += 1
                assert alpha >= 0
            try:
                _, log = normalize_and_descend(c, mults)
            except PipelineError:
                continue
            (peel,) = [s for s in log.steps if s.kind == "peel"]
            assert peel.params["alpha"] >= 0
        assert peeled > 0

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

    def test_forbidden_pair_guard_looks_each_twist_up_once(self, monkeypatch):
        """The K^2 = 1 guard compares each rank-1 member's twist with the
        members by value lookup, not with every member: on 400 line
        bundles that are not exceptional it makes at most one KClass
        equality test per member, where a pairwise scan makes about
        160,000, and it still names the first pair."""
        S = surface(8)
        c = Collection(S, tuple(line_bundle(S, k, *[0] * 8) for k in range(400)))
        compared = []
        eq = KClass.__eq__
        monkeypatch.setattr(
            KClass, "__eq__", lambda a, b: compared.append(1) or eq(a, b)
        )
        _forbidden_pair_guard(c, 8)
        assert len(compared) <= 400
        with pytest.raises(PipelineError) as err:
            normalize_and_descend(c)
        assert err.value.stage == "order"
        assert len(compared) <= 800
        monkeypatch.undo()
        O = structure_class(S)
        F = twist(S, O, exceptional_divisor(8, 8) + canonical_divisor(8))
        with pytest.raises(ExcludedPairError, match="members 0 and 2 form"):
            _forbidden_pair_guard(Collection(S, (O, O, F, F)), 8)

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


NOT_A_CURVE_MULTIPLE = "is not a multiple of a curve class O_e(-1)"


def malformed_torsion(S):
    """Rank-0 classes with chi(T, T) = 1 that are no k * [O_{e_i}(-1)]:
    O_{e_1}(0), -O_{e_1}(-1) and O_C(-1) on the line C = h - e_1 - e_2."""
    return {
        "O_e1(0)": curve_class(S, 1, 0),
        "-O_e1(-1)": -curve_class(S, 1, -1),
        "h-coefficient": KClass(0, DivisorClass((1, 1, 1) + (0,) * (S.d - 2)), -1),
    }


class TestTorsionMembers:
    """A rank-0 member is placed only as k * [O_{e_i}(-1)], read off its
    coordinates; every other shape is refused by name."""

    @pytest.mark.parametrize("d", [2, 5, 8])
    @pytest.mark.parametrize("name", ["O_e1(0)", "-O_e1(-1)", "h-coefficient"])
    def test_malformed_torsion_refused(self, capsys, d, name):
        S = surface(d)
        c = Collection(S, (malformed_torsion(S)[name],))
        assert is_numerically_exceptional(c)[0]
        with pytest.raises(DomainError, match=re.escape(NOT_A_CURVE_MULTIPLE)):
            order_hom(c)
        with pytest.raises(PipelineError, match=re.escape(NOT_A_CURVE_MULTIPLE)) as err:
            normalize_and_descend(c)
        assert err.value.stage == "order"
        capsys.readouterr()
        assert run(["normalize", "--collection", json.dumps(c.to_json())]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert NOT_A_CURVE_MULTIPLE in captured.err

    @pytest.mark.parametrize(
        "coeffs, two_ch2, chi",
        [((0, -1, -1), -2, 2), ((-1, 0, 0), -1, -1)],
        ids=["O_e1(-1)+O_e2(-1)", "h-only"],
    )
    def test_non_exceptional_shapes_refused(self, capsys, coeffs, two_ch2, chi):
        # chi(T, T) != 1, so the certificate refuses a collection holding T
        # before its shape is read; rotation_start reads the shape directly.
        S = surface(2)
        c = Collection(S, (KClass(0, DivisorClass(coeffs), two_ch2),))
        certificate = f"collection is not numerically exceptional: chi(E_0, E_0) = {chi}"
        with pytest.raises(InvalidInputError, match=re.escape(certificate)):
            order_hom(c)
        with pytest.raises(PipelineError, match=re.escape(certificate)):
            normalize_and_descend(c)
        capsys.readouterr()
        assert run(["normalize", "--collection", json.dumps(c.to_json())]) == 2
        assert certificate in capsys.readouterr().err
        with pytest.raises(DomainError, match=re.escape(NOT_A_CURVE_MULTIPLE)):
            rotation_start(c, 1)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_curve_multiples_accepted(self, d):
        S = surface(d)
        for i in range(1, d + 1):
            for k in (1, 2, 3):
                T = k * curve_class(S, i, -1)
                c = Collection(S, (T, structure_class(S)))
                _check_members(c)
                for j in range(1, d + 1):
                    assert _member_degrees(c, j) == ({-1, 0} if j == i else {0})
                assert rotation_start(c, 1) == 1
            single = Collection(S, (curve_class(S, i, -1),))
            out, log = order_hom(single)
            assert out == single and len(log) == 0
        basic = basic_collection(S)
        assert order_hom(basic)[0] == basic


def braided_basic(d, word):
    c, _ = apply_braid(basic_collection(surface(d)), BraidWord.parse(word))
    return c


def torsion_only_d2():
    S = surface(2)
    return Collection(S, (curve_class(S, 1, -1), curve_class(S, 2, -1)))


class TestPipelineRefusals:
    """Each deterministic input reaches one pipeline refusal, by stage and
    message, from the library and from CLI ``normalize`` (exit 2)."""

    @pytest.mark.parametrize(
        "make, stage, message",
        [
            (
                torsion_only_d2,
                "rotate",
                "the pipeline needs at least one positive-rank member",
            ),
            (
                lambda: braided_basic(2, "R2 R3"),
                "twist",
                "degree normalization would twist torsion members",
            ),
            (
                lambda: braided_basic(2, "L1 L2 L1 R2 L3 R1 R1 L3 R4 R1 L2 R2"),
                "rotate",
                "rotation would twist torsion members",
            ),
            (
                lambda: basic_collection(surface(3)),
                "spread",
                "slope-window reduction would twist torsion members",
            ),
        ],
        ids=["torsion-only", "twist-torsion", "rotate-torsion", "spread-torsion"],
    )
    def test_refusal(self, capsys, make, stage, message):
        c = make()
        assert is_numerically_exceptional(c)[0]
        with pytest.raises(PipelineError) as err:
            normalize_and_descend(c)
        assert err.value.stage == stage
        assert str(err.value) == f"[{stage}] {message}"
        capsys.readouterr()
        assert run(["normalize", "--collection", json.dumps(c.to_json())]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"domain error: [{stage}] {message}\n"


class TestNonPositiveMultiplicities:
    """A zero or negative multiplicity is refused up front at [peel], from
    the library and from CLI ``normalize`` (exit 2), before any stage."""

    @pytest.mark.parametrize(
        "make, mults",
        [
            (lambda: basic_collection(surface(1)), [1, 0, 1, 1]),
            (lambda: basic_collection(surface(2)), [1, 1, -1, 2, 1]),
            (lambda: braided_basic(1, "L2 R1 R2 R2 L3 L3"), [0, 1, 1, 1]),
        ],
        ids=["d1-basic-zero", "d2-basic-negative", "d1-scrambled-zero"],
    )
    def test_refused_at_peel(self, capsys, make, mults):
        c = make()
        assert is_numerically_exceptional(c)[0]
        message = "[peel] multiplicities must be positive integers"
        with pytest.raises(PipelineError) as err:
            normalize_and_descend(c, mults)
        assert err.value.stage == "peel"
        assert str(err.value) == message
        with pytest.raises(InvalidInputError, match="^multiplicities must be positive integers$"):
            peel_curve(c, mults, c.surface.d)
        capsys.readouterr()
        argv = ["normalize", "--collection", json.dumps(c.to_json())]
        assert run(argv + ["--mults", ",".join(map(str, mults))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"domain error: {message}\n"

    def test_positive_mults_still_descend(self):
        c = braided_basic(1, "L2 R1 R2 R2 L3 L3")
        G, log = normalize_and_descend(c, [1, 1, 1, 1])
        assert replay(log) is True
        assert log.steps[-1].after == G


class TestMultiplicityContainer:
    """Multiplicities come in a list or a tuple; anything else is refused
    with InvalidInputError before its length is read, wrapped at [peel] by
    ``normalize_and_descend`` (where None means one each)."""

    @pytest.mark.parametrize(
        "mults, name",
        [
            (None, "NoneType"),
            (5, "int"),
            ("1111", "str"),
            ({1: 1}, "dict"),
            (iter([1] * 4), "list_iterator"),
        ],
        ids=["none", "int", "str", "dict", "iterator"],
    )
    def test_refused(self, mults, name):
        c = basic_collection(surface(1))
        message = f"multiplicities must be a list or a tuple, got {name}"
        with pytest.raises(InvalidInputError) as err:
            peel_curve(c, mults, 1)
        assert str(err.value) == message
        if mults is None:
            return
        with pytest.raises(PipelineError) as err:
            normalize_and_descend(c, mults)
        assert err.value.stage == "peel"
        assert str(err.value) == f"[peel] {message}"

    def test_tuple_is_accepted_as_the_list(self):
        c = braided_basic(1, "L2 R1 R2 R2 L3 L3")
        G, log = normalize_and_descend(c, (1, 2, 1, 3))
        assert (G, log) == normalize_and_descend(c, [1, 2, 1, 3])
        assert replay(log) is True
        basic = basic_collection(surface(1))
        assert peel_curve(basic, (1, 1, 1, 1), 1) == peel_curve(basic, [1, 1, 1, 1], 1)
