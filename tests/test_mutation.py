import gc
import random
import re

import pytest
from _helpers import (
    braid_orbit_states,
    divisor,
    ext_seed,
    line_bundle,
    oracle_gram_violation,
    oracle_sign_normalize,
    p2_basic,
    random_kclass,
    scrambled_collections,
    surface,
    torsion_last,
)

from delpezzo import (
    BraidWord,
    Collection,
    Direction,
    DivisorClass,
    DomainError,
    InvalidInputError,
    InvariantViolationError,
    KClass,
    LogStep,
    MutationLog,
    apply_braid,
    basic_collection,
    canonical_divisor,
    check_helix_period,
    curve_class,
    euler_form,
    euler_pairing,
    global_twist,
    gram_matrix,
    helix_extend,
    is_numerically_exceptional,
    mutate_collection,
    mutate_pair,
    normalize_and_descend,
    replay,
    rotate_twist,
    structure_class,
    twist,
)
from delpezzo import mutation as mutation_module
from delpezzo import pairs as pairs_module
from delpezzo import pipeline as pipeline_module
from delpezzo.mutation import (
    HelixWitness,
    is_recorded_state,
    require_numerically_exceptional,
)
from delpezzo.chern import skew_form, weighted_sum
from delpezzo.pairs import require_equal_slope_pair, require_exceptional_pair
from delpezzo.picard import anticanonical_degree


def count_chi(monkeypatch, calls: list, form_modules=(pairs_module,)) -> None:
    """Append (E, F) to calls for each chi evaluated: through the pairing
    ``mutation`` reads, and through ``euler_form`` in each of form_modules."""

    def pairing(E, F):
        calls.append((E, F))
        return euler_pairing(E, F)

    def form(S, E, F):
        calls.append((E, F))
        return euler_form(S, E, F)

    monkeypatch.setattr(mutation_module, "euler_pairing", pairing)
    for module in form_modules:
        monkeypatch.setattr(module, "euler_form", form)


class TestMutatePair:
    def test_right_mutation_recovers_tangent_class(self):
        S = surface(0)
        O, Oh = structure_class(S), line_bundle(S, 1)
        assert mutate_pair(S, O, Oh, Direction.RIGHT) == (
            Oh,
            KClass(2, divisor(3), 3),
        )

    def test_left_mutation_recovers_cotangent_twist_class(self):
        S = surface(0)
        O, Oh = structure_class(S), line_bundle(S, 1)
        assert mutate_pair(S, O, Oh, Direction.LEFT) == (
            KClass(2, divisor(-1), -1),
            O,
        )

    def test_ext_pair_left_mutation(self):
        S = surface(1)
        E, F = line_bundle(S, 1, 1), line_bundle(S, 0, -1)
        L, E2 = mutate_pair(S, E, F, Direction.LEFT)
        assert E2 == E
        assert L == KClass(2, divisor(1, 0), -1)
        assert euler_form(S, L, L) == 1

    def test_zero_pair_swaps(self):
        S = surface(3, roots=[(0, -1, 1, 0)])
        E = line_bundle(S, 0, -1, 1, 0)
        F = line_bundle(S, 0, -1, 0, 1)
        assert mutate_pair(S, E, F, Direction.LEFT) == (F, E)
        assert mutate_pair(S, E, F, Direction.RIGHT) == (F, E)

    def test_involutions_on_braid_orbit(self):
        rng = random.Random(41)
        states = braid_orbit_states(5)
        pairs = []
        for c in rng.sample(states, min(120, len(states))):
            for i in range(len(c.members) - 1):
                pairs.append((c.surface, c.members[i], c.members[i + 1]))
        assert len(pairs) >= 200
        for S, E, F in pairs:
            L, E2 = mutate_pair(S, E, F, Direction.LEFT)
            assert mutate_pair(S, L, E2, Direction.RIGHT) == (E, F)
            F2, R = mutate_pair(S, E, F, Direction.RIGHT)
            assert mutate_pair(S, F2, R, Direction.LEFT) == (E, F)

    def test_span_preserved(self):
        S = surface(0)
        O, Oh = structure_class(S), line_bundle(S, 1)
        L, _ = mutate_pair(S, O, Oh, Direction.LEFT)
        chi = euler_form(S, O, Oh)
        # F is recovered as an integer combination of the mutated pair.
        assert Oh in (weighted_sum(((O, chi), (L, s))) for s in (-1, 1))

    def test_triangle_equation(self):
        rng = random.Random(42)
        states = braid_orbit_states(5)
        triples = [
            (c.surface, *c.members) for c in rng.sample(states, min(100, len(states)))
        ]
        for S, A, B, C in triples:
            LBC, _ = mutate_pair(S, B, C, Direction.LEFT)
            left_then, _ = mutate_pair(S, A, LBC, Direction.LEFT)
            B2, _ = mutate_pair(S, A, B, Direction.LEFT)
            LAC, _ = mutate_pair(S, A, C, Direction.LEFT)
            other, _ = mutate_pair(S, B2, LAC, Direction.LEFT)
            assert left_then == other

    def test_invalid_pair_rejected(self):
        S = surface(0)
        O = structure_class(S)
        with pytest.raises(InvalidInputError):
            mutate_pair(S, O, O, Direction.LEFT)


def scrambled_pairs(d: int, words: int, seed: int):
    """Adjacent pairs of braid-scrambled basic collections on d blow-ups."""
    for c in scrambled_collections(d, words, seed):
        yield from zip(c.members, c.members[1:])


class TestMutatePairOutput:
    """mutate_pair checks its input pair and not its output: these check,
    over braid-scrambled basic collections, that the output needs none."""

    @pytest.mark.parametrize("d", range(9))
    def test_output_is_an_exceptional_pair(self, d):
        S = surface(d)
        seen = set()
        for E, F in scrambled_pairs(d, 12, seed=100 + d):
            seen.add("torsion" if min(E.r, F.r) == 0 else "positive")
            for direction in Direction:
                first, second = mutate_pair(S, E, F, direction)
                require_exceptional_pair(S, first, second)
        assert seen == ({"positive"} if d == 0 else {"positive", "torsion"})

    def test_three_chi_per_mutation(self, monkeypatch):
        # chi(E,E), chi(F,F) and chi(F,E) = 0; chi(E,F) is the skew form.
        calls = []
        count_chi(monkeypatch, calls)
        S = surface(3)
        kinds = set()
        for E, F in scrambled_pairs(3, 6, seed=7):
            kinds.add(min(E.r, F.r) > 0)
            for direction in Direction:
                calls.clear()
                mutate_pair(S, E, F, direction)
                assert calls == [(E, E), (F, F), (F, E)]
        assert kinds == {True, False}


class TestMutateCollection:
    def test_right_mutation_of_basic(self):
        c = p2_basic()
        out = mutate_collection(c, 1, Direction.RIGHT)
        assert is_numerically_exceptional(out)[0]
        assert out.members[1] == KClass(2, divisor(3), 3)

    def test_left_right_round_trip(self):
        c = p2_basic()
        for i in (1, 2):
            assert (
                mutate_collection(
                    mutate_collection(c, i, Direction.LEFT), i, Direction.RIGHT
                )
                == c
            )

    def test_out_of_range(self):
        c = p2_basic()
        with pytest.raises(InvalidInputError):
            mutate_collection(c, 3, Direction.LEFT)
        with pytest.raises(InvalidInputError):
            mutate_collection(c, 0, Direction.LEFT)

    def test_members_must_live_on_the_surface(self):
        for d, other in ((1, 2), (2, 1), (0, 8)):
            S = surface(d)
            members = (structure_class(S), structure_class(surface(other)))
            with pytest.raises(InvalidInputError, match="^class does not belong to this surface$"):
                Collection(S, members)


class TestIncrementalCertificate:
    """mutate_collection certifies its input once and its output by the new
    member's Gram row and column alone."""

    @pytest.mark.parametrize("d", range(9))
    def test_every_output_passes_the_full_scan(self, d):
        rng = random.Random(200 + d)
        for c in scrambled_collections(d, 6, seed=300 + d, max_letters=8):
            for _ in range(6):
                i = rng.randint(1, len(c.members) - 1)
                c = mutate_collection(c, i, rng.choice(list(Direction)))
                assert is_numerically_exceptional(c) == (True, None)

    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_wrong_new_class_is_caught_at_the_first_failing_entry(
        self, monkeypatch, i, direction
    ):
        S = surface(1)
        c = basic_collection(S)
        O, Oh = structure_class(S), line_bundle(S, 1, 0)
        E, F = c.members[i - 1], c.members[i]
        for wrong in (O, Oh, weighted_sum(((O, 2),)), c.members[0], line_bundle(S, 0, 1)):
            monkeypatch.setattr(mutation_module, "_reflect", injected(wrong))
            out = (wrong, E) if direction is Direction.LEFT else (F, wrong)
            members = c.members[: i - 1] + out + c.members[i + 1 :]
            # The incremental check names the entry the full scan names.
            ok, full = is_numerically_exceptional(Collection(S, members))
            assert not ok
            with pytest.raises(InvariantViolationError) as incremental:
                mutate_collection(c, i, direction)
            assert str(incremental.value) == broke("mutation", full.i, full.j, full.value)

    @pytest.mark.parametrize("d, n", [(0, 3), (3, 6), (8, 11)])
    def test_n_chi_per_mutation(self, monkeypatch, d, n):
        # The certified input holds the pair's chi(E,E), chi(F,F) and
        # chi(F,E) = 0, so chi(E,F) is the skew form: only the new
        # member's n entries are read.  A move that undoes the move before
        # it reads none.
        calls = []
        c = basic_collection(surface(d))
        require_numerically_exceptional(c)
        count_chi(monkeypatch, calls)
        rng = random.Random(n)
        kinds = set()
        previous = grandparent = None
        for _ in range(40):
            i, direction = random_or_undoing_letter(rng, n, previous)
            undoes = inverse_letter(previous) == (i, direction)
            calls.clear()
            before, c = c, mutate_collection(c, i, direction)
            assert len(c.members) == n
            assert len(calls) == (0 if undoes else n), calls
            if undoes:
                assert c == grandparent
            kinds.add(undoes)
            grandparent, previous = before, (i, direction)
        assert kinds == {True, False}

    def test_uncertified_input_is_scanned_once(self, monkeypatch):
        scans = []

        def counted(c):
            scans.append(c)
            return is_numerically_exceptional(c)

        monkeypatch.setattr(mutation_module, "is_numerically_exceptional", counted)
        out, _ = apply_braid(p2_basic(), BraidWord.parse("L1 R2 L2 R1"))
        assert scans == [p2_basic()]
        assert is_numerically_exceptional(out)[0]

    def test_non_exceptional_input_refused_before_the_move(self):
        S = surface(0)
        O, Oh = structure_class(S), line_bundle(S, 1)
        c = Collection(S, (O, Oh, O))
        for i in (1, 2):
            for direction in Direction:
                with pytest.raises(
                    InvalidInputError,
                    match=r"not numerically exceptional: chi\(E_2, E_0\) = 1",
                ):
                    mutate_collection(c, i, direction)

    def test_flag_is_not_part_of_the_value(self):
        plain = p2_basic()
        certified = p2_basic()
        require_numerically_exceptional(certified)
        assert certified._certified and not plain._certified
        assert plain == certified
        assert hash(plain) == hash(certified)
        assert plain.to_json() == certified.to_json()
        assert repr(plain) == repr(certified)
        assert len({plain, certified}) == 1
        with pytest.raises(TypeError):
            Collection(plain.surface, plain.members, True)
        # Nor is the record of the move that undoes a mutation's output.
        recorded = mutate_collection(p2_basic(), 1, Direction.LEFT)
        copy = record_free(recorded)
        assert recorded._undo is not None and copy._undo is None
        assert recorded == copy and hash(recorded) == hash(copy)
        assert repr(recorded) == repr(copy) and recorded.to_json() == copy.to_json()

    def test_only_certification_sets_the_flag(self):
        c = p2_basic()
        assert is_numerically_exceptional(c)[0]
        assert not c._certified
        assert Collection.from_json(c.to_json())._certified is False
        require_numerically_exceptional(c)
        assert c._certified
        assert mutate_collection(p2_basic(), 1, Direction.LEFT)._certified

    def test_a_recorded_state_takes_over_the_certificate(self):
        computed, recorded = p2_basic(), p2_basic()
        assert is_recorded_state(computed, recorded)
        assert computed._certified and recorded._certified
        S = surface(0)
        broken = Collection(S, (structure_class(S),) * 2)
        untouched = Collection(S, broken.members)
        with pytest.raises(
            InvalidInputError, match=r"not numerically exceptional: chi\(E_1, E_0\) = 1"
        ):
            is_recorded_state(broken, untouched)
        assert not broken._certified and not untouched._certified

    def test_failed_certification_leaves_the_flag_unset(self):
        S = surface(0)
        c = Collection(S, (structure_class(S),) * 2)
        with pytest.raises(InvalidInputError):
            require_numerically_exceptional(c)
        assert not c._certified


INCONSISTENT = (
    "equal-slope pair fails the forced -2-class equations "
    "(r 1 vs 3, C^2 = -10, C.K = 0)"
)


def other(direction: Direction) -> Direction:
    return Direction.RIGHT if direction is Direction.LEFT else Direction.LEFT


def inverse_letter(letter):
    """The letter that undoes ``letter``, or None for None."""
    if letter is None:
        return None
    i, direction = letter
    return i, other(direction)


def record_free(c: Collection) -> Collection:
    """A copy of c with no record of the move that built it."""
    return Collection(c.surface, c.members)


def random_or_undoing_letter(rng: random.Random, n: int, previous):
    """A seeded letter on n members: one time in three the letter that
    undoes ``previous``, else a random one."""
    if previous is not None and rng.random() < 1 / 3:
        return inverse_letter(previous)
    return rng.randint(1, n - 1), rng.choice(list(Direction))


def inconsistent_pair():
    """(O, F) on 4 blow-ups: chi(O,O) = chi(F,F) = 1, chi(F,O) = 0 and
    chi(O,F) = 0, but the ranks differ and C = c1(F) has C^2 = -10."""
    S = surface(4)
    return S, structure_class(S), KClass(3, divisor(0, -2, 2, -1, 1), -6)


class TestMutationReadsOneChi:
    """A mutation needs chi(E,F) once its pair is known to be exceptional.
    It refuses inconsistent equal-slope numerics and does not classify."""

    @pytest.mark.parametrize("direction", list(Direction))
    def test_inconsistent_equal_slope_pair_refused(self, direction):
        S, O, F = inconsistent_pair()
        with pytest.raises(InvariantViolationError) as pair:
            mutate_pair(S, O, F, direction)
        with pytest.raises(InvariantViolationError) as collection:
            mutate_collection(Collection(S, (O, F)), 1, direction)
        assert str(pair.value) == str(collection.value) == INCONSISTENT

    def test_helix_period_witness_on_the_inconsistent_pair(self):
        S, O, F = inconsistent_pair()
        assert check_helix_period(Collection(S, (O, F))) == (
            False,
            HelixWitness(
                1,
                "period mismatch",
                KClass(44, divisor(-135, -75, -15, -60, -30), 135),
                KClass(1, divisor(-3, -1, -1, -1, -1), 5),
            ),
        )

    @pytest.mark.parametrize(
        "roots",
        [(), [(0, -1, 1)]],
        ids=["zero", "singular"],
    )
    def test_equal_slope_pair_swaps(self, roots):
        # With no roots declared (O, O(e1 - e2)) is a zero pair, with the
        # root e1 - e2 declared a singular one.
        S = surface(2, roots)
        O, G = structure_class(S), line_bundle(S, 0, -1, 1)
        for direction in Direction:
            assert mutate_pair(S, O, G, direction) == (G, O)
            assert mutate_collection(Collection(S, (O, G)), 1, direction).members == (G, O)

    def test_mutation_never_classifies(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a mutation ran the root search")

        monkeypatch.setattr(pairs_module, "effective_root_decomposition", refused)
        assert not hasattr(mutation_module, "classify_pair")
        S = surface(2, [(0, -1, 1)])
        O, G = structure_class(S), line_bundle(S, 0, -1, 1)
        for direction in Direction:
            assert mutate_pair(S, O, G, direction) == (G, O)
        for c in scrambled_collections(3, 4, seed=17):
            for i in range(1, len(c.members)):
                for direction in Direction:
                    mutate_collection(c, i, direction)


def partly_mutated_windows(c: Collection):
    """Each window A_{s-n+1}, ..., A_s of c's helix, 1 <= s <= n, and each
    stage of its left mutation L^(n-1) A_s, as ``mutate_collection``
    gives it; a window that is not numerically exceptional is refused."""
    n = len(c)
    helix = helix_extend(c, 2 - n, n)
    for s in range(1, n + 1):
        window = Collection(c.surface, tuple(helix[m] for m in range(s - n + 1, s + 1)))
        yield window
        for position in range(n - 1, 0, -1):
            window = mutate_collection(window, position, Direction.LEFT)
            yield window


def wrong_skew_on_call(monkeypatch, k: int) -> None:
    """Make the skew form ``mutation`` reads give chi(E,F) + 1 on its k-th
    call (from 0) and the true value on every other."""
    calls = iter(range(k + 1))

    def wrong(E, F):
        return skew_form(E, F) + (next(calls, None) == k)

    monkeypatch.setattr(mutation_module, "skew_form", wrong)


def coordinates(x: KClass) -> tuple:
    """(r, c1 coefficients, 2*ch2), the coordinates ``_reflection`` returns."""
    return x.r, x.c1.coeffs, x.two_ch2


def reflected_pair(E: KClass, F: KClass, chi_ef: int, direction: Direction):
    """The new pair of the move on (E, F) given chi(E,F) = chi_ef, its new
    member built from the coordinates ``_reflect`` returns."""
    left, (r, coeffs, two_ch2) = mutation_module._reflect(E, F, chi_ef, direction)
    N = KClass(r, DivisorClass(coeffs), two_ch2)
    return (N, E) if left else (F, N)


def injected(N: KClass):
    """A stand-in for ``_reflect`` whose move gives the new member N."""
    return lambda E, F, chi_ef, direction: (direction is Direction.LEFT, coordinates(N))


def wrong_move(c: Collection, i: int, direction: Direction):
    """The output of the move (i, direction) on c made with chi(E,F) + 1
    in place of chi(E,F), and the error a move must raise on it: the
    equal-slope refusal when chi(E,F) + 1 = 0 on a pair of positive ranks,
    else the first failing Gram entry the full scan names."""
    E, F = c.members[i - 1], c.members[i]
    chi = skew_form(E, F) + 1
    if chi == 0 and E.r > 0 and F.r > 0:
        with pytest.raises(InvariantViolationError) as refusal:
            require_equal_slope_pair(E, F)
        return None, str(refusal.value)
    pair = reflected_pair(E, F, chi, direction)
    out = Collection(c.surface, c.members[: i - 1] + pair + c.members[i + 1 :])
    ok, full = is_numerically_exceptional(out)
    assert not ok
    return out, broke("mutation", full.i, full.j, full.value)


class TestSkewFormReadsChi:
    """On a certified collection chi(E_j, E_i) = 0 for i < j, so chi(E_i, E_j)
    is the skew form; a mutation reads chi(E,F) there, and the checks it
    keeps refuse a wrong reading."""

    @pytest.mark.parametrize("d", range(9))
    def test_skew_form_is_chi_on_certified_collections_and_helix_windows(self, d):
        windows = 0
        for c in scrambled_collections(d, 3, seed=3300 + d):
            for window in (c, *partly_mutated_windows(c)):
                require_numerically_exceptional(window)
                m = window.members
                for j in range(len(m)):
                    for i in range(j):
                        assert skew_form(m[i], m[j]) == euler_pairing(m[i], m[j])
                windows += 1
        n = d + 3
        assert windows == 3 * (1 + n * n)

    @staticmethod
    def assert_wrong_chi_refused(monkeypatch, c: Collection) -> set:
        """Each move on c, read with chi(E,F) + 1, raises the error
        ``wrong_move`` names; returns whether each output was built."""
        built = set()
        for i in range(1, len(c)):
            for direction in Direction:
                out, expected = wrong_move(c, i, direction)
                wrong_skew_on_call(monkeypatch, 0)
                with pytest.raises(InvariantViolationError) as err:
                    mutate_collection(c, i, direction)
                monkeypatch.undo()
                assert str(err.value) == expected
                built.add(out is not None)
        return built

    @pytest.mark.parametrize("d", [0, 2, 5, 8])
    def test_a_wrong_chi_is_caught_at_the_first_failing_entry(self, monkeypatch, d):
        for c in scrambled_collections(d, 3, seed=3400 + d):
            built = self.assert_wrong_chi_refused(monkeypatch, record_free(c))
            assert built == {True}

    def test_a_wrong_chi_of_zero_meets_the_equal_slope_check(self, monkeypatch):
        # chi(E0, E1) = -1 on line bundles: read as 0, the pair must pass
        # the forced -2-class equations, and fails them.
        S, E0, E1 = ext_seed(1)
        built = self.assert_wrong_chi_refused(monkeypatch, Collection(S, (E0, E1)))
        assert built == {False}

    @pytest.mark.parametrize("d", [0, 2, 5, 8])
    def test_replay_refuses_a_log_carrying_a_wrong_step(self, monkeypatch, d):
        rng = random.Random(3500 + d)
        word = BraidWord.parse("L1 R2 L1 R1 R2")
        current, log = apply_braid(basic_collection(surface(d)), word)
        checked = 0
        for i in range(1, len(current)):
            for direction in Direction:
                after, expected = wrong_move(current, i, direction)
                if after is None:
                    continue
                params = {"position": i, "direction": direction.value}
                steps = log.steps + (LogStep("mutate", params, current, after),)
                wrong = MutationLog(steps[rng.randrange(len(log.steps)) :])
                # Read with chi(E,F) + 1, the step's new member matches, and
                # its Gram row and column refuse it, as the move would.
                wrong_skew_on_call(monkeypatch, len(wrong.steps) - 1)
                with pytest.raises(InvariantViolationError) as err:
                    replay(wrong)
                monkeypatch.undo()
                assert str(err.value) == expected
                # Read with the true chi, its new member does not match.
                message = f"step {len(wrong.steps) - 1} (mutate) does not replay"
                with pytest.raises(InvalidInputError, match=re.escape(message)):
                    replay(wrong)
                checked += 1
        assert checked


def library_sign_rule(x: KClass) -> KClass:
    """The library's representative of {x, -x}: the reflection 1*x - 0,
    built from its coordinates."""
    r, coeffs, two_ch2 = mutation_module._reflection(1, x, KClass(0, divisor(0, 0, 0), 0))
    return KClass(r, DivisorClass(coeffs), two_ch2)


class TestSignNormalize:
    """Rank 0 and anticanonical degree 0 leave c1 and then ch2 to decide."""

    @pytest.mark.parametrize("t", [-4, 0, 2])
    def test_lexicographically_positive_c1(self, t):
        # c1 = e1 - e2 = (0; -1, 1): its first nonzero coordinate is negative.
        x = KClass(0, divisor(0, -1, 1), t)
        assert oracle_sign_normalize(x) == oracle_sign_normalize(-x) == -x
        assert library_sign_rule(x) == library_sign_rule(-x) == -x

    @pytest.mark.parametrize("t", [-6, 0, 4])
    def test_zero_c1_takes_the_sign_of_ch2(self, t):
        x = KClass(0, divisor(0, 0, 0), t)
        positive = KClass(0, divisor(0, 0, 0), abs(t))
        assert oracle_sign_normalize(x) == oracle_sign_normalize(-x) == positive
        assert library_sign_rule(x) == library_sign_rule(-x) == positive


class TestReflectionCoordinates:
    """A move builds its new member from the reflection's coordinates and a
    replayed move compares them: they follow the sign rule, also where
    rank and H.c1 are 0."""

    @pytest.mark.parametrize(
        "x",
        [
            KClass(0, divisor(0, -1, 1), 2),
            KClass(0, divisor(0, 1, -1), -4),
            KClass(0, divisor(0, 0, 0), -6),
            KClass(0, divisor(0, 0, 0), 0),
            KClass(0, divisor(0, 1, 0), 1),
            KClass(-2, divisor(1, 0, 1), 0),
        ],
    )
    def test_coordinates_are_those_of_the_class(self, x):
        zero = KClass(0, divisor(0, 0, 0), 0)
        for y in (x, -x):
            coords = mutation_module._reflection(1, y, zero)
            assert coords == coordinates(oracle_sign_normalize(y))

    @pytest.mark.parametrize("d", [0, 3, 8])
    def test_every_move_of_a_scrambled_collection(self, d):
        for c in scrambled_collections(d, 3, seed=70 + d):
            for i in range(1, len(c)):
                for direction in Direction:
                    out = mutate_collection(c, i, direction)
                    E, F = c.members[i - 1], c.members[i]
                    chi = euler_pairing(E, F)
                    left, coords = mutation_module._reflect(E, F, chi, direction)
                    assert left is (direction is Direction.LEFT)
                    # The move builds its new member from these coordinates
                    # and keeps the other member of the pair as it is.
                    q, k, kept = (i - 1, i, E) if left else (i, i - 1, F)
                    assert coords == coordinates(out.members[q])
                    assert out.members[k] is kept
                    assert mutation_module.is_recorded_mutation(c, i, direction, out)


def random_divisor(rng: random.Random, d: int):
    return divisor(*(rng.randint(-2, 2) for _ in range(d + 1)))


def broken_collections(d: int, seed: int):
    """Braid-scrambled basic collections on d blow-ups, each broken three
    seeded ways: one member replaced, two members swapped, one twisted."""
    rng = random.Random(seed)
    S = surface(d)
    for c in scrambled_collections(d, 6, seed=seed):
        members, n = list(c.members), len(c.members)
        q = rng.randrange(n)
        replaced = list(members)
        replaced[q] = rng.choice(
            (random_kclass(rng, d), weighted_sum(((members[q], 2),)), members[rng.randrange(n)])
        )
        a, b = rng.sample(range(n), 2)
        swapped = list(members)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        twisted = list(members)
        twisted[q] = twist(S, members[q], random_divisor(rng, d))
        for broken in (replaced, swapped, twisted):
            yield Collection(S, tuple(broken))


def broke(operation: str, i: int, j: int, value: int) -> str:
    return (
        f"{operation} broke the exceptionality certificate at chi(E_{i}, E_{j}) = {value}"
    )


def not_exceptional(i: int, j: int, value: int) -> str:
    return f"collection is not numerically exceptional: chi(E_{i}, E_{j}) = {value}"


def entry_kind(entry, q=None) -> str:
    i, j, _ = entry
    if i == j:
        return "diagonal"
    return "after q" if q is not None and j == q else "below"


class TestGramWalkOracle:
    """The full scan and the per-mutation row-and-column walk name the
    entry that _helpers.oracle_gram_violation's two separate loops name."""

    def test_full_scan_and_row_column_walk(self):
        kinds = {"full": set(), "row-column": set()}
        for d in range(9):
            for c in broken_collections(d, seed=700 + d):
                expected = oracle_gram_violation(c)
                ok, violation = is_numerically_exceptional(c)
                assert ok is (expected is None)
                fresh = Collection(c.surface, c.members)
                if expected is None:
                    assert violation is None
                    require_numerically_exceptional(fresh)
                    assert fresh._certified
                else:
                    kinds["full"].add(entry_kind(expected))
                    assert (violation.i, violation.j, violation.value) == expected
                    with pytest.raises(InvalidInputError) as refused:
                        require_numerically_exceptional(fresh)
                    assert str(refused.value) == not_exceptional(*expected)
                for q in range(len(c.members)):
                    expected = oracle_gram_violation(c, q)
                    walked = mutation_module._violation(c, q)
                    if expected is None:
                        assert walked is None
                        continue
                    kinds["row-column"].add(entry_kind(expected, q))
                    assert (walked.i, walked.j, walked.value) == expected
        assert kinds == {
            "full": {"diagonal", "below"},
            "row-column": {"diagonal", "below", "after q"},
        }

    def test_mutation_path(self, monkeypatch):
        kinds = set()
        for d in range(9):
            rng = random.Random(800 + d)
            S = surface(d)
            for c in scrambled_collections(d, 3, seed=900 + d):
                # A record-free copy: every move takes the patched path.
                c = record_free(c)
                for i in range(1, len(c.members)):
                    for direction in Direction:
                        E, F = c.members[i - 1], c.members[i]
                        left = direction is Direction.LEFT
                        q = i - 1 if left else i
                        true_pair = mutate_pair(S, E, F, direction)
                        candidate = rng.choice(
                            (
                                random_kclass(rng, d),
                                weighted_sum(((E, 2),)),
                                twist(S, F, random_divisor(rng, d)),
                                true_pair[0] if left else true_pair[1],
                            )
                        )
                        pair = (candidate, E) if left else (F, candidate)
                        out = Collection(S, c.members[: i - 1] + pair + c.members[i + 1 :])
                        expected = oracle_gram_violation(out, q)
                        # Only the new member's row and column can fail.
                        assert oracle_gram_violation(out) == expected
                        patched = injected(candidate)
                        monkeypatch.setattr(mutation_module, "_reflect", patched)
                        if expected is None:
                            assert mutate_collection(c, i, direction) == out
                        else:
                            kinds.add(entry_kind(expected, q))
                            with pytest.raises(InvariantViolationError) as broken:
                                mutate_collection(c, i, direction)
                            assert str(broken.value) == broke("mutation", *expected)
                        monkeypatch.undo()
        assert kinds == {"diagonal", "below", "after q"}


def carried_inputs(d: int):
    """The basic collection on d blow-ups and braid-scrambled copies, each a
    fresh, uncertified object."""
    inputs = [basic_collection(surface(d)), *scrambled_collections(d, 3, seed=1000 + d)]
    return [Collection(c.surface, c.members) for c in inputs]


def carrying_moves(rng: random.Random, c: Collection):
    """Every rotation of c, global twists by seeded divisors and by t*K."""
    d = c.surface.d
    K = canonical_divisor(d)
    divisors = [random_divisor(rng, d) for _ in range(3)] + [t * K for t in (-2, -1, 1, 3)]
    rotations = [lambda x, j=j: rotate_twist(x, j) for j in range(1, len(c) + 1)]
    return rotations + [lambda x, D=D: global_twist(x, D) for D in divisors]


class TestCarriedCertificate:
    """A twist keeps every chi, and a rotation with its twist by -K keeps
    the certificate by Serre duality, chi(E, F(K)) = chi(F, E).  So
    rotate_twist and global_twist carry their input's certificate and never
    scan their output; these are the identities that replace the scan."""

    @pytest.mark.parametrize("d", range(9))
    def test_every_rotation_and_twist_is_exceptional(self, d):
        rng = random.Random(1100 + d)
        for c in carried_inputs(d):
            for move in carrying_moves(rng, c):
                out = move(c)
                assert out._certified
                assert is_numerically_exceptional(out) == (True, None)

    @pytest.mark.parametrize("d", range(9))
    def test_chi_is_evaluated_only_to_certify_the_input(self, monkeypatch, d):
        calls = []
        count_chi(monkeypatch, calls, (pipeline_module,))
        rng = random.Random(1200 + d)
        for c in carried_inputs(d):
            n = len(c)
            for move in carrying_moves(rng, c):
                fresh = Collection(c.surface, c.members)
                calls.clear()
                move(fresh)
                assert len(calls) == n * (n + 1) // 2
                assert fresh._certified
                calls.clear()
                move(fresh)
                assert calls == []

    @pytest.mark.parametrize("d", range(9))
    def test_non_exceptional_input_names_its_first_failing_entry(self, d):
        rng = random.Random(1300 + d)
        inputs = list(broken_collections(d, seed=1400 + d))
        if d:
            inputs.append(torsion_last(surface(d)))
        refused = 0
        for c in inputs:
            expected = oracle_gram_violation(c)
            if expected is None:
                continue
            for move in carrying_moves(rng, c):
                with pytest.raises(InvalidInputError) as raised:
                    move(c)
                assert str(raised.value) == not_exceptional(*expected)
                refused += 1
        assert refused


def reversed_basic(S) -> Collection:
    """The basic collection in reverse order; chi(E_1, E_0) = chi(O(h), O(2h))
    = 3, so it is not numerically exceptional."""
    return Collection(S, basic_collection(S).members[::-1])


class TestOnlyMutationGrantsTheCertificate:
    """A collection is certified only by a scan, by the move that built it
    or by comparison with a certified state: a collection a caller merely
    names beside a certified one stays uncertified, and is refused."""

    @pytest.mark.parametrize("d", range(9))
    def test_an_unequal_collection_takes_over_no_certificate(self, d):
        S = surface(d)
        certified, foreign = basic_collection(S), reversed_basic(S)
        require_numerically_exceptional(certified)
        assert not is_recorded_state(certified, foreign)
        assert not foreign._certified
        message = re.escape(not_exceptional(1, 0, 3)) + "$"
        with pytest.raises(InvalidInputError, match=message):
            check_helix_period(foreign)
        with pytest.raises(InvalidInputError, match=message):
            rotate_twist(foreign, 2)
        assert not foreign._certified

    @pytest.mark.parametrize("d", range(9))
    def test_rotate_twist_is_a_helix_window(self, monkeypatch, d):
        """(E_j, ..., E_n, E_1(-K), ..., E_{j-1}(-K)), the foundation's own
        members first, with j - 1 classes built."""
        S = surface(d)
        H = -canonical_divisor(d)
        built, post_init = [], KClass.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        for c in carried_inputs(d):
            for j in range(1, len(c) + 1):
                expected = c.members[j - 1 :] + tuple(
                    twist(S, m, H) for m in c.members[: j - 1]
                )
                monkeypatch.setattr(KClass, "__post_init__", counted)
                built.clear()
                out = rotate_twist(c, j)
                monkeypatch.undo()
                assert len(built) == j - 1
                assert out.members == expected
                assert all(a is b for a, b in zip(out.members, c.members[j - 1 :]))

    @pytest.mark.parametrize("word", ["", "R1 R2 R2"])
    def test_class_states_are_compared_and_no_flag_is_set(self, monkeypatch, word):
        c, _ = apply_braid(basic_collection(surface(1)), BraidWord.parse(word))
        _, log = normalize_and_descend(c)
        steps = [s for s in log.steps if s.kind in ("peel", "descend")]
        assert [s.kind for s in steps] == ["peel", "descend"]
        cases = []
        for step in steps:
            G = step.after
            other = basic_collection(surface(G.d))
            cases += [(G, KClass(G.r, G.c1, G.two_ch2), True), (G, -G, False)]
            cases += [(G, other, False), (other, G, False)]
        flags = []
        monkeypatch.setattr(mutation_module, "_set_certified", lambda c, f: flags.append(f))
        for computed, recorded, equal in cases:
            assert is_recorded_state(computed, recorded) is equal
        assert flags == []

    @pytest.mark.parametrize("d", [0, 3, 8])
    def test_a_one_member_difference_is_refused_uncertified(self, d):
        for c in carried_inputs(d):
            computed = rotate_twist(c, 2)
            for q in range(len(computed)):
                members = computed.members
                edited = Collection(
                    computed.surface, members[:q] + (-members[q],) + members[q + 1 :]
                )
                assert not is_recorded_state(computed, edited)
                assert not edited._certified and computed._certified


class TestBraid:
    def test_empty_word_is_identity(self):
        c = p2_basic()
        out, log = apply_braid(c, BraidWord.parse(""))
        assert out == c
        assert len(log) == 0

    @pytest.mark.parametrize("text", ["", "   "])
    def test_empty_word_refuses_a_non_exceptional_collection(self, text):
        c = torsion_last(surface(1))
        with pytest.raises(InvalidInputError) as err:
            apply_braid(c, BraidWord.parse(text))
        assert str(err.value) == (
            "collection is not numerically exceptional: chi(E_3, E_0) = -1"
        )

    def test_certificate_is_checked_before_any_letter(self):
        # An out-of-range first letter is not reached: the certificate is
        # the first thing refused.
        c = torsion_last(surface(1))
        with pytest.raises(InvalidInputError) as err:
            apply_braid(c, BraidWord.parse("R4 L4 R4"))
        assert "not numerically exceptional" in str(err.value)

    def test_unflagged_input_is_scanned_once(self, monkeypatch):
        # The full scan happens up front; the first letter reads the flag.
        c = Collection(surface(0), p2_basic().members)
        calls = []
        count_chi(monkeypatch, calls)
        apply_braid(c, BraidWord.parse("L1 R2"))
        n = len(c.members)
        assert len(calls) == n * (n + 1) // 2 + 2 * n

    def test_inverse_word_is_identity(self):
        c = p2_basic()
        out, log = apply_braid(c, BraidWord.parse("L1 R1"))
        assert out == c
        assert len(log) == 2

    def test_word_parsing_round_trip(self):
        w = BraidWord.parse("L1 R2 L1")
        L, R = Direction.LEFT, Direction.RIGHT
        assert w.letters == ((1, L), (2, R), (1, L))
        with pytest.raises(InvalidInputError):
            BraidWord.parse("X3")

    def test_log_records_every_step(self):
        c = p2_basic()
        out, log = apply_braid(c, BraidWord.parse("R1 R2 L1"))
        assert len(log) == 3
        assert log.steps[0].before == c
        assert log.steps[-1].after == out
        for a, b in zip(log.steps, log.steps[1:]):
            assert a.after == b.before


class TestHelix:
    def test_extension_of_plane_foundation(self):
        c = p2_basic()
        classes = helix_extend(c, 0, 4)
        assert classes[4] == line_bundle(c.surface, 3)
        assert classes[0] == line_bundle(c.surface, -1)

    def test_double_right_mutation_meets_the_twist(self):
        S = surface(0)
        c = p2_basic()
        E1, E2, E3 = c.members
        _, R1 = mutate_pair(S, E1, E2, Direction.RIGHT)
        _, R2 = mutate_pair(S, R1, E3, Direction.RIGHT)
        assert R2 == KClass(1, divisor(3), 9)
        assert R2 == helix_extend(c, 4, 4)[4]

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_periodicity_of_basic_foundations(self, d):
        ok, witness = check_helix_period(basic_collection(surface(d)))
        assert ok, witness

    def test_foundation_is_certified(self):
        S = surface(0)
        O, Oh = structure_class(S), line_bundle(S, 1)
        with pytest.raises(InvalidInputError, match="not numerically exceptional"):
            check_helix_period(Collection(S, (Oh, O)))

    def test_short_foundation_reports_its_length_first(self):
        S = surface(0)
        not_exceptional = Collection(S, (KClass(2, divisor(0), 0),))
        with pytest.raises(InvalidInputError, match="length >= 2"):
            check_helix_period(not_exceptional)

    def test_non_full_triple_fails_with_witness(self):
        # A numerically exceptional window of the d=1 basic collection that
        # does not span the whole lattice cannot close up into a helix.
        S = surface(1)
        b = basic_collection(S)
        c = Collection(S, b.members[:3])
        assert is_numerically_exceptional(c)[0]
        ok, witness = check_helix_period(c)
        assert not ok
        assert witness is not None

    def test_period_mismatch_expects_the_twist_by_K(self):
        # The same non-full triple: A_1 comes back as a class other than
        # A_{1-n} = A_1(K).
        S = surface(1)
        c = Collection(S, basic_collection(S).members[:3])
        _, witness = check_helix_period(c)
        assert (witness.index, witness.reason) == (1, "period mismatch")
        assert witness.expected == twist(S, c.members[0], canonical_divisor(1))
        assert witness.computed != witness.expected

    @pytest.mark.parametrize("d", [0, 3, 8])
    def test_each_helix_class_is_twisted_once(self, monkeypatch, d):
        # The window A_{1-n}..A_n is the foundation and its twist by K, and
        # A_{s-n} = A_s(K) is read off it: n twists, each member's once.
        c = basic_collection(surface(d))
        K = canonical_divisor(d)
        calls = []

        def counted(*args):
            calls.append(args)
            return twist(*args)

        monkeypatch.setattr(mutation_module, "twist", counted)
        assert check_helix_period(c) == (True, None)
        assert calls == [(c.surface, E, K) for E in c.members]

    @pytest.mark.parametrize("d", range(9))
    def test_a_passing_check_builds_the_n_twists_alone(self, monkeypatch, d):
        # Each period is compared by coordinates: the twists by K are the
        # only classes built, and -K is built once for all of them.
        c = basic_collection(surface(d))
        require_numerically_exceptional(c)
        built, divisors = [], []
        post_init, divisor_post_init = KClass.__post_init__, DivisorClass.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        def counted_divisor(self):
            divisors.append(self)
            divisor_post_init(self)

        monkeypatch.setattr(KClass, "__post_init__", counted)
        monkeypatch.setattr(DivisorClass, "__post_init__", counted_divisor)
        assert check_helix_period(c) == (True, None)
        monkeypatch.undo()
        K = canonical_divisor(d)
        assert built == [twist(c.surface, E, K) for E in c.members]
        # K itself, -K once, and one c1 per twist.
        assert len(divisors) == 2 + len(c)

    def test_the_foundation_is_its_own_period_zero(self, monkeypatch):
        c = basic_collection(surface(3))
        monkeypatch.setattr(mutation_module, "twist", None)
        helix = helix_extend(c, 1, len(c))
        assert all(helix[i + 1] is E for i, E in enumerate(c.members))


def pair_checked_helix_period(foundation: Collection):
    """The helix check with every step's pair checked: each step is
    ``mutate_pair``, which refuses a pair that is not exceptional."""
    S, n = foundation.surface, len(foundation.members)
    helix = helix_extend(foundation, 1 - n, n)
    for s in range(1, n + 1):
        x = helix[s]
        for t in range(1, n):
            try:
                x, _ = mutate_pair(S, helix[s - t], x, Direction.LEFT)
            except (InvalidInputError, InvariantViolationError) as exc:
                return False, HelixWitness(s, f"step {t}: {exc}", None, None)
        if x != helix[s - n]:
            return False, HelixWitness(s, "period mismatch", x, helix[s - n])
    return True, None


def helix_foundations(d: int, words: int, seed: int):
    """Braid-scrambled basic collections on d blow-ups, each also twisted by
    a seeded divisor, and every consecutive window of 2 to n - 1 members of
    both."""
    rng = random.Random(seed)
    for c in scrambled_collections(d, words, seed=seed, max_letters=8):
        S = c.surface
        D = divisor(*(rng.randint(-3, 3) for _ in range(d + 1)))
        for members in (c.members, tuple(twist(S, m, D) for m in c.members)):
            n = len(members)
            yield Collection(S, members)
            for length in range(2, n):
                for start in range(n - length + 1):
                    yield Collection(S, members[start : start + length])


def with_one_member_negated(foundations):
    """Each foundation with its k-th member negated, k cycling: a negative
    rank A_s enters its chain as it is, not with the canonical sign."""
    for k, c in enumerate(foundations):
        j = k % len(c)
        members = c.members[:j] + (-c.members[j],) + c.members[j + 1 :]
        yield Collection(c.surface, members)


def all_helix_foundations(d: int):
    foundations = list(helix_foundations(d, 6, seed=40 + d))
    return foundations + list(with_one_member_negated(foundations))


class TestHelixStepsNeedNoPairCheck:
    """A helix step reads chi(A_{s-t}, y) off the skew form alone: the
    certified foundation makes every window, mutated or not, exceptional,
    so no step checks its pair or evaluates a pairing."""

    @pytest.mark.parametrize("d", range(9))
    def test_every_step_pair_is_exceptional(self, monkeypatch, d):
        fired = []
        require = mutation_module.require_exceptional_pair

        def recorded(S, E, F):
            try:
                chi = require(S, E, F)
            except (InvalidInputError, InvariantViolationError) as exc:
                fired.append((E, F, str(exc)))
                raise
            # The skew form the chain reads is chi(E, F) on every step pair.
            assert chi == euler_form(S, E, F)
            return chi

        outcomes = set()
        for c in helix_foundations(d, 6, seed=40 + d):
            monkeypatch.setattr(mutation_module, "require_exceptional_pair", recorded)
            expected = pair_checked_helix_period(c)  # certifies c
            monkeypatch.undo()
            chis = []
            count_chi(monkeypatch, chis, ())
            got = check_helix_period(c)
            monkeypatch.undo()
            assert got == expected
            assert chis == []
            outcomes.add(got[0])
        assert fired == []
        assert outcomes == {True, False}

    @pytest.mark.parametrize("d", [0, 3, 8])
    def test_no_pairing_and_no_pair_check(self, monkeypatch, d):
        c = basic_collection(surface(d))
        require_numerically_exceptional(c)
        chis = []

        def refused(*args):
            raise AssertionError("a helix step checked its pair")

        count_chi(monkeypatch, chis)
        monkeypatch.setattr(mutation_module, "require_exceptional_pair", refused)
        assert check_helix_period(c) == (True, None)
        assert chis == []
        assert not hasattr(mutation_module, "euler_weights")


class TestHelixMatchesTheOracle:
    """The integer chain gives what iterated ``mutate_pair`` gives, on
    foundations of both outcomes, negative ranks among them."""

    @pytest.mark.parametrize("d", range(9))
    def test_outcomes_witnesses_and_equal_slope_checks(self, monkeypatch, d):
        calls = []
        require = mutation_module.require_equal_slope_pair

        def recorded(E, F):
            calls.append((E, F))
            return require(E, F)

        monkeypatch.setattr(mutation_module, "require_equal_slope_pair", recorded)
        outcomes, checks = set(), 0
        for c in all_helix_foundations(d):
            expected = pair_checked_helix_period(c)
            oracle_calls, calls[:] = calls[:], []
            assert check_helix_period(c) == expected
            assert calls == oracle_calls
            checks += len(calls)
            calls.clear()
            outcomes.add(expected[0])
        assert outcomes == {True, False}
        if d >= 2:
            assert checks

    @pytest.mark.parametrize("d", [3, 5, 7, 8])
    def test_a_refused_equal_slope_pair_gives_the_step_witness(self, monkeypatch, d):
        def refused(E, F):
            raise InvariantViolationError(f"refused ({E.r}, {F.r})")

        monkeypatch.setattr(mutation_module, "require_equal_slope_pair", refused)
        steps = []
        for c in all_helix_foundations(d):
            got = check_helix_period(c)
            assert got == pair_checked_helix_period(c)
            if not got[0] and got[1].reason != "period mismatch":
                steps.append(got[1])
        assert steps
        for witness in steps:
            assert re.fullmatch(r"step [1-9]: refused \(\d+, \d+\)", witness.reason)
            assert witness.computed is witness.expected is None


class TestGramAndCertificate:
    def test_plane_gram_matrix(self):
        assert gram_matrix(p2_basic()) == [[1, 3, 6], [0, 1, 3], [0, 0, 1]]

    def test_singleton(self):
        S = surface(0)
        assert gram_matrix(Collection(S, (structure_class(S),))) == [[1]]

    def test_adopted_basic_collection_d2(self):
        c = basic_collection(surface(2))
        m = gram_matrix(c)
        assert len(m) == 5
        ok, violation = is_numerically_exceptional(c)
        assert ok and violation is None
        for i in range(5):
            assert m[i][i] == 1
            for j in range(i):
                assert m[i][j] == 0

    def test_torsion_last_ordering_fails(self):
        ok, violation = is_numerically_exceptional(torsion_last(surface(2)))
        assert not ok
        assert violation is not None
        assert violation.value == -1
        # the violating entry pairs the first torsion class against O
        assert violation.j == 0

    def test_repeated_member_fails(self):
        S = surface(0)
        O = structure_class(S)
        ok, violation = is_numerically_exceptional(Collection(S, (O, O)))
        assert not ok
        assert violation.value == 1

    def test_mutations_preserve_certificate_and_ranks_follow_markov(self):
        for c in braid_orbit_states(4):
            assert is_numerically_exceptional(c)[0]
            x, y, z = (m.r for m in c.members)
            assert x * x + y * y + z * z == 3 * x * y * z

    def test_mutations_preserve_lattice_span(self):
        # On the plane a class is the integer vector (r, a, 2 ch2); the
        # member matrix of every orbit state is a unimodular change of the
        # basic one, so its determinant is preserved up to sign.
        def det3(c):
            rows = [(m.r, m.c1.coeffs[0], m.two_ch2) for m in c.members]
            (a, b, c0), (d, e, f), (g, h, i) = rows
            return a * (e * i - f * h) - b * (d * i - f * g) + c0 * (d * h - e * g)

        base = abs(det3(p2_basic()))
        assert base != 0
        for c in braid_orbit_states(4):
            assert abs(det3(c)) == base


class TestSizeBudget:
    def test_oversized_member_is_named(self):
        S = surface(0)
        huge = KClass(10**4300, divisor(0), 0)
        c = Collection(S, (structure_class(S), huge))
        with pytest.raises(DomainError, match=r"member E_1: .*more than 4300 digits"):
            c.to_json()

    def test_oversized_braid_result_refused_when_written(self):
        # apply_braid refuses at the letter whose new member is past the
        # budget; a collection built past it directly is refused when written.
        with pytest.raises(
            DomainError,
            match=r"^member E_2: class has an integer of more than 4300 digits, "
            "the limit for writing one$",
        ):
            apply_braid(p2_basic(), BraidWord.parse(" ".join(["L1 R2"] * 11)))
        S = surface(0)
        huge = KClass(2 * 10**4300 + 1, divisor(1), 3)
        c = Collection(S, (structure_class(S), huge))
        log = MutationLog((LogStep("mutate", {}, c, c),))
        for write in (c.to_json, log.to_jsonl):
            with pytest.raises(DomainError, match="member E_1: .*more than 4300 digits"):
                write()


def operator_pair(chi_ef, E, F, direction):
    """The mutation's new pair through ``weighted_sum``, then the sign
    rule."""
    if direction is Direction.LEFT:
        return oracle_sign_normalize(weighted_sum(((E, chi_ef), (F, -1)))), E
    return F, oracle_sign_normalize(weighted_sum(((F, chi_ef), (E, -1))))


def operator_reflection(chi_ef, E, F, direction):
    """What ``_reflect`` must return: whether the move is a left one, and
    the coordinates of ``operator_pair``'s new member."""
    left = direction is Direction.LEFT
    return left, coordinates(operator_pair(chi_ef, E, F, direction)[0 if left else 1])


def result_kind(x: KClass) -> str:
    if x.r:
        return "rank"
    return "degree" if x._hc1 else "rank-0 degree-0"


class TestReflection:
    """_reflect gives the new member's coordinates and a move builds the
    class once from them; both must give what ``weighted_sum`` and the sign
    rule give."""

    @pytest.mark.parametrize("d", range(9))
    def test_matches_the_operator_path(self, d):
        S = surface(d)
        kinds = set()
        for c in scrambled_collections(d, 8, seed=500 + d):
            members = c.members
            # Every pair (E_i, E_j), i < j, of an exceptional collection is
            # an exceptional pair; adjacent ones are every position.
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    E, F = members[i], members[j]
                    chi_ef = euler_form(S, E, F)
                    for direction in Direction:
                        got = mutation_module._reflect(E, F, chi_ef, direction)
                        assert got == operator_reflection(chi_ef, E, F, direction)
                        pair = mutate_pair(S, E, F, direction)
                        assert pair == operator_pair(chi_ef, E, F, direction)
                        new = pair[0] if direction is Direction.LEFT else pair[1]
                        assert new._hc1 == anticanonical_degree(new.c1)
                        kinds.add(result_kind(new))
        assert "rank" in kinds
        if d >= 1:
            assert "degree" in kinds

    @pytest.mark.parametrize("d", range(2, 9))
    def test_torsion_pairs(self, d):
        S = surface(d)
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                if i == j:
                    continue
                for deg in (-2, -1, 0):
                    E, F = curve_class(S, i, deg), curve_class(S, j, -1)
                    chi_ef = euler_form(S, E, F)
                    for direction in Direction:
                        got = mutation_module._reflect(E, F, chi_ef, direction)
                        assert got == operator_reflection(chi_ef, E, F, direction)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("t", [-4, 0, 2])
    def test_rank_zero_degree_zero_results(self, sign, t):
        # E - F = sign * (0, e1 - e2, t): rank 0 and H.c1 = 0, so the sign
        # is read off c1 = (0; -1, 1), whose first nonzero is negative.
        S = surface(2)
        O = structure_class(S)
        target = KClass(0, divisor(0, -sign, sign), sign * t)
        F = weighted_sum(((O, 1), (target, -1)))
        assert F.r == 1 and target._hc1 == 0
        left = mutation_module._reflect(O, F, 1, Direction.LEFT)
        right = mutation_module._reflect(F, O, 1, Direction.RIGHT)
        assert left == operator_reflection(1, O, F, Direction.LEFT)
        assert right == operator_reflection(1, F, O, Direction.RIGHT)
        assert left == (True, coordinates(KClass(0, divisor(0, 1, -1), -t)))
        assert right == (False, left[1])

    @pytest.mark.parametrize("t", [-6, 0, 4])
    def test_zero_c1_results(self, t):
        S = surface(1)
        O = structure_class(S)
        F = weighted_sum(((O, 1), (KClass(0, divisor(0, 0), t), -1)))
        left = mutation_module._reflect(O, F, 1, Direction.LEFT)
        assert left == operator_reflection(1, O, F, Direction.LEFT)
        assert left == (True, coordinates(KClass(0, divisor(0, 0), abs(t))))

    @pytest.mark.parametrize("d", [0, 2, 5, 8])
    def test_one_class_built_per_mutation(self, monkeypatch, d):
        built = []
        post_init = KClass.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        rng = random.Random(70 + d)
        kinds = set()
        undone = set()
        for c in scrambled_collections(d, 4, seed=600 + d):
            # A record-free copy: the first move undoes no move.
            c = record_free(c)
            require_numerically_exceptional(c)
            previous = None
            for _ in range(10):
                i, direction = random_or_undoing_letter(rng, len(c.members), previous)
                undoes = inverse_letter(previous) == (i, direction)
                monkeypatch.setattr(KClass, "__post_init__", counted)
                built.clear()
                out = mutate_collection(c, i, direction)
                monkeypatch.undo()
                new = out.members[i - 1 if direction is Direction.LEFT else i]
                undone.add(undoes)
                if undoes:
                    assert built == []
                else:
                    kinds.add(result_kind(new))
                    assert built == [new]
                c, previous = out, (i, direction)
        assert "rank" in kinds
        assert undone == {True, False}


class TestRefusedArguments:
    """A direction that is not a Direction, a position whose type is not
    int, and helix bounds whose type is not int are refused with
    InvalidInputError, as ``BraidWord`` refuses its letters: a string
    direction is not read as a right mutation."""

    @pytest.mark.parametrize("direction", ["left", "right", "L", None, 0])
    def test_direction_that_is_not_a_direction(self, direction):
        c = basic_collection(surface(2))
        with pytest.raises(InvalidInputError, match="^mutation needs a Direction$"):
            mutate_collection(c, 3, direction)
        S = surface(2)
        with pytest.raises(InvalidInputError, match="^mutation needs a Direction$"):
            mutate_pair(S, structure_class(S), line_bundle(S, 1, 0, 0), direction)

    @pytest.mark.parametrize("position", [1.0, True, "1", None])
    def test_position_whose_type_is_not_int(self, position):
        c = basic_collection(surface(2))
        message = f"mutation position {position!r} out of range for length 5"
        with pytest.raises(InvalidInputError) as err:
            mutate_collection(c, position, Direction.LEFT)
        assert str(err.value) == message

    def test_braid_letter_whose_direction_is_not_a_direction(self):
        with pytest.raises(InvalidInputError, match="^braid letter needs a Direction$"):
            BraidWord(((1, "left"),))

    def test_braid_position_past_the_digit_limit(self):
        with pytest.raises(InvalidInputError, match="^integer of 5000 digits is too long$"):
            BraidWord.parse("L" + "1" * 5000)

    def test_helix_of_an_empty_foundation(self):
        with pytest.raises(InvalidInputError, match="^empty foundation$"):
            helix_extend(Collection(surface(1), ()), 0, 0)

    @pytest.mark.parametrize("lo, hi", [(0.5, 2), (0, 2.0), (True, 2), ("0", 2)])
    def test_helix_bounds_whose_type_is_not_int(self, lo, hi):
        c = basic_collection(surface(1))
        with pytest.raises(InvalidInputError) as err:
            helix_extend(c, lo, hi)
        assert str(err.value) == f"helix bounds {lo!r}, {hi!r} must be integers"


def same_move(recorded: Collection, i: int, direction: Direction) -> Collection:
    """The move on ``recorded`` and on a record-free copy, which must agree
    on the value and the certificate."""
    out = mutate_collection(recorded, i, direction)
    plain = mutate_collection(record_free(recorded), i, direction)
    assert out == plain
    assert out._certified is plain._certified is True
    return out


def negated(c: Collection, q: int) -> Collection:
    members = list(c.members)
    members[q] = -members[q]
    return Collection(c.surface, tuple(members))


class TestUndoRecord:
    """A move that undoes the move that built its input (R_i L_i = L_i R_i =
    id) returns the recorded members, evaluates no chi and builds no class;
    it gives what the full move gives."""

    @pytest.mark.parametrize("d", range(9))
    def test_every_move_of_a_recorded_output_matches_the_full_move(self, d):
        for c in scrambled_collections(d, 2, seed=1300 + d):
            n = len(c.members)
            for j in range(1, n):
                for first in Direction:
                    recorded = mutate_collection(c, j, first)
                    for i in range(1, n):
                        for direction in Direction:
                            same_move(recorded, i, direction)

    @pytest.mark.parametrize("d", [0, 1, 4, 8])
    def test_ping_pong(self, monkeypatch, d):
        calls = []
        count_chi(monkeypatch, calls)
        for c in scrambled_collections(d, 3, seed=1400 + d):
            require_numerically_exceptional(c)
            for i in range(1, len(c.members)):
                for first in Direction:
                    x = c
                    letters = [first, other(first)] * 2
                    for k, direction in enumerate(letters):
                        calls.clear()
                        x = mutate_collection(x, i, direction)
                        # The first letter may undo the braid word's last.
                        if k:
                            assert calls == []
                        monkeypatch.undo()
                        same_move(x, i, other(direction))
                        count_chi(monkeypatch, calls)
                    assert x == c

    @pytest.mark.parametrize("d", [0, 2, 8])
    def test_a_negated_member_is_not_returned(self, d):
        # chi(-E, -E) = chi(E, E) and -E keeps every zero: still exceptional.
        basic = basic_collection(surface(d))
        n = len(basic.members)
        for q in range(n):
            c = negated(basic, q)
            assert is_numerically_exceptional(c) == (True, None)
            # The move at i that replaces member q: F = E_q by a left move,
            # E = E_q by a right one.
            moves = [(q, Direction.LEFT)] if q else []
            moves += [(q + 1, Direction.RIGHT)] if q + 1 < n else []
            for i, direction in moves:
                out = mutate_collection(c, i, direction)
                back = same_move(out, i, other(direction))
                assert back.members[q] == basic.members[q] != c.members[q]
                assert back == basic

    def test_refusals_on_a_recorded_collection(self):
        c = basic_collection(surface(2))
        for direction in Direction:
            # The record undoes a move at position 1 (== True) in the other
            # direction.
            out = mutate_collection(c, 1, direction)
            undo = other(direction)
            for position in (True, 0, 5):
                message = f"mutation position {position!r} out of range for length 5"
                with pytest.raises(InvalidInputError) as err:
                    mutate_collection(out, position, undo)
                assert str(err.value) == message
            for wrong in ("left", "right"):
                with pytest.raises(InvalidInputError, match="^mutation needs a Direction$"):
                    mutate_collection(out, 1, wrong)

    def test_a_long_walk_keeps_a_bounded_number_of_collections(self):
        def live() -> int:
            gc.collect()
            return sum(type(x) is Collection for x in gc.get_objects())

        # A seeded walk within 6 letters of its start, so that its integers
        # stay small: past 6 letters, or one time in three, it undoes the
        # last letter it has not undone yet.
        rng = random.Random(1500)
        c = basic_collection(surface(3))
        n = len(c.members)
        start = live()
        path = []
        undone = 0
        for _ in range(2000):
            if path and (len(path) >= 6 or rng.random() < 1 / 3):
                letter = inverse_letter(path.pop())
                undone += 1
            else:
                letter = rng.randint(1, n - 1), rng.choice(list(Direction))
                path.append(letter)
            c = mutate_collection(c, *letter)
        assert undone > 500
        # The current collection alone: a record holds a member tuple, not
        # the collection it was read from.
        assert live() - start <= 1
