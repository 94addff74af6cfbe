"""Slope order decided on integers, held to Fraction oracles.

``compare_mu``, ``rotation_index``, the pipeline's slope groups and its
slope-window test order anticanonical slopes by cross-multiplying the
integers (H.c1, r).  Each is checked here against ``oracle_slope``, the
Fraction H.c1/r through the intersection form, on seeded classes of every
surface, with ranks of both signs and exact ties.  The descent, log and
HN paths are then checked to build no Fraction outside a refusal message.
"""

import contextlib
import random
import sys
import traceback
from fractions import Fraction

import pytest
from _helpers import (
    divisor,
    line_bundle,
    oracle_rotation_index,
    oracle_slope,
    random_kclass,
    scrambled_collections,
    surface,
)

from delpezzo import (
    Collection,
    DomainError,
    GradedObject,
    InvalidInputError,
    KClass,
    MutationLog,
    PipelineError,
    compare_mu,
    curve_class,
    default_ample,
    hn_coarsen,
    is_numerically_exceptional,
    normalize_and_descend,
    order_hom,
    reduce_spread,
    replay,
    rotate_twist,
    rotation_index,
    slope_mu,
    structure_class,
    twist,
    vector_slope,
)
from delpezzo.chern import weighted_sum
from delpezzo.pipeline import _slope_groups

OTHER_SURFACE = (InvalidInputError, "class does not belong to this surface")
RANK_ZERO = (DomainError, "slope is undefined for rank-0 classes")
NOT_INCREASING = (DomainError, "rotation index needs strictly increasing slopes")
REFUSALS = {RANK_ZERO: "rank 0", OTHER_SURFACE: "other surface", NOT_INCREASING: "not increasing"}


def outcome(fn):
    """The value of fn(), or the type and message of its refusal."""
    try:
        return fn()
    except (InvalidInputError, DomainError) as exc:
        return type(exc), str(exc)


def sign(x) -> int:
    return (x > 0) - (x < 0)


def seeded_classes(rng: random.Random, d: int, count: int) -> list:
    """Seeded classes of ranks -3..4 (rank 0 included) and, for each, exact
    ties: twice it, its negative (a negative rank) and, for d >= 2, its
    twist by the root e1 - e2, which H does not see."""
    S = surface(d)
    out = []
    for _ in range(count):
        E = random_kclass(rng, d, max_rank=4, min_rank=-3)
        out += [E, weighted_sum(((E, 2),)), -E]
        if d >= 2:
            out.append(twist(S, E, divisor(0, 1, -1, *[0] * (d - 2))))
    return out


class TestCompareMu:
    def test_matches_the_oracle_on_every_surface(self):
        rng = random.Random(191)
        seen = {"tie": 0, "less": 0, "greater": 0, "mixed signs": 0}
        for d in range(9):
            S = surface(d)
            classes = seeded_classes(rng, d, 10)
            for E in classes:
                for F in classes:
                    if E.r == 0 or F.r == 0:
                        continue
                    got = compare_mu(S, E, F)
                    assert got == sign(oracle_slope(S, E) - oracle_slope(S, F))
                    assert got == -compare_mu(S, F, E)
                    seen[("tie", "greater", "less")[got]] += 1
                    seen["mixed signs"] += (E.r < 0) != (F.r < 0)
        assert min(seen.values()) > 0, seen

    def test_refuses_what_slope_mu_refuses_first_class_first(self):
        rng = random.Random(192)
        S = surface(3)
        good = random_kclass(rng, 3)
        torsion = random_kclass(rng, 3, max_rank=0, min_rank=0)
        foreign = random_kclass(rng, 2)
        assert outcome(lambda: slope_mu(S, torsion)) == RANK_ZERO
        assert outcome(lambda: slope_mu(S, foreign)) == OTHER_SURFACE
        for E, F, expected in [
            (good, torsion, RANK_ZERO),
            (torsion, good, RANK_ZERO),
            (good, foreign, OTHER_SURFACE),
            (foreign, good, OTHER_SURFACE),
            (torsion, foreign, RANK_ZERO),
            (foreign, torsion, OTHER_SURFACE),
        ]:
            assert outcome(lambda: compare_mu(S, E, F)) == expected
        assert compare_mu(S, good, good) == 0


def expected_rotation(S, classes, e_index):
    """Every class is checked, in order, before any two are compared; then
    the oracle's strictly-increasing check and index."""
    for c in classes:
        if c.d != S.d:
            return OTHER_SURFACE
        if c.r == 0:
            return RANK_ZERO
    return outcome(lambda: oracle_rotation_index(S, classes, e_index))


class TestRotationIndex:
    def test_results_and_refusals_match_the_oracle(self):
        rng = random.Random(193)
        seen = {"index": 0, "rank 0": 0, "other surface": 0, "not increasing": 0}
        for d in range(1, 9):
            S = surface(d)
            pool = [c for c in seeded_classes(rng, d, 8) if c.r > 0]
            for _ in range(60):
                picked = rng.sample(pool, rng.randint(1, 4))
                by_slope = {oracle_slope(S, c): c for c in picked}
                classes = [by_slope[mu] for mu in sorted(by_slope)]
                fault = rng.choice(("none", "rank 0", "other surface", "swap", "tie"))
                if fault == "rank 0":
                    classes.insert(rng.randint(0, len(classes)), weighted_sum(((classes[0], 0),)))
                elif fault == "other surface":
                    other = random_kclass(rng, rng.choice([x for x in range(9) if x != d]))
                    classes.insert(rng.randint(0, len(classes)), other)
                elif fault == "swap" and len(classes) > 1:
                    p = rng.randrange(len(classes) - 1)
                    classes[p], classes[p + 1] = classes[p + 1], classes[p]
                elif fault == "tie":
                    p = rng.randrange(len(classes))
                    classes.insert(p + 1, weighted_sum(((classes[p], 2),)))
                if fault in ("rank 0", "other surface") and rng.random() < 0.5:
                    classes.reverse()  # a slope-order fault before the bad class
                e_index = rng.randint(1, d)
                got = outcome(lambda: rotation_index(S, classes, e_index))
                assert got == expected_rotation(S, classes, e_index)
                kind = "index" if isinstance(got[0], int) else REFUSALS.get(got)
                if kind:
                    seen[kind] += 1
        assert min(seen.values()) > 0, seen

    def test_a_lone_class_is_refused_as_slope_mu_refuses_it(self):
        S = surface(2)
        assert outcome(lambda: rotation_index(S, [curve_class(S, 1, -1)], 1)) == RANK_ZERO
        foreign = structure_class(surface(1))
        assert outcome(lambda: rotation_index(S, [foreign], 1)) == OTHER_SURFACE

    def test_non_increasing_message(self):
        S = surface(1)
        E = line_bundle(S, 1, 0)
        for classes in ([E, E], [E, structure_class(S)], [E, weighted_sum(((E, 2),))]):
            assert outcome(lambda: rotation_index(S, classes, 1)) == NOT_INCREASING


class TestSlopeGroups:
    def test_matches_runs_of_equal_oracle_slope(self):
        rng = random.Random(194)
        sizes = set()
        for d in range(9):
            S = surface(d)
            pool = [c for c in seeded_classes(rng, d, 4) if c.r > 0]
            torsion = KClass(0, divisor(*[0] * (d + 1)), 2)
            for _ in range(40):
                members = [rng.choice(pool + [torsion]) for _ in range(rng.randint(0, 7))]
                if members and members[0].r and rng.random() < 0.5:
                    members.insert(1, weighted_sum(((members[0], 3),)))
                expected: list[list[int]] = []
                for p, E in enumerate(members):
                    if E.r == 0:
                        continue
                    last = expected[-1][-1] if expected else None
                    if last is not None and oracle_slope(S, members[last]) == oracle_slope(S, E):
                        expected[-1].append(p)
                    else:
                        expected.append([p])
                assert _slope_groups(S, tuple(members)) == expected
                sizes.update(len(g) for g in expected)
        assert {1, 2} <= sizes


def oracle_reduce_spread(c: Collection):
    """The window reduction read off Fraction slopes: the collection and
    the rotations j it makes, or the refusal."""
    S, k2 = c.surface, c.surface.k_squared
    js = []
    while True:
        mus = [oracle_slope(S, m) for m in c.members if m.r > 0]
        if not mus or max(mus) - min(mus) < k2:
            return c, js
        if len(mus) != len(c.members):
            return DomainError, "slope-window reduction would twist torsion members"
        if max(mus) - min(mus) > k2:
            j = next(p + 1 for p, mu in enumerate(mus) if mu > min(mus) + k2)
        else:
            j = next(p + 2 for p, (x, y) in enumerate(zip(mus, mus[1:])) if x < y)
        c = order_hom(rotate_twist(c, j))[0]
        js.append(j)


def window_pairs(d: int):
    """(O, O(D)) for D = k h - e_1 - ... - e_t, k = 1, 2: chi(O(D), O) = 0,
    so each is exceptional, with slope window 3k - t; on d = 3..8 one of
    them has a window of exactly K^2."""
    S = surface(d)
    for k in (1, 2):
        for t in range(0, min(d, 3 * k - 1) + 1):
            D = divisor(k, *([1] * t + [0] * (d - t)))
            yield Collection(S, (structure_class(S), line_bundle(S, *D.coeffs)))


class TestReduceSpreadWindow:
    def test_matches_the_fraction_oracle(self):
        windows = {"below": 0, "exactly K^2": 0, "above": 0, "refused": 0}
        for d in range(9):
            inputs = list(window_pairs(d))
            for c in scrambled_collections(d, 10, seed=195 + d):
                ordered = outcome(lambda: order_hom(c))
                if isinstance(ordered, tuple) and isinstance(ordered[0], Collection):
                    inputs.append(ordered[0])
            for c in inputs:
                assert is_numerically_exceptional(c)[0]
                S = c.surface
                mus = [oracle_slope(S, m) for m in c.members if m.r > 0]
                spread = max(mus) - min(mus)
                expected = oracle_reduce_spread(c)
                got = outcome(lambda: reduce_spread(c))
                if isinstance(expected[0], Collection):
                    out, log = got
                    assert out == expected[0]
                    assert [s.params["j"] for s in log.steps if s.kind == "rotate"] == expected[1]
                    windows[
                        "below" if spread < S.k_squared
                        else "exactly K^2" if spread == S.k_squared
                        else "above"
                    ] += 1
                else:
                    assert got == expected
                    windows["refused"] += 1
        assert min(windows.values()) > 0, windows

    def test_window_of_exactly_k_squared_rotates_past_the_lowest_level(self):
        for d in range(3, 9):
            S = surface(d)
            D = divisor(2, *([1] * (d - 3) + [0] * 3))
            c = Collection(S, (structure_class(S), line_bundle(S, *D.coeffs)))
            assert slope_mu(S, c.members[1]) == S.k_squared
            out, log = reduce_spread(c)
            assert [s.params for s in log.steps if s.kind == "rotate"] == [{"j": 2}]
            assert out == rotate_twist(c, 2)
            assert slope_mu(S, out.members[0]) == slope_mu(S, out.members[1])

    def test_window_of_exactly_k_squared_over_a_tie_rotates_past_the_tie(self):
        # Slopes (0, 0, 1) on d = 8, K^2 = 1: the lowest level holds two
        # members, so the rotation is j = 3, not 2.
        S = surface(8)
        c = Collection(
            S,
            (
                structure_class(S),
                line_bundle(S, 0, -1, 0, 0, 1, 0, 0, 0, 0),
                line_bundle(S, 0, -1, 0, 0, 0, 0, 0, 0, 0),
            ),
        )
        assert is_numerically_exceptional(c)[0]
        assert [slope_mu(S, m) for m in c.members] == [0, 0, 1]
        out, log = reduce_spread(c)
        assert log.steps[0].kind == "rotate" and log.steps[0].params == {"j": 3}
        assert oracle_reduce_spread(c) == (out, [3])


@contextlib.contextmanager
def fraction_builds():
    """Record, for each Fraction built inside, the names of the functions
    on the stack that built it."""
    builds: list[set[str]] = []
    new = vars(Fraction)["__new__"]

    def recording(cls, *args, **kwargs):
        builds.append({f.f_code.co_name for f, _ in traceback.walk_stack(sys._getframe(1))})
        return new.__func__(cls, *args, **kwargs)

    Fraction.__new__ = recording
    try:
        yield builds
    finally:
        Fraction.__new__ = new


class TestNoFractionOnTheSlopePaths:
    def test_the_recorder_sees_a_shown_slope(self):
        S = surface(2)
        E = line_bundle(S, 1, 1, 0)
        with fraction_builds() as builds:
            slope_mu(S, E)
            vector_slope(S, E).components()
        assert len(builds) == 4
        assert all("_check_members" not in b for b in builds)

    def test_descent_logs_and_hn_build_none_outside_refusals(self):
        rng = random.Random(196)
        runs = []
        for d in range(1, 9):
            for c in scrambled_collections(d, 8, seed=196 + d):
                runs.append((c, [rng.randint(1, 4) for _ in c.members]))
            # O_{e_1}(0) is exceptional but no multiple of O_{e_1}(-1).
            runs.append((Collection(surface(d), (curve_class(surface(d), 1, 0),)), [1]))
        outcomes = {"descended": 0, "refused": 0, "torsion refusal": 0}
        with fraction_builds() as builds:
            for c, mults in runs:
                try:
                    _, log = normalize_and_descend(c, mults)
                except PipelineError as exc:
                    outcomes["refused"] += 1
                    outcomes["torsion refusal"] += "not a multiple of a curve class" in str(exc)
                else:
                    outcomes["descended"] += 1
                    assert replay(MutationLog.from_jsonl(log.to_jsonl()))
                quotients = tuple((m, k) for m, k in zip(c.members, mults) if m.r > 0)
                if quotients:
                    hn_coarsen(GradedObject(quotients), default_ample(c.surface))
        assert min(outcomes.values()) > 0, outcomes
        # The one source: _check_members's torsion message shows ch2.
        assert all("_check_members" in b and "ch2" in b for b in builds)
        assert len(builds) == outcomes["torsion refusal"]
