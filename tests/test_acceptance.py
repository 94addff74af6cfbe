"""Acceptance gate: every criterion runs exactly (no tolerances beyond the
stated wall-clock budgets) and prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from contextlib import contextmanager

from _helpers import (
    braid_orbit_states,
    ext_seed,
    line_bundle,
    oracle_chi_product_form,
    oracle_hn_patterns,
    oracle_markov_solutions,
    oracle_roots,
    p2_basic,
    random_kclass,
    surface,
)

import delpezzo.picard
from delpezzo import (
    Collection,
    Direction,
    GradedObject,
    KClass,
    PairKind,
    basic_collection,
    basic_collection_torsion_last,
    canonical_divisor,
    check_helix_period,
    classify_pair,
    curve_class,
    default_ample,
    enumerate_roots,
    euler_form,
    exceptional_divisor,
    helix_extend,
    intersect,
    is_numerically_exceptional,
    line_class,
    markov_form,
    markov_tree,
    mutate_pair,
    normalize_and_descend,
    pair_orbit,
    replay,
    structure_class,
    twist,
    vector_slope,
    hn_coarsen,
)
from delpezzo.mutation import mutate_collection


@contextmanager
def criterion(n: int, text: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n}: FAIL - {text}")
        raise
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_euler_form_consistency():
    with criterion(1, "Euler form equals the product form on 1000 random classes per surface, < 2 s"):
        start = time.monotonic()
        for d in range(9):
            rng = random.Random(1000 + d)
            S = surface(d)
            classes = [random_kclass(rng, d) for _ in range(1000)]
            for i, E in enumerate(classes):
                F = classes[(i + 1) % len(classes)]
                assert euler_form(S, E, F) == oracle_chi_product_form(S, E, F)
        elapsed = time.monotonic() - start
        assert elapsed < 2.0, f"took {elapsed:.2f}s"


def test_criterion_2_basic_collection_certificate():
    with criterion(2, "basic collections certified for d <= 8; torsion-last order fails with chi = -1, < 1 s"):
        start = time.monotonic()
        for d in range(9):
            S = surface(d)
            ok, violation = is_numerically_exceptional(basic_collection(S))
            assert ok and violation is None
            if d >= 1:
                ok, violation = is_numerically_exceptional(
                    basic_collection_torsion_last(S)
                )
                assert not ok
                assert violation is not None and violation.value == -1
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_3_helix_periodicity():
    with criterion(3, "helix periodicity holds on d = 0, 1, 2 and extension matches twist indexing"):
        for d in (0, 1, 2):
            S = surface(d)
            foundation = basic_collection(S)
            ok, witness = check_helix_period(foundation)
            assert ok, witness
            n = len(foundation.members)
            K = canonical_divisor(d)
            helix = helix_extend(foundation, -2 * n, 3 * n)
            for m in range(-2 * n, 2 * n + 1):
                assert helix[m + n] == twist(S, helix[m], -K)
        # iterated right mutations meet the twist-extended helix on the plane
        c = p2_basic()
        S = c.surface
        E1, E2, E3 = c.members
        _, R1 = mutate_pair(S, E1, E2, Direction.RIGHT)
        _, R2 = mutate_pair(S, R1, E3, Direction.RIGHT)
        assert R2 == helix_extend(c, 4, 4)[4] == KClass(
            1, delpezzo.picard.DivisorClass((3,)), 9
        )


def test_criterion_4_mutation_axioms():
    with criterion(4, "R.L = L.R = id on 500 orbit pairs; triangle equation on 200 triples"):
        rng = random.Random(4)
        states = braid_orbit_states(6)
        sampled = rng.sample(states, 250)
        pairs = []
        for c in sampled:
            for i in range(len(c.members) - 1):
                pairs.append((c.surface, c.members[i], c.members[i + 1]))
        assert len(pairs) == 500
        for S, E, F in pairs:
            L, E2 = mutate_pair(S, E, F, Direction.LEFT)
            assert mutate_pair(S, L, E2, Direction.RIGHT) == (E, F)
            F2, R = mutate_pair(S, E, F, Direction.RIGHT)
            assert mutate_pair(S, F2, R, Direction.LEFT) == (E, F)
        for c in rng.sample(states, 200):
            S, (A, B, C) = c.surface, c.members
            LBC, _ = mutate_pair(S, B, C, Direction.LEFT)
            lhs, _ = mutate_pair(S, A, LBC, Direction.LEFT)
            B2, _ = mutate_pair(S, A, B, Direction.LEFT)
            LAC, _ = mutate_pair(S, A, C, Direction.LEFT)
            rhs, _ = mutate_pair(S, B2, LAC, Direction.LEFT)
            assert lhs == rhs


def test_criterion_5_markov_correspondence():
    with criterion(5, "braid orbit of depth 10 has Markov rank triples; tree(500) matches the oracle, < 5 s"):
        start = time.monotonic()
        basic = p2_basic()
        seen = {basic.members}
        frontier = [basic]
        for _ in range(10):
            new = []
            for c in frontier:
                for pos in (1, 2):
                    for direction in (Direction.LEFT, Direction.RIGHT):
                        m = mutate_collection(c, pos, direction)
                        if m.members not in seen:
                            seen.add(m.members)
                            new.append(m)
            frontier = new
        for members in seen:
            x, y, z = (m.r for m in members)
            assert x * x + y * y + z * z == 3 * x * y * z
        got = {t.as_tuple() for t in markov_tree(500)}
        assert got == oracle_markov_solutions(500)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_6_recurrence_invariants():
    with criterion(6, "orbit pairings, quadratic form and rank bound for h in 2..10, n <= 20"):
        for h in range(2, 11):
            S, E0, E1 = ext_seed(h)
            orbit = pair_orbit(S, E0, E1, 20)
            for n in range(-20, 21):
                assert euler_form(S, orbit[n], orbit[n]) == 1
                assert euler_form(S, orbit[n + 1], orbit[n]) == 0
            for n in range(21):
                assert markov_form(orbit.x[n + 1], orbit.x[n], h) == 1
            base = E0.r + E1.r
            for n in range(-20, 22):
                if n not in (0, 1):
                    assert orbit[n].r >= base


def test_criterion_7_root_enumeration():
    with criterion(7, "root systems match the brute-force oracle for d <= 8, < 3 s at d = 8"):
        for d in range(9):
            S = surface(d)
            roots = enumerate_roots(S)
            got = {r.coeffs for r in roots}
            assert got == oracle_roots(d)
            assert got == {tuple(-x for x in c) for c in got}
            if d == 2:
                assert len(roots) == 2
        delpezzo.picard._roots_for_d.cache_clear()
        start = time.monotonic()
        enumerate_roots(surface(8))
        elapsed = time.monotonic() - start
        assert elapsed < 3.0, f"took {elapsed:.2f}s"


def test_criterion_8_hn_coarsening():
    with criterion(8, "HN coarsening matches the exhaustive unique pattern on 200 random graded objects"):
        rng = random.Random(8)
        S = surface(1)
        A = default_ample(S)
        for _ in range(200):
            n = rng.randint(1, 6)
            g = GradedObject(
                tuple(
                    (random_kclass(rng, 1, max_rank=3), rng.randint(1, 2))
                    for _ in range(n)
                )
            )
            out = hn_coarsen(g, A)
            assert hn_coarsen(out, A) == out
            slopes = [vector_slope(S, q, A).scaled(m) for q, m in g.quotients]
            patterns = oracle_hn_patterns(slopes)
            assert len(patterns) == 1
            assert len(patterns[0]) == len(out.quotients)
            for (lo, hi), (q, m) in zip(patterns[0], out.quotients):
                if hi - lo == 1:
                    assert (q, m) == g.quotients[lo]
                else:
                    total = None
                    for i in range(lo, hi):
                        qi, mi = g.quotients[i]
                        piece = mi * qi
                        total = piece if total is None else total + piece
                    assert m == 1 and q == total


def test_criterion_9_pair_classification():
    with criterion(9, "the four anchored pair types reproduce; singular pairs satisfy D.C = -1 mod r"):
        S1 = surface(1)
        t = classify_pair(S1, structure_class(S1), line_bundle(S1, 1, 0))
        assert t.kind is PairKind.HOM and t.dims == (3,)
        t = classify_pair(S1, line_bundle(S1, 1, 1), line_bundle(S1, 0, -1))
        assert t.kind is PairKind.EXT and t.dims == (1,)
        S2 = surface(2, roots=[(0, -1, 1)])
        singular_pairs = [
            (S2, structure_class(S2), line_bundle(S2, 0, -1, 1)),
            (S2, line_bundle(S2, 1, 0, 0), line_bundle(S2, 1, -1, 1)),
        ]
        for S, E, F in singular_pairs:
            t = classify_pair(S, E, F)
            assert t.kind is PairKind.SINGULAR and t.dims == (1, 1)
            C = F.c1 - E.c1
            assert (intersect(S, F.c1, C) + 1) % F.r == 0
        # e2 - e3 is outside the span of the one declared root e1 - e2.
        S3 = surface(3, roots=[(0, -1, 1, 0)])
        t = classify_pair(
            S3, line_bundle(S3, 0, -1, 1, 0), line_bundle(S3, 0, -1, 0, 1)
        )
        assert t.kind is PairKind.ZERO


def test_criterion_10_pipeline_round_trip():
    with criterion(10, "blow-down pipeline on the d = 1 examples with bit-exact log replay, < 1 s"):
        start = time.monotonic()
        S = surface(1)
        L = curve_class(S, 1, -1)
        e = exceptional_divisor(1, 1)

        c1 = Collection(S, (line_class(S, e),))
        G1, log1 = normalize_and_descend(c1)
        assert G1 == KClass(1, delpezzo.picard.DivisorClass((0,)), 0)

        c2 = basic_collection(S)
        G2, log2 = normalize_and_descend(c2)
        assert G2.r == 3

        for log in (log1, log2):
            peel_steps = [s for s in log.steps if s.kind == "peel"]
            assert len(peel_steps) == 1
            G = peel_steps[0].after
            assert intersect(S, G.c1, e) == 0
            assert euler_form(S, G, L) == 0
            assert replay(log)
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
