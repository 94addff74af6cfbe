import random

import pytest
from _helpers import braid_orbit_states, divisor, line_bundle, p2_basic, surface

from delpezzo import (
    BraidWord,
    Collection,
    Direction,
    InvalidInputError,
    KClass,
    apply_braid,
    basic_collection,
    basic_collection_torsion_last,
    check_helix_period,
    euler_form,
    gram_matrix,
    helix_extend,
    is_numerically_exceptional,
    mutate_collection,
    mutate_pair,
    structure_class,
)


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
        S = surface(3, roots=[(0, -1, 1, 0), (0, -1, 0, 1)])
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
        assert Oh in (chi * O - L, chi * O + L)

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


class TestBraid:
    def test_empty_word_is_identity(self):
        c = p2_basic()
        out, log = apply_braid(c, BraidWord.parse(""))
        assert out == c
        assert len(log) == 0

    def test_inverse_word_is_identity(self):
        c = p2_basic()
        out, log = apply_braid(c, BraidWord.parse("L1 R1"))
        assert out == c
        assert len(log) == 2

    def test_word_parsing_round_trip(self):
        w = BraidWord.parse("L1 R2 L1")
        assert str(w) == "L1 R2 L1"
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
        ok, violation = is_numerically_exceptional(
            basic_collection_torsion_last(surface(2))
        )
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
