import pytest
from _helpers import (
    ext_seed,
    line_bundle,
    oracle_markov_closure,
    oracle_markov_solutions,
    surface,
)

from delpezzo import (
    DomainError,
    InvalidInputError,
    MarkovTriple,
    euler_form,
    markov_form,
    markov_step,
    markov_tree,
    pair_orbit,
    structure_class,
)
from delpezzo.chern import weighted_sum


class TestMarkovTriple:
    def test_base_solution(self):
        MarkovTriple(1, 1, 1)

    def test_non_solution_rejected(self):
        with pytest.raises(DomainError):
            MarkovTriple(1, 1, 3)
        with pytest.raises(DomainError):
            MarkovTriple(0, 0, 0)

    def test_bool_coordinates_refused(self):
        # as_tuple would dump as [true, true, true].
        with pytest.raises(InvalidInputError, match="^Markov coordinates must be integers$"):
            MarkovTriple(True, True, True)


class TestMarkovStep:
    def test_examples(self):
        assert markov_step(MarkovTriple(1, 1, 1), 3) == MarkovTriple(1, 1, 2)
        assert markov_step(MarkovTriple(1, 1, 2), 2) == MarkovTriple(1, 5, 2)
        assert markov_step(MarkovTriple(1, 1, 1), 1) == MarkovTriple(2, 1, 1)

    def test_involution(self):
        t = MarkovTriple(2, 5, 29)
        for pos in (1, 2, 3):
            assert markov_step(markov_step(t, pos), pos) == t

    def test_bad_position(self):
        with pytest.raises(InvalidInputError):
            markov_step(MarkovTriple(1, 1, 1), 4)

    @pytest.mark.parametrize("position", [True, 1.0])
    def test_position_must_be_an_int(self, position):
        with pytest.raises(InvalidInputError, match="^position must be 1, 2 or 3$"):
            markov_step(MarkovTriple(1, 1, 1), position)


class TestMarkovTree:
    def test_limit_two(self):
        got = {t.as_tuple() for t in markov_tree(2)}
        assert got == {(1, 1, 1), (1, 1, 2)}

    def test_limit_five_adds_125(self):
        got = {t.as_tuple() for t in markov_tree(5)}
        assert (1, 2, 5) in got
        assert got == oracle_markov_solutions(5)

    def test_limit_thirty(self):
        got = {t.as_tuple() for t in markov_tree(30)}
        assert (1, 5, 13) in got and (2, 5, 29) in got
        assert got == oracle_markov_solutions(30)

    def test_exhaustive_match_at_200(self):
        got = [t.as_tuple() for t in markov_tree(200)]
        assert len(got) == len(set(got))
        assert set(got) == oracle_markov_solutions(200)

    @pytest.mark.parametrize("limit", [1, 2, 5, 30, 200, 10**6, 10**12, 10**40])
    def test_each_solution_once_as_the_vieta_closure(self, limit):
        got = [t.as_tuple() for t in markov_tree(limit)]
        assert len(got) == len(set(got))
        assert set(got) == oracle_markov_closure(limit)
        assert all(a <= b <= c for a, b, c in got)

    def test_one_triple_built_per_solution(self, monkeypatch):
        built = []
        init = MarkovTriple.__init__

        def recorded(self, x, y, z):
            built.append((x, y, z))
            init(self, x, y, z)

        monkeypatch.setattr(MarkovTriple, "__init__", recorded)
        got = [t.as_tuple() for t in markov_tree(10**12)]
        assert built == got

    def test_limit_checked_when_iteration_starts(self):
        walk = markov_tree(0)
        with pytest.raises(InvalidInputError, match="limit must be a positive integer"):
            next(walk)

    def test_bool_limit_refused(self):
        with pytest.raises(InvalidInputError, match="^limit must be a positive integer$"):
            next(markov_tree(True))


class TestMarkovForm:
    def test_basis_vector(self):
        for h in range(2, 11):
            assert markov_form(1, 0, h) == 1

    def test_interior_point(self):
        assert markov_form(1, 1, 3) == -1

    def test_recurrence_invariant(self):
        for h in range(2, 11):
            x = [0, 1]
            for _ in range(20):
                x.append(h * x[-1] - x[-2])
            for n in range(len(x) - 1):
                assert markov_form(x[n + 1], x[n], h) == 1


class TestPairOrbit:
    def test_bool_length_refused(self):
        S, E0, E1 = ext_seed(3)
        with pytest.raises(InvalidInputError, match="^orbit length must be a positive integer$"):
            pair_orbit(S, E0, E1, True)

    def test_x_sequence_h3(self):
        S, E0, E1 = ext_seed(3)
        orbit = pair_orbit(S, E0, E1, 3)
        assert orbit.x == (0, 1, 3, 8, 21)

    def test_orbit_invariants(self):
        S, E0, E1 = ext_seed(3)
        orbit = pair_orbit(S, E0, E1, 10)
        for n in range(-10, 11):
            assert euler_form(S, orbit[n], orbit[n]) == 1
            assert euler_form(S, orbit[n + 1], orbit[n]) == 0
        for n in range(-10, 11):
            if n != 0:
                assert euler_form(S, orbit[n], orbit[n + 1]) == orbit.h

    def test_rank_bound(self):
        for h in (2, 5, 9):
            S, E0, E1 = ext_seed(h)
            orbit = pair_orbit(S, E0, E1, 8)
            base = E0.r + E1.r
            for n in range(-8, 10):
                if n not in (0, 1):
                    assert orbit[n].r > base

    def test_hom_pair_rejected(self):
        S = surface(8)
        O = structure_class(S)
        Oh = line_bundle(S, *([1] + [0] * 8))
        with pytest.raises(InvalidInputError):
            pair_orbit(S, O, Oh, 3)

    def test_small_pairing_rejected(self):
        # an ext pair with pairing -1 falls below the lemma's threshold
        S = surface(1)
        E = line_bundle(S, 1, 1)
        F = line_bundle(S, 0, -1)
        assert euler_form(S, E, F) == -1
        with pytest.raises(InvalidInputError):
            pair_orbit(S, E, F, 3)


class TestPairOrbitRecurrence:
    @pytest.mark.parametrize("h", range(2, 11))
    def test_matches_the_operator_recurrence(self, h):
        S, E0, E1 = ext_seed(h)
        n = 12
        orbit = pair_orbit(S, E0, E1, n)
        expected = {
            0: E0,
            1: E1,
            -1: weighted_sum(((E1, 1), (E0, h))),
            2: weighted_sum(((E1, h), (E0, 1))),
        }
        for m in range(3, n + 2):
            expected[m] = weighted_sum(((expected[m - 1], h), (expected[m - 2], -1)))
        for m in range(2, n + 1):
            expected[-m] = weighted_sum(((expected[1 - m], h), (expected[2 - m], -1)))
        assert orbit.classes == expected
