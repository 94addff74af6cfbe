import random
from fractions import Fraction

import pytest
from _helpers import line_bundle, oracle_hn_patterns, random_kclass, surface

from delpezzo import (
    DomainError,
    GradedObject,
    InvalidInputError,
    SlopeVector,
    compare_slope,
    default_ample,
    hn_coarsen,
    structure_class,
    vector_slope,
)


def sv(rank, *nums):
    return SlopeVector(rank, nums)


class TestCompareSlope:
    def test_cross_multiplication(self):
        assert compare_slope(sv(1, 3, 0, 0), sv(2, 5, 0, 0)) == 1

    def test_tie_falls_through(self):
        assert compare_slope(sv(1, 2, 1, 0), sv(2, 4, 1, 0)) == 1
        assert compare_slope(sv(1, 2, 1, 5), sv(2, 4, 2, 10)) == 0

    def test_root_line_bundle_below_structure_sheaf(self):
        S = surface(2)
        a = vector_slope(S, structure_class(S))
        b = vector_slope(S, line_bundle(S, 0, -1, 1))
        assert compare_slope(a, b) == 1

    def test_total_order_on_randoms(self):
        rng = random.Random(21)
        vecs = [
            sv(rng.randint(1, 9), rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
            for _ in range(60)
        ]
        for a in vecs:
            for b in vecs:
                c = compare_slope(a, b)
                assert c == -compare_slope(b, a)
                if c == 0:
                    assert a.components() == b.components()

    def test_rank_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            SlopeVector(0, (1,))


class TestSlopeVectorInputs:
    @pytest.mark.parametrize(
        "bad",
        [Fraction(1, 2), Fraction(1), 0.1, "1/2", True, False],
        ids=["Fraction", "whole Fraction", "float", "str", "True", "False"],
    )
    def test_refuses_a_numerator_that_is_no_int(self, bad):
        with pytest.raises(InvalidInputError, match="^slope numerators must be integers, got"):
            SlopeVector(1, (1, bad))

    def test_refuses_a_bool_rank(self):
        with pytest.raises(InvalidInputError, match="^slope rank must be a positive integer$"):
            SlopeVector(True, (1,))

    def test_components_show_fractions_of_int_numerators(self):
        x = SlopeVector(2, [3, 1])
        assert x.numerators == (3, 1)
        assert x.components() == (Fraction(3, 2), Fraction(1, 2))
        assert {type(v) for v in x.components()} == {Fraction}

    @pytest.mark.parametrize("m", [True, False, 0, -1, 1.0, Fraction(2)], ids=repr)
    def test_scaled_refuses_a_multiplicity_that_is_no_positive_int(self, m):
        with pytest.raises(InvalidInputError, match="^multiplicity must be positive$"):
            SlopeVector(1, (1,)).scaled(m)

    def test_different_lengths_are_refused(self):
        a, b = SlopeVector(1, (1,)), SlopeVector(1, (1, 2))
        for f in (lambda: a + b, lambda: compare_slope(a, b)):
            with pytest.raises(InvalidInputError, match="^slope vectors have different lengths$"):
                f()

    def test_vector_slope_refuses_a_class_of_another_surface(self):
        with pytest.raises(InvalidInputError, match="^class does not belong to this surface$"):
            vector_slope(surface(2), structure_class(surface(1)))

    def test_integer_arithmetic_stays_integer(self):
        S = surface(3)
        a = vector_slope(S, line_bundle(S, 1, 1, 0, 0))
        b = vector_slope(S, structure_class(S)).scaled(3)
        for v in (a, b, a + b, (a + b).scaled(2)):
            assert {type(x) for x in v.numerators} == {int}


class TestMediantAndGap:
    def test_mediant_trichotomy(self):
        rng = random.Random(22)
        for _ in range(300):
            d1, r1 = rng.randint(-20, 20), rng.randint(1, 10)
            d2, r2 = rng.randint(-20, 20), rng.randint(1, 10)
            a, b = sv(r1, d1, 0, 0), sv(r2, d2, 0, 0)
            m = a + b
            c = compare_slope(a, b)
            if c == 0:
                assert compare_slope(m, a) == 0
            else:
                assert compare_slope(a, m) == c
                assert compare_slope(m, b) == c

    def test_gap_bound(self):
        rng = random.Random(23)
        for _ in range(300):
            r = rng.randint(1, 8)
            d1, r1 = rng.randint(-30, 30), rng.randint(1, r)
            d2, r2 = rng.randint(-30, 30), rng.randint(1, r)
            if Fraction(d1, r1) != Fraction(d2, r2):
                assert abs(Fraction(d1, r1) - Fraction(d2, r2)) >= Fraction(1, r * r)

    def test_bounded_descending_chains_are_finite(self):
        # Every strictly decreasing slope sequence with ranks <= r inside a
        # window of width W has at most r^2 W + 1 terms.
        for r in (2, 3, 5):
            for width in (1, 2, 3):
                values = {
                    Fraction(p, q)
                    for q in range(1, r + 1)
                    for p in range(0, width * q + 1)
                }
                assert len(values) <= r * r * width + 1


def graded(*pairs) -> GradedObject:
    return GradedObject(tuple(pairs))


class TestHNCoarsen:
    def setup_method(self):
        self.S = surface(1)
        self.A = default_ample(self.S)
        # mu values: O -> 0, O(e1) -> 1, O(h-e1) -> 2, O(h) -> 3
        self.q0 = structure_class(self.S)
        self.q1 = line_bundle(self.S, 0, -1)
        self.q2 = line_bundle(self.S, 1, 1)
        self.q3 = line_bundle(self.S, 1, 0)

    def test_already_ordered_unchanged(self):
        g = graded((self.q0, 1), (self.q2, 1))
        assert hn_coarsen(g, self.A) == g

    def test_descending_pair_merges(self):
        g = graded((self.q2, 1), (self.q0, 1))
        out = hn_coarsen(g, self.A)
        assert len(out.quotients) == 1
        merged, mult = out.quotients[0]
        assert mult == 1
        assert merged == self.q2 + self.q0

    def test_equal_slopes_merge(self):
        g = graded((self.q0, 1), (self.q0, 2))
        out = hn_coarsen(g, self.A)
        assert len(out.quotients) == 1

    def test_idempotent_on_randoms(self):
        rng = random.Random(31)
        for _ in range(200):
            g = self._random_graded(rng)
            once = hn_coarsen(g, self.A)
            assert hn_coarsen(once, self.A) == once

    def test_matches_exhaustive_unique_coarsening(self):
        rng = random.Random(32)
        for _ in range(200):
            g = self._random_graded(rng)
            out = hn_coarsen(g, self.A)
            slopes = [
                vector_slope(self.S, q, self.A).scaled(m) for q, m in g.quotients
            ]
            patterns = oracle_hn_patterns(slopes)
            assert len(patterns) == 1
            blocks = patterns[0]
            rebuilt = []
            for lo, hi in blocks:
                if hi - lo == 1:
                    rebuilt.append(g.quotients[lo])
                else:
                    total = None
                    for i in range(lo, hi):
                        q, m = g.quotients[i]
                        piece = m * q
                        total = piece if total is None else total + piece
                    rebuilt.append((total, 1))
            assert out == GradedObject(tuple(rebuilt))

    def test_rank_zero_quotient_rejected(self):
        S = surface(1)
        from delpezzo import curve_class

        with pytest.raises(DomainError):
            graded((curve_class(S, 1, -1), 1))

    def test_json_round_trip(self):
        g = graded((self.q0, 2), (self.q2, 1))
        assert GradedObject.from_json(g.to_json()) == g

    def test_empty_object_refused(self):
        with pytest.raises(InvalidInputError, match="^graded object needs at least one quotient$"):
            graded()

    @pytest.mark.parametrize("m", [0, -1, True, False, 1.0])
    def test_multiplicity_that_is_no_positive_int_refused(self, m):
        # A bool would be written as "mult": true, which from_json refuses.
        with pytest.raises(InvalidInputError, match="^multiplicities must be positive integers$"):
            graded((self.q0, m))

    def test_polarization_of_another_surface_refused(self):
        g = graded((self.q0, 1))
        with pytest.raises(InvalidInputError, match="^graded object and polarization disagree on d$"):
            hn_coarsen(g, default_ample(surface(2)))

    def _random_graded(self, rng) -> GradedObject:
        n = rng.randint(1, 6)
        return graded(
            *(
                (random_kclass(rng, 1, max_rank=3), rng.randint(1, 2))
                for _ in range(n)
            )
        )
