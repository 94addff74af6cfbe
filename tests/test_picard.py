import itertools
import random
import re
import time

import pytest
from _helpers import (
    E8_SIMPLE_ROOTS,
    _form,
    _rank,
    divisor,
    oracle_is_positive,
    oracle_monomial_count,
    oracle_positive_roots,
    oracle_roots,
    oracle_valid_configuration,
    random_valid_configurations,
    surface,
)

from delpezzo import (
    DivisorClass,
    DomainError,
    InvalidInputError,
    KClass,
    PairKind,
    Surface,
    anticanonical_divisor,
    canonical_divisor,
    classify_pair,
    descend_class,
    enumerate_roots,
    euler_form,
    exceptional_divisor,
    intersect,
    line_class,
    line_divisor,
    structure_class,
)
from delpezzo import picard as picard_module
from delpezzo.picard import (
    anticanonical_degree,
    blow_down_surface,
    effective_root_decomposition,
)


class TestIntersect:
    def test_h_dot_e1_is_zero(self):
        S = surface(1)
        assert intersect(S, line_divisor(1), exceptional_divisor(1, 1)) == 0

    def test_e1_squared(self):
        S = surface(1)
        e1 = exceptional_divisor(1, 1)
        assert intersect(S, e1, e1) == -1

    def test_h_squared_cross_checked_by_riemann_roch(self):
        # chi(O, O(h)) = 3 on the plane forces h^2 = 1 through the Euler form.
        S = surface(0)
        h = line_divisor(0)
        assert intersect(S, h, h) == 1
        from delpezzo import structure_class

        assert euler_form(S, structure_class(S), line_class(S, h)) == 3
        assert oracle_monomial_count(1) == 3

    def test_k_squared_d2(self):
        S = surface(2)
        K = canonical_divisor(2)
        assert intersect(S, K, K) == 7

    def test_dimension_mismatch(self):
        S = surface(2)
        with pytest.raises(InvalidInputError):
            intersect(S, line_divisor(1), line_divisor(2))

    def test_sum_and_difference_across_surfaces_refused(self):
        D1, D2 = line_divisor(1), line_divisor(2)
        for f in (lambda: D1 + D2, lambda: D1 - D2, lambda: D2 - D1):
            with pytest.raises(InvalidInputError, match="^divisor classes live on different surfaces$"):
                f()

    @pytest.mark.parametrize("n", [True, False, 1.0])
    def test_scalar_multiple_needs_an_int(self, n):
        assert 2 * line_divisor(1) == DivisorClass((2, 0))
        with pytest.raises(TypeError, match="^unsupported operand type"):
            n * line_divisor(1)

    def test_symmetric_and_bilinear(self):
        rng = random.Random(7)
        S = surface(3)
        for _ in range(200):
            C = divisor(*[rng.randint(-6, 6) for _ in range(4)])
            D = divisor(*[rng.randint(-6, 6) for _ in range(4)])
            E = divisor(*[rng.randint(-6, 6) for _ in range(4)])
            m, n = rng.randint(-4, 4), rng.randint(-4, 4)
            assert intersect(S, C, D) == intersect(S, D, C)
            assert intersect(S, m * C + n * D, E) == m * intersect(
                S, C, E
            ) + n * intersect(S, D, E)


class TestCanonicalClass:
    def test_plane(self):
        assert canonical_divisor(0) == divisor(-3)

    @pytest.mark.parametrize("d,expected", [(2, 7), (8, 1)])
    def test_k_squared(self, d, expected):
        S = surface(d)
        K = canonical_divisor(d)
        assert intersect(S, K, K) == expected

    def test_anticanonical_square_is_9_minus_d(self):
        for d in range(9):
            S = surface(d)
            H = anticanonical_divisor(d)
            assert intersect(S, H, H) == 9 - d == S.k_squared


class TestEnumerateRoots:
    def test_d1_empty(self):
        assert enumerate_roots(surface(1)) == []

    def test_d2_two_roots(self):
        roots = enumerate_roots(surface(2))
        assert {r.coeffs for r in roots} == {(0, -1, 1), (0, 1, -1)}

    def test_d3_eight_roots(self):
        assert len(enumerate_roots(surface(3))) == 8

    @pytest.mark.parametrize("d", range(9))
    def test_matches_oracle_and_defining_equations(self, d):
        S = surface(d)
        K = canonical_divisor(d)
        roots = enumerate_roots(S)
        got = {r.coeffs for r in roots}
        assert got == oracle_roots(d)
        for r in roots:
            assert intersect(S, r, r) == -2
            assert intersect(S, r, K) == 0
        assert got == {tuple(-x for x in c) for c in got}

    def test_deterministic_lex_order(self):
        roots = enumerate_roots(surface(4))
        assert [r.coeffs for r in roots] == sorted(r.coeffs for r in roots)


class TestEffectiveRoots:
    def test_declared_root_itself(self):
        S = surface(2, roots=[(0, -1, 1)])
        assert effective_root_decomposition(S, divisor(0, -1, 1)) == (1,)

    def test_negative_of_declared_root(self):
        S = surface(2, roots=[(0, -1, 1)])
        assert effective_root_decomposition(S, divisor(0, 1, -1)) is None

    def test_difference_of_zuev_roots_is_not_effective(self):
        # e1 - e2 and e1 - e3 meet at -1, so they are not both declared;
        # with e1 - e2 alone their difference e2 - e3 is not effective.
        S = surface(3, roots=[(0, -1, 1, 0)])
        assert effective_root_decomposition(S, divisor(0, 0, -1, 1)) is None

    def test_chain_sum_is_connected(self):
        S = surface(3, roots=[(0, -1, 1, 0), (0, 0, -1, 1)])
        assert effective_root_decomposition(S, divisor(0, -1, 0, 1)) is not None

    def test_root_outside_declared_span(self):
        S = surface(3, roots=[(0, -1, 1, 0)])
        # h - e1 - e2 - e3 is a root but not a combination of e1 - e2.
        assert effective_root_decomposition(S, divisor(1, 1, 1, 1)) is None

    def test_no_declared_roots_means_nothing_effective(self):
        S = surface(2)
        assert effective_root_decomposition(S, divisor(0, -1, 1)) is None

    def test_decomposition_reported(self):
        S = surface(3, roots=[(0, -1, 1, 0), (0, 0, -1, 1)])
        assert effective_root_decomposition(S, divisor(0, -1, 0, 1)) == (1, 1)

    def test_declared_root_validation(self):
        with pytest.raises(InvalidInputError):
            surface(2, roots=[(1, 0, 0)])


# Configurations no surface with -K nef has, each with the words its
# refusal names.  In the cycle e1 - e2, e2 - e3, e3 - e1 every two roots
# meet at 1, so only the positivity check refuses it: e3 - e1 is not
# positive.
REFUSED = {
    "opposite": (3, [(0, -1, 1, 0), (0, 1, -1, 0)], "root 1 (0, 1, -1, 0) is not positive"),
    "repeated": (3, [(0, -1, 1, 0), (0, 0, -1, 1), (0, -1, 1, 0)], "roots 0 and 2 are equal"),
    "negative-pairing": (3, [(0, -1, 1, 0), (0, -1, 0, 1)], "roots 0 and 1 meet negatively (-1)"),
    "dependent-cycle": (
        3, [(0, -1, 1, 0), (0, 0, -1, 1), (0, 1, 0, -1)], "root 2 (0, 1, 0, -1) is not positive"
    ),
    "d-plus-one": (
        3, [(0, -1, 1, 0), (0, 0, -1, 1), (1, 1, 1, 1), (0, 1, -1, 0)], "declared 4 roots"
    ),
    "not-a-root": (2, [(0, -1, 1), (1, 0, 0)], "root 1 (1, 0, 0) is not a -2-class"),
}


class TestConfigurationRefused:
    @pytest.mark.parametrize("d, roots, words", REFUSED.values(), ids=list(REFUSED))
    def test_refusal_names_the_roots(self, d, roots, words):
        assert not oracle_valid_configuration(d, roots)
        with pytest.raises(InvalidInputError, match=re.escape(words)):
            surface(d, roots)

    def test_a_huge_list_is_refused_before_any_pairwise_work(self):
        roots = (divisor(0, -1, 1),) * 100_000
        start = time.monotonic()
        with pytest.raises(InvalidInputError, match="declared 100000 roots"):
            Surface(2, roots)
        assert time.monotonic() - start < 0.1

    def test_a_tuple_is_not_a_root(self):
        with pytest.raises(InvalidInputError, match="root 0 is not a divisor class"):
            Surface(2, ((0, -1, 1),))

    def test_surface_accepts_exactly_the_valid_configurations(self):
        # Valid configurations, each with one more root, one root negated
        # or one root repeated.
        rng = random.Random(23)
        seen = {True: 0, False: 0}
        for d in range(2, 9):
            roots = sorted(oracle_roots(d))
            for simple in random_valid_configurations(d, 12, seed=100 + d):
                i = rng.randrange(len(simple))
                negated = simple[:i] + [tuple(-x for x in simple[i])] + simple[i + 1:]
                for variant in (
                    simple, simple + [rng.choice(roots)], negated, simple + [simple[i]]
                ):
                    valid = oracle_valid_configuration(d, variant)
                    seen[valid] += 1
                    if valid:
                        assert surface(d, variant).d == d
                    else:
                        with pytest.raises(InvalidInputError):
                            surface(d, variant)
        assert min(seen.values()) > 50, seen

    def test_blow_down_keeps_e8_valid_down_to_the_plane(self):
        S = surface(8, E8_SIMPLE_ROOTS)
        sizes = []
        while S.d:
            S = blow_down_surface(S)
            simple = [r.coeffs for r in S.effective_simple_roots]
            assert oracle_valid_configuration(S.d, simple)
            sizes.append(len(simple))
        # E7, E6, D5, A4, A2 x A1, A1, and nothing on d = 1 and P^2.
        assert sizes == [7, 6, 5, 4, 3, 1, 0, 0]


def _pairwise_non_negative(simple) -> bool:
    return all(_form(p, q) >= 0 for p, q in itertools.combinations(simple, 2))


class TestPositivityGivesIndependence:
    """Positive roots that meet pairwise non-negatively are linearly
    independent, so ``Surface`` needs no rank check: these are the facts
    that stand in for one."""

    @pytest.mark.parametrize("d", range(2, 9))
    def test_drawn_configurations_and_their_extensions_have_full_rank(self, d):
        # Each drawn configuration, and each configuration one positive
        # root longer that still meets pairwise non-negatively.
        positive = [p for p in sorted(oracle_roots(d)) if oracle_is_positive(p)]
        for simple in random_valid_configurations(d, 6, seed=200 + d):
            assert _rank(simple) == len(simple)
            for p in positive:
                longer = simple + [p]
                if p not in simple and _pairwise_non_negative(longer):
                    assert _rank(longer) == len(longer), longer

    def test_every_subset_of_e8_has_full_rank(self):
        for mask in range(1 << len(E8_SIMPLE_ROOTS)):
            subset = [p for i, p in enumerate(E8_SIMPLE_ROOTS) if mask >> i & 1]
            assert _rank(subset) == len(subset)

    @pytest.mark.parametrize("d", range(5))
    def test_every_pairwise_non_negative_set_of_positive_roots(self, d):
        positive = [p for p in sorted(oracle_roots(d)) if oracle_is_positive(p)]
        assert len(positive) == [0, 0, 1, 4, 10][d]
        independent = 0
        for mask in range(1 << len(positive)):
            subset = [p for i, p in enumerate(positive) if mask >> i & 1]
            if _pairwise_non_negative(subset):
                assert _rank(subset) == len(subset), subset
                independent += 1
        assert independent > len(positive)

    @pytest.mark.parametrize("d", range(9))
    def test_half_the_roots_are_positive_and_none_meets_h_or_e_d_negatively(self, d):
        S = surface(d)
        roots = enumerate_roots(S)
        positive = []
        for C in roots:
            try:
                Surface(d, (C,))
            except InvalidInputError as exc:
                assert "is not positive" in str(exc)
                assert oracle_is_positive(C.coeffs) is False
            else:
                assert oracle_is_positive(C.coeffs) is True
                positive.append(C)
        assert 2 * len(positive) == len(roots)
        for C in positive:
            assert intersect(S, line_divisor(d), C) >= 0
            assert intersect(S, C, exceptional_divisor(d, d)) >= 0


class TestNonPositiveRootsRefused:
    """A root with h.C < 0, and e_j - e_i with i < j, which would make e_d
    reducible."""

    @pytest.mark.parametrize(
        "d, root",
        [(3, (-1, -1, -1, -1)), (2, (0, 1, -1))],
        ids=["h-negative", "e2-minus-e1"],
    )
    def test_refused_naming_root_zero(self, d, root):
        assert not oracle_valid_configuration(d, [root])
        words = f"declared root 0 {root} is not positive"
        with pytest.raises(InvalidInputError, match=re.escape(words)):
            Surface(d, (divisor(*root),))

    def test_blow_down_drops_a_root_through_e_d(self):
        # e1 - e2 meets e2 at 1, so it has no image on the blow-down.
        S = surface(2, [(0, -1, 1)])
        assert intersect(S, S.effective_simple_roots[0], exceptional_divisor(2, 2)) == 1
        assert blow_down_surface(S) == Surface(1)


def valid_configurations():
    for d in range(2, 9):
        for k, simple in enumerate(random_valid_configurations(d, 6, seed=d)):
            yield pytest.param(d, simple, id=f"d{d}-{k}")
    yield pytest.param(8, E8_SIMPLE_ROOTS, id="E8")


class TestDescentMatchesTheClosureOracle:
    @pytest.mark.parametrize("d, simple", list(valid_configurations()))
    def test_every_root(self, d, simple):
        S = surface(d, simple)
        O = structure_class(S)
        positive = oracle_positive_roots(simple)
        for C in enumerate_roots(S):
            expected = positive.get(C.coeffs)
            assert effective_root_decomposition(S, C) == expected
            kind = classify_pair(S, O, line_class(S, C)).kind
            assert kind is (PairKind.ZERO if expected is None else PairKind.SINGULAR)

    def test_e8_has_120_positive_roots_up_to_the_highest(self):
        S = surface(8, E8_SIMPLE_ROOTS)
        decompositions = [effective_root_decomposition(S, C) for C in enumerate_roots(S)]
        found = [m for m in decompositions if m is not None]
        assert len(found) == len(oracle_positive_roots(E8_SIMPLE_ROOTS)) == 120
        assert max(map(sum, found)) == 29


class TestAnticanonicalDegree:
    def test_matches_the_form_against_h_and_k(self):
        rng = random.Random(11)
        for d in range(9):
            for _ in range(20):
                D = divisor(*(rng.randint(-9, 9) for _ in range(d + 1)))
                h = anticanonical_degree(D)
                assert h == intersect(surface(d), anticanonical_divisor(d), D)
                assert -h == intersect(surface(d), canonical_divisor(d), D)

    def test_surface_without_roots_builds_no_divisor(self, monkeypatch):
        built = []
        monkeypatch.setattr(
            picard_module.DivisorClass, "__post_init__", lambda D: built.append(D)
        )
        for d in range(9):
            Surface(d)
        assert built == []


class TestBlowDown:
    """A class blows down by ``descend_class``, which deletes the e_d
    coordinate of c1."""

    def test_cubic_class(self):
        S = surface(1)
        down = descend_class(S, line_class(S, divisor(3, 0)))
        assert down == line_class(surface(0), divisor(3))

    def test_line_through_point(self):
        S = surface(2)
        down = descend_class(S, line_class(S, divisor(1, 1, 0)))
        assert down == line_class(surface(1), divisor(1, 1))

    def test_nonzero_last_coefficient(self):
        S = surface(1)
        with pytest.raises(DomainError, match="contracted curve"):
            descend_class(S, line_class(S, divisor(1, 1)))

    def test_plane_cannot_blow_down(self):
        S = surface(0)
        with pytest.raises(DomainError, match="nothing left to blow down"):
            descend_class(S, line_class(S, divisor(1)))
        with pytest.raises(DomainError, match="nothing left to blow down"):
            blow_down_surface(S)

    def test_round_trip(self):
        rng = random.Random(3)
        S = surface(4)
        for _ in range(50):
            E = line_class(S, divisor(*([rng.randint(-5, 5) for _ in range(4)] + [0])))
            down = descend_class(S, E)
            assert KClass(down.r, divisor(*down.c1.coeffs, 0), down.two_ch2) == E

    def test_blow_down_surface_keeps_untouched_roots(self):
        S = surface(3, roots=[(0, -1, 1, 0), (0, 0, -1, 1)])
        S1 = blow_down_surface(S)
        assert S1.d == 2
        assert [r.coeffs for r in S1.effective_simple_roots] == [(0, -1, 1)]


class TestSurfaceValidation:
    def test_d_out_of_range(self):
        with pytest.raises(InvalidInputError):
            Surface(9)
        with pytest.raises(InvalidInputError):
            Surface(-1)

    @pytest.mark.parametrize("d", [True, False, 2.0])
    def test_d_must_be_an_int(self, d):
        # json.dumps would write a bool as true, which Surface.from_json refuses.
        with pytest.raises(InvalidInputError, match=r"^need 0 <= d <= 8 blow-ups"):
            Surface(d)

    def test_declared_roots_orthogonal_to_k(self):
        for d in range(1, 9):
            S = surface(d)
            K = canonical_divisor(d)
            for root in enumerate_roots(S):
                assert intersect(S, root, K) == 0

    def test_json_round_trip(self):
        S = surface(3, roots=[(0, -1, 1, 0)])
        assert Surface.from_json(S.to_json()) == S

    @pytest.mark.parametrize(
        "data, words",
        [
            ({"blowups": 2, "effective_roots": [[0, -1, 1]] * 100_000}, "declared 100000 roots"),
            ({"blowups": 9, "effective_roots": [[0, -1, 1]]}, "need 0 <= d <= 8"),
            ({"blowups": -1, "effective_roots": [[0.5]]}, "need 0 <= d <= 8"),
        ],
        ids=["too-many", "d-too-large", "d-negative"],
    )
    def test_json_size_refused_before_any_root_is_built(self, monkeypatch, data, words):
        built = []
        monkeypatch.setattr(
            picard_module.DivisorClass, "__post_init__", lambda D: built.append(D)
        )
        with pytest.raises(InvalidInputError, match=re.escape(words)):
            Surface.from_json(data)
        assert built == []

    def test_json_refusal_order_of_a_long_malformed_list(self):
        # Three roots on d = 2, the second malformed: the count is refused
        # first, then (with the count in range) the malformed root, then
        # the configuration.
        roots = [[0, -1, 1], [0, "x", 1], [0, 1, -1]]
        with pytest.raises(InvalidInputError, match=r"^declared 3 roots: at most d = 2"):
            Surface.from_json({"blowups": 2, "effective_roots": roots})
        with pytest.raises(InvalidInputError, match=r"^bad divisor class \[0, 'x', 1\]"):
            Surface.from_json({"blowups": 2, "effective_roots": roots[:2]})
        with pytest.raises(InvalidInputError, match=r"^declared root 1 \(0, 1, -1\) is not pos"):
            Surface.from_json({"blowups": 2, "effective_roots": roots[::2]})
