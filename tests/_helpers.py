"""Shared builders and independent oracles for the test suite.

Every oracle here is coded against the defining property it checks, on a
different algorithmic path from the library, so the two sides of each
comparison stay independent.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

from delpezzo import (
    BraidWord,
    Collection,
    Direction,
    DivisorClass,
    DomainError,
    InvalidInputError,
    KClass,
    LogStep,
    MutationLog,
    PairKind,
    Surface,
    anticanonical_divisor,
    apply_braid,
    basic_collection,
    canonical_divisor,
    compare_slope,
    euler_form,
    intersect,
    line_class,
    mutate_collection,
    normalize_and_descend,
    structure_class,
    twist,
)
from delpezzo.pairs import restriction_degree, splitting_degrees


def surface(d: int, roots=()) -> Surface:
    return Surface(d, tuple(DivisorClass(tuple(r)) for r in roots))


def divisor(*coeffs: int) -> DivisorClass:
    return DivisorClass(tuple(coeffs))


def line_bundle(S: Surface, *coeffs: int) -> KClass:
    return line_class(S, DivisorClass(tuple(coeffs)))


def random_kclass(
    rng: random.Random, d: int, max_rank: int = 6, min_rank: int = 1
) -> KClass:
    """A random class satisfying the integrality invariant, with rank in
    [min_rank, max_rank]."""
    r = rng.randint(min_rank, max_rank)
    c1 = DivisorClass(tuple(rng.randint(-5, 5) for _ in range(d + 1)))
    c2 = rng.randint(-10, 10)
    return KClass(r, c1, intersect(Surface(d), c1, c1) - 2 * c2)


# ---------------------------------------------------------------- oracles


def oracle_from_jsonl(text: str) -> MutationLog:
    """The plain log reader: json.loads and LogStep.from_json per line,
    every state and member read from its own text."""
    steps = []
    for line in text.split("\n"):
        line = line.strip()
        if line:
            try:
                data = json.loads(line)
            except ValueError as exc:
                raise InvalidInputError(f"log line is not readable JSON: {exc}") from exc
            steps.append(LogStep.from_json(data))
    return MutationLog(tuple(steps))


def oracle_slope(S: Surface, E: KClass) -> Fraction:
    """The anticanonical slope H.c1/r, with H built and paired through the
    intersection form.  Needs nonzero rank."""
    return Fraction(intersect(S, anticanonical_divisor(S.d), E.c1), E.r)


def oracle_chi_product_form(S: Surface, E: KClass, F: KClass) -> Fraction:
    """Riemann-Roch in product shape:
    rE rF (chi(O) + (mu(F) - mu(E))/2 + q(F) + q(E) - c1E.c1F/(rE rF)),
    with chi(O) = 1, mu = H.c1/r, q = ch2/r.  Needs nonzero ranks."""
    mu_e, mu_f = oracle_slope(S, E), oracle_slope(S, F)
    q_e = Fraction(E.ch2, E.r)
    q_f = Fraction(F.ch2, F.r)
    dot_c1 = Fraction(intersect(S, E.c1, F.c1), E.r * F.r)
    return E.r * F.r * (1 + Fraction(mu_f - mu_e, 2) + q_f + q_e - dot_c1)


def oracle_twice_chi(S: Surface, E: KClass, F: KClass) -> Fraction:
    """2*chi(E, F) from Riemann-Roch in rational arithmetic, with ch2 as a
    fraction and H.c1 through the intersection form:
    2 rE rF + H.(rE c1F - rF c1E) + 2 rE ch2F + 2 rF ch2E - 2 c1E.c1F."""
    H = anticanonical_divisor(S.d)
    return (
        2 * E.r * F.r
        + intersect(S, H, E.r * F.c1 - F.r * E.c1)
        + 2 * E.r * F.ch2
        + 2 * F.r * E.ch2
        - 2 * intersect(S, E.c1, F.c1)
    )


def oracle_rotation_index(
    S: Surface, classes: list[KClass], e_index: int
) -> tuple[int, tuple[int, int]]:
    """The rotate-and-twist index by its definition: build each rotation
    (E_i, ..., E_m, E_1(-K), ..., E_{i-1}(-K)) with explicit twists and
    read the splitting degrees of every class in it."""
    if not classes:
        raise InvalidInputError("rotation index needs a nonempty list")
    slopes = [oracle_slope(S, c) for c in classes]
    if any(a >= b for a, b in zip(slopes, slopes[1:])):
        raise DomainError("rotation index needs strictly increasing slopes")
    minus_k = -canonical_divisor(S.d)
    for i in range(1, len(classes) + 1):
        rotated = classes[i - 1 :] + [twist(S, c, minus_k) for c in classes[: i - 1]]
        degrees: set[int] = set()
        for c in rotated:
            degrees |= splitting_degrees(c.r, restriction_degree(S, c, e_index))
        if max(degrees) - min(degrees) <= 1:
            return i, (min(degrees), max(degrees))
    raise DomainError("no rotation gives a zero-type degree window")


def oracle_pair_kind(S: Surface, E: KClass, F: KClass) -> PairKind | None:
    """Hom or ext of a positive-rank pair read from its anticanonical slopes
    as fractions; None at equal slopes, where the lattice decides."""
    mu_e, mu_f = oracle_slope(S, E), oracle_slope(S, F)
    if mu_e == mu_f:
        return None
    return PairKind.HOM if mu_e < mu_f else PairKind.EXT


def oracle_sign_normalize(x: KClass) -> KClass:
    """The representative of {x, -x} whose first nonzero key is positive:
    rank, anticanonical degree through the intersection form, the c1
    coordinates in order, ch2."""
    S = Surface(x.d)
    keys = [x.r, intersect(S, anticanonical_divisor(x.d), x.c1), *x.c1.coeffs, x.ch2]
    first = next((k for k in keys if k), 0)
    return -x if first < 0 else x


def oracle_serre_twist(S: Surface, E: KClass) -> KClass:
    """E(K) from ch(E) ch(O(K)) = (r, c1 + rK, ch2 + c1.K + r K^2/2)."""
    K = canonical_divisor(S.d)
    return KClass(
        E.r,
        E.c1 + E.r * K,
        E.two_ch2 + 2 * intersect(S, E.c1, K) + E.r * intersect(S, K, K),
    )


def oracle_monomial_count(k: int) -> int:
    """h^0(P^2, O(k)) by counting degree-k monomials in three variables."""
    if k < 0:
        return 0
    return len(list(itertools.combinations_with_replacement(range(3), k)))


def _square_partitions(total: int, max_parts: int, largest: int = 4):
    """Multisets of integers in 1..largest whose squares sum to total."""
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for v in range(min(largest, math.isqrt(total)), 0, -1):
        for rest in _square_partitions(total - v * v, max_parts - 1, v):
            yield (v,) + rest


def oracle_roots(d: int) -> set[tuple[int, ...]]:
    """-2-classes orthogonal to K, enumerated by decomposing the coefficient
    norm into squares and distributing signed values over positions."""
    out: set[tuple[int, ...]] = set()
    for a in range(-4, 5):
        need_sq = a * a + 2
        need_sum = 3 * a
        for values in _square_partitions(need_sq, d):
            padded = values + (0,) * (d - len(values))
            for perm in set(itertools.permutations(padded)):
                nonzero = [i for i, v in enumerate(perm) if v != 0]
                for signs in itertools.product((1, -1), repeat=len(nonzero)):
                    b = list(perm)
                    for i, s in zip(nonzero, signs):
                        b[i] *= s
                    if sum(b) == need_sum:
                        out.add((a,) + tuple(b))
    return out


def _form(p: tuple[int, ...], q: tuple[int, ...]) -> int:
    """h^2 = 1, e_i^2 = -1 on (a; b) coefficient vectors."""
    return p[0] * q[0] - sum(x * y for x, y in zip(p[1:], q[1:]))


def _rank(vectors: list[tuple[int, ...]]) -> int:
    """Rank over Q by Gauss-Jordan elimination on the coefficient vectors."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def oracle_is_positive(p: tuple[int, ...]) -> bool:
    """Whether the first nonzero entry of (a, -b_1, ..., -b_d) is positive."""
    signed = [p[0]] + [-x for x in p[1:]]
    return next((x for x in signed if x != 0), 0) > 0


def oracle_valid_configuration(d: int, simple: list[tuple[int, ...]]) -> bool:
    """Whether ``simple`` can be the irreducible -2-curves of a surface with
    -K nef: at most d classes, each C^2 = -2 with C.K = 0 (sum b = 3a),
    pairwise distinct, meeting non-negatively, positive, and of full rank
    over Q."""
    if len(simple) > d or len(set(simple)) != len(simple):
        return False
    if any(_form(p, p) != -2 or sum(p[1:]) != 3 * p[0] for p in simple):
        return False
    if any(_form(p, q) < 0 for i, p in enumerate(simple) for q in simple[i + 1:]):
        return False
    if not all(map(oracle_is_positive, simple)):
        return False
    return _rank(simple) == len(simple)


def oracle_positive_roots(simple: list[tuple[int, ...]]) -> dict:
    """The positive roots of a valid configuration, each with its
    multiplicities on the simple roots, by closure: start from the simple
    roots and add a simple root beta to a root alpha whenever
    alpha.beta = 1 (alpha + beta is then again a -2-class)."""
    k = len(simple)
    found = {
        beta: tuple(int(i == j) for j in range(k)) for i, beta in enumerate(simple)
    }
    frontier = list(found)
    while frontier:
        new = []
        for alpha in frontier:
            for i, beta in enumerate(simple):
                if _form(alpha, beta) == 1:
                    root = tuple(x + y for x, y in zip(alpha, beta))
                    if root not in found:
                        m = list(found[alpha])
                        m[i] += 1
                        found[root] = tuple(m)
                        new.append(root)
        frontier = new
    return found


# The simple roots e1 - e2, ..., e7 - e8, h - e1 - e2 - e3 of E8 on d = 8.
E8_SIMPLE_ROOTS = [
    (0,) + tuple(-1 if j == i else 1 if j == i + 1 else 0 for j in range(8))
    for i in range(7)
] + [(1, 1, 1, 1, 0, 0, 0, 0, 0)]


def random_valid_configurations(d: int, count: int, seed: int) -> list[list[tuple]]:
    """Seeded valid configurations on d blow-ups: the roots in a random
    order, each kept while the configuration stays valid, up to a random
    size in 1..d."""
    rng = random.Random(seed)
    roots = sorted(oracle_roots(d))
    out = []
    for _ in range(count):
        rng.shuffle(roots)
        size = rng.randint(1, d)
        simple: list[tuple[int, ...]] = []
        for root in roots:
            if len(simple) == size:
                break
            if oracle_valid_configuration(d, simple + [root]):
                simple.append(root)
        out.append(simple)
    return out


def oracle_markov_solutions(limit: int) -> set[tuple[int, int, int]]:
    """All x <= y <= z <= limit with x^2+y^2+z^2 = 3xyz, by solving the
    quadratic in z for each (x, y)."""
    out = set()
    for x in range(1, limit + 1):
        for y in range(x, limit + 1):
            disc = 9 * x * x * y * y - 4 * (x * x + y * y)
            if disc < 0:
                continue
            root = math.isqrt(disc)
            if root * root != disc:
                continue
            for z2 in (3 * x * y - root, 3 * x * y + root):
                if z2 % 2 == 0:
                    z = z2 // 2
                    if y <= z <= limit:
                        out.add((x, y, z))
    return out


def oracle_markov_closure(limit: int) -> set[tuple[int, int, int]]:
    """The sorted solutions with max <= limit, closed under all three Vieta
    jumps from (1, 1, 1): a graph search that assumes no tree shape."""
    found: set[tuple[int, int, int]] = set()
    stack = [(1, 1, 1)]
    while stack:
        t = stack.pop()
        if t in found:
            continue
        found.add(t)
        x, y, z = t
        for jump in ((3 * y * z - x, y, z), (x, 3 * x * z - y, z), (x, y, 3 * x * y - z)):
            s = tuple(sorted(jump))
            if s[2] <= limit:
                stack.append(s)
    return found


def oracle_gram_violation(c: Collection, q: int | None = None):
    """The first failing Gram entry (i, j, chi) or None, by two separate
    loops.  Without q, the row-major scan: chi(E_i, E_i) = 1, then
    chi(E_i, E_j) = 0 for j < i.  With q, the same order restricted to
    member N = E_q: chi(N, N), chi(N, E_p) for p < q, chi(E_p, N) for p > q."""
    S, members = c.surface, c.members
    if q is None:
        for i, a in enumerate(members):
            v = euler_form(S, a, a)
            if v != 1:
                return (i, i, v)
            for j in range(i):
                w = euler_form(S, a, members[j])
                if w != 0:
                    return (i, j, w)
        return None
    N = members[q]
    v = euler_form(S, N, N)
    if v != 1:
        return (q, q, v)
    for p in range(q):
        w = euler_form(S, N, members[p])
        if w != 0:
            return (q, p, w)
    for p in range(q + 1, len(members)):
        w = euler_form(S, members[p], N)
        if w != 0:
            return (p, q, w)
    return None


def oracle_hn_patterns(slopes: list) -> list[list[tuple[int, int]]]:
    """All valid coarsenings of a slope list by adjacent merges.

    A pattern is valid when (i) along the list every block's slope is
    strictly below the next block's and (ii) every block is semistable:
    each proper prefix (a quotient of the block) has slope >= the block's.
    Returns the list of valid patterns as (start, end) index blocks.
    """
    n = len(slopes)
    valid = []
    for mask in range(1 << (n - 1)) if n > 1 else [0]:
        blocks = []
        start = 0
        for gap in range(n - 1):
            if not (mask >> gap) & 1:
                blocks.append((start, gap + 1))
                start = gap + 1
        blocks.append((start, n))

        def block_slope(lo, hi):
            total = slopes[lo]
            for i in range(lo + 1, hi):
                total = total + slopes[i]
            return total

        ok = True
        values = [block_slope(lo, hi) for lo, hi in blocks]
        for u, v in zip(values, values[1:]):
            if compare_slope(u, v) >= 0:
                ok = False
                break
        if ok:
            for (lo, hi), value in zip(blocks, values):
                for cut in range(lo + 1, hi):
                    if compare_slope(block_slope(lo, cut), value) < 0:
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            valid.append(blocks)
    return valid


def p2_basic() -> Collection:
    return basic_collection(Surface(0))


def ext_seed(h: int):
    """A line-bundle ext seed ([O], [O(D)]) on the 8-fold blow-up with
    chi(E1, E0) = 0 and chi(E0, E1) = -h, found by bounded search over
    D = -h - sum b_i e_i with sum b = h - 3 and sum b^2 = h + 3."""
    S = Surface(8)

    def search(idx, remaining_sum, remaining_sq, acc):
        if idx == 8:
            return acc if remaining_sum == 0 and remaining_sq == 0 else None
        for b in range(-4, 5):
            if b * b <= remaining_sq:
                found = search(
                    idx + 1, remaining_sum - b, remaining_sq - b * b, acc + [b]
                )
                if found is not None:
                    return found
        return None

    b = search(0, h - 3, h + 3, [])
    assert b is not None, h
    E0 = structure_class(S)
    E1 = line_class(S, DivisorClass((-1, *b)))
    assert euler_form(S, E1, E0) == 0
    assert euler_form(S, E0, E1) == -h
    return S, E0, E1


def braid_orbit_states(depth: int) -> list[Collection]:
    """Distinct collections reachable from the plane's basic foundation by
    braid words of length <= depth."""
    basic = p2_basic()
    seen = {basic.members: basic}
    frontier = [basic]
    for _ in range(depth):
        new = []
        for c in frontier:
            for pos in (1, 2):
                for direction in (Direction.LEFT, Direction.RIGHT):
                    m = mutate_collection(c, pos, direction)
                    if m.members not in seen:
                        seen[m.members] = m
                        new.append(m)
        frontier = new
    return list(seen.values())


def scrambled_collections(d: int, words: int, seed: int, max_letters: int = 6):
    """Basic collections on d blow-ups after seeded braid words."""
    rng = random.Random(seed)
    c = basic_collection(Surface(d))
    n = len(c.members)
    for _ in range(words):
        word = BraidWord(
            tuple(
                (rng.randint(1, n - 1), rng.choice(list(Direction)))
                for _ in range(rng.randint(0, max_letters))
            )
        )
        yield apply_braid(c, word)[0]


def braid_log() -> MutationLog:
    """The log of the braid word R1 L2 R2 on the plane's basic foundation."""
    _, log = apply_braid(p2_basic(), BraidWord.parse("R1 L2 R2"))
    return log


def scrambled_log() -> MutationLog:
    """A d = 1 pipeline log with order, rotate, twist, peel and descend
    steps."""
    c, _ = apply_braid(basic_collection(Surface(1)), BraidWord.parse("R1 R2 R2"))
    _, log = normalize_and_descend(c)
    return log
