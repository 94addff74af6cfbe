"""Shared builders and independent oracles for the test suite.

Every oracle here is coded against the defining property it checks, on a
different algorithmic path from the library, so the two sides of each
comparison stay independent.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from delpezzo import (
    Collection,
    DivisorClass,
    KClass,
    Surface,
    anticanonical_divisor,
    structure_class,
)


def surface(d: int, roots=()) -> Surface:
    return Surface(d, tuple(DivisorClass(tuple(r)) for r in roots))


def divisor(*coeffs: int) -> DivisorClass:
    return DivisorClass(tuple(coeffs))


def line_bundle(S: Surface, *coeffs: int) -> KClass:
    D = DivisorClass(tuple(coeffs))
    from delpezzo import line_class

    return line_class(S, D)


def random_kclass(rng: random.Random, d: int, max_rank: int = 6) -> KClass:
    """A random class satisfying the integrality invariant, rank >= 1."""
    r = rng.randint(1, max_rank)
    c1 = DivisorClass(tuple(rng.randint(-5, 5) for _ in range(d + 1)))
    c2 = rng.randint(-10, 10)
    from delpezzo import intersect

    return KClass(r, c1, intersect(Surface(d), c1, c1) - 2 * c2)


# ---------------------------------------------------------------- oracles


def oracle_chi_product_form(S: Surface, E: KClass, F: KClass) -> Fraction:
    """Riemann-Roch in product shape:
    rE rF (chi(O) + (mu(F) - mu(E))/2 + q(F) + q(E) - c1E.c1F/(rE rF)),
    with chi(O) = 1, mu = H.c1/r, q = ch2/r.  Needs nonzero ranks."""
    from delpezzo import intersect

    H = anticanonical_divisor(S.d)
    mu_e = Fraction(intersect(S, H, E.c1), E.r)
    mu_f = Fraction(intersect(S, H, F.c1), F.r)
    q_e = Fraction(E.ch2, E.r)
    q_f = Fraction(F.ch2, F.r)
    dot_c1 = Fraction(intersect(S, E.c1, F.c1), E.r * F.r)
    return E.r * F.r * (1 + Fraction(mu_f - mu_e, 2) + q_f + q_e - dot_c1)


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
            from delpezzo import compare_slope

            if compare_slope(u, v) >= 0:
                ok = False
                break
        if ok:
            from delpezzo import compare_slope

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
    from delpezzo import basic_collection

    return basic_collection(Surface(0))


def ext_seed(h: int):
    """A line-bundle ext seed ([O], [O(D)]) on the 8-fold blow-up with
    chi(E1, E0) = 0 and chi(E0, E1) = -h, found by bounded search over
    D = -h - sum b_i e_i with sum b = h - 3 and sum b^2 = h + 3."""
    from delpezzo import euler_form, line_class

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
    from delpezzo import Direction, mutate_collection

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
