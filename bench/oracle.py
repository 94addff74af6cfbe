"""Independent answer checks for the benchmark.

Nothing here calls into ``delpezzo``: classes are plain tuples
``(r, c1, t)`` with ``c1`` the coefficient vector (a; b_1..b_d) of
a*h - sum b_i e_i and ``t = 2*ch2`` an integer, and every number is
recomputed from the surface Riemann-Roch formula written out as the
degree-2 part of ch(E^dual) ch(F) td(S), td(S) = (1, -K/2, 1).

Each ``*_failure`` function returns None when the answer passes and a
short check name when it does not; the benchmark counts a returned name
as a failed op.
"""

from __future__ import annotations

import json
from fractions import Fraction

MARKOV_BOUND = 10**12


def form(x: tuple, y: tuple) -> int:
    """h^2 = 1, e_i^2 = -1, mixed products 0."""
    return x[0] * y[0] - sum(a * b for a, b in zip(x[1:], y[1:]))


def anticanonical(d: int) -> tuple:
    return (3,) + (1,) * d


def chi(E: tuple, F: tuple) -> int:
    """chi(E, F) as an integer; raises if the class data are not integral."""
    (re, ce, te), (rf, cf, tf) = E, F
    degree1 = tuple(re * b - rf * a for a, b in zip(ce, cf))
    doubled = (
        2 * re * rf
        + form(anticanonical(len(ce) - 1), degree1)
        + re * tf
        + rf * te
        - 2 * form(ce, cf)
    )
    if doubled % 2:
        raise ValueError("Riemann-Roch gave a half-integer")
    return doubled // 2


def gram(members: list) -> list[list[int]]:
    return [[chi(a, b) for b in members] for a in members]


def twist(E: tuple, D: tuple) -> tuple:
    """E tensor O(D): (r, c1 + rD, 2ch2 + 2 c1.D + r D^2)."""
    r, c, t = E
    return (r, tuple(x + r * y for x, y in zip(c, D)), t + 2 * form(c, D) + r * form(D, D))


def neg(E: tuple) -> tuple:
    return (-E[0], tuple(-x for x in E[1]), -E[2])


def combine(a: int, E: tuple, b: int, F: tuple) -> tuple:
    """a[E] + b[F]."""
    return (
        a * E[0] + b * F[0],
        tuple(a * x + b * y for x, y in zip(E[1], F[1])),
        a * E[2] + b * F[2],
    )


def curve(d: int, i: int, deg: int) -> tuple:
    """[O_{e_i}(deg)]: rank 0, c1 = e_i, chi(O, .) = deg + 1."""
    c = [0] * (d + 1)
    c[i] = -1
    return (0, tuple(c), 2 * deg + 1)


def line(D: tuple) -> tuple:
    return (1, tuple(D), form(D, D))


def basic(d: int) -> list:
    """(O_{e_1}(-1), ..., O_{e_d}(-1), O, O(h), O(2h))."""
    zero = (0,) * (d + 1)
    h = (1,) + (0,) * d
    two_h = (2,) + (0,) * d
    return [curve(d, i, -1) for i in range(1, d + 1)] + [
        line(zero),
        line(h),
        line(two_h),
    ]


# -- conversions from the program's outputs ---------------------------------


def two_ch2(value) -> int:
    q = Fraction(value)
    if (2 * q).denominator != 1:
        raise ValueError(f"2*ch2 is not an integer: {value!r}")
    return int(2 * q)


def from_kclass(k) -> tuple:
    """Read a program K-class by its public fields only."""
    return (k.r, tuple(k.c1.coeffs), two_ch2(k.ch2))


def from_json(doc: dict) -> tuple:
    return (int(doc["r"]), tuple(int(x) for x in doc["c1"]), two_ch2(doc["ch2"]))


def to_json(E: tuple) -> dict:
    q = Fraction(E[2], 2)
    return {"r": E[0], "c1": list(E[1]), "ch2": f"{q.numerator}/{q.denominator}"}


def frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def int_bits(E: tuple) -> int:
    return max(abs(x).bit_length() for x in (E[0], E[2], *E[1]))


# -- checkers ----------------------------------------------------------------


def triangular_failure(matrix: list[list[int]]) -> str | None:
    """Unit diagonal, zeros strictly below."""
    for i, row in enumerate(matrix):
        if row[i] != 1 or any(row[j] != 0 for j in range(i)):
            return "gram"
    return None


def gram_failure(members: list) -> str | None:
    """Unit diagonal and zeros below, computing only those entries."""
    for i, a in enumerate(members):
        if chi(a, a) != 1 or any(chi(a, members[j]) != 0 for j in range(i)):
            return "gram"
    return None


def markov_failure(ranks, tree: set | None = None) -> str | None:
    """x^2 + y^2 + z^2 = 3xyz in positive integers; a triple with every
    coordinate under MARKOV_BOUND must also be in ``tree`` (sorted)."""
    x, y, z = ranks
    if min(ranks) < 1 or x * x + y * y + z * z != 3 * x * y * z:
        return "markov"
    if tree is not None and max(ranks) <= MARKOV_BOUND:
        if tuple(sorted(ranks)) not in tree:
            return "markov-tree"
    return None


def markov_triples(limit: int) -> set[tuple[int, int, int]]:
    """Sorted solutions with max <= limit, by Vieta jumps from (1, 1, 1);
    every solution is reached by lowering its largest coordinate."""
    found = set()
    stack = [(1, 1, 1)]
    while stack:
        t = stack.pop()
        if t in found:
            continue
        found.add(t)
        x, y, z = t
        for child in ((x, y, 3 * x * y - z), (x, z, 3 * x * z - y), (y, z, 3 * y * z - x)):
            s = tuple(sorted(child))
            if s[2] <= limit and s[0] >= 1 and s not in found:
                stack.append(s)
    return found


def same_up_to_sign(E: tuple, F: tuple) -> bool:
    return E == F or E == neg(F)


def mutated(members: list, position: int, direction: str) -> list:
    """Left: (E, F) -> (chi(E,F)E - F, E); right: (E, F) -> (F, chi(E,F)F - E).
    Signs are left to the caller, who compares up to sign."""
    i = position - 1
    E, F = members[i], members[i + 1]
    c = chi(E, F)
    if direction == "left":
        pair = [combine(c, E, -1, F), E]
    else:
        pair = [F, combine(c, F, -1, E)]
    return members[:i] + pair + members[i + 2 :]


def _state(doc: dict):
    if "collection" in doc:
        return [from_json(m) for m in doc["collection"]["members"]]
    return from_json(doc["class"])


def log_failure(text: str, start: list, end) -> str | None:
    """A JSON-lines log must chain from ``start`` to ``end`` state by state,
    every state in it that is a collection must be unit upper-triangular,
    and every mutate step must match the reflection formula up to sign."""
    try:
        steps = [json.loads(line) for line in text.splitlines() if line.strip()]
        states = [(_state(s["before"]), _state(s["after"]), s) for s in steps]
    except (ValueError, KeyError, TypeError):
        return "log-parse"
    current = start
    for before, after, step in states:
        if before != current:
            return "log-chain"
        if isinstance(after, list) and gram_failure(after):
            return "log-gram"
        if step["kind"] == "mutate":
            params = step["params"]
            expect = mutated(before, int(params["position"]), params["direction"])
            if len(expect) != len(after) or not all(
                same_up_to_sign(a, b) for a, b in zip(expect, after)
            ):
                return "log-mutate"
        current = after
    return None if current == end else "log-end"


def descent_failure(text: str, d: int) -> str | None:
    """The peel step must subtract alpha = chi(F, O_e(-1)) copies of O_e(-1)
    from F = sum mults * members, leaving G with c1.e = 0, chi(G, O_e(-1)) = 0
    and chi(O_e(-1), G) = -rank G; the descend step must drop e's coordinate."""
    steps = {}
    for line in text.splitlines():
        if line.strip():
            step = json.loads(line)
            steps[step["kind"]] = step
    if "peel" not in steps or "descend" not in steps:
        return "descent-steps"
    peel = steps["peel"]
    members = _state(peel["before"])
    mults, e, alpha = peel["params"]["mults"], peel["params"]["e_index"], peel["params"]["alpha"]
    F = (0, (0,) * (d + 1), 0)
    for k, E in zip(mults, members):
        F = combine(1, F, k, E)
    L = curve(d, e, -1)
    G = combine(1, F, -alpha, L)
    if len(mults) != len(members) or chi(F, L) != alpha or _state(peel["after"]) != G:
        return "descent-peel"
    if G[1][e] != 0 or chi(G, L) != 0 or chi(L, G) != -G[0]:
        return "descent-peel"
    descend = steps["descend"]
    down = (G[0], G[1][:e] + G[1][e + 1:], G[2])
    if _state(descend["before"]) != G or _state(descend["after"]) != down:
        return "descent-drop"
    return None


def slope_key(E: tuple, A: tuple) -> tuple:
    """(H.c1, A.c1, 2 ch2) / r for comparison; r > 0."""
    H = anticanonical(len(E[1]) - 1)
    r = E[0]
    return (Fraction(form(H, E[1]), r), Fraction(form(A, E[1]), r), Fraction(E[2], r))


def hn_blocks(quotients: list, A: tuple) -> list:
    """Coarsen (class, mult) quotients, top first, into blocks whose slopes
    strictly increase towards the end; merged blocks become one class of
    multiplicity 1."""
    blocks: list[tuple[tuple, int]] = []
    for q, m in reversed(quotients):
        total, mult = q, m
        while blocks and slope_key(total, A) >= slope_key(blocks[-1][0], A):
            right, right_m = blocks.pop()
            total, mult = combine(mult, total, right_m, right), 1
        blocks.append((total, mult))
    return blocks[::-1]


def hn_failure(quotients: list, A: tuple, result: list) -> str | None:
    """``result`` must equal the coarsening above and have strictly
    increasing slopes."""
    if result != hn_blocks(quotients, A):
        return "hn"
    keys = [slope_key(q, A) for q, _ in result]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        return "hn-order"
    return None
