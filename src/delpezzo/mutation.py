"""Mutations, braid words, helices and the exceptionality certificate.

Mutations act on the Grothendieck group: for a numerically exceptional
pair (E, F) the left and right shifts are the reflections

    [L] = +-(chi(E,F) [E] - [F]),      [R] = +-(chi(E,F) [F] - [E]),

with the sign collapsed to a canonical representative (the derived-
category shift ambiguity has no K-theoretic content).  A representative
is chosen by the first nonzero of: rank, anticanonical degree,
lexicographic c1, ch2.  The uniform formula specializes to the expected
behaviour on every pair type: for a zero pair it is the transposition.

An ordered collection is numerically exceptional when its Gram matrix
chi(E_i, E_j) has unit diagonal and zeros below; ``certify`` re-verifies
that certificate after every move on a collection, here and in the
pipeline.  Every chi is evaluated by ``chern.euler_form`` itself: it is
a few integer products on the stored coordinates, so nothing is cached.
Braid words act letter by letter.  A foundation of length n extends to
a helix by the twist periodicity  E_{i+sn} = E_i(-sK),  and the helix
axiom L^(n-1) A_s = A_{s-n} is checked by explicit iterated mutation.

Every move is recorded as a replayable ``LogStep`` {kind, params, before,
after}; a ``MutationLog`` of steps serializes to JSON-lines, one step per
line.  Step kinds:

    mutate   one adjacent mutation        params: position, direction
    order    a whole hom-ordering stage   params: (none)
    rotate   rotate-and-twist             params: j (plus proof data)
    twist    global twist by t*K          params: k_multiple
    peel     subtract the O_e(-1) layer   params: mults, e_index, alpha
    descend  drop the e_d coordinate      params: e_index, surface

``logs.replay`` recomputes the steps.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass
from typing import Union
from .chern import KClass, curve_class, euler_form, line_class, structure_class, twist
from .errors import InvalidInputError, InvariantViolationError
from .pairs import classify_pair, require_exceptional_pair
from .picard import (
    Surface,
    anticanonical_divisor,
    canonical_divisor,
    dot,
    line_divisor,
)


class Direction(enum.Enum):
    LEFT = "left"
    RIGHT = "right"

    @property
    def letter(self) -> str:
        return "L" if self is Direction.LEFT else "R"

    @staticmethod
    def from_str(text: str) -> "Direction":
        t = text.strip().lower()
        if t in ("l", "left"):
            return Direction.LEFT
        if t in ("r", "right"):
            return Direction.RIGHT
        raise InvalidInputError(f"unknown direction {text!r}")


@dataclass(frozen=True)
class Collection:
    """Ordered list of K-classes on a fixed surface."""

    surface: Surface
    members: tuple[KClass, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        for m in self.members:
            if m.d != self.surface.d:
                raise InvalidInputError("member does not belong to the surface")

    def __len__(self) -> int:
        return len(self.members)

    def to_json(self) -> dict:
        return {
            "surface": self.surface.to_json(),
            "members": [m.to_json() for m in self.members],
        }

    @staticmethod
    def from_json(data: dict) -> "Collection":
        if not isinstance(data, dict) or not {"surface", "members"} <= set(data):
            raise InvalidInputError("collection JSON needs keys surface, members")
        return Collection(
            Surface.from_json(data["surface"]),
            tuple(KClass.from_json(m) for m in data["members"]),
        )


@dataclass(frozen=True)
class GramViolation:
    """First failing Gram entry: chi(E_i, E_j) = value, expected 1 on the
    diagonal and 0 below it."""

    i: int
    j: int
    value: int

    def to_json(self) -> dict:
        return {"i": self.i, "j": self.j, "chi": self.value}


def gram_matrix(c: Collection) -> list[list[int]]:
    """M[i][j] = chi(E_i, E_j)."""
    S = c.surface
    return [[euler_form(S, a, b) for b in c.members] for a in c.members]


def is_numerically_exceptional(c: Collection) -> tuple[bool, GramViolation | None]:
    """Unit diagonal, zeros strictly below.  Returns the first violation in
    row-major scan order, if any."""
    S = c.surface
    for i, a in enumerate(c.members):
        v = euler_form(S, a, a)
        if v != 1:
            return False, GramViolation(i, i, v)
        for j in range(i):
            w = euler_form(S, a, c.members[j])
            if w != 0:
                return False, GramViolation(i, j, w)
    return True, None


def require_numerically_exceptional(c: Collection) -> None:
    ok, violation = is_numerically_exceptional(c)
    if not ok:
        assert violation is not None
        raise InvalidInputError(
            "collection is not numerically exceptional: "
            f"chi(E_{violation.i}, E_{violation.j}) = {violation.value}"
        )


def certify(c: Collection, operation: str) -> Collection:
    """Return the output c of ``operation`` once its certificate holds;
    otherwise raise, naming the first failing Gram entry."""
    ok, violation = is_numerically_exceptional(c)
    if not ok:
        raise InvariantViolationError(
            f"{operation} broke the exceptionality certificate at "
            f"chi(E_{violation.i}, E_{violation.j}) = {violation.value}"
        )
    return c


def sign_normalize(S: Surface, x: KClass) -> KClass:
    """Canonical representative of {x, -x}: positive rank, else positive
    anticanonical degree, else lexicographically positive c1, else
    positive ch2."""
    if x.r != 0:
        return x if x.r > 0 else -x
    deg = dot(anticanonical_divisor(S.d), x.c1)
    if deg != 0:
        return x if deg > 0 else -x
    for coeff in x.c1.coeffs:
        if coeff != 0:
            return x if coeff > 0 else -x
    if x.two_ch2 != 0:
        return x if x.two_ch2 > 0 else -x
    raise InvariantViolationError("mutation produced the zero class")


def _checked_pair(S: Surface, first: KClass, second: KClass) -> tuple[KClass, KClass]:
    if (
        euler_form(S, first, first) != 1
        or euler_form(S, second, second) != 1
        or euler_form(S, second, first) != 0
    ):
        raise InvariantViolationError("mutation output is not numerically exceptional")
    return first, second


def mutate_pair(
    S: Surface, E: KClass, F: KClass, direction: Direction
) -> tuple[KClass, KClass]:
    """Left: (E, F) -> (L, E) with [L] = +-(chi(E,F)[E] - [F]).
    Right: (E, F) -> (F, R) with [R] = +-(chi(E,F)[F] - [E]).

    Requires the pair to be numerically exceptional.  When both ranks are
    positive the pair is additionally classified, which rejects
    equal-slope pairs whose invariants are inconsistent; rank-0 members
    (torsion classes) are mutated by the same reflection formula.
    """
    if E.r > 0 and F.r > 0:
        classify_pair(S, E, F)
    else:
        require_exceptional_pair(S, E, F)
    chi_ef = euler_form(S, E, F)
    if direction is Direction.LEFT:
        L = sign_normalize(S, chi_ef * E - F)
        return _checked_pair(S, L, E)
    R = sign_normalize(S, chi_ef * F - E)
    return _checked_pair(S, F, R)


def mutate_collection(c: Collection, i: int, direction: Direction) -> Collection:
    """Replace the adjacent pair (E_i, E_{i+1}) by its mutation; 1-based i.
    The numerically-exceptional certificate is re-verified afterwards."""
    if not 1 <= i < len(c.members):
        raise InvalidInputError(
            f"mutation position {i} out of range for length {len(c.members)}"
        )
    E, F = c.members[i - 1], c.members[i]
    new_pair = mutate_pair(c.surface, E, F, direction)
    members = c.members[: i - 1] + new_pair + c.members[i + 1 :]
    return certify(Collection(c.surface, members), "mutation")


@dataclass(frozen=True)
class BraidWord:
    """Sequence of (position, direction) letters, applied left to right.
    Text form: letters like 'L1 R2' separated by spaces."""

    letters: tuple[tuple[int, Direction], ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        for pos, direction in self.letters:
            if not isinstance(pos, int) or pos < 1:
                raise InvalidInputError(f"braid position {pos} must be >= 1")
            if not isinstance(direction, Direction):
                raise InvalidInputError("braid letter needs a Direction")

    def __str__(self) -> str:
        return " ".join(f"{d.letter}{p}" for p, d in self.letters)

    @staticmethod
    def parse(text: str) -> "BraidWord":
        letters = []
        for token in text.split():
            m = re.fullmatch(r"([LlRr])(\d+)", token)
            if not m:
                raise InvalidInputError(f"bad braid letter {token!r}")
            letters.append((int(m.group(2)), Direction.from_str(m.group(1))))
        return BraidWord(tuple(letters))


State = Union[Collection, KClass]


def _state_to_json(state: State) -> dict:
    if isinstance(state, Collection):
        return {"collection": state.to_json()}
    return {"class": state.to_json()}


def _state_from_json(data: dict) -> State:
    if "collection" in data:
        return Collection.from_json(data["collection"])
    if "class" in data:
        return KClass.from_json(data["class"])
    raise InvalidInputError("log state must be a collection or a class")


@dataclass(frozen=True)
class LogStep:
    kind: str
    params: dict
    before: State
    after: State

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params,
            "before": _state_to_json(self.before),
            "after": _state_to_json(self.after),
        }

    @staticmethod
    def from_json(data: dict) -> "LogStep":
        if not isinstance(data, dict) or not {"kind", "before", "after"} <= set(data):
            raise InvalidInputError("log step JSON needs keys kind, before, after")
        return LogStep(
            kind=data["kind"],
            params=dict(data.get("params", {})),
            before=_state_from_json(data["before"]),
            after=_state_from_json(data["after"]),
        )


@dataclass(frozen=True)
class MutationLog:
    steps: tuple[LogStep, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def to_jsonl(self) -> str:
        return "".join(json.dumps(s.to_json()) + "\n" for s in self.steps)

    @staticmethod
    def from_jsonl(text: str) -> "MutationLog":
        steps = []
        for line in text.splitlines():
            line = line.strip()
            if line:
                steps.append(LogStep.from_json(json.loads(line)))
        return MutationLog(tuple(steps))


def apply_braid(c: Collection, w: BraidWord):
    """Apply the word letter by letter; the log records every step."""
    steps = []
    current = c
    for pos, direction in w.letters:
        new = mutate_collection(current, pos, direction)
        steps.append(
            LogStep(
                kind="mutate",
                params={"position": pos, "direction": direction.value},
                before=current,
                after=new,
            )
        )
        current = new
    return current, MutationLog(tuple(steps))


def helix_extend(foundation: Collection, lo: int, hi: int) -> dict[int, KClass]:
    """Classes E_m for m in [lo, hi] of the helix generated by a foundation
    occupying indices 1..n, via E_{i+sn} = E_i(-sK)."""
    require_numerically_exceptional(foundation)
    n = len(foundation.members)
    if n == 0:
        raise InvalidInputError("empty foundation")
    S = foundation.surface
    K = canonical_divisor(S.d)
    out: dict[int, KClass] = {}
    for m in range(lo, hi + 1):
        i = (m - 1) % n + 1
        s = (m - i) // n
        out[m] = twist(S, foundation.members[i - 1], -s * K)
    return out


@dataclass(frozen=True)
class HelixWitness:
    """Counterexample data for a failed periodicity check."""

    index: int
    reason: str
    computed: KClass | None
    expected: KClass | None


def check_helix_period(foundation: Collection) -> tuple[bool, HelixWitness | None]:
    """Check L^(n-1) A_s = A_{s-n} for every s in one period, by iterated
    left mutation against the twist-extended helix."""
    require_numerically_exceptional(foundation)
    S = foundation.surface
    n = len(foundation.members)
    if n < 2:
        raise InvalidInputError("periodicity needs a foundation of length >= 2")
    helix = helix_extend(foundation, 2 - n, n)
    for s in range(1, n + 1):
        x = helix[s]
        for t in range(1, n):
            partner = helix[s - t]
            try:
                x, _ = mutate_pair(S, partner, x, Direction.LEFT)
            except (InvalidInputError, InvariantViolationError) as exc:
                return False, HelixWitness(s, f"step {t}: {exc}", None, None)
        expected = twist(S, helix[s], canonical_divisor(S.d))
        if x != expected:
            return False, HelixWitness(s, "period mismatch", x, expected)
    return True, None


def basic_collection(S: Surface) -> Collection:
    """The adopted basic collection: torsion classes first, then the three
    line bundles pulled back from the plane,

        (O_{e_1}(-1), ..., O_{e_d}(-1), O, O(h), O(2h)).

    This order passes the chi-triangularity certificate on every d <= 8.
    """
    h = line_divisor(S.d)
    members = [curve_class(S, i, -1) for i in range(1, S.d + 1)]
    members += [structure_class(S), line_class(S, h), line_class(S, 2 * h)]
    return Collection(S, tuple(members))


def basic_collection_torsion_last(S: Surface) -> Collection:
    """The same members with the torsion classes last,

        (O, O(h), O(2h), O_{e_1}(-1), ..., O_{e_d}(-1)).

    For d >= 1 this ordering fails the certificate: the torsion classes
    pair nontrivially backwards onto O (chi = -1).  Kept as the documented
    counterexample ordering.
    """
    h = line_divisor(S.d)
    members = [structure_class(S), line_class(S, h), line_class(S, 2 * h)]
    members += [curve_class(S, i, -1) for i in range(1, S.d + 1)]
    return Collection(S, tuple(members))
