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
chi(E_i, E_j) has unit diagonal and zeros below.  One walker names the
first failing entry in row-major order, over all n(n+1)/2 entries or over
one member's row and column, the n that a change of that member alone can
break.  A collection that passes the full scan is certified once.  A
mutation of a certified collection evaluates chi(E,F) alone and walks the
new member's row and column: 1 + n chi and one class built per move.  The
new class is built once, from the integer coordinates of chi*E - F with
the canonical sign already chosen.  ``mutate_pair`` checks its input pair
first (4 chi).  A mutation never classifies its pair.
Rotation and global twist certify the full matrix.  Nothing caches chi.
Braid words act letter by letter.  A foundation of length n extends to
a helix by the twist periodicity  E_{i+sn} = E_i(-sK),  and the helix
axiom L^(n-1) A_s = A_{s-n} is checked by explicit iterated mutation.

Every move is recorded as a replayable ``LogStep`` {kind, params, before,
after}; a ``MutationLog`` of steps serializes to JSON-lines, one step per
line, each with its full states.  A log is written and read once per
distinct member, not per state: ``to_jsonl`` converts each member object
and encodes each state object once, and ``from_jsonl`` builds one class
per distinct member JSON, shared by every state that holds it.  The text
is what json.dumps of each step gives.  Step kinds:

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

from .chern import KClass, curve_class, euler_form, line_class, structure_class, twist
from .errors import DomainError, InvalidInputError, InvariantViolationError
from .pairs import require_equal_slope_pair, require_exceptional_pair
from .picard import (
    DivisorClass,
    Surface,
    canonical_divisor,
    line_divisor,
)
from .values import Value


class Direction(enum.Enum):
    LEFT = "left"
    RIGHT = "right"

    @property
    def letter(self) -> str:
        return "L" if self is Direction.LEFT else "R"


class Collection(Value):
    """Ordered list of K-classes on a fixed surface.

    ``_certified`` records that the collection passed the full
    exceptionality certificate.  It takes no part in construction,
    equality, hashing or JSON; a frozen collection of frozen classes
    cannot go stale.
    """

    __slots__ = ("surface", "members", "_certified")
    _fields = ("surface", "members")

    def __init__(self, surface: Surface, members: tuple[KClass, ...]):
        members = tuple(members)
        n = surface.d + 1
        for m in members:
            if len(m.c1.coeffs) != n:
                raise InvalidInputError("member does not belong to the surface")
        object.__setattr__(self, "surface", surface)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "_certified", False)

    def __len__(self) -> int:
        return len(self.members)

    def to_json(self, memo: dict | None = None) -> dict:
        members = []
        for k, m in enumerate(self.members):
            try:
                members.append(_write_member(m, memo))
            except DomainError as exc:
                raise DomainError(f"member E_{k}: {exc}") from exc
        return {"surface": self.surface.to_json(), "members": members}

    @staticmethod
    def from_json(data: dict, memo: dict | None = None) -> "Collection":
        if not isinstance(data, dict) or not {"surface", "members"} <= set(data):
            raise InvalidInputError("collection JSON needs keys surface, members")
        if not isinstance(data["members"], list):
            raise InvalidInputError("collection members must be a JSON list")
        return Collection(
            Surface.from_json(data["surface"]),
            tuple(_read_member(m, memo) for m in data["members"]),
        )


def _write_member(m: KClass, memo: dict | None) -> dict:
    """m.to_json(); given a memo, once per distinct member object."""
    if memo is None:
        return m.to_json()
    data = memo.get(id(m))
    if data is None:
        data = memo[id(m)] = m.to_json()
    return data


def _read_member(data, memo: dict | None) -> KClass:
    """KClass.from_json(data); given a memo, once per distinct member value.
    A member is looked up only when every value has the exact JSON type
    that ``from_json`` accepts (rank and c1 entries int, ch2 str or int),
    so that True == 1 and 1.0 == 1 cannot let a malformed member share the
    class of a valid one; anything else is read, and refused, as usual."""
    if memo is None or type(data) is not dict:
        return KClass.from_json(data)
    r, c1, ch2 = data.get("r"), data.get("c1"), data.get("ch2")
    if (
        type(r) is not int
        or type(c1) is not list
        or type(ch2) not in (str, int)
        or not set(map(type, c1)) <= {int}
    ):
        return KClass.from_json(data)
    key = (r, tuple(c1), ch2)
    m = memo.get(key)
    if m is None:
        m = memo[key] = KClass.from_json(data)
    return m


class GramViolation(Value):
    """First failing Gram entry: chi(E_i, E_j) = value, expected 1 on the
    diagonal and 0 below it."""

    __slots__ = _fields = ("i", "j", "value")

    def __init__(self, i: int, j: int, value: int):
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "value", value)

    def to_json(self) -> dict:
        return {"i": self.i, "j": self.j, "chi": self.value}


def gram_matrix(c: Collection) -> list[list[int]]:
    """M[i][j] = chi(E_i, E_j)."""
    S = c.surface
    return [[euler_form(S, a, b) for b in c.members] for a in c.members]


def _violation(c: Collection, q: int | None = None) -> GramViolation | None:
    """The first failing Gram entry in row-major order: chi(E_i, E_i) = 1,
    then chi(E_i, E_j) = 0 for j < i.  Given q, only member q's row and
    column, in the same order: the n entries a change of E_q can break."""
    S, members = c.surface, c.members
    for i in range(0 if q is None else q, len(members)):
        if q is None or i == q:
            columns = [i, *range(i)]
        else:
            columns = [q]
        for j in columns:
            value = euler_form(S, members[i], members[j])
            expected = 1 if j == i else 0
            if value != expected:
                return GramViolation(i, j, value)
    return None


def is_numerically_exceptional(c: Collection) -> tuple[bool, GramViolation | None]:
    """Unit diagonal, zeros strictly below.  Returns the first violation in
    row-major scan order, if any."""
    violation = _violation(c)
    return violation is None, violation


def require_numerically_exceptional(c: Collection) -> None:
    """Raise InvalidInputError naming the first failing Gram entry unless c
    is numerically exceptional; free on a collection already certified."""
    if c._certified:
        return
    ok, violation = is_numerically_exceptional(c)
    if not ok:
        raise InvalidInputError(
            "collection is not numerically exceptional: "
            f"chi(E_{violation.i}, E_{violation.j}) = {violation.value}"
        )
    object.__setattr__(c, "_certified", True)


def certify(c: Collection, operation: str, q: int | None = None) -> Collection:
    """Return the output c of ``operation`` once its certificate holds;
    otherwise raise, naming the first failing Gram entry.  The full matrix
    is scanned unless q names the one member the operation changed, whose
    row and column are then all that can fail."""
    violation = is_numerically_exceptional(c)[1] if q is None else _violation(c, q)
    if violation is not None:
        raise InvariantViolationError(
            f"{operation} broke the exceptionality certificate at "
            f"chi(E_{violation.i}, E_{violation.j}) = {violation.value}"
        )
    object.__setattr__(c, "_certified", True)
    return c


def _is_canonical(r: int, hc1: int, coeffs: tuple[int, ...], two_ch2: int) -> bool:
    """Whether the class with these coordinates is the canonical
    representative of its pair {x, -x}: positive rank, else positive
    anticanonical degree H.c1, else lexicographically positive c1, else
    non-negative ch2."""
    if r:
        return r > 0
    if hc1:
        return hc1 > 0
    for coeff in coeffs:
        if coeff:
            return coeff > 0
    return two_ch2 >= 0


def _reflection(a: int, X: KClass, Y: KClass) -> KClass:
    """The canonical representative of +-(a*X - Y), built once from its
    integer coordinates.  A mutation never gives zero: chi(E,F)E = F would
    make chi(F,E) = +-1, which its pair check or certificate rules out."""
    r, hc1, two_ch2 = a * X.r - Y.r, a * X._hc1 - Y._hc1, a * X.two_ch2 - Y.two_ch2
    coeffs = tuple([a * x - y for x, y in zip(X.c1.coeffs, Y.c1.coeffs)])
    if not _is_canonical(r, hc1, coeffs, two_ch2):
        r, coeffs, two_ch2 = -r, tuple([-x for x in coeffs]), -two_ch2
    return KClass(r, DivisorClass(coeffs), two_ch2)


def _reflect(S: Surface, E: KClass, F: KClass, chi_ef: int, direction: Direction):
    """The mutation of an exceptional pair (E, F), given chi(E,F); at equal
    slopes only the forced -2-class equations are checked."""
    if chi_ef == 0 and E.r > 0 and F.r > 0:
        require_equal_slope_pair(S, E, F)
    if direction is Direction.LEFT:
        return _reflection(chi_ef, E, F), E
    return F, _reflection(chi_ef, F, E)


def mutate_pair(
    S: Surface, E: KClass, F: KClass, direction: Direction
) -> tuple[KClass, KClass]:
    """Left: (E, F) -> (L, E) with [L] = +-(chi(E,F)[E] - [F]).
    Right: (E, F) -> (F, R) with [R] = +-(chi(E,F)[F] - [E]).

    Pair check in: the pair must be numerically exceptional, which yields
    chi(E,F) (4 chi); an equal-slope pair of positive ranks must pass the
    forced -2-class equations, and is not classified.  Rank-0 members are
    mutated alike; the output pair is exceptional again by bilinearity.
    """
    return _reflect(S, E, F, require_exceptional_pair(S, E, F), direction)


def mutate_collection(c: Collection, i: int, direction: Direction) -> Collection:
    """Replace the adjacent pair (E_i, E_{i+1}) by its mutation; 1-based i.

    The input must be numerically exceptional: it is certified in full
    unless it already is (every output of this function is), and refused
    with InvalidInputError otherwise.  The move changes one member, the
    new class N (L at position i for a left mutation, R at i+1 for a
    right one); the other member of the new pair keeps its chi with every
    other member and its order among them, and the input's certificate
    holds the rest of the pair check.  So chi(E,F) and N's Gram row and
    column are all that is evaluated: 1 + n chi per move.
    """
    if not 1 <= i < len(c.members):
        raise InvalidInputError(
            f"mutation position {i} out of range for length {len(c.members)}"
        )
    require_numerically_exceptional(c)
    S, E, F = c.surface, c.members[i - 1], c.members[i]
    new_pair = _reflect(S, E, F, euler_form(S, E, F), direction)
    out = Collection(S, c.members[: i - 1] + new_pair + c.members[i + 1 :])
    return certify(out, "mutation", i - 1 if direction is Direction.LEFT else i)


class BraidWord(Value):
    """Sequence of (position, direction) letters, applied left to right.
    Text form: letters like 'L1 R2' separated by spaces."""

    __slots__ = _fields = ("letters",)

    def __init__(self, letters: tuple[tuple[int, Direction], ...]):
        letters = tuple(letters)
        for pos, direction in letters:
            if not isinstance(pos, int) or pos < 1:
                raise InvalidInputError(f"braid position {pos} must be >= 1")
            if not isinstance(direction, Direction):
                raise InvalidInputError("braid letter needs a Direction")
        object.__setattr__(self, "letters", letters)

    def __str__(self) -> str:
        return " ".join(f"{d.letter}{p}" for p, d in self.letters)

    @staticmethod
    def parse(text: str) -> "BraidWord":
        """Read letters L<i> or R<i> (l, r too) separated by ASCII spaces;
        a run of spaces, or spaces at either end, count as one separator.
        Any other character between letters, a tab or a Unicode space
        among them, makes a letter bad."""
        letters = []
        for token in filter(None, text.split(" ")):
            m = re.fullmatch(r"([LlRr])(0|[1-9][0-9]*)", token)
            if not m:
                raise InvalidInputError(f"bad braid letter {token!r}")
            try:
                position = int(m.group(2))
            except ValueError as exc:  # past the int-from-string digit limit
                raise InvalidInputError(
                    f"braid position of {len(m.group(2))} digits is too long"
                ) from exc
            direction = Direction.LEFT if m.group(1) in "Ll" else Direction.RIGHT
            letters.append((position, direction))
        return BraidWord(tuple(letters))


State = Collection | KClass


def _state_to_json(state: State, memo: dict | None = None) -> dict:
    if isinstance(state, Collection):
        return {"collection": state.to_json(memo)}
    return {"class": _write_member(state, memo)}


def _state_from_json(data: dict, memo: dict | None) -> State:
    if not isinstance(data, dict):
        raise InvalidInputError("log state must be a JSON object")
    if "collection" in data:
        return Collection.from_json(data["collection"], memo)
    if "class" in data:
        return _read_member(data["class"], memo)
    raise InvalidInputError("log state must be a collection or a class")


class LogStep(Value):
    __slots__ = _fields = ("kind", "params", "before", "after")

    def __init__(self, kind: str, params: dict, before: State, after: State):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "before", before)
        object.__setattr__(self, "after", after)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params,
            "before": _state_to_json(self.before),
            "after": _state_to_json(self.after),
        }

    @staticmethod
    def from_json(data: dict, memo: dict | None = None) -> "LogStep":
        if not isinstance(data, dict) or not {"kind", "before", "after"} <= set(data):
            raise InvalidInputError("log step JSON needs keys kind, before, after")
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise InvalidInputError("log step params must be a JSON object")
        return LogStep(
            kind=data["kind"],
            params=dict(params),
            before=_state_from_json(data["before"], memo),
            after=_state_from_json(data["after"], memo),
        )


class MutationLog(Value):
    __slots__ = _fields = ("steps",)

    def __init__(self, steps: tuple[LogStep, ...]):
        object.__setattr__(self, "steps", tuple(steps))

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def to_jsonl(self) -> str:
        """One line per step, json.dumps(step.to_json()) byte for byte.
        Each distinct member is converted once and each distinct state
        encoded once, both by identity; a step's ``before`` is usually the
        previous step's ``after``."""
        members: dict[int, dict] = {}
        states: dict[int, str] = {}

        def encode(state: State) -> str:
            text = states.get(id(state))
            if text is None:
                text = states[id(state)] = json.dumps(_state_to_json(state, members))
            return text

        lines = []
        for s in self.steps:
            before, after = encode(s.before), encode(s.after)
            lines.append(
                f'{{"kind": {json.dumps(s.kind)}, "params": {json.dumps(s.params)}, '
                f'"before": {before}, "after": {after}}}\n'
            )
        return "".join(lines)

    @staticmethod
    def from_jsonl(text: str) -> "MutationLog":
        """Read the lines of ``to_jsonl``, split at "\\n" alone: a JSON string
        may hold U+2028, U+2029 and U+0085 raw, where ``str.splitlines``
        would break it.  Blank lines and a trailing "\\r" are ignored.  A
        member that recurs with the same JSON values is read once and
        shared."""
        steps = []
        members: dict[tuple, KClass] = {}
        for line in text.split("\n"):
            line = line.strip()
            if line:
                try:
                    data = json.loads(line)
                except ValueError as exc:
                    raise InvalidInputError(f"log line is not readable JSON: {exc}") from exc
                steps.append(LogStep.from_json(data, members))
        return MutationLog(tuple(steps))


def apply_braid(c: Collection, w: BraidWord):
    """Apply the word letter by letter; the log records every step.  A
    letter whose new member is past the size budget stops the word."""
    steps = []
    current = c
    for pos, direction in w.letters:
        new = mutate_collection(current, pos, direction)
        q = pos - 1 if direction is Direction.LEFT else pos
        try:
            new.members[q].require_writable()
        except DomainError as exc:  # worded as Collection.to_json words it
            raise DomainError(f"member E_{q}: {exc}") from exc
        params = {"position": pos, "direction": direction.value}
        steps.append(LogStep("mutate", params, current, new))
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


class HelixWitness(Value):
    """Counterexample data for a failed periodicity check."""

    __slots__ = _fields = ("index", "reason", "computed", "expected")

    def __init__(
        self, index: int, reason: str, computed: KClass | None, expected: KClass | None
    ):
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "computed", computed)
        object.__setattr__(self, "expected", expected)


def check_helix_period(foundation: Collection) -> tuple[bool, HelixWitness | None]:
    """Check L^(n-1) A_s = A_{s-n} for every s in one period, by iterated
    left mutation against the twist-extended helix.  The foundation is
    certified once, by ``helix_extend``; each mutation checks its input
    pair and the last class is compared exactly with A_s(K)."""
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
