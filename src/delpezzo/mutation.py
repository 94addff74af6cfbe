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
break.  The surface is checked once, by ``Collection``'s constructor, so
the walk reads each entry through ``chern.euler_pairing``, the chi of two
classes known to share a surface.  The certificate has one rule and three
ways in.  An input is certified in full once
(``require_numerically_exceptional``).  A mutation of a certified
collection reads chi(E,F) off the skew form (``chern.skew_form``), as
the certificate fixes chi(F,E) = 0, and walks the new member's row and
column: n chi and one class built per move, from the canonical integer
coordinates of +-(chi*E - F), the sign read off the rank or H.c1 before
c1 is computed.  Each output records the move that undoes it and
the input's members; that move evaluates no chi, builds no class and
returns the recorded members when the member it would build is
canonical (R_i L_i = L_i R_i = id).  A recorded mutate step is checked
on those coordinates and builds no class (``is_recorded_mutation``): the
move's prelude, the untouched members compared (identity first), the new
member's coordinates compared, then the same row-and-column walk
certifies the recorded collection.  A twist, a rotation with its twist
by -K, or a recorded state of another kind equal to a certified
collection carries its certificate with no scan (``carry_certificate``).
``mutate_pair`` checks its input pair first (3 chi).  A mutation never
classifies its pair, and refuses a direction that is not a ``Direction``.
Nothing caches chi.
Braid words act letter by letter.  A foundation of length n extends to
a helix by the twist periodicity  E_{i+sn} = E_i(-sK),  and the helix
axiom L^(n-1) A_s = A_{s-n} is checked by explicit iterated mutation on
integer coordinates (r, 2*ch2, H.c1, *c1): each step reads chi off the
skew form of its pair, two products and no pairing, and each period is
compared with A_{s-n} by canonical coordinates.  A passing check builds
the n twists by K and no other class, unless an equal-slope step needs
one.  The certified foundation makes every window of the helix, mutated
or not, exceptional (twist invariance, Serre duality and the isometry of
a mutation), so no step re-checks its pair, and chi(y, A) = 0 makes
chi(A, y) the skew form.

Every move is recorded as a replayable ``LogStep`` {kind, params, before,
after}; a ``MutationLog`` of steps serializes to JSON-lines, one step per
line, each with its full states.  The text is what json.dumps of each
step gives, and a round trip costs what the steps change, not what the
lines hold.  ``to_jsonl`` writes each distinct member once, by its
class text ``KClass.to_json_text`` (json.dumps's text, written from the
integers), runs json.dumps once per distinct surface and on each step's
kind and params, and joins each distinct state's text once, from those
texts and the literal pieces of the line layout.  ``from_jsonl``
reads a line by the same pieces, by one rule: each distinct state,
surface and member text is built once per log, by json's C scanner, and
a text seen again is that object.  So a log builds one collection per
distinct state text and one class per distinct member text, shared by
every state that holds it.  A line off the layout goes to json.loads and
``LogStep.from_json`` whole.
Step kinds:

    mutate   one adjacent mutation        params: position, direction
    order    a whole hom-ordering stage   params: (none)
    rotate   rotate-and-twist             params: j (plus proof data)
    twist    global twist by t*K          params: k_multiple
    peel     subtract the O_e(-1) layer   params: mults, e_index, alpha
    descend  drop the e_d coordinate      params: e_index, surface

``logs.replay`` checks each mutate step on integers
(``is_recorded_mutation``) and recomputes every other kind; it goes on
from each recorded state it matches, which takes over the certificate.
"""

from __future__ import annotations

import enum
import json
import re

from .chern import (
    KClass,
    curve_class,
    euler_pairing,
    line_class,
    skew_form,
    structure_class,
    twist,
)
from .errors import DomainError, InvalidInputError, InvariantViolationError
from .pairs import require_equal_slope_pair, require_exceptional_pair
from .picard import (
    DivisorClass,
    Surface,
    canonical_divisor,
    line_divisor,
)
from .values import Value, slot_setters


class Direction(enum.Enum):
    LEFT = "left"
    RIGHT = "right"

    @property
    def letter(self) -> str:
        return "L" if self is Direction.LEFT else "R"


class Collection(Value):
    """Ordered list of K-classes on a fixed surface.

    ``_certified`` records that the collection is numerically exceptional,
    as only this module decides, and ``_undo``, on an output of
    ``mutate_collection``, the move that undoes it and the input's member
    tuple.  Neither takes part in construction, equality, hashing, the
    repr or JSON; a frozen collection of frozen classes cannot go stale.
    """

    __slots__ = ("surface", "members", "_certified", "_undo")
    _fields = ("surface", "members")

    def __init__(self, surface: Surface, members: tuple[KClass, ...]):
        members = tuple(members)
        n = surface.d + 1
        for m in members:
            if len(m.c1.coeffs) != n:
                raise InvalidInputError("member does not belong to the surface")
        _set_surface(self, surface)
        _set_members(self, members)
        _set_certified(self, False)
        _set_undo(self, None)

    def __len__(self) -> int:
        return len(self.members)

    def to_json(self) -> dict:
        members = _write_members(KClass.to_json, self.members)
        return {"surface": self.surface.to_json(), "members": members}

    @staticmethod
    def from_json(data: dict) -> "Collection":
        if not isinstance(data, dict) or not {"surface", "members"} <= set(data):
            raise InvalidInputError("collection JSON needs keys surface, members")
        if not isinstance(data["members"], list):
            raise InvalidInputError("collection members must be a JSON list")
        return Collection(
            Surface.from_json(data["surface"]),
            tuple(KClass.from_json(m) for m in data["members"]),
        )


_set_surface, _set_members, _set_certified, _set_undo = slot_setters(Collection)


def _write_members(write, members: tuple[KClass, ...]) -> list:
    """[write(m) for m in members]; a DomainError names the member E_k."""
    out = []
    for k, m in enumerate(members):
        try:
            out.append(write(m))
        except DomainError as exc:
            raise DomainError(f"member E_{k}: {exc}") from exc
    return out


class GramViolation(Value):
    """First failing Gram entry: chi(E_i, E_j) = value, expected 1 on the
    diagonal and 0 below it."""

    __slots__ = _fields = ("i", "j", "value")

    def __init__(self, i: int, j: int, value: int):
        _set_i(self, i)
        _set_j(self, j)
        _set_value(self, value)

    def to_json(self) -> dict:
        return {"i": self.i, "j": self.j, "chi": self.value}


_set_i, _set_j, _set_value = slot_setters(GramViolation)


def gram_matrix(c: Collection) -> list[list[int]]:
    """M[i][j] = chi(E_i, E_j)."""
    members = c.members
    return [[euler_pairing(a, b) for b in members] for a in members]


def _violation(c: Collection, q: int | None = None) -> GramViolation | None:
    """The first failing Gram entry in row-major order: chi(E_i, E_i) = 1,
    then chi(E_i, E_j) = 0 for j < i.  Given q, only member q's row and
    column, in the same order: the n entries a change of E_q can break.
    Every entry is read through ``euler_pairing``: the collection's
    constructor put every member on its surface."""
    members = c.members
    for i in range(len(members)) if q is None else (q,):
        a = members[i]
        value = euler_pairing(a, a)
        if value != 1:
            return GramViolation(i, i, value)
        for j in range(i):
            value = euler_pairing(a, members[j])
            if value:
                return GramViolation(i, j, value)
    if q is not None:
        b = members[q]
        for i in range(q + 1, len(members)):
            value = euler_pairing(members[i], b)
            if value:
                return GramViolation(i, q, value)
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
    _set_certified(c, True)


def carry_certificate(c: Collection, out: Collection) -> Collection:
    """Return ``out``, certified because c is: ``out`` is c twisted (every
    chi is kept), c rotated with its rotated members twisted by -K (Serre
    duality, chi(E, F(K)) = chi(F, E)), or a collection equal to c.  c
    must be numerically exceptional, as ``require_numerically_exceptional``
    decides; ``out`` is never scanned."""
    require_numerically_exceptional(c)
    _set_certified(out, True)
    return out


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


def _canonical_class(r: int, two_ch2: int, hc1: int, coeffs: tuple[int, ...]) -> KClass:
    """The canonical representative of the pair {x, -x}, for the class x
    with these coordinates, built once."""
    if not _is_canonical(r, hc1, coeffs, two_ch2):
        r, coeffs, two_ch2 = -r, tuple([-x for x in coeffs]), -two_ch2
    return KClass(r, DivisorClass(coeffs), two_ch2)


def _reflection(a: int, X: KClass, Y: KClass, build: bool = True):
    """The canonical representative of +-(a*X - Y): the class, built once
    from its integer coordinates, or with build=False those coordinates
    (r, c1 coefficients, 2*ch2) alone.  The sign is read off the rank,
    else off H.c1, before c1 is computed; only a class of rank 0 with
    H.c1 = 0 is left to ``_is_canonical``, which decides by c1 and ch2.
    A mutation never gives zero: chi(E,F)E = F would make chi(F,E) = +-1,
    which its pair check or certificate rules out."""
    r = a * X.r - Y.r
    sign = r or a * X._hc1 - Y._hc1
    pairs = zip(X.c1.coeffs, Y.c1.coeffs)
    if sign > 0:
        coeffs, two_ch2 = tuple([a * x - y for x, y in pairs]), a * X.two_ch2 - Y.two_ch2
    elif sign < 0:
        r, coeffs, two_ch2 = -r, tuple([y - a * x for x, y in pairs]), Y.two_ch2 - a * X.two_ch2
    else:
        coeffs, two_ch2 = tuple([a * x - y for x, y in pairs]), a * X.two_ch2 - Y.two_ch2
        if not _is_canonical(0, 0, coeffs, two_ch2):
            coeffs, two_ch2 = tuple([-x for x in coeffs]), -two_ch2
    if build:
        return KClass(r, DivisorClass(coeffs), two_ch2)
    return r, coeffs, two_ch2


def _reflect(E: KClass, F: KClass, chi_ef: int, direction: Direction, build: bool = True):
    """The mutation of an exceptional pair (E, F), given chi(E,F), with its
    new member as ``_reflection`` gives it: the class, or its coordinates.
    At equal slopes only the forced -2-class equations are checked.
    Anything but a Direction is refused."""
    if chi_ef == 0 and E.r > 0 and F.r > 0:
        require_equal_slope_pair(E, F)
    if direction is Direction.LEFT:
        return _reflection(chi_ef, E, F, build), E
    if direction is Direction.RIGHT:
        return F, _reflection(chi_ef, F, E, build)
    raise InvalidInputError("mutation needs a Direction")


def mutate_pair(
    S: Surface, E: KClass, F: KClass, direction: Direction
) -> tuple[KClass, KClass]:
    """Left: (E, F) -> (L, E) with [L] = +-(chi(E,F)[E] - [F]).
    Right: (E, F) -> (F, R) with [R] = +-(chi(E,F)[F] - [E]).

    Pair check in: the pair must be numerically exceptional, which yields
    chi(E,F) off the skew form (3 chi); an equal-slope pair of positive
    ranks must pass the forced -2-class equations, and is not classified.
    Rank-0 members are mutated alike; the output pair is exceptional again
    by bilinearity.
    """
    return _reflect(E, F, require_exceptional_pair(S, E, F), direction)


def _adjacent_pair(c: Collection, i: int) -> tuple[KClass, KClass, int]:
    """E_i, E_{i+1} and chi(E_i, E_{i+1}) for the move at 1-based position
    i: the position is checked, then c is certified unless it already
    is.  The certificate fixes chi(E_{i+1}, E_i) = 0, so chi(E_i, E_{i+1})
    is the skew form, and no pairing is evaluated."""
    if type(i) is not int or not 1 <= i < len(c.members):
        raise InvalidInputError(
            f"mutation position {i!r} out of range for length {len(c.members)}"
        )
    require_numerically_exceptional(c)
    E, F = c.members[i - 1], c.members[i]
    return E, F, skew_form(E, F)


def _broken_certificate(violation: GramViolation) -> InvariantViolationError:
    """The error of a move whose new member fails its Gram row or column."""
    return InvariantViolationError(
        "mutation broke the exceptionality certificate at "
        f"chi(E_{violation.i}, E_{violation.j}) = {violation.value}"
    )


def mutate_collection(c: Collection, i: int, direction: Direction) -> Collection:
    """Replace the adjacent pair (E_i, E_{i+1}) by its mutation; 1-based i.

    The input must be numerically exceptional: it is certified in full
    unless it already is (every output of this function is), and refused
    with InvalidInputError otherwise.  The move changes one member, the
    new class N (L at position i for a left mutation, R at i+1 for a
    right one); the other member of the new pair keeps its chi with every
    other member and its order among them, and the input's certificate
    holds the rest of the pair check, chi(F,E) = 0 among it, so chi(E,F)
    is the skew form (``chern.skew_form``).  N's Gram row and column are
    all the chi evaluated: n chi per move.

    The output records the move that undoes it (the same position, the
    other direction) and the input's members.  That move, named by an int
    position and a Direction, evaluates no chi, builds no class and returns
    a certified collection of the recorded members, with its own record,
    when the member it would rebuild is canonical.  This is exact: left
    takes (E, F) to (L, E), L = s(aE - F), a = chi(E,F), s = +-1, and
    chi(L, E) = sa, so right then gives (E, canonical(F)); right then left
    gives E back alike.  The recorded members were certified as the input,
    and the equal-slope check is symmetric in the pair, so the inverse
    cannot fail it.  Every other call takes the path above.
    """
    undo = c._undo
    if undo is not None and undo[0] == i and undo[1] is direction and type(i) is int:
        left, members = direction is Direction.LEFT, undo[2]
        m = members[i - 1 if left else i]
        if _is_canonical(m.r, m._hc1, m.c1.coeffs, m.two_ch2):
            out = Collection(c.surface, members)
            _set_certified(out, True)
            _set_undo(out, (i, Direction.RIGHT if left else Direction.LEFT, c.members))
            return out
    E, F, chi_ef = _adjacent_pair(c, i)
    new_pair = _reflect(E, F, chi_ef, direction)
    out = Collection(c.surface, c.members[: i - 1] + new_pair + c.members[i + 1 :])
    left = direction is Direction.LEFT
    violation = _violation(out, i - 1 if left else i)
    if violation is not None:
        raise _broken_certificate(violation)
    _set_certified(out, True)
    _set_undo(out, (i, Direction.RIGHT if left else Direction.LEFT, c.members))
    return out


def is_recorded_mutation(
    before: Collection, i: int, direction: Direction, after: State
) -> bool:
    """Whether ``after`` is ``mutate_collection(before, i, direction)``,
    decided on integers the two collections already hold.

    The move's own prelude runs first, with its refusals: the position,
    the certificate of ``before``, chi(E,F), the equal-slope check and
    the direction.  Then ``after`` must be a collection on the same
    surface whose untouched members, the kept member of the pair among
    them, equal ``before``'s (identity first), and whose new member has
    the rank, 2*ch2 and c1 coefficients of the reflection's canonical
    coordinates; no class is built.  On a match ``after`` is certified by
    its new member's Gram row and column, as the move certifies its
    output, and refused with the move's InvariantViolationError if that
    fails: n chi in all, as per move."""
    E, F, chi_ef = _adjacent_pair(before, i)
    pair = _reflect(E, F, chi_ef, direction, build=False)
    if not isinstance(after, Collection) or len(after.members) != len(before.members):
        return False
    if after.surface is not before.surface and after.surface != before.surface:
        return False
    left = direction is Direction.LEFT
    q, k = (i - 1, i) if left else (i, i - 1)
    (r, coeffs, two_ch2), kept = pair if left else pair[::-1]
    old, new = before.members, after.members
    if new[: i - 1] != old[: i - 1] or new[i + 1 :] != old[i + 1 :]:
        return False
    if new[k] is not kept and new[k] != kept:
        return False
    N = new[q]
    if N.r != r or N.two_ch2 != two_ch2 or N.c1.coeffs != coeffs:
        return False
    violation = _violation(after, q)
    if violation is not None:
        raise _broken_certificate(violation)
    _set_certified(after, True)
    return True


class BraidWord(Value):
    """Sequence of (position, direction) letters, applied left to right.
    Text form: letters like 'L1 R2' separated by spaces."""

    __slots__ = _fields = ("letters",)

    def __init__(self, letters: tuple[tuple[int, Direction], ...]):
        letters = tuple(letters)
        for pos, direction in letters:
            if type(pos) is not int or pos < 1:
                raise InvalidInputError(f"braid position {pos} must be >= 1")
            if not isinstance(direction, Direction):
                raise InvalidInputError("braid letter needs a Direction")
        _set_letters(self, letters)

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


(_set_letters,) = slot_setters(BraidWord)


State = Collection | KClass

# The literal pieces of a log line, shared by the writer and the reader:
#     {"kind": K, "params": P, "before": S, "after": S}
# where a state S is {"collection": {"surface": X, "members": [M, M, ...]}}
# or {"class": M}.
_LINE_OPEN = '{"kind": '
_LINE_PARAMS = ', "params": '
_LINE_BEFORE = ', "before": '
_LINE_AFTER = ', "after": '
_LINE_CLOSE = "}"
_COLLECTION_OPEN = '{"collection": {"surface": '
_COLLECTION_MEMBERS = ', "members": ['
_MEMBER_SEP = ", "
_COLLECTION_CLOSE = "]}}"
_CLASS_OPEN = '{"class": '
_CLASS_CLOSE = "}"


def _state_to_json(state: State) -> dict:
    if isinstance(state, Collection):
        return {"collection": state.to_json()}
    return {"class": state.to_json()}


def _state_from_json(data: dict) -> State:
    if not isinstance(data, dict):
        raise InvalidInputError("log state must be a JSON object")
    if "collection" in data:
        return Collection.from_json(data["collection"])
    if "class" in data:
        return KClass.from_json(data["class"])
    raise InvalidInputError("log state must be a collection or a class")


class LogStep(Value):
    __slots__ = _fields = ("kind", "params", "before", "after")

    def __init__(self, kind: str, params: dict, before: State, after: State):
        _set_kind(self, kind)
        _set_params(self, params)
        _set_before(self, before)
        _set_after(self, after)

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
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise InvalidInputError("log step params must be a JSON object")
        return LogStep(
            kind=data["kind"],
            params=dict(params),
            before=_state_from_json(data["before"]),
            after=_state_from_json(data["after"]),
        )


_set_kind, _set_params, _set_before, _set_after = slot_setters(LogStep)


class MutationLog(Value):
    __slots__ = _fields = ("steps",)

    def __init__(self, steps: tuple[LogStep, ...]):
        _set_steps(self, tuple(steps))

    def __len__(self) -> int:
        return len(self.steps)

    def to_jsonl(self) -> str:
        """One line per step, json.dumps(step.to_json()) byte for byte.
        Each distinct member is written once by ``KClass.to_json_text`` and
        each distinct surface once by json.dumps, both by identity, and
        each distinct state's text is joined from those pieces once; a
        step's ``before`` is usually the previous step's ``after``."""
        pieces: dict[int, str] = {}
        states: dict[int, str] = {}

        def member_text(value: KClass) -> str:
            text = pieces.get(id(value))
            if text is None:
                text = pieces[id(value)] = value.to_json_text()
            return text

        def surface_text(value: Surface) -> str:
            text = pieces.get(id(value))
            if text is None:
                text = pieces[id(value)] = json.dumps(value.to_json())
            return text

        def encode(state: State) -> str:
            text = states.get(id(state))
            if text is None:
                if isinstance(state, Collection):
                    members = _MEMBER_SEP.join(_write_members(member_text, state.members))
                    text = (
                        f"{_COLLECTION_OPEN}{surface_text(state.surface)}"
                        f"{_COLLECTION_MEMBERS}{members}{_COLLECTION_CLOSE}"
                    )
                else:
                    text = f"{_CLASS_OPEN}{member_text(state)}{_CLASS_CLOSE}"
                states[id(state)] = text
            return text

        lines = []
        for s in self.steps:
            before, after = encode(s.before), encode(s.after)
            lines.append(
                f"{_LINE_OPEN}{json.dumps(s.kind)}{_LINE_PARAMS}{json.dumps(s.params)}"
                f"{_LINE_BEFORE}{before}{_LINE_AFTER}{after}{_LINE_CLOSE}\n"
            )
        return "".join(lines)

    @staticmethod
    def from_jsonl(text: str) -> "MutationLog":
        """Read the lines of ``to_jsonl``, split at "\\n" alone: a JSON string
        may hold U+2028, U+2029 and U+0085 raw, where ``str.splitlines``
        would break it.  Blank lines and a trailing "\\r" are ignored.

        A line is read by the layout ``to_jsonl`` writes (see
        ``_read_line``): each distinct state, surface and member text is
        built once per log, and a text seen again is that object.  A line
        off that layout, or one whose layout read raises, goes to the plain
        reader, json.loads and ``LogStep.from_json``, whose result or
        refusal is final."""
        steps = []
        memos: _Memos = ({}, {}, {})
        for line in text.split("\n"):
            line = line.strip()
            if line:
                try:
                    step = _read_line(line, memos)
                except (ValueError, StopIteration):  # StopIteration: no value
                    step = _read_plain(line)
                steps.append(step)
        return MutationLog(tuple(steps))


(_set_steps,) = slot_setters(MutationLog)


def _read_plain(line: str) -> LogStep:
    """json.loads(line) and ``LogStep.from_json``."""
    try:
        data = json.loads(line)
    except ValueError as exc:
        raise InvalidInputError(f"log line is not readable JSON: {exc}") from exc
    return LogStep.from_json(data)


_scan = json.JSONDecoder().scan_once

# The states, surfaces and members of a log read so far, each by its text.
_Memos = tuple[dict[str, State], dict[str, Surface], dict[str, KClass]]


def _expect(line: str, i: int, piece: str) -> int:
    """The offset past ``piece`` at line[i:]; raises if it is not there."""
    if not line.startswith(piece, i):
        raise ValueError(f"log line off the layout at offset {i}")
    return i + len(piece)


def _read_line(line: str, memos: _Memos) -> LogStep:
    """The step of a line in the layout ``to_jsonl`` writes; raises on a
    line off the layout."""
    i = _expect(line, 0, _LINE_OPEN)
    kind, i = _scan(line, i)
    params, i = _scan(line, _expect(line, i, _LINE_PARAMS))
    if type(params) is not dict:
        raise ValueError("log step params off the layout")
    before, i = _read_state(line, _expect(line, i, _LINE_BEFORE), memos)
    after, i = _read_state(line, _expect(line, i, _LINE_AFTER), memos)
    if _expect(line, i, _LINE_CLOSE) != len(line):
        raise ValueError("trailing data after a log line")
    return LogStep(kind, params, before, after)


def _read_state(line: str, i: int, memos: _Memos) -> tuple[State, int]:
    """The state at line[i:] and the offset past it.  A collection state
    ends at the first "]}}" and a class state at the first "}}"; the state
    is built once per distinct text.  A collection's surface ends at the
    first members piece, and each member at the first "}, " after it
    starts, the last at the "]}}"; each is built once per distinct text.

    Each piece must parse whole, so a cut that falls inside a string or a
    nested object raises; a piece that does is a JSON value, which ends
    where its text does, and equal texts are equal values, so sharing by
    text needs no type guard."""
    states, surfaces, members = memos
    is_collection = line.startswith(_COLLECTION_OPEN, i)
    close = _COLLECTION_CLOSE if is_collection else "}" + _CLASS_CLOSE
    end = line.find(close, i)
    if end < 0:
        raise ValueError("log state off the layout")
    end += len(close)
    text = line[i:end]
    state = states.get(text)
    if state is not None:
        return state, end
    if is_collection:
        body = text[len(_COLLECTION_OPEN) : -len(_COLLECTION_CLOSE)]
        surface, found, segment = body.partition(_COLLECTION_MEMBERS)
        # The members less their closing braces, then an empty remainder.
        texts = (segment + _MEMBER_SEP).split("}" + _MEMBER_SEP) if segment else [""]
        if not found or texts.pop():
            raise ValueError("log state off the layout")
        state = Collection(
            _read_value(surface, surfaces, Surface.from_json),
            tuple([_read_value(m + "}", members, KClass.from_json) for m in texts]),
        )
    else:
        member = text[_expect(text, 0, _CLASS_OPEN) : -len(_CLASS_CLOSE)]
        state = _read_value(member, members, KClass.from_json)
    states[text] = state
    return state, end


def _read_value(text: str, memo: dict, from_json):
    """from_json of the JSON value whose whole text is ``text``, built once
    per distinct text and shared through ``memo``."""
    value = memo.get(text)
    if value is None:
        data, end = _scan(text, 0)
        if end != len(text):
            raise ValueError("trailing data after a log value")
        value = memo[text] = from_json(data)
    return value


def apply_braid(c: Collection, w: BraidWord):
    """Apply the word letter by letter; the log records every step.  A
    letter whose new member is past the size budget stops the word.  The
    input must be numerically exceptional, as for ``mutate_collection``,
    even when the word is empty.  A letter that undoes the letter before
    it, as L1 R1, evaluates no chi and gives the earlier state's members
    (see ``mutate_collection``)."""
    require_numerically_exceptional(c)
    steps = []
    current = c
    for pos, direction in w.letters:
        new = mutate_collection(current, pos, direction)
        q = pos - 1 if direction is Direction.LEFT else pos
        try:
            new.members[q].require_writable()
        except DomainError as exc:  # worded as _write_members words it
            raise DomainError(f"member E_{q}: {exc}") from exc
        params = {"position": pos, "direction": direction.value}
        steps.append(LogStep("mutate", params, current, new))
        current = new
    return current, MutationLog(tuple(steps))


def helix_extend(foundation: Collection, lo: int, hi: int) -> dict[int, KClass]:
    """Classes E_m for m in [lo, hi] of the helix generated by a foundation
    occupying indices 1..n, via E_{i+sn} = E_i(-sK); for s = 0 that is
    the foundation's own member, not a twist of it.  -sK is built once
    per s."""
    require_numerically_exceptional(foundation)
    n = len(foundation.members)
    if n == 0:
        raise InvalidInputError("empty foundation")
    if type(lo) is not int or type(hi) is not int:
        raise InvalidInputError(f"helix bounds {lo!r}, {hi!r} must be integers")
    S = foundation.surface
    K = canonical_divisor(S.d)
    # E_m has s = (m - 1) // n.
    shifts = {s: -s * K for s in range((lo - 1) // n, (hi - 1) // n + 1) if s}
    out: dict[int, KClass] = {}
    for m in range(lo, hi + 1):
        i = (m - 1) % n + 1
        s = (m - i) // n
        E = foundation.members[i - 1]
        out[m] = twist(S, E, shifts[s]) if s else E
    return out


class HelixWitness(Value):
    """Counterexample data for a failed periodicity check."""

    __slots__ = _fields = ("index", "reason", "computed", "expected")

    def __init__(
        self, index: int, reason: str, computed: KClass | None, expected: KClass | None
    ):
        _set_index(self, index)
        _set_reason(self, reason)
        _set_computed(self, computed)
        _set_expected(self, expected)


_set_index, _set_reason, _set_computed, _set_expected = slot_setters(HelixWitness)


def check_helix_period(foundation: Collection) -> tuple[bool, HelixWitness | None]:
    """Check L^(n-1) A_s = A_{s-n} for every s in one period, by iterated
    left mutation against the helix A_{1-n}, ..., A_n extended from the
    foundation, n twists by K.  The foundation is certified once, by
    ``helix_extend``.

    The chain runs on integer coordinates y = (r, 2*ch2, H.c1, *c1),
    all linear: each step reads chi(A_{s-t}, y) off the skew form of the
    partner p and y, p_r y_hc1 - y_r p_hc1, and sets
    y <- chi(A_{s-t}, y) A_{s-t} - y, which is the mutation up to sign.
    Each period's y is taken to its canonical sign (``_is_canonical``)
    and compared with the coordinates of A_{s-n} = A_s(K), read once off
    the helix; a class is built only for a ``HelixWitness``.

    No step re-checks its pair: chi is unchanged by a twist and
    chi(E, F(K)) = chi(F, E) (Serre duality), so every window
    A_{s-n+1}, ..., A_s of the helix of a certified foundation is
    numerically exceptional, and a mutation is an isometry, so every
    partly mutated window is too: chi(y, A_{s-t}) = 0 makes chi(A_{s-t}, y)
    the skew form, and no step evaluates a pairing.  Only an equal-slope
    pair's forced -2-class equations are checked, as in every mutation: at
    a step with chi = 0 whose partner and class (A_s itself at step 1, the
    canonical sign later) have positive ranks, that class is built and
    checked."""
    n = len(foundation.members)
    if n < 2:
        raise InvalidInputError("periodicity needs a foundation of length >= 2")
    # A_m sits at index m + n - 1: A_{1-n} at 0, A_s (1 <= s <= n) at s + n - 1.
    helix = list(helix_extend(foundation, 1 - n, n).values())
    coords = [(E.r, E.two_ch2, E.hc1, *E.c1.coeffs) for E in helix]
    for s in range(1, n + 1):
        j = s + n - 1
        y = coords[j]
        for t in range(1, n):
            p = j - t  # the partner A_{s-t}
            a = coords[p]
            chi = a[0] * y[2] - y[0] * a[2]
            if not chi and helix[p].r > 0 and y[0]:
                # A_s enters step 1 as it is; later classes take the canonical sign.
                x = helix[j] if t == 1 else _canonical_class(y[0], y[1], y[2], y[3:])
                if x.r > 0:
                    try:
                        require_equal_slope_pair(helix[p], x)
                    except (InvalidInputError, InvariantViolationError) as exc:
                        return False, HelixWitness(s, f"step {t}: {exc}", None, None)
            y = tuple([chi * u - v for u, v in zip(a, y)])
        if not _is_canonical(y[0], y[2], y[3:], y[1]):
            y = tuple([-v for v in y])
        if y != coords[s - 1]:
            x = KClass(y[0], DivisorClass(y[3:]), y[1])
            return False, HelixWitness(s, "period mismatch", x, helix[s - 1])
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
    """The basic collection reordered with the torsion classes last,

        (O, O(h), O(2h), O_{e_1}(-1), ..., O_{e_d}(-1)).

    For d >= 1 this ordering fails the certificate: the torsion classes
    pair nontrivially backwards onto O (chi = -1).  Kept as the documented
    counterexample ordering.
    """
    members = basic_collection(S).members
    return Collection(S, members[S.d :] + members[: S.d])
