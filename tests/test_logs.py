import json
import random
import re

import pytest
from _helpers import (
    braid_log,
    line_bundle,
    oracle_from_jsonl,
    p2_basic,
    scrambled_collections,
    scrambled_log,
    surface,
)

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
    PipelineError,
    apply_braid,
    basic_collection,
    is_numerically_exceptional,
    normalize_and_descend,
    peel_curve,
    replay,
    structure_class,
)
from delpezzo import logs as logs_module
from delpezzo import mutation as mutation_module


def sample_log() -> MutationLog:
    _, log = normalize_and_descend(basic_collection(surface(1)))
    return log


class TestSerialization:
    def test_jsonl_round_trip(self):
        log = sample_log()
        text = log.to_jsonl()
        assert len(text.splitlines()) == len(log)
        back = MutationLog.from_jsonl(text)
        assert back == log

    def test_step_without_before_rejected(self):
        data = sample_log().steps[0].to_json()
        del data["before"]
        with pytest.raises(InvalidInputError):
            LogStep.from_json(data)

    @pytest.mark.parametrize("line", ["{oops", "[1,", "1" * 5000])
    def test_line_that_is_not_json_rejected(self, line):
        with pytest.raises(InvalidInputError):
            MutationLog.from_jsonl(sample_log().to_jsonl() + line + "\n")

    def test_braid_log_round_trip(self):
        _, log = apply_braid(p2_basic(), BraidWord.parse("R1 L2 R2"))
        assert MutationLog.from_jsonl(log.to_jsonl()) == log


def oracle_jsonl(log: MutationLog) -> str:
    """The log format by its definition: one json.dumps per step."""
    return "".join(json.dumps(s.to_json()) + "\n" for s in log.steps)


def seeded_braid_log(d: int, letters: int, seed: int) -> MutationLog:
    rng = random.Random(seed)
    c = basic_collection(surface(d))
    word = BraidWord(
        tuple((rng.randint(1, len(c) - 1), rng.choice(list(Direction))) for _ in range(letters))
    )
    return apply_braid(c, word)[1]


class TestOncePerMember:
    """to_jsonl converts each distinct member once and from_jsonl builds
    each distinct member once; the text and the refusals are unchanged."""

    @pytest.mark.parametrize("d", range(9))
    def test_braid_log_text_matches_the_per_step_oracle(self, d):
        for seed in range(3):
            log = seeded_braid_log(d, 12, seed=100 * d + seed)
            text = log.to_jsonl()
            assert text == oracle_jsonl(log)
            assert MutationLog.from_jsonl(text) == log

    @pytest.mark.parametrize(
        "make_log",
        [
            lambda: normalize_and_descend(basic_collection(surface(1)))[1],
            lambda: normalize_and_descend(basic_collection(surface(2)))[1],
            scrambled_log,
        ],
        ids=["d=1", "d=2", "scrambled"],
    )
    def test_pipeline_log_text_matches_the_per_step_oracle(self, make_log):
        # The peel and descend steps hold class states.
        log = make_log()
        assert {"peel", "descend"} <= {s.kind for s in log.steps}
        text = log.to_jsonl()
        assert text == oracle_jsonl(log)
        assert MutationLog.from_jsonl(text) == log

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("r", True, "rank must be a JSON integer, got True"),
            ("r", 1.0, "rank must be a JSON integer, got 1.0"),
            ("c1", [0.0], "bad divisor class [0.0]: need a list of integers"),
            ("c1", [False], "bad divisor class [False]: need a list of integers"),
            ("ch2", 0.0, "ch2 must be a JSON integer or a 'p/q' string, got 0.0"),
            ("ch2", False, "ch2 must be a JSON integer or a 'p/q' string, got False"),
        ],
    )
    def test_malformed_repeat_of_a_valid_member_refused(self, key, value, message):
        # O = (1, [0], 0) is E_0 of every state; step 0 writes it with an
        # integer ch2, valid, and the last step equal in value but malformed.
        _, log = apply_braid(p2_basic(), BraidWord.parse("R2 L2 R2"))
        steps = [json.loads(line) for line in log.to_jsonl().splitlines()]
        first = steps[0]["before"]["collection"]["members"][0]
        last = steps[-1]["after"]["collection"]["members"][0]
        assert first == last == {"r": 1, "c1": [0], "ch2": "0/1"}
        first["ch2"] = 0
        last[key] = value
        text = "".join(json.dumps(step) + "\n" for step in steps)
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            MutationLog.from_jsonl(text)
        last[key] = {"r": 1, "c1": [0], "ch2": 0}[key]
        assert MutationLog.from_jsonl("".join(json.dumps(s) + "\n" for s in steps)) == log

    def test_oversized_member_message_unchanged(self):
        S = surface(0)
        huge = KClass(2 * 10**4300 + 1, DivisorClass((1,)), 3)
        small = Collection(S, (structure_class(S), line_bundle(S, 1)))
        big = Collection(S, (structure_class(S), huge))
        log = MutationLog(
            (LogStep("mutate", {}, small, small), LogStep("mutate", {}, small, big))
        )
        with pytest.raises(
            DomainError,
            match=r"^member E_1: class has an integer of more than 4300 digits, "
            "the limit for writing one$",
        ):
            log.to_jsonl()
        with pytest.raises(DomainError, match=r"^class has an integer of more than 4300"):
            MutationLog((LogStep("descend", {}, huge, huge),)).to_jsonl()

    @pytest.mark.parametrize("d, letters", [(0, 1), (0, 30), (3, 40), (8, 40)])
    def test_reading_builds_at_most_n_plus_L_classes(self, monkeypatch, d, letters):
        log = seeded_braid_log(d, letters, seed=d + letters)
        text = log.to_jsonl()
        built = []
        post_init = KClass.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(KClass, "__post_init__", counted)
        read = MutationLog.from_jsonl(text)
        monkeypatch.undo()
        assert read == log
        assert 0 < len(built) <= d + 3 + letters

    def test_shared_members_are_one_object(self):
        read = MutationLog.from_jsonl(braid_log().to_jsonl())
        for earlier, later in zip(read.steps, read.steps[1:]):
            assert earlier.after.members == later.before.members
            assert all(a is b for a, b in zip(earlier.after.members, later.before.members))


def state_objects(log: MutationLog):
    """The distinct members and surfaces of a log's states, by identity."""
    members, surfaces = {}, {}
    for step in log.steps:
        for state in (step.before, step.after):
            if isinstance(state, Collection):
                surfaces[id(state.surface)] = state.surface
                members.update((id(m), m) for m in state.members)
            else:
                members[id(state)] = state
    return members, surfaces


def state_texts(text: str) -> set[str]:
    """The distinct before and after texts of a log's lines."""
    lines = [json.loads(line) for line in text.splitlines()]
    return {json.dumps(line[key]) for line in lines for key in ("before", "after")}


LOGS = [
    lambda: seeded_braid_log(0, 30, seed=30),
    lambda: seeded_braid_log(8, 40, seed=48),
    lambda: normalize_and_descend(basic_collection(surface(2)))[1],
    scrambled_log,
]
LOG_IDS = ["braid d=0", "braid d=8", "pipeline d=2", "scrambled"]


class TestOncePerState:
    """A state's text is joined once from member and surface texts, and
    read once: each distinct state text is built once per log."""

    @pytest.mark.parametrize("d, letters", [(0, 1), (0, 30), (3, 40), (8, 40)])
    def test_reading_builds_one_collection_per_distinct_state_text(
        self, monkeypatch, d, letters
    ):
        log = seeded_braid_log(d, letters, seed=d + letters)
        text = log.to_jsonl()
        built = []
        init = Collection.__init__

        def counted(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(Collection, "__init__", counted)
        read = MutationLog.from_jsonl(text)
        monkeypatch.undo()
        assert read == log
        assert len(built) == len(state_texts(text))

    def test_a_revisited_state_is_one_object(self):
        # L1 R1 is the identity, so the states alternate: 2 distinct texts.
        c = basic_collection(surface(3))
        _, log = apply_braid(c, BraidWord.parse("L1 R1 L1 R1"))
        text = log.to_jsonl()
        assert len(state_texts(text)) == 2
        read = MutationLog.from_jsonl(text)
        assert read == log
        assert read.steps[2].before is read.steps[0].before
        assert read.steps[3].after is read.steps[0].before
        assert read.steps[3].before is read.steps[0].after
        assert_shared_by_text(text)

    @pytest.mark.parametrize("make_log", LOGS, ids=LOG_IDS)
    def test_each_before_is_the_previous_after(self, make_log):
        read = MutationLog.from_jsonl(make_log().to_jsonl())
        assert all(b.before is a.after for a, b in zip(read.steps, read.steps[1:]))

    def test_a_line_with_after_before_its_last_key_is_read_whole(self):
        # The next line's before is then read from its own text.
        steps = [json.loads(line) for line in braid_log().to_jsonl().splitlines()]
        first = {key: steps[0][key] for key in ("kind", "after", "params", "before")}
        text = "".join(json.dumps(s) + "\n" for s in [first, *steps[1:]])
        read = MutationLog.from_jsonl(text)
        assert read == braid_log()
        assert read.steps[1].before is not read.steps[0].after
        assert read.steps[2].before is read.steps[1].after

    @pytest.mark.parametrize("make_log", LOGS, ids=LOG_IDS)
    def test_writing_dumps_each_member_and_surface_once(self, monkeypatch, make_log):
        # Members are written by their class text, surfaces, kinds and
        # params by json.dumps, each distinct one once.
        log = make_log()
        members, surfaces = state_objects(log)
        dumped, written = [], []
        dumps, to_json_text = json.dumps, KClass.to_json_text

        def counted_dumps(obj, *args, **kwargs):
            dumped.append(obj)
            return dumps(obj, *args, **kwargs)

        def counted_text(self):
            written.append(self)
            return to_json_text(self)

        monkeypatch.setattr(json, "dumps", counted_dumps)
        monkeypatch.setattr(KClass, "to_json_text", counted_text)
        text = log.to_jsonl()
        monkeypatch.undo()
        assert text == oracle_jsonl(log)
        assert sorted(map(id, written)) == sorted(members)
        assert len(dumped) == len(surfaces) + 2 * len(log)
        states = [x for x in dumped if isinstance(x, dict) and {"collection", "class"} & x.keys()]
        assert states == []


def corpus_log(kind: str, d: int) -> MutationLog:
    """A seeded braid log on d blow-ups, or the first pipeline log of a
    seeded scramble of the basic collection that descends."""
    if kind == "braid":
        return seeded_braid_log(d, 8, seed=70 + d)
    for c in scrambled_collections(d, 30, seed=d):
        try:
            return normalize_and_descend(c)[1]
        except PipelineError:
            continue
    raise AssertionError(f"no seeded collection on {d} blow-ups descends")


CORPUS = [("braid", d) for d in range(9)] + [("pipeline", d) for d in range(1, 8)]


def pairs_line(pairs) -> str:
    """A JSON object written from (key, value) pairs, duplicates kept."""
    return "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}"


def state_members(state: dict) -> list:
    """The member JSON values of a log state, in order."""
    return state["collection"]["members"] if "collection" in state else [state["class"]]


def layout_variants(lines: list[str], k: int, rng: random.Random):
    """Edits of line k that keep the layout to_jsonl writes, except the
    last ones: two members of after swapped, a before member's ch2 "p/1"
    respelled p, the surface respelled with an empty effective_roots, a
    member of after replaced by before's member at another index, a stray
    character after a member's text, and the delimiter variants."""
    data = json.loads(lines[k])
    before, after = state_members(data["before"]), state_members(data["after"])
    if len(after) >= 2:
        i, j = rng.sample(range(len(after)), 2)
        edit = json.loads(lines[k])
        members = state_members(edit["after"])
        members[i], members[j] = members[j], members[i]
        yield json.dumps(edit)
    spots = [i for i, m in enumerate(before) if m["ch2"].endswith("/1")]
    if spots:
        edit = json.loads(lines[k])
        member = state_members(edit["before"])[rng.choice(spots)]
        member["ch2"] = int(member["ch2"][:-2])
        yield json.dumps(edit)
    if "collection" in data["before"]:
        edit = json.loads(lines[k])
        surface = edit["before"]["collection"]["surface"]
        surface.setdefault("effective_roots", [])
        yield json.dumps(edit)
    if len(before) >= 2:
        i = rng.randrange(len(after))
        j = rng.choice([j for j in range(len(before)) if j != i])
        edit = json.loads(lines[k])
        state_members(edit["after"])[i] = before[j]
        yield json.dumps(edit)
    start = lines[k].rindex('"after": ') + len('"after": ')
    member = json.dumps(after[0])
    end = lines[k].index(member, start) + len(member)
    for char in " x]}":
        yield lines[k][:end] + char + lines[k][end:]
    yield from delimiter_variants(lines, k)


def delimiter_variants(lines: list[str], k: int):
    """Edits of line k, in json.dumps' spelling, whose values hold the
    pieces the layout reader cuts at: a member with an extra key holding
    "}, {", "]}}" or "}}" or a nested object, and a surface with an extra
    key "members" holding a list, so that ', "members": [' occurs in it.
    The plain reader ignores extra keys, so every edit is readable."""
    data = json.loads(lines[k])
    for key in ("before", "after"):
        for extra in ["}, {", "]}}", "}}", {"a": {"b": 1}}]:
            edit = json.loads(lines[k])
            state_members(edit[key])[0]["x"] = extra
            yield json.dumps(edit)
        if "collection" in data[key]:
            edit = json.loads(lines[k])
            edit[key]["collection"]["surface"]["members"] = state_members(data[key])[:1]
            yield json.dumps(edit)


def line_variants(lines: list[str], k: int, rng: random.Random):
    """Edits of line k of a valid log: the layout variants, values of the
    wrong JSON type, duplicate, missing and reordered keys, the previous
    after under another key, whitespace, trailing data, a BOM, a
    non-object line and random single-character edits."""
    yield from layout_variants(lines, k, rng)
    line = lines[k]
    data = json.loads(line)
    pairs = list(data.items())
    previous = json.loads(lines[k - 1])["after"] if k else data["before"]
    numbers = [m.span() for m in re.finditer(r"(?<=[\[ ])-?[0-9]+(?=[,\]}])", line)]
    for token in ["true", "false", "1.0", "NaN", "-Infinity", '"1"', "null", "1e400"]:
        start, end = rng.choice(numbers)
        yield line[:start] + token + line[end:]
    for token in ["0.0", "false", '"1/0"', '"x/2"', "[]"]:
        yield re.sub(r'"-?[0-9]+/[12]"', token, line, count=1)
    for key in data:
        yield pairs_line([p for p in pairs if p[0] != key])
    yield pairs_line(pairs + [("after", data["before"])])
    yield pairs_line(pairs + [("before", data["after"])])
    yield pairs_line([("after", data["before"])] + pairs)
    yield pairs_line(pairs + [("kind", "mutate")])
    yield pairs_line([pairs[0], pairs[1], pairs[3], pairs[2]])
    yield pairs_line([("kind", previous), *pairs[1:]])
    yield pairs_line([pairs[0], ("params", previous), *pairs[2:]])
    yield pairs_line(pairs + [("extra", previous)])
    yield json.dumps(data, separators=(",", ":"))
    yield json.dumps(data, separators=(" ,\t", " : "))
    for char in " \t":
        spots = [i + 1 for i, c in enumerate(line) if c in ",:[]{}"]
        spot = rng.choice(spots)
        yield line[:spot] + char + line[spot:]
    for tail in [" x", "{}", ", 1", "]", '"', " \t"]:
        yield line + tail
    yield "\ufeff" + line
    for other in ["[1]", "1", '"x"', "null", "{}", "{"]:
        yield other
    yield line[: rng.randrange(1, len(line))]
    alphabet = '{}[],:" 0123456789-.eEtfnlNI\\/x'
    for _ in range(12):
        i = rng.randrange(len(line))
        yield rng.choice(
            [
                line[:i] + line[i + 1 :],
                line[:i] + rng.choice(alphabet) + line[i + 1 :],
                line[:i] + rng.choice(alphabet) + line[i:],
            ]
        )


def empty_collection_log() -> MutationLog:
    """Two steps between the basic collection on d = 2 and no members."""
    S = surface(2)
    empty, basic = Collection(S, ()), basic_collection(S)
    steps = (LogStep("order", {}, empty, basic), LogStep("order", {}, basic, empty))
    return MutationLog(steps)


def read_outcome(read, text: str):
    try:
        return "read", read(text)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def assert_shared_by_text(text: str) -> None:
    """In a log read from lines in the layout to_jsonl writes, states with
    the same text are one object wherever they stand in the log, and so
    are members with the same text, whether they stand in a collection or
    as a class state."""
    log = MutationLog.from_jsonl(text)
    data = [json.loads(line) for line in text.splitlines()]
    objects: dict[str, list] = {}
    for step, line in zip(log.steps, data):
        for key in ("before", "after"):
            state = getattr(step, key)
            objects.setdefault(json.dumps(line[key]), []).append(state)
            members = state.members if isinstance(state, Collection) else (state,)
            for m, value in zip(members, state_members(line[key]), strict=True):
                objects.setdefault(json.dumps(value), []).append(m)
    for same in objects.values():
        assert all(x is same[0] for x in same)


class TestReaderMatchesTheLineByLineOracle:
    """from_jsonl and the line-by-line oracle accept the same texts, read
    them to the same logs and refuse the rest with the same exception.
    Logs are compared by repr too, which tells 1 from 1.0 and True and
    holds for NaN."""

    def assert_same(self, text: str):
        new = read_outcome(MutationLog.from_jsonl, text)
        old = read_outcome(oracle_from_jsonl, text)
        if new[0] == old[0] == "read":
            assert repr(new[1]) == repr(old[1])
            if "NaN" not in text:
                assert new[1] == old[1]
        else:
            assert new == old
        return new[0] == "read"

    @pytest.mark.parametrize("kind, d", CORPUS, ids=[f"{k} d={d}" for k, d in CORPUS])
    def test_variants_of_a_log(self, kind, d):
        rng = random.Random(f"{kind} {d}")
        text = corpus_log(kind, d).to_jsonl()
        lines = text.splitlines()
        assert self.assert_same(text)
        assert self.assert_same("\ufeff" + text) is False
        assert self.assert_same(json.dumps(json.loads(lines[0]), separators=(",", ":")))
        compact = "\n".join(json.dumps(json.loads(x), separators=(",", ":")) for x in lines)
        assert self.assert_same(compact)
        swapped = lines[1:2] + lines[:1] + lines[2:]
        assert self.assert_same("\n".join(swapped))
        accepted = refused = 0
        for k in sorted({0, 1, len(lines) - 1, rng.randrange(len(lines))}):
            for variant in line_variants(lines, k, rng):
                if self.assert_same("\n".join(lines[:k] + [variant] + lines[k + 1 :])):
                    accepted += 1
                else:
                    refused += 1
        assert accepted and refused

    def test_edits_of_an_empty_collection(self):
        text = empty_collection_log().to_jsonl()
        assert self.assert_same(text)
        assert self.assert_same(text.replace("[]", "[ ]", 1))
        assert not self.assert_same(text.replace("[]", "[{}]", 1))
        assert not self.assert_same(text.replace(', "members": [', "", 1))

    @pytest.mark.parametrize("kind, d", CORPUS, ids=[f"{k} d={d}" for k, d in CORPUS])
    def test_layout_variants_share_members_by_text(self, kind, d):
        rng = random.Random(f"layout {kind} {d}")
        lines = corpus_log(kind, d).to_jsonl().splitlines()
        accepted = refused = 0
        for k in range(len(lines)):
            delimited = set(delimiter_variants(lines, k))
            for variant in layout_variants(lines, k, rng):
                text = "\n".join(lines[:k] + [variant] + lines[k + 1 :])
                if not self.assert_same(text):
                    assert variant not in delimited
                    refused += 1
                elif variant in delimited:
                    continue  # read whole by the plain reader, which shares nothing
                elif variant == json.dumps(json.loads(variant)):
                    accepted += 1
                    assert_shared_by_text(text)
        assert accepted and refused


class TestWriterAndReaderStayInStep:
    @pytest.mark.parametrize("kind, d", CORPUS, ids=[f"{k} d={d}" for k, d in CORPUS])
    def test_no_line_the_writer_makes_goes_to_json_loads(self, monkeypatch, kind, d):
        log = corpus_log(kind, d)
        text = log.to_jsonl()
        loads = []
        monkeypatch.setattr(json, "loads", lambda *args, **kwargs: loads.append(args))
        read = MutationLog.from_jsonl(text)
        monkeypatch.undo()
        assert loads == []
        assert read == log
        assert_shared_by_text(text)

    def test_an_empty_collection_is_read_by_the_layout(self, monkeypatch):
        log = empty_collection_log()
        text = log.to_jsonl()
        loads = []
        monkeypatch.setattr(json, "loads", lambda *args, **kwargs: loads.append(args))
        read = MutationLog.from_jsonl(text)
        monkeypatch.undo()
        assert loads == []
        assert read == log
        assert_shared_by_text(text)


class TestLineSplitting:
    def test_crlf_and_blank_lines_tolerated(self):
        log = braid_log()
        text = "\n" + log.to_jsonl().replace("\n", "\r\n\n  \n")
        assert MutationLog.from_jsonl(text) == log

    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"])
    def test_raw_line_separator_inside_a_string_reaches_the_step_check(self, char):
        # json.dumps escapes these; a JSON string may also hold them raw,
        # and str.splitlines breaks at them.
        text = braid_log().to_jsonl().replace('"mutate"', f'"mu{char}tate"', 1)
        assert char in text
        log = MutationLog.from_jsonl(text)
        assert log.steps[0].kind == f"mu{char}tate"
        with pytest.raises(InvalidInputError, match="unknown log step kind"):
            replay(log)


class TestReplay:
    def test_pipeline_log_replays(self):
        assert replay(sample_log())

    def test_braid_log_replays(self):
        _, log = apply_braid(p2_basic(), BraidWord.parse("R1 R2 L1 L2"))
        assert replay(log)

    def test_replay_after_round_trip(self):
        log = sample_log()
        assert replay(MutationLog.from_jsonl(log.to_jsonl()))

    def test_tampered_log_detected(self):
        log = sample_log()
        peel_at = next(i for i, s in enumerate(log.steps) if s.kind == "peel")
        step = log.steps[peel_at]
        forged = LogStep(step.kind, step.params, step.before, step.before)
        tampered = log.steps[:peel_at] + (forged,) + log.steps[peel_at + 1 :]
        with pytest.raises(InvalidInputError):
            replay(MutationLog(tampered))

    def test_unknown_kind_rejected(self):
        S = surface(0)
        c = Collection(S, (structure_class(S),))
        bad = LogStep("teleport", {}, c, c)
        with pytest.raises(InvalidInputError):
            replay(MutationLog((bad,)))


def first_step(kind: str) -> LogStep:
    """The first step of the given kind in a braid or a pipeline log."""
    log = braid_log() if kind == "mutate" else scrambled_log()
    return next(s for s in log.steps if s.kind == kind)


def edited(kind: str, **params) -> LogStep:
    """first_step(kind), read back from JSON with some params replaced."""
    data = first_step(kind).to_json()
    data["params"].update(params)
    return LogStep.from_json(data)


class TestStrictDecoding:
    def test_scrambled_log_has_every_pipeline_kind(self):
        kinds = [s.kind for s in scrambled_log().steps]
        assert kinds == ["order", "rotate", "twist", "peel", "descend"]
        assert replay(scrambled_log())

    @pytest.mark.parametrize("key", ["params", "before", "after"])
    @pytest.mark.parametrize("value", [5, "collection", [1], None])
    def test_non_object_params_or_state_rejected(self, key, value):
        data = sample_log().steps[0].to_json()
        data[key] = value
        with pytest.raises(InvalidInputError):
            LogStep.from_json(data)

    def test_list_params_in_the_writers_layout_end_at_the_plain_reader(self):
        step = sample_log().steps[0]
        text = MutationLog((LogStep(step.kind, [1], step.before, step.after),)).to_jsonl()
        assert '"params": [1], "before": ' in text
        with pytest.raises(InvalidInputError, match="^log step params must be a JSON object$"):
            MutationLog.from_jsonl(text)

    @pytest.mark.parametrize("value", [2.9, 2.0, True, "2", None, [2]])
    @pytest.mark.parametrize(
        "kind, key",
        [
            ("mutate", "position"),
            ("rotate", "j"),
            ("twist", "k_multiple"),
            ("peel", "e_index"),
            ("peel", "alpha"),
        ],
    )
    def test_integer_params_must_be_json_integers(self, kind, key, value):
        with pytest.raises(InvalidInputError, match="JSON integer"):
            replay(MutationLog((edited(kind, **{key: value}),)))

    @pytest.mark.parametrize("mults", [[1, 1.0, 1, 1], [1, True, 1, 1], [1.9] * 4, 4, None])
    def test_peel_mults_must_be_json_integers(self, mults):
        with pytest.raises(InvalidInputError, match="mults"):
            replay(MutationLog((edited("peel", mults=mults),)))

    def test_truncated_position_no_longer_replays(self):
        # 2.9 used to be read as 2, so this edited log replayed as valid.
        data = braid_log().steps[1].to_json()
        assert data["params"]["position"] == 2
        data["params"]["position"] = 2.9
        with pytest.raises(InvalidInputError, match="JSON integer"):
            replay(MutationLog((LogStep.from_json(data),)))

    @pytest.mark.parametrize(
        "kind, key",
        [
            ("mutate", "position"),
            ("mutate", "direction"),
            ("rotate", "j"),
            ("twist", "k_multiple"),
            ("peel", "mults"),
            ("peel", "e_index"),
            ("peel", "alpha"),
            ("descend", "surface"),
        ],
    )
    def test_missing_param_rejected(self, kind, key):
        step = first_step(kind)
        params = {k: v for k, v in step.params.items() if k != key}
        with pytest.raises(InvalidInputError, match=key):
            replay(MutationLog((LogStep(kind, params, step.before, step.after),)))

    @pytest.mark.parametrize(
        "direction", ["l", "LEFT", "up", 1, None, ["left"], {"left": 1}, True]
    )
    def test_unknown_direction_rejected(self, direction):
        message = f"unknown direction {direction!r}"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            replay(MutationLog((edited("mutate", direction=direction),)))

    @pytest.mark.parametrize("kind", ["mutate", "order", "rotate", "twist", "peel"])
    def test_step_on_a_class_rejected(self, kind):
        step = first_step(kind)
        O = structure_class(step.before.surface)
        with pytest.raises(InvalidInputError, match="collection"):
            replay(MutationLog((LogStep(kind, step.params, O, step.after),)))

    @pytest.mark.parametrize("value", [2.0, True, "1", None])
    @pytest.mark.parametrize("key", ["group_index", "e_index"])
    def test_recorded_indices_must_be_json_integers(self, key, value):
        kind = "rotate" if key == "group_index" else "descend"
        with pytest.raises(InvalidInputError, match="JSON integer"):
            replay(MutationLog((edited(kind, **{key: value}),)))

    @pytest.mark.parametrize("e_index", [5, 0, 2, -1])
    def test_descend_e_index_must_be_the_last_curve(self, e_index):
        # The d = 1 log descends along e_1; an edited e_index used to replay.
        assert first_step("descend").params["e_index"] == 1
        with pytest.raises(InvalidInputError, match="e_index"):
            replay(MutationLog((edited("descend", e_index=e_index),)))

    @pytest.mark.parametrize("group_index", [42, 3, 1, 0, -1])
    def test_rotate_group_index_must_match_j(self, group_index):
        assert first_step("rotate").params["group_index"] == 2
        with pytest.raises(InvalidInputError, match="group"):
            replay(MutationLog((edited("rotate", group_index=group_index),)))

    @pytest.mark.parametrize(
        "window", [[7, 9], [2, 1], [1], [1, 2, 3], [1.0, 2], [1, True], "1,2", None]
    )
    def test_rotate_window_must_be_two_adjacent_integers(self, window):
        assert first_step("rotate").params["window"] == [1, 2]
        with pytest.raises(InvalidInputError, match="window"):
            replay(MutationLog((edited("rotate", window=window),)))

    @pytest.mark.parametrize("window", [[0, 0], [-3, -2]])
    def test_rotate_window_of_one_or_two_degrees_accepted(self, window):
        # A window [w, w] is what the d = 1 basic collection records.
        step = edited("rotate", window=window)
        assert replay(MutationLog((step,)))

    @pytest.mark.parametrize("key", ["group_index", "window"])
    def test_rotate_record_is_whole_or_absent(self, key):
        step = first_step("rotate")
        params = {k: v for k, v in step.params.items() if k != key}
        with pytest.raises(InvalidInputError, match=key):
            replay(MutationLog((LogStep("rotate", params, step.before, step.after),)))
        # A spread-stage rotation records j alone.
        alone = LogStep("rotate", {"j": step.params["j"]}, step.before, step.after)
        assert replay(MutationLog((alone,)))

    def test_edited_pipeline_log_no_longer_replays(self):
        log = scrambled_log()
        for kind, params in [
            ("rotate", {"window": [7, 9]}),
            ("rotate", {"group_index": 42}),
            ("descend", {"e_index": 5}),
        ]:
            k = next(i for i, s in enumerate(log.steps) if s.kind == kind)
            data = log.steps[k].to_json()
            data["params"].update(params)
            steps = log.steps[:k] + (LogStep.from_json(data),) + log.steps[k + 1 :]
            with pytest.raises(InvalidInputError):
                replay(MutationLog(steps))

    def test_descend_on_a_collection_rejected(self):
        step = first_step("descend")
        on_collection = LogStep("descend", step.params, first_step("peel").before, step.after)
        with pytest.raises(InvalidInputError, match="class"):
            replay(MutationLog((on_collection,)))


class TestIncrementalReplay:
    def test_first_state_must_be_exceptional(self):
        S = surface(0)
        O, Oh = structure_class(S), line_bundle(S, 1)
        c = Collection(S, (O, Oh, O))
        step = LogStep("mutate", {"position": 1, "direction": "left"}, c, c)
        with pytest.raises(InvalidInputError, match="not numerically exceptional"):
            replay(MutationLog((step,)))

    @pytest.mark.parametrize("word", ["R1 L2 R2 L1 R1 R2", "L1"])
    def test_one_full_scan_per_braid_log(self, monkeypatch, word):
        scans = []

        def counted(c):
            scans.append(c)
            return is_numerically_exceptional(c)

        _, log = apply_braid(basic_collection(surface(3)), BraidWord.parse(word))
        read = MutationLog.from_jsonl(log.to_jsonl())
        monkeypatch.setattr(mutation_module, "is_numerically_exceptional", counted)
        assert replay(read)
        assert scans == [read.steps[0].before]

    def test_pipeline_log_replays_from_its_first_state(self):
        log = MutationLog.from_jsonl(scrambled_log().to_jsonl())
        assert replay(log)


def with_member_edited(state: Collection, j: int) -> Collection:
    """state with member j negated, a class of the same surface."""
    members = state.members
    return Collection(state.surface, members[:j] + (-members[j],) + members[j + 1 :])


class TestReplayContinuesFromTheRecord:
    """Once a step's result equals its recorded after, replay goes on from
    the recorded object, which takes over the certificate."""

    @pytest.mark.parametrize("make_log", LOGS, ids=LOG_IDS)
    def test_each_step_starts_from_the_recorded_after(self, monkeypatch, make_log):
        read = MutationLog.from_jsonl(make_log().to_jsonl())
        starts = []
        replay_step = logs_module._replay_step

        def recorded(step, before):
            starts.append(before)
            return replay_step(step, before)

        monkeypatch.setattr(logs_module, "_replay_step", recorded)
        assert replay(read)
        expected = [read.steps[0].before] + [s.after for s in read.steps[:-1]]
        assert len(starts) == len(expected)
        assert all(a is b for a, b in zip(starts, expected))

    @pytest.mark.parametrize("d, letters", [(0, 6), (3, 12), (8, 12)])
    def test_recorded_collections_take_over_the_certificate(self, d, letters):
        read = MutationLog.from_jsonl(seeded_braid_log(d, letters, seed=d).to_jsonl())
        assert not any(s.after._certified for s in read.steps)
        assert replay(read)
        assert all(s.after._certified for s in read.steps)

    @pytest.mark.parametrize("read_back", [False, True], ids=["objects", "text"])
    def test_a_one_member_edit_is_refused_at_its_step(self, read_back):
        log = seeded_braid_log(3, 8, seed=3)
        for k, step in enumerate(log.steps):
            for j in range(len(step.after)):
                after = with_member_edited(step.after, j)
                forged = LogStep(step.kind, step.params, step.before, after)
                edited = MutationLog(log.steps[:k] + (forged,) + log.steps[k + 1 :])
                if read_back:
                    edited = MutationLog.from_jsonl(edited.to_jsonl())
                message = f"step {k} (mutate) does not replay to its recorded state"
                with pytest.raises(InvalidInputError, match=re.escape(message) + "$"):
                    replay(edited)

    def test_a_log_that_revisits_its_states_replays(self):
        c = basic_collection(surface(3))
        _, log = apply_braid(c, BraidWord.parse("L1 R1 L2 R2 L1 R1"))
        read = MutationLog.from_jsonl(log.to_jsonl())
        assert read.steps[1].after is read.steps[0].before
        assert replay(log) and replay(read)
        # A revisited state ends the chain the next step starts from.
        c = basic_collection(surface(2))
        _, log = apply_braid(c, BraidWord.parse("L2 R2 R2 L2"))
        read = MutationLog.from_jsonl(log.to_jsonl())
        assert read.steps[-1].after is read.steps[0].before
        assert replay(read)


def forged(log: MutationLog, k: int, after) -> MutationLog:
    """log with step k's recorded after replaced."""
    step = log.steps[k]
    return MutationLog(
        log.steps[:k] + (LogStep(step.kind, step.params, step.before, after),) + log.steps[k + 1 :]
    )


def new_and_kept(step: LogStep) -> tuple[int, int]:
    """The indices of a mutate step's new member and of the member it keeps."""
    i = step.params["position"]
    return (i - 1, i) if step.params["direction"] == "left" else (i, i - 1)


def replaced(c: Collection, j: int, member: KClass) -> Collection:
    return Collection(c.surface, c.members[:j] + (member,) + c.members[j + 1 :])


class TestReplayChecksAMutateStepOnIntegers:
    """A mutate step is checked against its recorded after on the integers
    the two collections hold; every edit is refused with one message.
    A negated member, new or untouched, is refused by
    ``test_a_one_member_edit_is_refused_at_its_step``."""

    @staticmethod
    def refused(log: MutationLog, k: int) -> None:
        message = f"step {k} (mutate) does not replay to its recorded state"
        for variant in (log, MutationLog.from_jsonl(log.to_jsonl())):
            with pytest.raises(InvalidInputError, match=re.escape(message) + "$"):
                replay(variant)

    def test_the_kept_member_swapped_for_another_is_refused(self):
        log = seeded_braid_log(3, 8, seed=3)
        for k, step in enumerate(log.steps):
            _, kept = new_and_kept(step)
            for j, other in enumerate(step.after.members):
                if j != kept:
                    self.refused(forged(log, k, replaced(step.after, kept, other)), k)

    def test_an_edited_surface_is_refused(self):
        log = seeded_braid_log(3, 8, seed=3)
        with_root = surface(3, [(0, -1, 1, 0)])
        assert with_root != log.steps[0].after.surface
        for k, step in enumerate(log.steps):
            after = Collection(with_root, step.after.members)
            self.refused(forged(log, k, after), k)

    def test_a_class_for_the_after_is_refused(self):
        log = seeded_braid_log(3, 8, seed=3)
        for k, step in enumerate(log.steps):
            q, _ = new_and_kept(step)
            self.refused(forged(log, k, step.after.members[q]), k)

    def test_a_shorter_or_longer_after_is_refused(self):
        log = seeded_braid_log(3, 8, seed=3)
        for k, step in enumerate(log.steps):
            members = step.after.members
            for edited in (members[:-1], members + members[:1]):
                self.refused(forged(log, k, Collection(step.after.surface, edited)), k)

    def test_an_equal_copy_of_the_after_replays(self):
        log = seeded_braid_log(3, 8, seed=3)
        copies = [
            LogStep(s.kind, s.params, s.before, Collection(s.after.surface, s.after.members))
            for s in log.steps
        ]
        # Each copy must also start the next step: replace the chain too.
        steps = [copies[0]]
        for step in copies[1:]:
            steps.append(LogStep(step.kind, step.params, steps[-1].after, step.after))
        assert replay(MutationLog(tuple(steps)))
        assert all(s.after._certified for s in steps)

    def test_a_new_member_of_rank_zero_replays(self):
        # L1 on (O_e1(-1), O_e2(-1), ...): chi = 0, the new member +-O_e2(-1)
        # takes its sign from H.c1.
        c = basic_collection(surface(3))
        _, log = apply_braid(c, BraidWord.parse("L1 R2 L2"))
        N = log.steps[0].after.members[0]
        assert N.r == 0 and N.hc1 and N == c.members[1]
        assert replay(log) and replay(MutationLog.from_jsonl(log.to_jsonl()))

    def test_the_move_refusals_are_unchanged(self):
        step = first_step("mutate")
        n = len(step.before)
        at_end = LogStep("mutate", {**step.params, "position": n}, step.before, step.after)
        message = f"mutation position {n} out of range for length {n}"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            replay(MutationLog((at_end,)))


class TestReplayBuildsNoClass:
    """A replayed mutate step compares integers: no class is built, and
    chi stays n per step after the first state's full scan: chi(E,F) is
    the skew form of the certified pair."""

    @pytest.mark.parametrize("d", [0, 3, 8])
    def test_replaying_a_read_back_braid_log(self, monkeypatch, d):
        read = MutationLog.from_jsonl(seeded_braid_log(d, 24, seed=40 + d).to_jsonl())
        built, chi = [], []
        post_init, pairing = KClass.__post_init__, mutation_module.euler_pairing

        def counted_build(self):
            built.append(self)
            post_init(self)

        def counted_chi(E, F):
            chi.append((E, F))
            return pairing(E, F)

        monkeypatch.setattr(KClass, "__post_init__", counted_build)
        monkeypatch.setattr(mutation_module, "euler_pairing", counted_chi)
        assert replay(read)
        monkeypatch.undo()
        n, steps = d + 3, len(read.steps)
        assert built == []
        assert len(chi) == n * (n + 1) // 2 + steps * n


class TestChaining:
    def test_swapped_steps_rejected(self):
        log = braid_log()
        # Each step replays on its own; only the chain is broken.
        for step in log.steps:
            assert replay(MutationLog((step,)))
        swapped = MutationLog((log.steps[1], log.steps[0]) + log.steps[2:])
        with pytest.raises(InvalidInputError, match="does not start where step 0 ended"):
            replay(swapped)

    def test_dropped_step_rejected(self):
        log = scrambled_log()
        with pytest.raises(InvalidInputError, match="does not start where"):
            replay(MutationLog(log.steps[:1] + log.steps[2:]))


class TestABoolIsNotALoggedInteger:
    """A log writes an integer parameter as a JSON integer, and replay
    refuses ``true`` there; each entry that records an integer refuses a
    bool before it writes a step, and the same call with 1 replays."""

    def test_descend_multiplicity(self):
        c = basic_collection(surface(1))
        message = "multiplicities must be positive integers"
        with pytest.raises(PipelineError, match=re.escape(message)):
            normalize_and_descend(c, [True, 1, 1, 1])
        _, log = normalize_and_descend(c, [1, 1, 1, 1])
        assert replay(log) and replay(MutationLog.from_jsonl(log.to_jsonl()))

    def test_braid_position(self):
        with pytest.raises(InvalidInputError, match="^braid position True must be >= 1$"):
            BraidWord(((True, Direction.LEFT),))
        _, log = apply_braid(basic_collection(surface(1)), BraidWord(((1, Direction.LEFT),)))
        assert replay(log) and replay(MutationLog.from_jsonl(log.to_jsonl()))

    @pytest.mark.parametrize("e_index", [True, False, "1", 1.0, None])
    def test_peel_curve_index(self, e_index):
        c = basic_collection(surface(1))
        message = f"peel curve index {e_index!r} is not an integer"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            peel_curve(c, [1, 1, 1, 1], e_index)
        _, _, log = peel_curve(c, [1, 1, 1, 1], 1)
        assert replay(log) and replay(MutationLog.from_jsonl(log.to_jsonl()))
