"""Fuzz the JSON readers and the CLI: every generated document either
decodes or is refused with InvalidInputError or DomainError, and every
generated command line exits 0, 1 or 2; no other exception escapes.

Documents are arbitrary JSON values, and valid documents written by the
library with one node replaced by an arbitrary JSON value or deleted, or
with one key inserted into an object, so that the edits reach the checks
behind the outer schema.  Log steps are
decoded and then replayed alone, as a one-step log.  Command lines give each
command's flags fuzzed values (JSON documents, braid words, positions,
directions, small integers) or leave them out.  The runs are
derandomized and bounded, so the suite stays deterministic.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from _helpers import braid_log, p2_basic, scrambled_log
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from delpezzo import (
    Collection,
    DomainError,
    GradedObject,
    InvalidInputError,
    KClass,
    LogStep,
    MutationLog,
    Surface,
    basic_collection,
    canonical_divisor,
    enumerate_roots,
    replay,
    structure_class,
)
from delpezzo import cli

FUZZ = settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Keys the readers look for, so that generated objects often hit them.
KEYS = (
    "r", "c1", "ch2", "blowups", "effective_roots", "surface", "members",
    "quotients", "class", "mult", "kind", "params", "before", "after",
    "collection", "position", "direction", "j", "k_multiple", "mults",
    "e_index", "alpha",
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["1/2", "-5/2", "3", "left", "right", "mutate", "peel"])
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)


@st.composite
def _edited(draw, node):
    """node with one descendant, or node itself, replaced by arbitrary
    JSON, with one entry deleted or with one key inserted into an object;
    each depth is about as likely as the next, so top-level keys are
    edited as often as deep leaves."""
    if isinstance(node, dict):
        keys = list(node)
    else:
        keys = list(range(len(node))) if isinstance(node, list) else []
    if not keys or draw(st.integers(0, 2)) == 0:
        return draw(SCALARS | JSON)
    key = draw(st.sampled_from(keys))
    copy = dict(node) if isinstance(node, dict) else list(node)
    edit = draw(st.integers(0, 5))
    if edit == 0:
        del copy[key]
    elif edit == 1 and isinstance(copy, dict):
        copy[draw(st.sampled_from(KEYS) | st.text(max_size=3))] = draw(JSON)
    else:
        copy[key] = draw(_edited(copy[key]))
    return copy


def documents(valid: list):
    """Arbitrary JSON, or a valid document with one edit."""
    return JSON | st.sampled_from(valid).flatmap(_edited)


S2 = Surface(2, (enumerate_roots(Surface(2))[0],))
VALID = {
    "surface": [S2.to_json(), {"blowups": 8}],
    "class": [m.to_json() for m in basic_collection(S2).members],
    "collection": [basic_collection(S2).to_json(), p2_basic().to_json()],
    "graded": [
        GradedObject(
            ((structure_class(S2), 2), (KClass(2, -canonical_divisor(2), 3), 1))
        ).to_json()
    ],
    "step": [s.to_json() for log in (scrambled_log(), braid_log()) for s in log.steps],
}


def decodes_or_refuses(read, doc):
    try:
        read(doc)
    except (InvalidInputError, DomainError):
        pass


def read_and_replay(doc):
    replay(MutationLog((LogStep.from_json(doc),)))


@pytest.mark.parametrize(
    "read, valid",
    [
        (Surface.from_json, "surface"),
        (KClass.from_json, "class"),
        (Collection.from_json, "collection"),
        (GradedObject.from_json, "graded"),
        (read_and_replay, "step"),
    ],
    ids=["surface", "kclass", "collection", "graded", "logstep"],
)
def test_reader_decodes_or_refuses(read, valid):
    @FUZZ
    @given(doc=documents(VALID[valid]))
    def check(doc):
        decodes_or_refuses(read, doc)

    check()


# ------------------------------------------------------------ CLI argv

OUT = "out.jsonl"  # written inside a temporary directory


def _json_arg(valid: list):
    """A valid document as often as an edited or arbitrary one, so that most
    calls get past their JSON arguments to the other flags."""
    return (st.sampled_from(valid) | documents(valid)).map(json.dumps)


NOT_EXCEPTIONAL = Collection(
    Surface(0), tuple(structure_class(Surface(0)) for _ in range(2))
).to_json()
COLLECTIONS = VALID["collection"] + [basic_collection(Surface(1)).to_json(), NOT_EXCEPTIONAL]
LETTER = st.tuples(
    st.sampled_from("LRlrX"),
    st.integers(-1, 12).map(str) | st.sampled_from(["", "1.5", "9" * 5000, "٣"]),
).map("".join)
# A --mults field: a JSON integer, a form int() reads but JSON does not (an
# underscore, a '+' sign, spaces, a leading zero), a decimal, or nothing.
MULT_FIELDS = st.integers(-2, 5).map(str) | st.sampled_from(
    ["1_0", "+1", " 1", "1 ", " +1 ", "", "01", "1.0"]
)
FLAG_VALUES = {
    "surface": _json_arg(VALID["surface"]),
    "e": _json_arg(VALID["class"]),
    "f": _json_arg(VALID["class"]),
    "collection": _json_arg(COLLECTIONS),
    "graded": _json_arg(VALID["graded"]),
    "ample": _json_arg([[4, 1, 1], [3, 1, 1]]),
    "word": st.lists(LETTER, max_size=6).map(" ".join) | st.text("LR12 -", max_size=8),
    "pos": st.integers(-2, 12).map(str) | st.sampled_from(["x", "1.5", "9" * 5000]),
    "dir": st.sampled_from(["left", "right", "L", "r", "up", ""]) | st.text(max_size=4),
    "lo": st.integers(-12, 12).map(str) | st.text(max_size=3),
    "hi": st.integers(-12, 12).map(str) | st.text(max_size=3),
    "limit": st.integers(-2, 40).map(str) | st.text(max_size=3),
    "braid": st.lists(LETTER, max_size=6).map(" ".join),
    "mults": st.lists(MULT_FIELDS, max_size=6).map(",".join),
    "e_index": st.integers(-2, 10).map(str),
    "out": st.just(OUT),
}
COMMAND_FLAGS = {
    "chi": ("surface", "e", "f"),
    "slope": ("surface", "e"),
    "classify-pair": ("surface", "e", "f"),
    "roots": ("surface",),
    "mutate": ("collection", "pos", "dir"),
    "braid": ("collection", "word", "out"),
    "helix": ("collection", "lo", "hi"),
    "gram": ("collection",),
    "check": ("collection",),
    "hn": ("graded", "ample"),
    "markov": ("limit", "braid"),
    "orbit": ("surface", "e", "f", "limit"),
    "normalize": ("collection", "mults", "out"),
    "peel": ("collection", "mults", "e_index", "out"),
    "descend": ("surface", "e"),
}


@st.composite
def argvs(draw):
    """A command with each of its flags given a fuzzed value or left out."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = [command]
    for flag in COMMAND_FLAGS[command]:
        if draw(st.integers(0, 7)):
            argv += [f"--{flag.replace('_', '-')}", draw(FLAG_VALUES[flag])]
    return argv


@FUZZ
@given(argv=argvs())
def test_cli_exits_0_1_or_2(argv):
    with tempfile.TemporaryDirectory() as out_dir:
        argv = [os.path.join(out_dir, OUT) if a == OUT else a for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.run(argv) in (0, 1, 2)
