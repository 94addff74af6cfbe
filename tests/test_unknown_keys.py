"""Every JSON object the package reads holds exactly its listed keys.  One
unknown key in any format, the params of each log step kind among them,
is refused with InvalidInputError naming the key, and the CLI command that
reads the format exits 1 with nothing on stdout and no traceback."""

import json

import pytest
from _helpers import braid_log, scrambled_log

from delpezzo import (
    Collection,
    GradedObject,
    InvalidInputError,
    KClass,
    LogStep,
    MutationLog,
    Surface,
    basic_collection,
    replay,
)
from delpezzo.cli import run

KEY = "extra"
SURFACE = Surface(1).to_json()
COLLECTION = basic_collection(Surface(1)).to_json()
MEMBER = COLLECTION["members"][-1]
GRADED = {"quotients": [{"class": MEMBER, "mult": 2}]}


def step_json(kind: str) -> dict:
    """The first step of the kind in a braid or a pipeline log, as JSON."""
    log = braid_log() if kind == "mutate" else scrambled_log()
    return next(s for s in log.steps if s.kind == kind).to_json()


def plus_key(obj: dict) -> dict:
    return {**obj, KEY: 1}


def in_quotient(doc: dict) -> dict:
    return {"quotients": [plus_key(doc["quotients"][0])]}


def in_state(doc: dict) -> dict:
    return {**doc, "before": plus_key(doc["before"])}


def in_params(doc: dict) -> dict:
    return {**doc, "params": plus_key(doc["params"])}


def replay_one(doc: dict) -> bool:
    return replay(MutationLog((LogStep.from_json(doc),)))


def chi(surface: dict, e: dict) -> list[str]:
    return ["chi", "--surface", json.dumps(surface), "--e", json.dumps(e), "--f", json.dumps(e)]


def replay_file(doc: dict, tmp_path) -> list[str]:
    path = tmp_path / "log.jsonl"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return ["replay", "--log", str(path)]


# Each format: the name its messages give, a valid document, where the key
# goes, the library reader, and the command line that reads the document.
CASES = {
    "surface": (SURFACE, plus_key, Surface.from_json, lambda doc, _: chi(doc, MEMBER)),
    "K-class": (MEMBER, plus_key, KClass.from_json, lambda doc, _: chi(SURFACE, doc)),
    "collection": (
        COLLECTION,
        plus_key,
        Collection.from_json,
        lambda doc, _: ["check", "--collection", json.dumps(doc)],
    ),
    "graded object": (
        GRADED,
        plus_key,
        GradedObject.from_json,
        lambda doc, _: ["hn", "--graded", json.dumps(doc)],
    ),
    "graded quotient": (
        GRADED,
        in_quotient,
        GradedObject.from_json,
        lambda doc, _: ["hn", "--graded", json.dumps(doc)],
    ),
    "log step": (step_json("mutate"), plus_key, replay_one, replay_file),
    "log state": (step_json("mutate"), in_state, replay_one, replay_file),
    **{
        f"{kind} params": (step_json(kind), in_params, replay_one, replay_file)
        for kind in ("mutate", "order", "rotate", "twist", "peel", "descend")
    },
}


def test_every_step_kind_is_covered():
    kinds = {s.kind for log in (braid_log(), scrambled_log()) for s in log.steps}
    assert len(kinds) == 6
    assert {f"{kind} params" for kind in kinds} <= CASES.keys()


@pytest.mark.parametrize("name", CASES)
def test_the_library_reads_the_document_and_refuses_the_key(name):
    doc, add_key, read, _ = CASES[name]
    read(doc)
    with pytest.raises(InvalidInputError) as err:
        read(add_key(doc))
    assert str(err.value) == f"unknown {name} key {KEY!r}"


@pytest.mark.parametrize("name", CASES)
def test_the_cli_exits_one_naming_the_key(name, capsys, tmp_path):
    doc, add_key, _, argv = CASES[name]
    code = run(argv(add_key(doc), tmp_path))
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == f"invalid input: unknown {name} key {KEY!r}\n"
    assert "Traceback" not in captured.err
