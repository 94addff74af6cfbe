import pytest
from _helpers import p2_basic, surface

from delpezzo import (
    BraidWord,
    Collection,
    InvalidInputError,
    LogStep,
    MutationLog,
    apply_braid,
    basic_collection,
    normalize_and_descend,
    replay,
    structure_class,
)


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

    def test_braid_log_round_trip(self):
        _, log = apply_braid(p2_basic(), BraidWord.parse("R1 L2 R2"))
        assert MutationLog.from_jsonl(log.to_jsonl()) == log


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
