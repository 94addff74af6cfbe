import json
import os
import pathlib
import subprocess
import sys

import pytest
from _helpers import p2_basic, surface

from delpezzo import MutationLog, basic_collection, replay
from delpezzo.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def doc(out: str):
    return json.loads(out)


def invoke_process(*argv):
    """Run the CLI in a fresh interpreter, so an escaping exception shows as
    a traceback on stderr."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "delpezzo.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


O_P2 = '{"r":1,"c1":[0],"ch2":"0/1"}'
OH_P2 = '{"r":1,"c1":[1],"ch2":"1/2"}'


class TestChi:
    def test_plane_example(self, capsys):
        code, out, _ = invoke(
            capsys, "chi", "--surface", '{"blowups":0}', "--e", O_P2, "--f", OH_P2
        )
        assert code == 0
        assert doc(out) == {"chi": 3}

    def test_bad_json_exits_one(self, capsys):
        code, _, err = invoke(
            capsys, "chi", "--surface", "{oops", "--e", O_P2, "--f", OH_P2
        )
        assert code == 1
        assert "invalid input" in err

    def test_unknown_command_exits_one(self, capsys):
        code, _, _ = invoke(capsys, "frobnicate")
        assert code == 1

    def test_no_global_seed_flag(self, capsys):
        code, out, _ = invoke(capsys, "--seed", "3", "markov", "--limit", "5")
        assert code == 1
        assert out == ""


class TestSlope:
    def test_structure_sheaf(self, capsys):
        code, out, _ = invoke(
            capsys, "slope", "--surface", '{"blowups":0}', "--e", O_P2
        )
        assert code == 0
        d = doc(out)
        assert d["mu_h"] == "0/1"
        assert d["vector"]["rank"] == 1

    def test_rank_zero_is_domain_error(self, capsys):
        code, _, err = invoke(
            capsys,
            "slope",
            "--surface",
            '{"blowups":1}',
            "--e",
            '{"r":0,"c1":[0,-1],"ch2":"-1/2"}',
        )
        assert code == 2
        assert "domain error" in err


class TestClassifyPair:
    def test_singular_with_evidence(self, capsys):
        code, out, _ = invoke(
            capsys,
            "classify-pair",
            "--surface",
            '{"blowups":2,"effective_roots":[[0,-1,1]]}',
            "--e",
            '{"r":1,"c1":[0,0,0],"ch2":"0/1"}',
            "--f",
            '{"r":1,"c1":[0,-1,1],"ch2":"-1/1"}',
        )
        assert code == 0
        d = doc(out)
        assert d["kind"] == "singular"
        assert d["dims"] == [1, 1]
        assert d["C"] == [0, -1, 1]
        assert d["evidence"]["root_decomposition"] == [1]


def _class_json(r="1", c1="[0]", ch2='"0/1"'):
    return f'{{"r":{r},"c1":{c1},"ch2":{ch2}}}'


class TestStrictJson:
    """Non-integers, bools and malformed or oversized numbers are malformed
    input (exit 1), never truncated, coerced or a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["chi", "--e", '{"r":1.9,"c1":[0.2],"ch2":0.7}'],
            ["chi", "--e", _class_json(r="1.0")],
            ["chi", "--e", _class_json(r="true")],
            ["chi", "--e", _class_json(c1="[0.2]")],
            ["chi", "--e", _class_json(c1="[true]", ch2='"1/2"')],
            ["chi", "--e", _class_json(c1='"0"')],
            ["chi", "--e", _class_json(ch2="0.5")],
            ["chi", "--e", _class_json(ch2="true")],
            ["chi", "--e", _class_json(ch2='"0.5e1"')],
            ["chi", "--e", _class_json(ch2='"1e5000"')],
            ["chi", "--e", _class_json(ch2='" 1/2"')],
            ["chi", "--e", _class_json(ch2='"1/0"')],
            ["chi", "--e", _class_json(c1="[1]", ch2='"1/3"')],
            ["chi", "--e", _class_json(ch2="1" + "0" * 5000)],
            ["chi", "--e", _class_json(ch2='"1' + "0" * 5000 + '"')],
            ["roots", "--surface", '{"blowups":2.9}'],
            ["roots", "--surface", '{"blowups":true}'],
            ["roots", "--surface", '{"blowups":2,"effective_roots":5}'],
            ["hn", "--graded", '{"quotients":[{"class":%s,"mult":1.5}]}' % O_P2],
        ],
        ids=lambda argv: argv[-1][:40],
    )
    def test_rejected_with_exit_one(self, argv):
        if argv[0] == "chi":
            argv = argv + ["--surface", '{"blowups":0}', "--f", O_P2]
        code, out, err = invoke_process(*argv)
        assert code == 1, out
        assert "invalid input" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "e, chi",
        [
            (_class_json(ch2="0"), 3),
            (_class_json(ch2='"3"'), 6),
            (_class_json(r="2", c1="[3]", ch2='"-5/2"'), -4),
        ],
    )
    def test_accepted_ch2_forms(self, capsys, e, chi):
        code, out, _ = invoke(
            capsys, "chi", "--surface", '{"blowups":0}', "--e", e, "--f", OH_P2
        )
        assert code == 0
        assert doc(out) == {"chi": chi}


class TestRoots:
    def test_non_integer_blowups_exits_one(self):
        code, _, err = invoke_process("roots", "--surface", '{"blowups":"x"}')
        assert code == 1
        assert "invalid input" in err
        assert "Traceback" not in err

    def test_d2(self, capsys):
        code, out, _ = invoke(capsys, "roots", "--surface", '{"blowups":2}')
        assert code == 0
        assert doc(out) == {"count": 2, "roots": [[0, -1, 1], [0, 1, -1]]}


class TestCollectionCommands:
    @pytest.fixture
    def basic_file(self, tmp_path):
        path = tmp_path / "basic_d2.json"
        path.write_text(json.dumps(basic_collection(surface(2)).to_json()))
        return str(path)

    def test_check(self, capsys, basic_file):
        code, out, _ = invoke(capsys, "check", "--collection", basic_file)
        assert code == 0
        assert doc(out) == {"exceptional": True}

    def test_check_failing_collection(self, capsys, tmp_path):
        from delpezzo import basic_collection_torsion_last

        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(basic_collection_torsion_last(surface(1)).to_json())
        )
        code, out, _ = invoke(capsys, "check", "--collection", str(path))
        assert code == 0
        d = doc(out)
        assert d["exceptional"] is False
        assert d["violation"]["chi"] == -1

    def test_gram(self, capsys, tmp_path):
        path = tmp_path / "p2.json"
        path.write_text(json.dumps(p2_basic().to_json()))
        code, out, _ = invoke(capsys, "gram", "--collection", str(path))
        assert code == 0
        assert doc(out) == {"gram": [[1, 3, 6], [0, 1, 3], [0, 0, 1]]}

    def test_mutate_round_trips_through_itself(self, capsys, tmp_path):
        path = tmp_path / "p2.json"
        path.write_text(json.dumps(p2_basic().to_json()))
        code, out, _ = invoke(
            capsys, "mutate", "--collection", str(path), "--pos", "1", "--dir", "right"
        )
        assert code == 0
        first = doc(out)
        path2 = tmp_path / "mutated.json"
        path2.write_text(json.dumps(first))
        code, out2, _ = invoke(
            capsys, "mutate", "--collection", str(path2), "--pos", "1", "--dir", "left"
        )
        assert code == 0
        assert doc(out2) == json.loads(path.read_text())

    def test_braid_with_log(self, capsys, tmp_path):
        path = tmp_path / "p2.json"
        path.write_text(json.dumps(p2_basic().to_json()))
        log_path = tmp_path / "braid.jsonl"
        code, out, _ = invoke(
            capsys,
            "braid",
            "--collection",
            str(path),
            "--word",
            "R1 L1",
            "--out",
            str(log_path),
        )
        assert code == 0
        d = doc(out)
        assert d["steps"] == 2
        assert d["collection"] == json.loads(path.read_text())
        log = MutationLog.from_jsonl(log_path.read_text())
        assert replay(log)

    def test_helix(self, capsys, tmp_path):
        path = tmp_path / "p2.json"
        path.write_text(json.dumps(p2_basic().to_json()))
        code, out, _ = invoke(
            capsys, "helix", "--collection", str(path), "--lo", "4", "--hi", "4"
        )
        assert code == 0
        d = doc(out)
        assert d["classes"][0]["class"] == {"r": 1, "c1": [3], "ch2": "9/2"}

    def test_mutate_out_of_range_is_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "p2.json"
        path.write_text(json.dumps(p2_basic().to_json()))
        code, _, err = invoke(
            capsys, "mutate", "--collection", str(path), "--pos", "9", "--dir", "left"
        )
        assert code == 1
        assert "invalid input" in err


class TestHN:
    def test_coarsen(self, capsys):
        graded = {
            "quotients": [
                {"class": {"r": 1, "c1": [1, 1], "ch2": "0/1"}, "mult": 1},
                {"class": {"r": 1, "c1": [0, 0], "ch2": "0/1"}, "mult": 1},
            ]
        }
        code, out, _ = invoke(capsys, "hn", "--graded", json.dumps(graded))
        assert code == 0
        d = doc(out)
        assert len(d["quotients"]) == 1
        assert d["quotients"][0]["class"]["r"] == 2

    def test_quotient_without_class_exits_one(self):
        graded = {"quotients": [{"mult": 1}]}
        code, _, err = invoke_process("hn", "--graded", json.dumps(graded))
        assert code == 1
        assert "invalid input" in err
        assert "Traceback" not in err


class TestMarkov:
    def test_limit(self, capsys):
        code, out, _ = invoke(capsys, "markov", "--limit", "5")
        assert code == 0
        assert doc(out) == {
            "triples": [[1, 1, 1], [1, 1, 2], [1, 2, 5]],
            "unique_max_verified_up_to": 5,
        }

    def test_braid_ranks(self, capsys):
        code, out, _ = invoke(capsys, "markov", "--braid", "R1 R2 R1")
        assert code == 0
        d = doc(out)
        assert d["is_markov_triple"] is True
        assert sorted(d["ranks"]) == d["triple"]


class TestOrbit:
    def test_h2_orbit(self, capsys):
        code, out, _ = invoke(
            capsys,
            "orbit",
            "--surface",
            '{"blowups":2}',
            "--e",
            '{"r":1,"c1":[0,0,0],"ch2":"0/1"}',
            "--f",
            '{"r":1,"c1":[0,0,2],"ch2":"-2/1"}',
            "--limit",
            "4",
        )
        assert code == 0
        d = doc(out)
        assert d["h"] == 2
        assert d["x"] == [0, 1, 2, 3, 4, 5]


class TestPipelineCommands:
    def test_normalize_with_log(self, capsys, tmp_path):
        S = surface(1)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(basic_collection(S).to_json()))
        log_path = tmp_path / "log.jsonl"
        code, out, _ = invoke(
            capsys,
            "normalize",
            "--collection",
            str(path),
            "--mults",
            "1,1,1,1",
            "--out",
            str(log_path),
        )
        assert code == 0
        d = doc(out)
        assert d["descended"]["r"] == 3
        assert d["alpha"] == 1
        assert replay(MutationLog.from_jsonl(log_path.read_text()))

    def test_normalize_domain_error_exit_two(self, capsys, tmp_path):
        path = tmp_path / "p2.json"
        path.write_text(json.dumps(p2_basic().to_json()))
        code, _, err = invoke(capsys, "normalize", "--collection", str(path))
        assert code == 2
        assert "domain error" in err

    def test_peel(self, capsys, tmp_path):
        S = surface(1)
        from delpezzo import Collection, line_class
        from delpezzo.picard import exceptional_divisor

        c = Collection(S, (line_class(S, exceptional_divisor(1, 1)),))
        path = tmp_path / "c.json"
        path.write_text(json.dumps(c.to_json()))
        code, out, _ = invoke(capsys, "peel", "--collection", str(path))
        assert code == 0
        d = doc(out)
        assert d == {"class": {"r": 1, "c1": [0, 0], "ch2": "0/1"}, "alpha": 1}

    def test_descend(self, capsys):
        code, out, _ = invoke(
            capsys,
            "descend",
            "--surface",
            '{"blowups":1}',
            "--e",
            '{"r":2,"c1":[3,0],"ch2":"3/2"}',
        )
        assert code == 0
        d = doc(out)
        assert d["class"] == {"r": 2, "c1": [3], "ch2": "3/2"}
        assert d["surface"] == {"blowups": 0}
