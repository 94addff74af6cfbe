import json
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from _helpers import oracle_markov_closure, oracle_slope, p2_basic, random_kclass, surface

from delpezzo import (
    DomainError,
    LogStep,
    MutationLog,
    anticanonical_divisor,
    basic_collection,
    basic_collection_torsion_last,
    default_ample,
    intersect,
    normalize_and_descend,
    peel_curve,
    replay,
    slope_mu,
)
from delpezzo import cli as cli_module
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
MINUS_OH_P2 = '{"r":-1,"c1":[-1],"ch2":"-1/2"}'
P2_ONE_MEMBER = '{"surface":{"blowups":0},"members":[%s]}' % O_P2
P2_BASIC = json.dumps(p2_basic().to_json())
D1_BASIC = json.dumps(basic_collection(surface(1)).to_json())


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
        assert out == (
            '{"mu_h": "0/1", "mu_a": "0/1", '
            '"vector": {"rank": 1, "numerators": ["0/1", "0/1", "0/1"]}}\n'
        )

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

    def test_slopes_match_the_oracles_on_every_surface(self, capsys):
        # mu_h is H.c1/r through the intersection form; mu_a is A.c1/r for
        # the default ample class, printed for positive ranks only, with
        # the vector's integer numerators (H.c1, A.c1, 2 ch2) as "p/1".
        # The whole answer is pinned byte for byte.
        rng = random.Random(72)
        ranks = {"negative": 0, "zero": 0, "positive": 0}
        for d in range(9):
            S = surface(d)
            A = default_ample(S)
            for _ in range(12):
                E = random_kclass(rng, d, max_rank=4, min_rank=-2)
                argv = ["--surface", json.dumps(S.to_json()), "--e", json.dumps(E.to_json())]
                code, out, err = invoke(capsys, "slope", *argv)
                if E.r == 0:
                    ranks["zero"] += 1
                    with pytest.raises(DomainError, match="rank-0"):
                        slope_mu(S, E)
                    assert (code, out) == (2, "")
                    assert err == "domain error: slope is undefined for rank-0 classes\n"
                    continue
                mu = oracle_slope(S, E)
                assert slope_mu(S, E) == mu
                answer = doc(out)
                assert answer["mu_h"] == f"{mu.numerator}/{mu.denominator}"
                expected = {"mu_h": answer["mu_h"]}
                if E.r > 0:
                    ranks["positive"] += 1
                    mu_a = Fraction(intersect(S, A, E.c1), E.r)
                    assert answer["mu_a"] == f"{mu_a.numerator}/{mu_a.denominator}"
                    h = intersect(S, anticanonical_divisor(d), E.c1)
                    numerators = [h, intersect(S, A, E.c1), E.two_ch2]
                    assert answer["vector"] == {
                        "rank": E.r,
                        "numerators": [f"{x}/1" for x in numerators],
                    }
                    expected.update(mu_a=answer["mu_a"], vector=answer["vector"])
                else:
                    ranks["negative"] += 1
                    assert "mu_a" not in answer
                assert (code, out, err) == (0, json.dumps(expected) + "\n", "")
        assert min(ranks.values()) > 0, ranks


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


# Declared configurations no surface with -K nef has, with the words each
# refusal prints (see tests/test_picard.py for the library side).
REFUSED_SURFACES = {
    "opposite": ([[0, -1, 1, 0], [0, 1, -1, 0]], "root 1 (0, 1, -1, 0) is not positive"),
    "repeated": ([[0, -1, 1, 0], [0, -1, 1, 0]], "roots 0 and 1 are equal"),
    "negative-pairing": ([[0, -1, 1, 0], [0, -1, 0, 1]], "roots 0 and 1 meet negatively"),
    "dependent-cycle": (
        [[0, -1, 1, 0], [0, 0, -1, 1], [0, 1, 0, -1]], "root 2 (0, 1, 0, -1) is not positive"
    ),
    "d-plus-one": (
        [[0, -1, 1, 0], [0, 0, -1, 1], [1, 1, 1, 1], [0, 1, -1, 0]], "declared 4 roots"
    ),
    "huge": ([[0, -1, 1, 0]] * 100_000, "declared 100000 roots"),
}
O_D3 = '{"r":1,"c1":[0,0,0,0],"ch2":"0/1"}'
O_E1_E2_D3 = '{"r":1,"c1":[0,-1,1,0],"ch2":"-1/1"}'


class TestRefusedConfiguration:
    @pytest.mark.parametrize("command", ["roots", "classify-pair"])
    @pytest.mark.parametrize(
        "roots, words", REFUSED_SURFACES.values(), ids=list(REFUSED_SURFACES)
    )
    def test_exit_one_naming_the_roots(self, capsys, command, roots, words):
        surface_json = json.dumps({"blowups": 3, "effective_roots": roots})
        argv = [command, "--surface", surface_json]
        if command == "classify-pair":
            argv += ["--e", O_D3, "--f", O_E1_E2_D3]
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("invalid input: declared ") and words in err

    def test_both_orders_of_a_pair_are_refused_not_singular(self):
        # With C and -C declared, (O, O(C)) and (O(C), O) were both called
        # singular; the configuration itself is now refused.
        roots = REFUSED_SURFACES["opposite"][0]
        surface_json = json.dumps({"blowups": 3, "effective_roots": roots})
        for e, f in ((O_D3, O_E1_E2_D3), (O_E1_E2_D3, O_D3)):
            code, out, err = invoke_process(
                "classify-pair", "--surface", surface_json, "--e", e, "--f", f
            )
            assert (code, out) == (1, "")
            assert "is not positive" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["descend", "roots"])
    def test_a_non_positive_root_exits_one(self, command):
        # e2 - e1 on d = 2: with it declared, e2 would be reducible.
        argv = [command, "--surface", '{"blowups":2,"effective_roots":[[0,1,-1]]}']
        if command == "descend":
            argv += ["--e", '{"r":1,"c1":[0,0,0],"ch2":"0/1"}']
        code, out, err = invoke_process(*argv)
        assert (code, out) == (1, "")
        assert "declared root 0 (0, 1, -1) is not positive" in err
        assert "Traceback" not in err

    def test_valid_configuration_gives_a_zero_pair(self, capsys):
        # e2 - e3 is outside the span of e1 - e2.
        surface_json = '{"blowups":3,"effective_roots":[[0,-1,1,0]]}'
        f = '{"r":1,"c1":[0,-1,0,1],"ch2":"-1/1"}'
        code, out, _ = invoke(
            capsys, "classify-pair", "--surface", surface_json, "--e", O_E1_E2_D3, "--f", f
        )
        assert code == 0
        assert (doc(out)["kind"], doc(out)["C"]) == ("zero", [0, 0, -1, 1])
        assert "root_decomposition" not in doc(out)["evidence"]


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
            ["hn", "--graded", '{"quotients":5}'],
            ["check", "--collection", '{"surface":{"blowups":0},"members":5}'],
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


NOT_EXCEPTIONAL_P2 = json.dumps(
    {"surface": {"blowups": 0}, "members": [json.loads(x) for x in (O_P2, OH_P2, O_P2)]}
)


class TestRefusals:
    """Bad input exits 1; an answer too large to write, or one listing more
    classes than the budget, exits 2; each with a message and never a
    traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["mutate", "--collection", NOT_EXCEPTIONAL_P2, "--pos", "1", "--dir", "left"],
            ["mutate", "--collection", NOT_EXCEPTIONAL_P2, "--pos", "2", "--dir", "right"],
            ["braid", "--collection", NOT_EXCEPTIONAL_P2, "--word", "R1 L2"],
            ["braid", "--collection", NOT_EXCEPTIONAL_P2, "--word", ""],
            ["braid", "--collection", NOT_EXCEPTIONAL_P2, "--word", "   "],
        ],
        ids=["mutate-left", "mutate-right", "braid", "braid-empty", "braid-blank"],
    )
    def test_non_exceptional_input_exits_one(self, argv):
        code, out, err = invoke_process(*argv)
        assert code == 1, out
        assert "invalid input: collection is not numerically exceptional" in err
        assert "chi(E_2, E_0) = 1" in err
        assert "Traceback" not in err

    def test_directory_as_collection_exits_one(self, tmp_path):
        code, out, err = invoke_process("check", "--collection", str(tmp_path))
        assert (code, out) == (1, "")
        assert f"invalid input: cannot read JSON file {str(tmp_path)!r}" in err
        assert "Traceback" not in err

    def test_non_utf8_collection_file_exits_one(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"surface": {"blowups": 0}, "members": ["\xe9"]}')
        code, out, err = invoke_process("check", "--collection", str(path))
        assert (code, out) == (1, "")
        assert f"invalid input: cannot read JSON file {str(path)!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    def test_unwritable_log_exits_one(self, tmp_path, target):
        out_path = tmp_path if target == "directory" else tmp_path / "no" / "log.jsonl"
        code, out, err = invoke_process(
            "braid",
            "--collection",
            json.dumps(p2_basic().to_json()),
            "--word",
            "R1",
            "--out",
            str(out_path),
        )
        assert (code, out) == (1, "")
        assert f"invalid input: cannot write the log to {str(out_path)!r}" in err
        assert "Traceback" not in err

    def test_long_braid_position_exits_one(self):
        collection = json.dumps(p2_basic().to_json())
        code, out, err = invoke_process(
            "braid", "--collection", collection, "--word", "L" + "9" * 5000
        )
        assert code == 1, out
        assert "invalid input: braid position of 5000 digits" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("with_out", [False, True])
    def test_oversized_braid_answer_exits_two(self, tmp_path, with_out):
        # Rank and ch2 digit counts grow about 2.6x per "L1 R2"; after 11 of
        # them they pass the 4300-digit int-to-string limit.
        argv = ["braid", "--collection", json.dumps(p2_basic().to_json())]
        argv += ["--word", " ".join(["L1 R2"] * 11)]
        log_path = tmp_path / "braid.jsonl"
        if with_out:
            argv += ["--out", str(log_path)]
        code, out, err = invoke_process(*argv)
        assert code == 2
        assert out == ""
        assert "domain error: member E_" in err
        assert "more than 4300 digits" in err
        assert "Traceback" not in err
        assert not log_path.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["braid", "--collection", json.dumps(p2_basic().to_json()), "--word"],
            ["markov", "--braid"],
        ],
        ids=["braid", "markov"],
    )
    def test_long_braid_word_refused_at_the_size_budget(self, argv):
        # 100 x "L1 R2" would reach hundreds of thousands of digits; the
        # word is refused at the letter whose new member passes 4300.
        start = time.perf_counter()
        code, out, err = invoke_process(*argv, " ".join(["L1 R2"] * 100))
        elapsed = time.perf_counter() - start
        assert code == 2, out
        assert out == ""
        assert err == (
            "domain error: member E_2: class has an integer of more than 4300 "
            "digits, the limit for writing one\n"
        )
        assert elapsed < 1.0

    @pytest.mark.parametrize(
        "argv, asked",
        [
            (
                ["helix", "--collection", P2_ONE_MEMBER, "--lo", "-100000", "--hi", "100000"],
                "helix range [-100000, 100000] asks for 200001 classes",
            ),
            (
                ["orbit", "--surface", '{"blowups":0}', "--e", O_P2, "--f", MINUS_OH_P2,
                 "--limit", "100000"],
                "orbit limit 100000 asks for 200002 classes",
            ),
        ],
        ids=["helix", "orbit"],
    )
    def test_class_budget_refused_before_computing(self, argv, asked):
        start = time.perf_counter()
        code, out, err = invoke_process(*argv)
        elapsed = time.perf_counter() - start
        assert code == 2, out
        assert out == ""
        assert f"domain error: {asked}; an answer lists at most 1000" in err
        assert "Traceback" not in err
        assert elapsed < 1.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["helix", "--collection", P2_ONE_MEMBER, "--lo", "1", "--hi", "1000"],
            ["orbit", "--surface", '{"blowups":0}', "--e", O_P2, "--f", MINUS_OH_P2,
             "--limit", "499"],
        ],
        ids=["helix", "orbit"],
    )
    def test_class_budget_is_inclusive(self, capsys, argv):
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        assert len(doc(out)["classes"]) == 1000

    def test_gram_budget_refused_before_any_chi(self, capsys, monkeypatch):
        evaluated = []
        monkeypatch.setattr(
            "delpezzo.mutation.euler_pairing", lambda *a: evaluated.append(a) or 0
        )
        many = '{"surface":{"blowups":0},"members":[%s]}' % ",".join([O_P2] * 1001)
        code, out, err = invoke(capsys, "gram", "--collection", many)
        assert code == 2
        assert out == ""
        assert err == (
            "domain error: gram of 1001 members asks for 1001 classes; "
            "an answer lists at most 1000\n"
        )
        assert evaluated == []

    def test_markov_budget_refused_at_the_first_extra_triple(self):
        limit = 10**160
        start = time.perf_counter()
        code, out, err = invoke_process("markov", "--limit", str(limit))
        elapsed = time.perf_counter() - start
        assert code == 2, out
        assert out == ""
        assert err == (
            f"domain error: markov limit {limit} lists more than 1000 triples; "
            "an answer lists at most 1000\n"
        )
        assert elapsed < 1.0

    def test_markov_budget_is_inclusive(self, capsys):
        maxima = sorted(t[2] for t in oracle_markov_closure(10**40))
        edge = maxima[1000]  # the largest coordinate of the 1001st triple
        code, out, _ = invoke(capsys, "markov", "--limit", str(edge - 1))
        assert code == 0
        assert len(doc(out)["triples"]) == 1000
        code, out, err = invoke(capsys, "markov", "--limit", str(edge))
        assert code == 2
        assert out == ""
        assert "lists more than 1000 triples" in err

    def test_oversized_chi_exits_two(self):
        big = '{"r":1,"c1":[%s],"ch2":"1/2"}' % ("9" * 3000)
        code, out, err = invoke_process(
            "chi", "--surface", '{"blowups":0}', "--e", big, "--f", big
        )
        assert code == 2, out
        assert "domain error: answer too large to write" in err
        assert "Traceback" not in err


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

    def test_answer_is_the_sorted_vieta_closure(self, capsys):
        limit = 10**6
        triples = sorted(oracle_markov_closure(limit))
        maxima = {t[2] for t in triples}
        expected = {
            "triples": [list(t) for t in triples],
            "unique_max_verified_up_to": limit if len(maxima) == len(triples) else None,
        }
        code, out, _ = invoke(capsys, "markov", "--limit", str(limit))
        assert code == 0
        assert out == json.dumps(expected) + "\n"
        assert len(triples) == 40 and expected["unique_max_verified_up_to"] == limit

    @pytest.mark.parametrize("limit", ["1", "200", str(10**12)])
    def test_one_tree_walk_per_call(self, capsys, monkeypatch, limit):
        walks = []
        tree = cli_module.markov_tree

        def recorded(n):
            walks.append(n)
            return tree(n)

        monkeypatch.setattr(cli_module, "markov_tree", recorded)
        code, _, _ = invoke(capsys, "markov", "--limit", limit)
        assert code == 0
        assert walks == [int(limit)]

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_non_positive_limit_exits_one(self, capsys, limit):
        code, out, err = invoke(capsys, "markov", "--limit", limit)
        assert code == 1
        assert out == ""
        assert err == "invalid input: limit must be a positive integer\n"

    def test_braid_ranks(self, capsys):
        code, out, _ = invoke(capsys, "markov", "--braid", "R1 R2 R1")
        assert code == 0
        d = doc(out)
        assert d["is_markov_triple"] is True
        assert sorted(d["ranks"]) == d["triple"]

    @pytest.mark.parametrize(
        "argv",
        [["--braid", ""], ["--braid", " "], ["--limit", "3", "--braid", ""]],
        ids=["empty", "space", "with-limit"],
    )
    def test_empty_braid_is_the_identity_word(self, capsys, argv):
        code, out, err = invoke(capsys, "markov", *argv)
        assert (code, err) == (0, "")
        assert doc(out) == {"ranks": [1, 1, 1], "is_markov_triple": True, "triple": [1, 1, 1]}


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


    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_non_positive_limit_exits_one(self, capsys, limit):
        code, out, err = invoke(
            capsys, "orbit", "--surface", '{"blowups":0}', "--e", O_P2, "--f", MINUS_OH_P2,
            "--limit", limit,
        )
        assert code == 1
        assert out == ""
        assert err == "invalid input: orbit length must be a positive integer\n"

    def test_default_limit_is_five(self, capsys):
        code, out, _ = invoke(
            capsys, "orbit", "--surface", '{"blowups":0}', "--e", O_P2, "--f", MINUS_OH_P2
        )
        assert code == 0
        assert len(doc(out)["classes"]) == 12


class TestReplayCommand:
    """replay --log reads a JSON-lines log, replays it and prints the step
    count; a file it cannot read, a malformed log or one that does not
    replay exits 1 with the message that refuses it."""

    def write_log(self, capsys, tmp_path, command, *argv):
        log_path = tmp_path / f"{command}.jsonl"
        code, out, _ = invoke(capsys, command, *argv, "--out", str(log_path))
        assert code == 0
        return log_path, doc(out)["steps"]

    def test_normalize_log_replays(self, capsys, tmp_path):
        collection = json.dumps(basic_collection(surface(1)).to_json())
        log_path, steps = self.write_log(
            capsys, tmp_path, "normalize", "--collection", collection
        )
        code, out, err = invoke(capsys, "replay", "--log", str(log_path))
        assert (code, err) == (0, "")
        assert doc(out) == {"replayed": True, "steps": steps}
        assert steps == len(MutationLog.from_jsonl(log_path.read_text()))

    def test_braid_log_replays(self, capsys, tmp_path):
        collection = json.dumps(basic_collection(surface(3)).to_json())
        log_path, steps = self.write_log(
            capsys, tmp_path, "braid", "--collection", collection, "--word", "R1 L2 R3 L4"
        )
        code, out, _ = invoke(capsys, "replay", "--log", str(log_path))
        assert code == 0
        assert doc(out) == {"replayed": True, "steps": steps} == {"replayed": True, "steps": 4}

    def test_empty_log_replays(self, capsys, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n")
        code, out, _ = invoke(capsys, "replay", "--log", str(path))
        assert code == 0
        assert doc(out) == {"replayed": True, "steps": 0}

    @pytest.mark.parametrize("target", ["missing", "directory", "latin1"])
    def test_unreadable_log_exits_one(self, tmp_path, target):
        path = {"missing": tmp_path / "no.jsonl", "directory": tmp_path}.get(
            target, tmp_path / "latin1.jsonl"
        )
        if target == "latin1":
            path.write_bytes(b'{"kind": "\xe9"}\n')
        code, out, err = invoke_process("replay", "--log", str(path))
        assert (code, out) == (1, "")
        assert f"invalid input: cannot read the log {str(path)!r}" in err
        assert "Traceback" not in err

    def test_malformed_log_exits_one(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{oops\n")
        code, out, err = invoke(capsys, "replay", "--log", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("invalid input: log line is not readable JSON: ")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda lines: [lines[1], lines[0]] + lines[2:],
                "step 1 (mutate) does not start where step 0 ended",
            ),
            (
                lambda lines: lines[:-1] + [lines[-1].replace('"left"', '"right"')],
                "step 2 (mutate) does not replay to its recorded state",
            ),
        ],
        ids=["swapped", "edited"],
    )
    def test_log_that_does_not_replay_exits_one(self, capsys, tmp_path, edit, message):
        collection = json.dumps(p2_basic().to_json())
        log_path, _ = self.write_log(
            capsys, tmp_path, "braid", "--collection", collection, "--word", "R1 R2 L1"
        )
        lines = log_path.read_text().splitlines(keepends=True)
        log_path.write_text("".join(edit(lines)))
        code, out, err = invoke(capsys, "replay", "--log", str(log_path))
        assert (code, out) == (1, "")
        assert err == f"invalid input: {message}\n"


    def test_non_string_direction_exits_one(self, capsys, tmp_path):
        # A JSON list cannot key a dict: the direction lookup must refuse it,
        # not raise TypeError.
        collection = json.dumps(p2_basic().to_json())
        log_path, _ = self.write_log(
            capsys, tmp_path, "braid", "--collection", collection, "--word", "L1"
        )
        step = json.loads(log_path.read_text())
        step["params"]["direction"] = ["left"]
        log_path.write_text(json.dumps(step) + "\n")
        code, out, err = invoke_process("replay", "--log", str(log_path))
        assert (code, out) == (1, "")
        assert err == "invalid input: unknown direction ['left']\n"

    @pytest.mark.parametrize(
        "kind, params", [("rotate", {"j": 2}), ("twist", {"k_multiple": 1})]
    )
    def test_non_exceptional_before_exits_one(self, capsys, tmp_path, kind, params):
        # A rotation or twist carries its input's certificate, so an input
        # without one is malformed, as it is for a mutate step.
        before = basic_collection_torsion_last(surface(1))
        path = tmp_path / f"{kind}.jsonl"
        path.write_text(MutationLog((LogStep(kind, params, before, before),)).to_jsonl())
        code, out, err = invoke(capsys, "replay", "--log", str(path))
        assert (code, out) == (1, "")
        assert err == (
            "invalid input: collection is not numerically exceptional: chi(E_3, E_0) = -1\n"
        )


# Forms int() would read but JSON does not write: underscores, a plus sign,
# spaces, a leading zero, a decimal point, an exponent, non-ASCII digits.
MALFORMED_INTEGERS = [
    "1_0", "+1", " 1", "1 ", "01", "-01", "1.0", "1e1", "", "\u0665", "\u0661", "\uff11",
]

# One valid call per integer flag: (command and its other flags, flag, a
# value it accepts).
INTEGER_FLAGS = {
    "mutate-pos": (["mutate", "--collection", P2_BASIC, "--dir", "left"], "pos", "1"),
    "helix-lo": (["helix", "--collection", P2_BASIC], "lo", "-2"),
    "helix-hi": (["helix", "--collection", P2_BASIC], "hi", "5"),
    "markov-limit": (["markov"], "limit", "5"),
    "orbit-limit": (
        ["orbit", "--surface", '{"blowups":0}', "--e", O_P2, "--f", MINUS_OH_P2], "limit", "3"
    ),
    "peel-e-index": (["peel", "--collection", D1_BASIC], "e-index", "1"),
}


class TestIntegerFlags:
    """Every integer flag, each --mults field and each braid position is read
    as JSON writes an integer, -?(0|[1-9][0-9]*) in ASCII digits; any other
    form is malformed input (exit 1) with nothing on stdout."""

    @pytest.mark.parametrize("case", INTEGER_FLAGS)
    def test_valid_value_accepted(self, capsys, case):
        argv, flag, value = INTEGER_FLAGS[case]
        code, out, err = invoke(capsys, *argv, f"--{flag}={value}")
        assert code == 0, err
        assert doc(out)

    @pytest.mark.parametrize("value", MALFORMED_INTEGERS)
    @pytest.mark.parametrize("case", INTEGER_FLAGS)
    def test_malformed_value_exits_one(self, capsys, case, value):
        argv, flag, _ = INTEGER_FLAGS[case]
        code, out, err = invoke(capsys, *argv, f"--{flag}={value}")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: argument --{flag}: not a JSON integer: {value!r}\n")

    def test_integer_past_the_digit_limit_exits_one(self, capsys):
        code, out, err = invoke(capsys, "markov", "--limit", "1" * 5000)
        assert (code, out) == (1, "")
        assert err.startswith("error: argument --limit: integer of 5000 digits is too long\n")

    @pytest.mark.parametrize("position", ["01", "+1", "1_0", "1.0", "\u0661", "\uff11"])
    @pytest.mark.parametrize("command", ["braid", "markov"])
    def test_malformed_braid_position_exits_one(self, capsys, command, position):
        word = f"R1 L{position}"
        flags = ["--collection", P2_BASIC, "--word"] if command == "braid" else ["--braid"]
        code, out, err = invoke(capsys, command, *flags, word)
        assert (code, out) == (1, "")
        assert err == f"invalid input: bad braid letter {f'L{position}'!r}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["markov", "--limit", "1_0"],
            ["markov", "--limit", "\u0665"],
            ["mutate", "--collection", P2_BASIC, "--pos", "+1", "--dir", "left"],
            ["braid", "--collection", P2_BASIC, "--word", "L\u0661"],
            ["braid", "--collection", P2_BASIC, "--word", "L\uff11"],
        ],
        ids=["underscore", "arabic-indic-limit", "plus-pos", "arabic-indic-word", "fullwidth-word"],
    )
    def test_refused_without_a_traceback(self, argv):
        code, out, err = invoke_process(*argv)
        assert (code, out) == (1, "")
        assert "Traceback" not in err


MARKOV_USAGE = "usage: delpezzo markov [-h] [--limit LIMIT] [--braid BRAID]\n"


class TestUsageOnError:
    """An argument error prints the usage of the parser that refused it:
    the command's own for a command's flag, the top level's otherwise."""

    @pytest.mark.parametrize(
        "argv, usage",
        [
            (["markov", "--limit", "1_0"], MARKOV_USAGE),
            (["markov", "--limit", "5", "--bogus"], MARKOV_USAGE),
            (
                ["mutate", "--collection", P2_BASIC, "--pos", "1"],
                "usage: delpezzo mutate [-h] --collection COLLECTION --pos POS --dir DIR\n",
            ),
            (["roots"], "usage: delpezzo roots [-h] --surface SURFACE\n"),
        ],
        ids=["bad-type", "unknown-flag", "missing-flag", "no-flags"],
    )
    def test_command_error_prints_the_command_usage(self, capsys, argv, usage):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        assert err.endswith(usage)

    @pytest.mark.parametrize(
        "argv", [["frobnicate"], ["--seed", "3", "markov", "--limit", "5"], []]
    )
    def test_top_level_error_prints_every_command(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert "usage: delpezzo [-h]" in err and "{chi,slope," in err and "replay}" in err


class TestStrictWords:
    """Braid letters are separated by ASCII spaces alone, and --dir is
    exactly left or right; anything else is malformed input (exit 1)."""

    @pytest.mark.parametrize(
        "separator", ["\u3000", "\u00a0", "\t", "\n"], ids=["ideographic", "nbsp", "tab", "newline"]
    )
    @pytest.mark.parametrize("command", ["braid", "markov"])
    def test_other_whitespace_between_letters_exits_one(self, capsys, command, separator):
        word = f"L1{separator}R2"
        flags = ["--collection", P2_BASIC, "--word"] if command == "braid" else ["--braid"]
        code, out, err = invoke(capsys, command, *flags, word)
        assert (code, out) == (1, "")
        assert err == f"invalid input: bad braid letter {word!r}\n"

    @pytest.mark.parametrize("word", ["L1 R2", "  L1   R2 ", " l1 r2", "L1 R2  "])
    @pytest.mark.parametrize("command", ["braid", "markov"])
    def test_ascii_spaces_separate_letters(self, capsys, command, word):
        flags = ["--collection", P2_BASIC, "--word"] if command == "braid" else ["--braid"]
        expected = invoke(capsys, command, *flags, "L1 R2")
        assert expected[0] == 0
        assert invoke(capsys, command, *flags, word) == expected

    @pytest.mark.parametrize("value", [" Left ", "LEFT", "Left", "left\n", "", "L", "r"])
    def test_malformed_direction_exits_one(self, capsys, value):
        code, out, err = invoke(
            capsys, "mutate", "--collection", P2_BASIC, "--pos", "1", "--dir", value
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: argument --dir: invalid Direction value: {value!r}\n")

    @pytest.mark.parametrize("value", ["left", "right"])
    def test_direction_names_accepted(self, capsys, value):
        code, out, err = invoke(
            capsys, "mutate", "--collection", P2_BASIC, "--pos", "1", "--dir", value
        )
        assert code == 0, err
        assert len(doc(out)["members"]) == 3


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

    @pytest.mark.parametrize("e_index", ["0", "3", "-1"])
    def test_peel_curve_past_the_surface_exits_one(self, capsys, e_index):
        # The first two members of the d = 2 basic collection are torsion,
        # so the index is read off a torsion member before any bundle.
        c = basic_collection(surface(2))
        assert [m.r for m in c.members[:2]] == [0, 0]
        argv = ["peel", "--collection", json.dumps(c.to_json()), "--e-index", e_index]
        code, out, err = invoke(capsys, *argv)
        assert code == 1, out
        assert out == ""
        assert err == f"invalid input: e_{e_index} does not exist with 2 blow-ups\n"

    @pytest.mark.parametrize("command", ["normalize", "peel"])
    @pytest.mark.parametrize(
        "mults",
        ["1_0,1, +1 ,1", "1_0,1,1,1", "+1,1,1,1", " 1,1,1,1", "1,1,1 ,1", "1,,1,1",
         "1,1,1,1,", ",1,1,1,1", "", "1.0,1,1,1", "01,1,1,1", "1,1,1,\u0661",
         "-01,1,1,1", "1e1,1,1,1", "1,1,\uff11,1", "1," + "1" * 5000 + ",1,1"],
    )
    def test_mults_must_be_json_integers(self, capsys, command, mults):
        collection = json.dumps(basic_collection(surface(1)).to_json())
        argv = [command, "--collection", collection, f"--mults={mults}"]
        code, out, err = invoke(capsys, *argv)
        assert code == 1, out
        assert out == ""
        assert err == f"invalid input: bad multiplicities {mults!r}\n"

    @pytest.mark.parametrize("command", ["normalize", "peel"])
    def test_mults_read_as_given(self, capsys, command):
        S = surface(1)
        c = basic_collection(S)
        code, out, _ = invoke(
            capsys, command, "--collection", json.dumps(c.to_json()), "--mults", "1,2,1,1"
        )
        assert code == 0
        if command == "peel":
            G, alpha, _ = peel_curve(c, [1, 2, 1, 1], 1)
            assert doc(out) == {"class": G.to_json(), "alpha": alpha}
        else:
            G, log = normalize_and_descend(c, [1, 2, 1, 1])
            assert doc(out) == {"descended": G.to_json(), "alpha": 1, "steps": len(log)}

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
