import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from laumonk import cli
from laumonk.cli import main
from laumonk.patterns import AffinePattern, PatternError, \
    enumerate_affine_total
from laumonk.tangent import TangentOracle, WeightMultiset


def run_cli(args):
    return main(args)


def test_patterns_counts(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert run_cli(["patterns", "--finite", "-n", "3", "-d", "1,1",
                    "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["count"] == 2
    assert run_cli(["patterns", "--affine", "-n", "2", "--total", "1",
                    "--out", str(out)]) == 0
    assert json.loads(out.read_text())["count"] == 2
    assert run_cli(["patterns", "--finite", "-n", "2", "-d", "0",
                    "--out", str(out)]) == 0
    assert json.loads(out.read_text())["count"] == 1


def test_patterns_scopes_that_list_nothing_exit_2(tmp_path):
    out = tmp_path / "p.json"
    for bad in (["--affine", "-n", "3", "--total", "-1"],
                ["--affine", "-n", "0", "--total", "1"],
                ["--affine", "-n", "3", "-d", "1,0,0", "--total", "1"],
                ["--finite", "-n", "3", "--total", "1"],
                ["-n", "3", "-d", "1,1", "--total", "1"]):
        try:
            code = run_cli(["patterns"] + bad + ["--out", str(out)])
        except SystemExit as err:
            code = err.code
        assert code == 2, bad
    assert not out.exists()
    with pytest.raises(PatternError):
        enumerate_affine_total(1, 0)


def test_verify_exit_codes(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli(["verify", "--suite", "loop", "-n", "2", "-D", "2",
                    "-R", "1", "--strategy", "random", "--seed", "7",
                    "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["all_pass"] is True
    assert all(r["status"] == "pass" for r in data["reports"])
    # the controls suite exits 0 exactly when every mutation failed
    assert run_cli(["verify", "--suite", "controls", "-n", "3",
                    "--strategy", "random", "--seed", "3",
                    "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert all(r["status"] == "fail" for r in data["reports"])
    # the payload states the scope the controls ran at
    assert (data["max_degree"], data["window"]) == (2, 1)
    # the controls need the affine module, so n = 2 is rejected as by the
    # toroidal suite, not run at another rank
    for suite in ("controls", "toroidal"):
        assert run_cli(["verify", "--suite", suite, "-n", "2", "-D", "1",
                        "--out", str(out) + suite]) == 2
        assert not os.path.exists(str(out) + suite)
    # the oracle compares symbolically: another strategy is rejected, and
    # the seed the payload states is the seed its report ran with
    assert run_cli(["verify", "--suite", "oracle", "-n", "3", "-D", "1",
                    "--strategy", "random", "--seed", "5",
                    "--out", str(out) + "oracle"]) == 2
    assert not os.path.exists(str(out) + "oracle")
    assert run_cli(["verify", "--suite", "oracle", "-n", "3", "-D", "1",
                    "--seed", "5", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["seed"] == 5
    assert [r["scope"]["seed"] for r in data["reports"]] == [5]
    # a scope that checks nothing is rejected, not passed
    for bad in (["--strategy", "random", "--trials", "0"], ["-D", "-1"],
                ["-R", "-1"]):
        with pytest.raises(SystemExit) as err:
            run_cli(["verify", "--suite", "loop", "-n", "3", "-D", "1"]
                    + bad + ["--out", str(out)])
        assert err.value.code == 2, bad


def test_oracle_suite_cli(tmp_path):
    out = tmp_path / "o.json"
    assert run_cli(["verify", "--suite", "oracle", "-n", "3", "-D", "1",
                    "--out", str(out)]) == 0


class _OffByOne(WeightMultiset):
    __slots__ = ()

    def size(self):
        return super().size() + 1


def _off_by_one(chars):
    bad = _OffByOne.__new__(_OffByOne)
    bad.ctx, bad.weights = chars.ctx, chars.weights
    return bad


class _WrongSpace(TangentOracle):
    def tangent_character_space(self, p):
        return _off_by_one(super().tangent_character_space(p))


class _WrongCorrespondence(TangentOracle):
    def tangent_character_correspondence(self, src, i, j):
        return _off_by_one(
            super().tangent_character_correspondence(src, i, j))


class _ExtraWeight(TangentOracle):
    # a real character defect: one weight too many in both characters
    def _four_sums(self, p, acc):
        super()._four_sums(p, acc)
        acc[self.ctx.v ** 4] += 1


@pytest.mark.parametrize("oracle, label", [
    (_WrongSpace, "character size"),
    (_WrongCorrespondence, "correspondence size"),
    (_ExtraWeight, "character size"),
])
def test_oracle_size_counterexamples_carry_the_standard_keys(
        monkeypatch, oracle, label):
    monkeypatch.setattr(cli, "TangentOracle", oracle)
    (report,) = cli.oracle_suite(3, max_degree=1)
    assert report.status == "fail"
    cex = report.counterexample
    assert set(cex) == {"source", "target", "modes", "residual", "size"}
    assert cex["modes"][-1] == label
    assert cex["residual"] == "1"
    expected = 2 * sum(AffinePattern.from_json(cex["source"]).degree())
    if label == "correspondence size":
        expected += 1
        assert cex["modes"][0] == "f" and cex["target"] != cex["source"]
    else:
        assert cex["target"] == cex["source"]
    assert cex["size"] == expected + 1


def test_oracle_bott_mismatch_is_a_counterexample(monkeypatch):
    # a Bott coefficient off by one fails the first entry it reaches: the
    # mode -1 f-move out of the empty pattern, with the plain report keys
    bott = TangentOracle.bott_coefficient
    monkeypatch.setattr(TangentOracle, "bott_coefficient",
                        lambda self, *args: bott(self, *args) + 1)
    (report,) = cli.oracle_suite(3, max_degree=1)
    assert report.status == "fail" and report.entries_checked == 69
    cex = report.counterexample
    assert sorted(cex) == ["modes", "residual", "source", "target"]
    assert cex["source"] == AffinePattern.empty(3).to_json()
    assert cex["target"] == AffinePattern(3, [(1,), (), ()]).to_json()
    assert cex["modes"] == ["f", 1, 1, -1]
    assert cex["residual"] == "1"


@pytest.mark.parametrize("args", [
    ["verify", "--suite", "loop", "-n", "2", "-D", "1", "-R", "600000"],
    ["verify", "--suite", "toroidal", "-n", "3", "-D", "1", "-R", "300000"],
    ["op-matrix", "-n", "3", "--kind", "f", "--node", "1", "-d", "0,0",
     "-r", "700000"],
], ids=["loop", "toroidal", "op-matrix"])
def test_modes_beyond_the_exponent_range_exit_2(tmp_path, capsys, args):
    # the first power of a spectral factor at such a mode leaves the
    # monomial exponent range (symbolic strategy)
    out = tmp_path / "r.json"
    assert run_cli(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err \
        == "error: monomial exponent out of range\n"
    assert not out.exists()


def test_specialize_cli(tmp_path):
    out = tmp_path / "s.json"
    assert run_cli(["specialize", "-n", "3", "-K", "1", "--mu", "0,0,0",
                    "--max-degree", "1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["closure"] is True
    assert run_cli(["specialize", "-n", "3", "-K", "1", "--mu", "1,0,0",
                    "--max-degree", "1", "--out", str(out)]) == 0
    # a negative degree bound would close over no block
    with pytest.raises(SystemExit) as err:
        run_cli(["specialize", "-n", "3", "-K", "1", "--mu", "0,0,0",
                 "--max-degree", "-1", "--out", str(out)])
    assert err.value.code == 2
    # K = 0 rejected
    assert run_cli(["specialize", "-n", "3", "-K", "0", "--mu", "0,0,0"]) == 2
    # non-dominant mu rejected
    assert run_cli(["specialize", "-n", "3", "-K", "1", "--mu", "0,1,0"]) == 2
    # wrong u exponent fails closure
    assert run_cli(["specialize", "-n", "3", "-K", "1", "--mu", "0,0,0",
                    "--max-degree", "1", "--wrong-u",
                    "--out", str(out)]) == 1


def test_op_matrix_cli(tmp_path):
    out = tmp_path / "m.json"
    assert run_cli(["op-matrix", "-n", "2", "--kind", "f", "--node", "1",
                    "-d", "0", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["entries"]) == 1
    assert run_cli(["op-matrix", "-n", "3", "--affine", "--kind", "f",
                    "--node", "1", "-d", "0,0,0", "-r", "1",
                    "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["entries"][0]["node_residue"] == 1
    assert "u_exponent" in data["entries"][0]


def test_byte_identical_reports(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--suite", "loop", "-n", "2", "-D", "2", "-R", "1",
            "--strategy", "random", "--seed", "11"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_worker_count_does_not_change_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = ["verify", "--suite", "glzero", "-n", "2", "-D", "2",
            "--strategy", "random", "--seed", "2"]
    assert run_cli(base + ["--workers", "1", "--out", str(a)]) == 0
    assert run_cli(base + ["--workers", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_defaults_and_flag_override(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"n": 2, "max_degree": 2, "window": 1,
                                "strategy": "random", "seed": 5}))
    out = tmp_path / "r.json"
    assert run_cli(["verify", "--suite", "loop", "--config", str(conf),
                    "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["n"] == 2 and data["seed"] == 5
    # explicit flag beats the config value
    assert run_cli(["verify", "--suite", "loop", "--config", str(conf),
                    "--seed", "9", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 9
    # ... also when the flag repeats the parser default
    assert run_cli(["verify", "--suite", "loop", "--config", str(conf),
                    "--seed", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 0
    # a key that is not an option of the subcommand is rejected
    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps({"n": 2, "max_degree": 2, "sedd": 5}))
    out.unlink()
    assert run_cli(["verify", "--suite", "loop", "--config", str(typo),
                    "--out", str(out)]) == 2
    assert not out.exists()
    # config values pass the checks of their flags: choices and type
    for bad in ({"strategy": "bogus", "n": 2, "max_degree": 1},
                {"trials": 2.5, "strategy": "random", "n": 2,
                 "max_degree": 1},
                {"trials": 0, "strategy": "random", "n": 2, "max_degree": 1},
                {"n": 2, "max_degree": -1}, {"n": 2, "window": -1}):
        typo.write_text(json.dumps(bad))
        assert run_cli(["verify", "--suite", "loop", "--config", str(typo),
                        "--out", str(out)]) == 2, bad
        assert not out.exists()


# one small command of each kind the benchmark runs
SYMPY_FREE_COMMANDS = [
    ["verify", "--suite", "loop", "-n", "2", "-D", "2", "-R", "1"],
    ["verify", "--suite", "loop", "-n", "2", "-D", "2", "-R", "1",
     "--strategy", "random", "--seed", "7"],
    ["verify", "--suite", "toroidal", "-n", "3", "-D", "1", "-R", "1"],
    ["verify", "--suite", "controls", "-n", "3", "-D", "1"],
    ["verify", "--suite", "glzero", "-n", "3", "-D", "1"],
    ["verify", "--suite", "oracle", "-n", "3", "-D", "1"],
    ["patterns", "--affine", "-n", "3", "--total", "1"],
    ["specialize", "-n", "3", "-K", "1", "--mu", "1,0,0",
     "--max-degree", "2"],
    ["specialize", "-n", "3", "-K", "1", "--mu", "0,0,0",
     "--max-degree", "1", "--wrong-u"],
    ["op-matrix", "-n", "3", "--affine", "--kind", "f", "--node", "1",
     "-d", "1,1,0", "-r", "1"],
]


def test_verify_paths_never_import_sympy(tmp_path):
    # sympy is the LaurentExpr test reference only: a fresh interpreter
    # that runs the benchmark's kinds of command must never load it
    script = """
import json, sys
import laumonk.cli
from laumonk.exact import LaurentContext
LaurentContext(3)
codes = [laumonk.cli.main(argv + ["--out", sys.argv[1]])
         for argv in json.loads(sys.argv[2])]
print(json.dumps({"codes": codes, "sympy": "sympy" in sys.modules}))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "r.json"),
         json.dumps(SYMPY_FREE_COMMANDS)],
        capture_output=True, text=True, env=env, timeout=300, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 7 + [0, 1, 0]
    assert result["sympy"] is False
