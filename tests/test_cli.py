"""Command-line behaviour, exercised in process through cli.main."""

import csv
import dataclasses
import io
import json
import math

import pytest

from rllbec import cli, feedback_capacity, run_feedback_sim

GOLDEN = 0.6942419136306173


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCapacity:
    def test_golden_point(self, capsys):
        code, out, _ = run_cli(capsys, ["capacity", "--k", "1", "--epsilon", "0"])
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["capacity"] - GOLDEN) <= 1e-6
        assert doc["capacity"] == feedback_capacity(0.0, 1).value
        assert doc["epsilon"] == 0.0 and doc["k"] == 1
        assert len(doc["delta"]) == 1

    def test_full_erasure(self, capsys):
        code, out, _ = run_cli(capsys, ["capacity", "--k", "4", "--epsilon", "1"])
        assert code == 0
        assert json.loads(out)["capacity"] == 0.0

    def test_out_of_range_epsilon(self, capsys):
        code, _, err = run_cli(capsys, ["capacity", "--k", "1", "--epsilon", "1.5"])
        assert code == 2
        assert "error" in err


class TestSweep:
    ARGS = ["sweep", "--curves", "fb0k,unconstrained,nc-dinf,fb-ub-2inf,cap-12",
            "--k", "1,2", "--d", "2", "--grid", "0:0.5:0.25"]

    def test_csv_round_trip(self, capsys, tmp_path):
        path = tmp_path / "curves.csv"
        code, out, _ = run_cli(capsys, self.ARGS + ["--out", str(path)])
        assert code == 0 and out == ""
        rows = list(csv.DictReader(path.open()))
        # 3 grid points x (2 fb0k + 1 each of the other four curves)
        assert len(rows) == 18
        eps_order = [float(r["epsilon"]) for r in rows]
        assert eps_order == sorted(eps_order)
        for r in rows:
            if r["curve"] == "unconstrained":
                assert float(r["value"]) == 1.0 - float(r["epsilon"])
            if r["curve"] == "nc-dinf":
                assert r["k"] == "2,inf"  # comma survives the csv quoting
            if r["curve"] == "cap-12":
                assert r["k"] == "1,2"
        by_key = {(r["curve"], float(r["epsilon"]), r["k"]): float(r["value"]) for r in rows}
        want = feedback_capacity(0.25, 2).value
        assert by_key[("fb0k", 0.25, "2")] == float(f"{want:.12g}")
        assert by_key[("fb0k", 0.25, "2")] > by_key[("fb0k", 0.25, "1")]

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, self.ARGS + ["--format", "json"])
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 18
        assert {r["curve"] for r in rows} == set(cli._CURVES)

    def test_unwritable_path(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, self.ARGS + ["--out", str(tmp_path / "missing" / "x.csv")])
        assert code == 2
        assert "cannot write" in err

    @pytest.mark.parametrize("bad", [
        ["sweep", "--grid", "0:1"],
        ["sweep", "--grid", "0:0:1"],
        ["sweep", "--grid", "1:0:0.1"],
        ["sweep", "--curves", "bogus"],
        ["sweep", "--k", "one"],
    ])
    def test_usage_errors(self, capsys, bad):
        code, _, err = run_cli(capsys, bad)
        assert code == 2
        assert "error" in err


class TestSimulate:
    ARGS = ["simulate", "--k", "1", "--epsilon", "0.3", "--log2-messages", "8",
            "--trials", "20", "--seed", "5"]

    def test_deterministic_and_clean(self, capsys):
        code_a, out_a, _ = run_cli(capsys, self.ARGS)
        code_b, out_b, _ = run_cli(capsys, self.ARGS)
        assert code_a == code_b == 0
        assert out_a == out_b
        doc = json.loads(out_a)
        assert doc["errors"] == 0 and doc["violations"] == 0
        assert doc["trials"] == 20
        assert math.isclose(doc["empirical_rate"], doc["total_bits"] / doc["total_uses"])

    def test_failure_exit_code(self, capsys, monkeypatch):
        rep = run_feedback_sim(1, 0.0, 4, 2, seed=0)
        broken = dataclasses.replace(rep, errors=1)
        monkeypatch.setattr(cli.simmod, "run_feedback_sim", lambda *a, **kw: broken)
        code, out, _ = run_cli(capsys, self.ARGS)
        assert code == 3
        assert json.loads(out)["errors"] == 1

    def test_bad_delta(self, capsys):
        code, _, err = run_cli(capsys, [
            "simulate", "--k", "1", "--epsilon", "0.3", "--log2-messages", "8",
            "--trials", "5", "--delta", "0.4;0.3"])
        assert code == 2
        assert "delta" in err


class TestOracle:
    def test_agreement(self, capsys):
        code, out, _ = run_cli(
            capsys, ["oracle", "--k", "1", "--epsilon", "0.5", "--grid-n", "101"])
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["abs_gap"] <= doc["bound"] == 5e-4
        assert doc["abs_gap"] == abs(doc["one_dim_value"] - doc["grid_value"])


class TestValidate:
    def feed(self, monkeypatch, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))

    def test_all_ok(self, capsys, monkeypatch):
        self.feed(monkeypatch, "0101\n000\n")
        code, out, _ = run_cli(capsys, ["validate", "--k", "3"])
        assert code == 0
        assert out == "ok\nok\n"

    def test_violation_position(self, capsys, monkeypatch):
        self.feed(monkeypatch, "01\n00\n")
        code, out, _ = run_cli(capsys, ["validate", "--k", "1"])
        assert code == 1
        assert out == "ok\nviolation:2\n"

    def test_min_run_constraint(self, capsys, monkeypatch):
        self.feed(monkeypatch, "1101\n")
        code, out, _ = run_cli(capsys, ["validate", "--d", "2", "--k", "inf"])
        assert code == 1
        assert out == "violation:2\n"

    def test_non_bit_input(self, capsys, monkeypatch):
        self.feed(monkeypatch, "01a\n")
        code, _, err = run_cli(capsys, ["validate", "--k", "2"])
        assert code == 2
        assert "non-bit" in err

    def test_bad_k(self, capsys, monkeypatch):
        self.feed(monkeypatch, "01\n")
        code, _, err = run_cli(capsys, ["validate", "--k", "three"])
        assert code == 2
        assert "error" in err
