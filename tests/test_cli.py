"""Command-line behaviour, exercised in process through cli.main."""

import csv
import dataclasses
import io
import json
import math
import pathlib
import re
import shlex

import pytest

from rllbec import cli, feedback_capacity, run_feedback_sim
from rllbec.capacity import CURVES

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
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
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
        assert {r["curve"] for r in rows} == set(CURVES)

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

    @pytest.mark.parametrize("grid", ["nan:1:0.1", "0:inf:0.5", "0:1:nan", "-inf:1:0.5"])
    def test_non_finite_grid(self, capsys, grid):
        # each of these once looped without end, growing the grid list
        code, out, err = run_cli(capsys, ["sweep", "--curves", "unconstrained", f"--grid={grid}"])
        assert code == 2 and out == ""
        assert "finite" in err

    @pytest.mark.parametrize("grid", ["0:1:1e-300", "0:1:1e-5", "0.5:1:1e-300", "-1e308:1e308:1"])
    def test_too_many_points(self, capsys, grid):
        # counted before any point is built
        code, out, err = run_cli(capsys, ["sweep", "--curves", "unconstrained", f"--grid={grid}"])
        assert code == 2 and out == ""
        assert "more than 100000 points" in err

    def test_point_limit(self):
        assert len(cli._parse_grid("0:99999:1")) == 10 ** 5
        with pytest.raises(ValueError, match="more than"):
            cli._parse_grid("0:100000:1")

    def test_each_point_once(self, capsys):
        # points up to 1e-12 past stop were all clamped to it, so this grid
        # once gave 111 rows, 101 of them at epsilon = 1e-13
        code, out, _ = run_cli(capsys, ["sweep", "--curves", "unconstrained",
                                        "--grid", "0:1e-13:1e-14", "--format", "json"])
        assert code == 0
        eps = [r["epsilon"] for r in json.loads(out)]
        assert len(eps) == 11 and eps == sorted(set(eps)) and eps[-1] == 1e-13
        # a step below the float spacing of the points rounds onto the last one
        grid = cli._parse_grid("0.5:0.5000000000000004:1e-17")
        assert grid == sorted(set(grid)) and len(grid) == 5
        # and points past stop are not counted towards the limit
        assert len(cli._parse_grid("0:5e-13:1e-17")) == 50001

    def test_bad_epsilon_in_the_grid(self, capsys):
        for curves in ("fb0k", "unconstrained", "fb-ub-2inf"):
            code, out, err = run_cli(capsys, ["sweep", "--curves", curves, "--grid", "0.5:1.5:0.5"])
            assert code == 2 and out == ""
            assert "erasure probability" in err

    @pytest.mark.parametrize("flag, bad", [("--k", "0"), ("--d", "-1")])
    def test_bad_k_or_d(self, capsys, flag, bad):
        code, out, err = run_cli(capsys, ["sweep", "--curves", "fb0k,nc-dinf", flag, bad])
        assert code == 2 and out == ""
        assert "positive integer" in err

    def test_duplicate_columns_keep_their_order(self, capsys):
        # one row per (epsilon, column), sorted by (epsilon, curve, k) and
        # otherwise in the order given, duplicates included
        code, out, _ = run_cli(capsys, ["sweep", "--curves", "nc-dinf,fb0k", "--k", "2,1,2",
                                        "--d", "3,1", "--grid", "0:0.5:0.25", "--format", "json"])
        assert code == 0
        rows = json.loads(out)
        want = []
        for eps in (0.0, 0.25, 0.5):
            want += [("fb0k", eps, 1), ("fb0k", eps, 2), ("fb0k", eps, 2),
                     ("nc-dinf", eps, "1,inf"), ("nc-dinf", eps, "3,inf")]
        assert [(r["curve"], r["epsilon"], r["k"]) for r in rows] == want
        for r in rows:
            if r["curve"] == "fb0k":
                assert abs(r["value"] - feedback_capacity(r["epsilon"], r["k"]).value) <= 4.4e-16


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

    def test_full_erasure_without_cap(self, capsys):
        code, _, err = run_cli(capsys, [
            "simulate", "--k", "2", "--epsilon", "1", "--log2-messages", "8", "--trials", "1"])
        assert code == 2
        assert "max_uses" in err

    def test_optimal_delta_at_long_runs(self, capsys):
        # the optimal delta_j of k = 64 sit at 1/2 up to rounding; none may
        # round above it, or constraint safety refuses the run
        code, out, err = run_cli(capsys, [
            "simulate", "--k", "64", "--epsilon", "0.2", "--log2-messages", "16",
            "--trials", "5", "--seed", "1"])
        assert code == 0, err
        doc = json.loads(out)
        assert doc["errors"] == 0 and doc["violations"] == 0

    def test_unbounded_session_without_cap(self, capsys):
        # delta_0 = 0 without erasures: about 2**62 uses per trial
        code, _, err = run_cli(capsys, [
            "simulate", "--k", "1", "--epsilon", "0", "--log2-messages", "62", "--trials", "1",
            "--delta", "0"])
        assert code == 2
        assert "max_uses" in err

    def test_negative_use_cap(self, capsys):
        code, _, err = run_cli(capsys, [
            "simulate", "--k", "2", "--epsilon", "0.3", "--log2-messages", "8", "--trials", "3",
            "--max-uses", "-4"])
        assert code == 2
        assert "max_uses" in err

    def test_reports_erasures(self, capsys):
        code, out, _ = run_cli(capsys, [
            "simulate", "--k", "2", "--epsilon", "1", "--log2-messages", "8", "--trials", "3",
            "--max-uses", "40"])
        assert code == 0
        doc = json.loads(out)
        assert doc["erasures"] == doc["total_uses"] == 120


class TestOracle:
    def test_agreement(self, capsys):
        code, out, _ = run_cli(
            capsys, ["oracle", "--k", "1", "--epsilon", "0.5", "--grid-n", "101"])
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["abs_gap"] <= doc["bound"] == 5e-4
        assert doc["abs_gap"] == abs(doc["one_dim_value"] - doc["grid_value"])
        assert doc["grid_value"] <= doc["upper_bound"] <= doc["one_dim_value"] + 1e-12

    def test_fine_grid(self, capsys):
        # 1e10 points, scored one axis at a time
        code, out, _ = run_cli(
            capsys, ["oracle", "--k", "2", "--epsilon", "0.5", "--grid-n", "100000"])
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["abs_gap"] <= 1e-9

    @pytest.mark.parametrize("grid_n", ["1", "10000001"])
    def test_grid_n_out_of_range(self, capsys, grid_n):
        code, out, err = run_cli(
            capsys, ["oracle", "--k", "1", "--epsilon", "0.5", "--grid-n", grid_n])
        assert code == 2
        assert out == ""
        assert "grid points per axis" in err


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


def readme_commands():
    """Each `rllbec ...` line of README.md's sh blocks as (argv, stdin); a
    `printf '...' |` before the command gives its stdin."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    out = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M):
        for line in block.splitlines():
            feed, _, command = line.rpartition("| ")
            if command.startswith("rllbec "):
                stdin = shlex.split(feed)[1].encode().decode("unicode_escape") if feed else ""
                out.append((shlex.split(command)[1:], stdin))
    return out


class TestReadme:
    COMMANDS = readme_commands()

    def test_every_subcommand_is_shown(self):
        assert [argv[0] for argv, _ in self.COMMANDS] == [
            "capacity", "sweep", "simulate", "oracle", "validate"]

    @pytest.mark.parametrize("argv, stdin", COMMANDS, ids=[argv[0] for argv, _ in COMMANDS])
    def test_example_runs(self, capsys, monkeypatch, argv, stdin):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code, out, err = run_cli(capsys, argv)
        # the validate example's second string, 0001, breaks k = 2
        assert (code, err) == (1 if argv[0] == "validate" else 0, "")
        assert out
