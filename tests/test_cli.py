"""Command-line behaviour, exercised in process through cli.main."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import reference_parser, sweep_text

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
        ["sweep", "--curves", ","],
        ["sweep", "--curves", ""],
        ["sweep", "--curves", "fb0k", "--k", ","],
        ["sweep", "--curves", "cap-12,nc-dinf", "--d", ""],
        ["sweep", "--curves", "nc-dinf,fb0k", "--k", ",,", "--d", "1"],
    ])
    def test_usage_errors(self, capsys, bad):
        code, out, err = run_cli(capsys, bad)
        assert code == 2 and out == ""
        assert "error" in err
        # a flag whose list is empty is named
        assert all(flag in err for flag, v in zip(bad, bad[1:]) if v.strip(",") == "")

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

    # id: (--curves, --k, --d, --grid); an empty --k or --d is fine where
    # no curve reads it
    REFERENCE_CASES = {
        "all-curves": ("fb0k,unconstrained,nc-dinf,fb-ub-2inf,cap-12", "1,2", "2", "0:1:0.05"),
        "duplicate-unsorted": ("nc-dinf,fb0k,cap-12,fb0k", "8,1,16,2,1", "3,1,3", "0:1:0.1"),
        "one-column": ("nc-dinf", ",", "2", "0:1:0.25"),
        "below-float-spacing": ("fb0k,unconstrained", "2", "", "0.5:0.5000000000000004:1e-17"),
        "5001-points": ("fb-ub-2inf,fb0k,nc-dinf", "64,1", "1", "0:1:0.0002"),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_bytes_equal_the_row_reference(self, capsys, tmp_path, case, fmt):
        curves, ks, ds, grid = self.REFERENCE_CASES[case]
        argv = ["sweep", "--curves", curves, "--k", ks, "--d", ds, "--grid", grid, "--format", fmt]
        want = sweep_text(curves.split(","), cli._parse_grid(grid),
                          [int(k) for k in ks.split(",") if k], [int(d) for d in ds.split(",") if d], fmt)
        assert run_cli(capsys, argv) == (0, want, "")
        path = tmp_path / f"curves.{fmt}"
        assert run_cli(capsys, argv + ["--out", str(path)]) == (0, "", "")
        assert path.read_bytes() == want.encode()

    def test_json_skips_the_pure_python_encoder(self, capsys, monkeypatch):
        # json.dumps with indent runs json.encoder._make_iterencode, which
        # is many times slower than the C encoder on large sweeps
        def slow_path(*args, **kwargs):
            raise AssertionError("the pure-Python JSON encoder ran")

        monkeypatch.setattr(json.encoder, "_make_iterencode", slow_path)
        with pytest.raises(AssertionError, match="pure-Python"):
            cli._emit_json([{"k": 1}])
        code, out, err = run_cli(capsys, self.ARGS + ["--format", "json"])
        assert (code, err) == (0, "")
        assert len(json.loads(out)) == 18


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

    def test_failure_exit_code(self, capsys, monkeypatch):
        # a grid value above the certified upper bound fails the oracle
        monkeypatch.setattr(cli.cap, "grid_max_rate",
                            lambda eps, k, n: feedback_capacity(eps, k).upper + 1e-9)
        code, out, err = run_cli(capsys, ["oracle", "--k", "2", "--epsilon", "0.3", "--grid-n", "11"])
        assert (code, err) == (3, "")
        assert json.loads(out)["pass"] is False

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


class TestKBound:
    # k above 10**5 exits 2 before any solve starts; validate's k is not
    # bounded, and nc-dinf's d only by the float range
    ARGV = [
        ["capacity", "--k", "{k}", "--epsilon", "0.3"],
        ["sweep", "--k", "{k}", "--grid", "0:1:0.5"],
        ["simulate", "--k", "{k}", "--epsilon", "0.3", "--log2-messages", "8", "--trials", "10"],
        ["oracle", "--k", "{k}", "--epsilon", "0.3"],
    ]

    @pytest.mark.parametrize("argv", ARGV)
    def test_above_the_bound(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli.cap, "_dinkelbach", None)  # no solve may start
        code, out, err = run_cli(capsys, [a.format(k=100001) for a in argv])
        assert (code, out) == (2, "")
        assert err == "error: k must be at most 100000, got 100001\n"

    @pytest.mark.parametrize("argv", ARGV)
    def test_at_the_bound(self, capsys, monkeypatch, argv):
        class Solving(Exception):
            pass

        def solving(*args):
            raise Solving

        monkeypatch.setattr(cli.cap, "_dinkelbach", solving)
        with pytest.raises(Solving):
            cli.main([a.format(k=100000) for a in argv])

    def test_validate_and_d_are_unbounded(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0001\n"))
        assert run_cli(capsys, ["validate", "--k", "1000000"]) == (0, "ok\n", "")
        code, out, _ = run_cli(capsys, ["sweep", "--curves", "nc-dinf", "--d", "1000000",
                                        "--grid", "0:1:0.5"])
        assert code == 0 and len(out.splitlines()) == 4

    def test_d_too_large_for_a_float(self, capsys):
        # a 401-digit d once escaped as an OverflowError traceback, exit 1
        d = str(10 ** 400)
        code, out, err = run_cli(capsys, ["sweep", "--curves", "nc-dinf", "--d", d, "--grid", "0:1:0.5"])
        assert (code, out) == (2, "")
        assert err == f"error: d is too large for a float, got {d}\n"


# every command and its flags, in help order
FLAGS = {
    "capacity": ["--k", "--epsilon"],
    "sweep": ["--curves", "--k", "--d", "--grid", "--out", "--format"],
    "simulate": ["--k", "--epsilon", "--log2-messages", "--trials", "--seed", "--delta", "--max-uses"],
    "oracle": ["--k", "--epsilon", "--grid-n"],
    "validate": ["--d", "--k"],
}


def exit_of(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def reference_run(argv):
    """The reference parser's Namespace, or its exit code, with its output
    dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return reference_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code


COMMAND_TOKENS = [*FLAGS, "bogus"]
FLAG_TOKENS = sorted({f for flags in FLAGS.values() for f in flags}) + ["--eps", "--k=2", "-h", "--"]
VALUE_TOKENS = ["-1", "-0.3", "", "x", " 3", "1_0", "1e400", "nan", "csv", "json", "-"]
# values that each flag of that name converts, for well-formed argv
GOOD_VALUES = {"--format": ["csv", "json"], "--epsilon": [" 3", "1_0", "nan", "1e400"]}


@st.composite
def argvs(draw):
    """A command, then most of its flags and more flag-value pairs,
    repeats included, with values that convert. Half the draws then spoil
    some: any flag token for a flag, any token for a value, a stray token."""
    command = draw(st.sampled_from(COMMAND_TOKENS))
    own = FLAGS.get(command, [])
    spoil = draw(st.booleans())

    def spoilt():
        return spoil and not draw(st.integers(0, 3))

    flags = [f for f in draw(st.permutations(own)) if draw(st.integers(0, 9))]
    flags += draw(st.lists(st.sampled_from(own or FLAG_TOKENS), max_size=3))
    argv = [command]
    for flag in flags:
        flag = draw(st.sampled_from(FLAG_TOKENS)) if spoilt() else flag
        values = VALUE_TOKENS + ["--", "-h", "--k"] if spoilt() else GOOD_VALUES.get(flag, [" 3", "1_0"])
        argv += [flag, draw(st.sampled_from(values))]
    if spoilt():
        argv.insert(draw(st.integers(1, len(argv))),
                    draw(st.sampled_from(COMMAND_TOKENS + FLAG_TOKENS + VALUE_TOKENS)))
    return argv


class TestParser:
    def test_flags_match_the_table(self):
        assert {name: list(flags) for name, (_, _, flags) in cli._COMMANDS.items()} == FLAGS

    @pytest.mark.parametrize("argv", [["--help"]] + [[name, "--help"] for name in FLAGS])
    def test_help_exits(self, capsys, argv):
        code, out, err = exit_of(capsys, argv)
        assert (code, err) == (0, "")
        # a command's help lists its flags, the top level's the commands
        assert all(word in out for word in FLAGS.get(argv[0], FLAGS))

    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["capacity", "--k", "2"], ["oracle", "--k", "x", "--epsilon", "0.3"]])
    def test_usage_exits(self, capsys, argv):
        code, out, err = exit_of(capsys, argv)
        assert (code, out) == (2, "")
        assert "usage:" in err and "error:" in err

    @pytest.mark.parametrize("columns", ["40", "80", "200"])
    def test_help_text_equals_the_reference(self, capsys, monkeypatch, columns):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in [["--help"]] + [[name, "--help"] for name in FLAGS]:
            with pytest.raises(SystemExit) as exc:
                reference_parser().parse_args(argv)
            want = capsys.readouterr()
            assert exit_of(capsys, argv) == (exc.value.code, want.out, want.err)

    @settings(max_examples=300, database=None, deadline=None)
    @given(argvs())
    @example(["sweep", "--format", "x"])
    @example(["sweep", "--out", "-"])
    @example(["sweep", "--curves", "--"])
    @example(["oracle", "--k", "1", "--epsilon", "-h"])
    @example(["oracle", "--k", "1", "--epsilon", "-0.3", "--grid-n", "1_0"])
    @example(["oracle", "--k", "1", "--k", "2", "--epsilon", "nan"])
    @example(["oracle", "--k", "1"])
    def test_fast_reader_equals_argparse(self, argv):
        got = cli._parse(argv)
        want = reference_run(argv)
        if got is not None:
            # repr, because --epsilon nan is accepted and nan != nan
            assert isinstance(want, type(got))
            assert {k: repr(v) for k, v in vars(got).items()} == {k: repr(v) for k, v in vars(want).items()}

    def test_valid_command_builds_no_parser(self):
        # argparse's gettext calls import locale; a valid argv needs neither
        code = ("import contextlib, io, sys\n"
                "from rllbec import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    rc = cli.main(['capacity', '--k', '2', '--epsilon', '0.3'])\n"
                "print(rc, 'locale' in sys.modules, cli._build_parser.cache_info().currsize)\n")
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
        assert out == "0 False 0\n"


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


# the argv shapes of the perfbench workloads, with seeded grid starts and
# epsilons written out
WORKLOAD_ARGV = [
    ["sweep", "--curves", "fb0k,nc-dinf,cap-12", "--k", "1,2,4", "--d", "1,2,3",
     "--grid", "0.012360679774997897:1:0.019752786404500042", "--format", "json"],
    ["sweep", "--curves", "fb-ub-2inf", "--grid", "0.03090169943749474:1:0.048454915028125265",
     "--format", "json"],
    ["oracle", "--k", "3", "--epsilon", "0.13090169943749475", "--grid-n", "101"],
    ["simulate", "--log2-messages", "62", "--k", "2", "--epsilon", "0.3", "--trials", "30",
     "--delta", "optimal", "--seed", "1"],
    ["simulate", "--log2-messages", "62", "--k", "2", "--epsilon", "0.3", "--trials", "30",
     "--delta", "0.5", "--seed", "1"],
]


class TestFastPath:
    @pytest.mark.parametrize("argv, stdin", TestReadme.COMMANDS + [(a, "") for a in WORKLOAD_ARGV],
                             ids=[argv[0] for argv, _ in TestReadme.COMMANDS]
                             + [f"workload-{i}" for i in range(len(WORKLOAD_ARGV))])
    def test_runs_without_argparse(self, capsys, monkeypatch, argv, stdin):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        want = run_cli(capsys, argv)

        def no_parser():
            raise AssertionError("argparse read a well-formed argv")

        monkeypatch.setattr(cli, "_build_parser", no_parser)
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        assert run_cli(capsys, argv) == want
