"""Self-test of the benchmark: traced-run coverage, count repeatability,
the output checks, and failure outside a checkout.

    python3 -m pytest perfbench/selftest.py

It runs each workload twice with --trace 1 --seconds 1, which takes a
few minutes. It is not collected by a plain `pytest` from the root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

ALL = set(workloads.NAMES)
# the workloads each span fires on; the longest matching prefix wins
FIRES = {
    "capacity.feedback_capacity": ALL,
    "capacity.nc_capacity_d_inf": {"sweep"},
    "capacity.capacity_12": {"sweep"},
    "capacity.fb_upper_2inf": {"grid"},
    "capacity.grid_max_rate": {"grid"},
    "codec": {"simulate"},
    "sim": {"simulate"},
    "constraint": {"simulate"},
    "markov": {"simulate"},
    "cli": ALL,
}
COUNT_SUFFIXES = (".calls", ".calls_per_use", ".draws")


def fires_on(metric):
    prefix = max((p for p in FIRES if metric.startswith(p + ".")), key=len)
    return FIRES[prefix]


def bench(workload, seed=1, cwd=ROOT, seconds="1", trace="1"):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", trace],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def traced():
    out = {}
    for w in workloads.NAMES:
        runs = []
        for _ in range(2):
            proc = bench(w)
            assert proc.returncode == 0, proc.stderr
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        out[w] = runs
    return out


def test_traced_runs_report_every_per_layer_metric(traced):
    names = {m["name"] for m in SPEC["per_layer"]}
    for w, runs in traced.items():
        for r in runs:
            assert r["correct"] and r["failed"] == 0, (w, r)
            assert set(r["metrics"]) == names, w


def test_spans_fire_only_on_their_workloads(traced):
    for w, runs in traced.items():
        for name, m in runs[0]["metrics"].items():
            if name == "trace.overhead_frac":
                continue
            assert (m["value"] > 0) == (w in fires_on(name)), (w, name, m["value"])


def test_counts_repeat_for_a_seed(traced):
    for w, (a, b) in traced.items():
        for name in a["metrics"]:
            if name.endswith(COUNT_SUFFIXES):
                assert a["metrics"][name] == b["metrics"][name], (w, name)


def test_seed_shifts_keep_the_number_of_points():
    from rllbec.cli import _parse_grid
    for seed in range(40):
        sweep, = workloads.steps("sweep", seed)
        grid = workloads.steps("grid", seed)
        assert len(_parse_grid(sweep.argv[sweep.argv.index("--grid") + 1])) == workloads.SWEEP_STEPS + 1
        assert len(_parse_grid(grid[0].argv[grid[0].argv.index("--grid") + 1])) == workloads.GRID_STEPS + 1
        assert len(grid) == 1 + len(workloads.ORACLES)
    argv = workloads.steps("sweep", 0)[0].argv
    assert _parse_grid(argv[argv.index("--grid") + 1]) == _parse_grid("0:1:0.02")


def _sweep_rec(rows):
    return {"argv": [], "rc": 0, "error": None, "stdout": json.dumps(rows)}


def test_checks_reject_wrong_capacity_values():
    eps = 0.3
    good = [{"curve": "fb0k", "epsilon": eps, "k": 4, "value": checks.fb0k_ref(eps, 4)},
            {"curve": "nc-dinf", "epsilon": eps, "k": "2,inf", "value": checks.nc_ref(eps, 2)},
            {"curve": "cap-12", "epsilon": eps, "k": "1,2", "value": checks.cap12_ref(eps)}]
    expect = {("fb0k", "4"): 1, ("nc-dinf", "2,inf"): 1, ("cap-12", "1,2"): 1}
    assert checks.check_sweep(_sweep_rec(good), expect)[:2] == (3, 0)
    for i in range(3):
        bad = [dict(r) for r in good]
        bad[i]["value"] -= 1e-8
        assert checks.check_sweep(_sweep_rec(bad), expect)[:2] == (3, 1)
    assert checks.check_sweep(_sweep_rec(good[:2]), expect)[:2] == (3, 1)


def test_checks_bound_the_upper_bound_from_both_sides():
    eps = 0.5
    expect = {("fb-ub-2inf", "2,inf"): 1}
    floor, ceiling = checks.fb_ub_floor(eps), checks.nc_ref(eps, 2)
    for value, failed in ((floor, 0), (floor - 1e-6, 1), (ceiling, 0), (ceiling + 1e-6, 1)):
        rows = [{"curve": "fb-ub-2inf", "epsilon": eps, "k": "2,inf", "value": value}]
        assert checks.check_sweep(_sweep_rec(rows), expect)[1] == failed, value


def test_checks_reject_failed_oracles_and_simulations():
    assert checks.check_oracle({"argv": [], "rc": 3, "error": None, "stdout": '{"pass": false}'})[1] == 1
    delta = [0.5]
    rate = float(checks.zero_run_rate(0.6, [delta])[0])
    report = {"trials": 10, "errors": 0, "violations": 0, "censored": 0,
              "empirical_rate": rate, "stderr_rate": 0.001}
    expect = {"trials": 10, "epsilon": 0.6}

    def rec(**changes):
        return {"argv": [], "rc": 0, "error": None, "delta": delta, "stdout": json.dumps({**report, **changes})}

    assert checks.check_simulate(rec(), expect)[1] == 0
    assert checks.check_simulate(rec(errors=1), expect)[1] == 1
    assert checks.check_simulate(rec(censored=2, violations=1), expect)[1] == 3
    assert checks.check_simulate(rec(empirical_rate=rate + 0.02), expect)[1] == 10


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("sweep", cwd=str(tmp_path), trace="0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
