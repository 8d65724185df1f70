"""Benchmark entry point: run one workload for a fixed time and report.

    python3 perfbench/run.py --workload {sweep,grid,simulate} --seed N --seconds S --trace {0,1}

Run from the repository root. The program is imported from ./src.
Each pass of the workload runs in a fresh interpreter (perfbench/worker.py),
so peak memory is per pass. Passes repeat while one more, as long as the
longest so far, would end within S seconds (at least one; with --trace 1
at least one untraced and one traced pass, alternating). Every pass's output is checked by
perfbench/checks.py.

Stdout ends with one JSON line: correct, attempted, failed, and the
metrics (the end-to-end ones from BENCHMARK.json with --trace 0, the
per-layer ones with --trace 1). wall_s is the mean pass time and
points_per_s the total work over the total time of the untraced passes:
the machine this was written on alternates between fast and slow phases
lasting minutes, and a median over passes snaps to whichever phase
dominates a run, where the mean moves smoothly. setup_s, peak_rss_mb and
the per-layer metrics are medians. Before it
come one line per metric with its sample count, and one line with the
environment. The full record, environment included, is also written to
perfbench/results/.
"""

from __future__ import annotations

import os

# pinned before numpy loads here, and passed to every child interpreter:
# an inherited RLLBEC_THREADS would silently parallelize fb-ub-2inf sweeps
os.environ.pop("RLLBEC_THREADS", None)
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(PINNED)

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RESULTS = os.path.join(HERE, "results")

DEADLINE_S = 170.0   # a run must end within 180 s whatever --seconds says


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def measure_setup(env):
    """Seconds from starting a fresh interpreter until rllbec.cli is imported.

    The child reads the system-wide monotonic clock once the import is
    done, so interpreter exit and the parent's polling are not counted.
    """
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-c", "import rllbec.cli, time; print(time.monotonic())"],
                         env=env, cwd=ROOT, check=True, timeout=60, capture_output=True, text=True)
    return float(out.stdout) - t0


def run_pass(workload, seed, traced, env, timeout):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), "1" if traced else "0"]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment():
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or None
    except OSError:
        commit = None
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit,
            "env": {**PINNED, "RLLBEC_THREADS": None}}


def points(workload, rec):
    """Work items of one pass: curve values and oracle verdicts, or channel uses."""
    n = 0
    for step in rec["steps"]:
        if step["error"] or not step["stdout"].strip():
            continue
        out = json.loads(step["stdout"])
        if workload == "simulate":
            n += out["total_uses"]
        else:
            n += len(out) if isinstance(out, list) else 1
    return n


def median(xs):
    return statistics.median(xs) if xs else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rllbec", "__init__.py")):
        print(f"error: no rllbec package under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import checks
    import workloads

    started = time.perf_counter()
    env = child_env()
    info = environment()
    measure_setup(env)  # fills __pycache__
    setup = []          # one start before each pass, so set-up samples span the run

    untraced, traced, notes = [], [], []
    attempted = failed = 0
    steps = workloads.steps(args.workload, args.seed)
    verified = {}   # step index -> (stdout, rc, error, attempted, failed) of the last check
    t0 = time.perf_counter()
    longest = 0.0   # no pass starts that could end after --seconds
    while True:
        want_trace = bool(args.trace) and len(traced) < len(untraced)
        remaining = DEADLINE_S - (time.perf_counter() - started)
        try:
            setup.append(measure_setup(env))
            t = time.perf_counter()
            rec = run_pass(args.workload, args.seed, want_trace, env, timeout=max(remaining, 1.0))
            longest = max(longest, time.perf_counter() - t)
        except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
            total = sum(checks.ops(s) for s in steps)
            attempted, failed = attempted + total, failed + total
            notes.append(f"pass failed: {exc}")
            break
        (traced if want_trace else untraced).append(rec)
        for i, (step, srec) in enumerate(zip(steps, rec["steps"])):
            key = (srec["stdout"], srec["rc"], srec["error"])
            if verified.get(i, (None,))[:3] != key:   # identical output needs no second check
                try:
                    a, f, why = checks.check_step(step, srec)
                except (ValueError, KeyError, TypeError) as exc:
                    a, f, why = checks.ops(step), checks.ops(step), [f"unreadable output: {exc!r}"]
                verified[i] = key + (a, f)
                notes.extend(why)
            attempted += verified[i][3]
            failed += verified[i][4]
        elapsed = time.perf_counter() - t0
        done = elapsed + longest > args.seconds and (not args.trace or traced)
        if done or time.perf_counter() - started + longest > DEADLINE_S:
            break

    walls = [r["wall_s"] for r in untraced]
    total = sum(walls)
    end_to_end = {"setup_s": median(setup), "wall_s": total / len(walls) if walls else 0.0,
                  "points_per_s": sum(points(args.workload, r) for r in untraced) / total if walls else 0.0,
                  "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced])}
    if args.trace:
        layers = [r["layers"] for r in traced]
        values = {name: median([lay[name] for lay in layers]) for name in layers[0]} if layers else {}
        tw = sum(r["wall_s"] for r in traced) / len(traced) if traced else 0.0
        values["trace.overhead_frac"] = (tw - end_to_end["wall_s"]) / end_to_end["wall_s"] if walls else 0.0
        declared = spec["per_layer"]
    else:
        values = end_to_end
        declared = spec["end_to_end"]
    names = [m["name"] for m in declared]
    if failed == 0 and untraced and set(values) != set(names):
        print(f"error: metrics {sorted(set(values) ^ set(names))} differ from BENCHMARK.json", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in declared}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": info, "attempted": attempted, "failed": failed, "notes": notes[:50],
              "setup_samples": setup, "wall_samples": walls, "traced_wall_samples": [r["wall_s"] for r in traced],
              "points_samples": [points(args.workload, r) for r in untraced], "metrics": metrics}
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{args.workload}_seed{args.seed}_trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for note in notes[:20]:
        print(f"check: {note}")
    print(f"fail_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for name, m in metrics.items():
        if args.trace:
            how = f"median of {len(traced)} traced passes"
        elif name == "setup_s":
            how = f"median of {len(setup)} starts"
        elif name == "peak_rss_mb":
            how = f"median of {len(untraced)} passes"
        else:
            how = f"over {len(walls)} passes; pass times min {min(walls, default=0):.4g} s, " \
                  f"median {median(walls):.4g} s, max {max(walls, default=0):.4g} s"
        print(f"{name} = {m['value']:.6g} {m['unit']} ({how})")
    print("environment: " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
