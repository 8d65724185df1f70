"""Record the benchmark's end-to-end metrics of a checkout, and of its parent.

    python3 tools/bench_record.py --out BENCH_<n>.json [--parent DIR] [--pairs 10]
        [--first-seed 1]

For each workload of BENCHMARK.json and each of --pairs seeds, runs

    python3 perfbench/run.py --workload W --seed SEED --seconds S --trace 0

in this checkout and, given --parent (another checkout of the
repository, such as a `git clone` of the parent commit), in that one
too, alternating which side runs first from one pair to the next.
S is BENCHMARK.json's run_seconds. The last JSON line of each
run gives its metrics and its attempted and failed counts.

The record holds the machine (platform, CPU count), the Python and numpy
versions and the commit of each side, as perfbench/run.py reports them,
whether the checkout had uncommitted changes, the seeds and every run;
and per workload and side, the median, quartiles and IQR of each
end-to-end metric and the summed attempted and failed counts. With a
parent it adds, per metric, how many pairs the checkout won (ties count
for neither), the relative change of the medians, and each pair's
checkout/parent ratio (None where a side did not finish or the parent
read 0) with the median and quartiles of those ratios: a slow phase of
the host that covers a whole pair cancels out of its ratio. Uses the
stdlib only; progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 300.0  # perfbench/run.py ends its runs within 180 s
ENV = "environment: "   # perfbench/run.py's line with the commit and the versions


def git(tree, *args):
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(os.path.abspath(tree))}
    try:
        out = subprocess.run(["git", *args], cwd=tree, env=env, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout if out.returncode == 0 else None


def run_once(tree, workload, seed, seconds):
    """One benchmark run, and the environment it reports (None if it broke)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as exc:
        return {"seed": seed, "error": repr(exc)}, None
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1])
        env = json.loads(next(ln for ln in lines if ln.startswith(ENV))[len(ENV):])
    except (ValueError, IndexError, StopIteration):
        return {"seed": seed, "rc": proc.returncode, "error": proc.stderr.strip()[-2000:]}, None
    return {"seed": seed, "rc": proc.returncode, "correct": last["correct"], "attempted": last["attempted"],
            "failed": last["failed"], "metrics": {n: m["value"] for n, m in last["metrics"].items()}}, env


def quartiles(xs):
    """Median, quartiles and IQR of a non-empty list."""
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) >= 2 else xs * 3
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summary(runs, names):
    """Median, quartiles and IQR of each metric over the runs that finished."""
    out = {"runs": len(runs), "finished": sum("metrics" in r for r in runs),
           "attempted": sum(r.get("attempted", 0) for r in runs),
           "failed": sum(r.get("failed", 0) for r in runs)}
    for name in names:
        xs = [r["metrics"][name] for r in runs if "metrics" in r]
        if xs:
            out[name] = quartiles(xs)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="path of the JSON record to write")
    ap.add_argument("--parent", help="checkout to run against, alternating with this one")
    ap.add_argument("--pairs", type=int, default=10, help="seeds per workload (default 10)")
    ap.add_argument("--first-seed", type=int, default=1, help="seeds are first-seed, first-seed+1, ...")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = float(spec["run_seconds"])
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"change": ROOT}
    if args.parent:
        if not os.path.isfile(os.path.join(args.parent, "perfbench", "run.py")):
            ap.error(f"no perfbench/run.py under {args.parent}")
        sides["parent"] = os.path.abspath(args.parent)

    info = {}
    for name, tree in sides.items():
        status = git(tree, "status", "--porcelain")
        info[name] = {"commit": None, "dirty": None if status is None else bool(status.strip())}
    record = {"command": "perfbench/run.py --workload W --seed SEED --seconds S --trace 0",
              "seconds": seconds, "pairs": args.pairs,
              "machine": {"platform": platform.platform(), "cpu_count": os.cpu_count()},
              "python": None, "numpy": None, "sides": info, "workloads": {}}
    for workload in workloads:
        seeds = list(range(args.first_seed, args.first_seed + args.pairs))
        runs = {name: [] for name in sides}
        first = []
        for i, seed in enumerate(seeds):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            first.append(order[0])
            for name in order:
                result, env = run_once(sides[name], workload, seed, seconds)
                if env is not None:
                    info[name]["commit"] = env.get("commit")
                    record["python"], record["numpy"] = env.get("python"), env.get("numpy")
                runs[name].append(result)
                print(f"{workload} seed {seed} {name}: {result.get('metrics', result.get('error'))}",
                      file=sys.stderr, flush=True)
        entry = {"seeds": seeds, "first": first, "runs": runs,
                 "summary": {name: summary(rs, better) for name, rs in runs.items()}}
        if "parent" in sides:
            won, change, ratios = {}, {}, {}
            for name, direction in better.items():
                sign = 1.0 if direction == "higher" else -1.0
                pairs = [(c["metrics"][name], p["metrics"][name]) if "metrics" in c and "metrics" in p else None
                         for c, p in zip(runs["change"], runs["parent"])]
                won[name] = sum(1 for pair in pairs if pair and sign * (pair[0] - pair[1]) > 0)
                med = {s: entry["summary"][s].get(name, {}).get("median") for s in sides}
                change[name] = ((med["change"] - med["parent"]) / med["parent"]
                                if med["parent"] and med["change"] is not None else None)
                rs = [pair[0] / pair[1] if pair and pair[1] else None for pair in pairs]
                done = [x for x in rs if x is not None]
                ratios[name] = {"ratios": rs, **(quartiles(done) if done else {})}
            entry["pairs_won_by_change"], entry["pair_ratio"], entry["median_change_frac"] = won, ratios, change
        record["workloads"][workload] = entry
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
