"""Run one pass of a workload in this process and print its record.

Usage (from the repository root, with src/ on PYTHONPATH):

    python3 perfbench/worker.py <workload> <seed> <trace 0|1>

Every step calls `rllbec.cli.main(argv)` with stdout captured; a
simulate step is followed by `rllbec.sim.label_occupancy_check` on its
report. The record, one JSON object on stdout, holds the wall time of
the pass, the peak resident memory of this process, each step's exit
code and output, and with tracing on the per-layer metrics. A traced
pass also writes its spans to perfbench/results/.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")


def peak_rss_mb() -> float:
    """High-water resident memory of this process image.

    getrusage's ru_maxrss would also count the parent, whose high-water
    mark a child inherits across fork and exec on Linux; VmHWM does not.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    import rllbec
    import rllbec.cli
    if not os.path.abspath(rllbec.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"error: imported rllbec from {rllbec.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import workloads

    steps = workloads.steps(workload, seed)
    # the occupancy check needs the delta the simulator used; computing it
    # here keeps these calls out of the timed pass and out of the trace
    deltas = []
    for step in steps:
        e = step.expect
        if step.kind != "simulate":
            deltas.append(None)
        elif e["delta"] == "optimal":
            deltas.append(rllbec.capacity.feedback_capacity(e["epsilon"], e["k"]).argmax.delta)
        else:
            deltas.append(tuple(float(x) for x in e["delta"].split(",")))
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    records = []
    t0 = time.perf_counter()
    for step, delta in zip(steps, deltas):
        rec = {"argv": step.argv, "rc": None, "stdout": "", "error": None}
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rec["rc"] = rllbec.cli.main(step.argv)
            if step.kind == "simulate":
                report = rllbec.sim.SimReport(**json.loads(buf.getvalue()))
                rec["delta"] = list(delta)
                rec["occupancy"] = rllbec.sim.label_occupancy_check(report, step.expect["epsilon"], delta)
        except Exception:  # a failing step is a benchmark result, not a crash
            rec["error"] = traceback.format_exc(limit=3)
        rec["stdout"] = buf.getvalue()
        records.append(rec)
    wall = time.perf_counter() - t0

    out = {"wall_s": wall,
           "peak_rss_mb": peak_rss_mb(),
           "steps": records, "layers": None}
    if tracer is not None:
        tracer.uninstall()
        uses = 0
        for step, rec in zip(steps, records):
            if step.kind == "simulate" and rec["error"] is None:
                uses += json.loads(rec["stdout"])["total_uses"]
        out["layers"] = tracing.per_layer_metrics(tracer.stats(), uses)
        os.makedirs(RESULTS, exist_ok=True)
        tracer.save(os.path.join(RESULTS, f"spans_{workload}_seed{seed}.npz"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
