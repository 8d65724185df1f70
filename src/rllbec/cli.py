"""Command-line front end.

Subcommands: capacity (single point), sweep (curves over an epsilon
grid, CSV or JSON), simulate (Monte Carlo transmissions), oracle
(full-cube grid vs the one-dimensional reduction), validate (check bit
strings against a run-length constraint).

Exit codes: 0 success, 1 validation failures, 2 usage error, 3 a
simulation or oracle invariant failed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys

from . import capacity as cap
from . import sim as simmod
from .constraint import INF, RllConstraint, first_violation

_CURVES = ("fb0k", "unconstrained", "nc-dinf", "fb-ub-2inf", "cap-12")


def _parse_grid(text: str) -> list[float]:
    """Parse 'start:stop:step' into an endpoint-inclusive list."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must look like start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if step <= 0 or stop < start:
        raise ValueError(f"grid needs step > 0 and stop >= start, got {text!r}")
    out = []
    i = 0
    while True:
        v = start + i * step
        if v > stop + 1e-12:
            break
        out.append(min(v, stop))
        i += 1
    if len(out) < 2:
        raise ValueError(f"grid must contain at least 2 points, got {text!r}")
    return out


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}")


def _emit_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def cmd_capacity(args) -> int:
    res = cap.feedback_capacity(args.epsilon, args.k)
    print(_emit_json({
        "epsilon": args.epsilon,
        "k": args.k,
        "capacity": res.value,
        "delta": list(res.argmax.delta),
        "residual": res.residual,
    }))
    return 0


def _sweep_value(curve: str, eps: float, tag):
    if curve == "fb0k":
        return cap.feedback_capacity(eps, tag).value
    if curve == "unconstrained":
        return 1.0 - eps
    if curve == "nc-dinf":
        return cap.nc_capacity_d_inf(eps, tag).value
    if curve == "fb-ub-2inf":
        return cap.fb_upper_2inf(eps)
    if curve == "cap-12":
        return cap.capacity_12(eps).value
    raise ValueError(f"unknown curve {curve!r}")


def cmd_sweep(args) -> int:
    curves = [c for c in args.curves.split(",") if c != ""]
    for c in curves:
        if c not in _CURVES:
            raise ValueError(f"unknown curve {c!r}; choose from {', '.join(_CURVES)}")
    grid = _parse_grid(args.grid)
    ks = _parse_int_list(args.k, "--k")
    ds = _parse_int_list(args.d, "--d")
    jobs = []  # (curve, eps, k column, tag passed to the evaluator)
    for eps in grid:
        for curve in curves:
            if curve == "fb0k":
                for k in ks:
                    jobs.append((curve, eps, k, k))
            elif curve == "nc-dinf":
                for d in ds:
                    jobs.append((curve, eps, f"{d},inf", d))
            elif curve == "fb-ub-2inf":
                jobs.append((curve, eps, "2,inf", None))
            elif curve == "cap-12":
                jobs.append((curve, eps, "1,2", None))
            else:
                jobs.append((curve, eps, "unconstrained", None))

    values = [_sweep_value(c, e, t) for c, e, _, t in jobs]
    rows = sorted(
        ({"curve": c, "epsilon": e, "k": kcol, "value": v}
         for (c, e, kcol, _), v in zip(jobs, values)),
        key=lambda r: (r["epsilon"], r["curve"], str(r["k"])),
    )

    def render(out):
        if args.format == "json":
            out.write(_emit_json(rows) + "\n")
        else:
            w = csv.writer(out, lineterminator="\n")
            w.writerow(["curve", "epsilon", "k", "value"])
            for r in rows:
                w.writerow([r["curve"], f"{r['epsilon']:.12g}", r["k"], f"{r['value']:.12g}"])

    if args.out == "-":
        render(sys.stdout)
    else:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                render(fh)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    return 0


def _parse_delta(text: str):
    if text == "optimal":
        return "optimal"
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"--delta expects 'optimal' or comma-separated floats, got {text!r}")


def cmd_simulate(args) -> int:
    report = simmod.run_feedback_sim(
        args.k, args.epsilon, args.log2_messages, args.trials,
        delta=_parse_delta(args.delta), seed=args.seed, max_uses=args.max_uses)
    print(_emit_json(dataclasses.asdict(report)))
    return 3 if (report.errors or report.violations) else 0


def cmd_oracle(args) -> int:
    one = cap.feedback_capacity(args.epsilon, args.k)
    grid_val = cap.grid_max_rate(args.epsilon, args.k, args.grid_n)
    gap = abs(one.value - grid_val)
    bound = 5e-4 if args.k <= 2 else 2e-3
    ok = gap <= bound
    print(_emit_json({
        "one_dim_value": one.value,
        "grid_value": grid_val,
        "abs_gap": gap,
        "bound": bound,
        "pass": ok,
    }))
    return 0 if ok else 3


def cmd_validate(args) -> int:
    if args.k == "inf":
        k = INF
    else:
        try:
            k = int(args.k)
        except ValueError:
            raise ValueError(f"--k expects an integer or 'inf', got {args.k!r}")
    cons = RllConstraint(args.d, k)
    any_violation = False
    for line in sys.stdin:
        line = line.strip()
        bad = set(line) - {"0", "1"}
        if bad:
            print(f"error: non-bit characters {sorted(bad)} in {line!r}", file=sys.stderr)
            return 2
        pos = first_violation(cons, (int(ch) for ch in line))
        if pos is None:
            print("ok")
        else:
            any_violation = True
            print(f"violation:{pos}")
    return 1 if any_violation else 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rllbec",
        description="Feedback capacity and zero-error coding for run-length limited erasure channels.")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("capacity", help="feedback capacity at one (epsilon, k) point")
    pc.add_argument("--k", type=int, required=True, help="maximum zero-run length")
    pc.add_argument("--epsilon", type=float, required=True, help="erasure probability")
    pc.set_defaults(func=cmd_capacity)

    ps = sub.add_parser("sweep", help="evaluate capacity curves over an epsilon grid")
    ps.add_argument("--curves", default="fb0k", help=f"comma list from: {', '.join(_CURVES)}")
    ps.add_argument("--k", default="1", help="comma list of k values (fb0k curve)")
    ps.add_argument("--d", default="2", help="comma list of d values (nc-dinf curve)")
    ps.add_argument("--grid", default="0:1:0.05", help="epsilon grid as start:stop:step")
    ps.add_argument("--out", default="-", help="output path, '-' for stdout")
    ps.add_argument("--format", choices=("csv", "json"), default="csv")
    ps.set_defaults(func=cmd_sweep)

    pm = sub.add_parser("simulate", help="Monte Carlo transmissions of the coding scheme")
    pm.add_argument("--k", type=int, required=True)
    pm.add_argument("--epsilon", type=float, required=True)
    pm.add_argument("--log2-messages", type=int, required=True, dest="log2_messages")
    pm.add_argument("--trials", type=int, required=True)
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--delta", default="optimal", help="'optimal' or comma-separated values")
    pm.add_argument("--max-uses", type=int, default=None, dest="max_uses",
                    help="per-trial channel-use cap")
    pm.set_defaults(func=cmd_simulate)

    po = sub.add_parser("oracle", help="full-cube grid search vs the 1-D reduction")
    po.add_argument("--k", type=int, required=True)
    po.add_argument("--epsilon", type=float, required=True)
    po.add_argument("--grid-n", type=int, default=201, dest="grid_n")
    po.set_defaults(func=cmd_oracle)

    pv = sub.add_parser("validate", help="check bit strings on stdin against a (d, k) constraint")
    pv.add_argument("--d", type=int, default=0)
    pv.add_argument("--k", required=True, help="integer or 'inf'")
    pv.set_defaults(func=cmd_validate)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (cap.DomainError, cap.BudgetExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
