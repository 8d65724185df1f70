"""Command-line front end.

Subcommands: capacity (single point), sweep (curves over an epsilon
grid, CSV or JSON; one capacity_curve call per curve column, over the
whole grid), simulate (Monte Carlo transmissions), oracle (exact grid
maximum vs the solver and its certified upper bound), validate (check
bit strings against a run-length constraint).

Exit codes: 0 success, 1 validation failures, 2 usage error, 3 a
simulation or oracle invariant failed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys

from . import capacity as cap
from . import sim as simmod
from .constraint import INF, RllConstraint, first_violation

_MAX_GRID_POINTS = 10 ** 5
_LABELS = {"unconstrained": "unconstrained", "fb-ub-2inf": "2,inf", "cap-12": "1,2"}


def _parse_grid(text: str) -> list[float]:
    """Parse 'start:stop:step' into an endpoint-inclusive list of at most
    _MAX_GRID_POINTS distinct points, counted before any is built."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must look like start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"grid needs finite start, stop and step, got {text!r}")
    if step <= 0 or stop < start:
        raise ValueError(f"grid needs step > 0 and stop >= start, got {text!r}")
    # a point up to tol past stop is stop itself; tol <= step/2 keeps a tiny
    # step from counting points past stop
    tol = min(1e-12, 0.5 * step)
    last = (stop + tol - start) / step  # index of the last point, up to rounding
    if not last < _MAX_GRID_POINTS:
        raise ValueError(f"grid has more than {_MAX_GRID_POINTS} points, got {text!r}")
    out = []
    for i in range(int(last) + 2):
        v = start + i * step
        if v > stop + tol:
            break
        v = min(v, stop)
        if not out or v > out[-1]:  # a step below the float spacing rounds onto out[-1]
            out.append(v)
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


def cmd_sweep(args) -> int:
    curves = [c for c in args.curves.split(",") if c != ""]
    for c in curves:
        if c not in cap.CURVES:
            raise ValueError(f"unknown curve {c!r}; choose from {', '.join(cap.CURVES)}")
    grid = _parse_grid(args.grid)
    ks = _parse_int_list(args.k, "--k")
    ds = _parse_int_list(args.d, "--d")
    columns = []  # (curve, k column, param of capacity_curve)
    for curve in curves:
        if curve == "fb0k":
            columns += [(curve, k, k) for k in ks]
        elif curve == "nc-dinf":
            columns += [(curve, f"{d},inf", d) for d in ds]
        else:
            columns.append((curve, _LABELS[curve], None))
    rows = []
    for curve, kcol, param in columns:
        values = cap.capacity_curve(curve, grid, param).tolist()
        rows += [{"curve": curve, "epsilon": e, "k": kcol, "value": v} for e, v in zip(grid, values)]
    # stable, so duplicate columns keep their order
    rows.sort(key=lambda r: (r["epsilon"], r["curve"], str(r["k"])))

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
    ok = gap <= bound and grid_val <= one.upper and one.upper - one.value <= 1e-12
    print(_emit_json({
        "one_dim_value": one.value,
        "upper_bound": one.upper,
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


@functools.cache  # once per process: parse_args leaves the parser as it is
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
    ps.add_argument("--curves", default="fb0k", help=f"comma list from: {', '.join(cap.CURVES)}")
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
                    help="per-trial channel-use cap (required above 1e6 expected uses, "
                         "as at --epsilon 1)")
    pm.set_defaults(func=cmd_simulate)

    po = sub.add_parser("oracle", help="exact grid maximum vs the solver and its upper bound")
    po.add_argument("--k", type=int, required=True)
    po.add_argument("--epsilon", type=float, required=True)
    po.add_argument("--grid-n", type=int, default=201, dest="grid_n",
                    help="grid points per axis, 2 to 1e7")
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
    except (cap.DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
