"""Command-line front end.

Subcommands: capacity (single point), sweep (curves over an epsilon
grid, CSV or JSON; one capacity_curves call for every column, over the
whole grid, and the text written from those columns), simulate (Monte
Carlo transmissions), oracle (exact grid maximum vs the solver and its
certified upper bound), validate (check bit strings against a
run-length constraint).

One table, _COMMANDS, holds every command's handler and flags. A
well-formed `CMD --flag value ...` argv is read straight from it, with
no parser built. Help, usage errors and every other argparse form
(--flag=value, flag prefixes, negative values, --) go through the
argparse tree built from the same table, so their output is unchanged.

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


def _json_items(values: list) -> list[str]:
    """json's text of each scalar in values, from one call of the C encoder
    (indent would send json.dumps through the pure-Python one)."""
    return json.dumps(values)[1:-1].split(", ")


def cmd_sweep(args) -> int:
    curves = [c for c in args.curves.split(",") if c != ""]
    if not curves:
        raise ValueError(f"--curves names no curve; choose from {', '.join(cap.CURVES)}")
    for c in curves:
        if c not in cap.CURVES:
            raise ValueError(f"unknown curve {c!r}; choose from {', '.join(cap.CURVES)}")
    grid = _parse_grid(args.grid)
    ks = _parse_int_list(args.k, "--k")
    ds = _parse_int_list(args.d, "--d")
    for flag, values, curve in (("--k", ks, "fb0k"), ("--d", ds, "nc-dinf")):
        if curve in curves and not values:
            raise ValueError(f"{flag} lists no value for the {curve} curve")
    columns = []  # (curve, k column, param of capacity_curves)
    for curve in curves:
        if curve == "fb0k":
            columns += [(curve, k, k) for k in ks]
        elif curve == "nc-dinf":
            columns += [(curve, f"{d},inf", d) for d in ds]
        else:
            columns.append((curve, _LABELS[curve], None))
    values = cap.capacity_curves([(curve, param) for curve, _, param in columns], grid)
    # rows run over the grid, which is increasing, and at each epsilon over
    # the columns sorted by (curve, str(k)); stable, so duplicates keep their order
    columns = sorted(((curve, kcol, v.tolist()) for (curve, kcol, _), v in zip(columns, values)),
                     key=lambda c: (c[0], str(c[1])))

    def render(out):
        # byte for byte the row-dict path that tests/oracles.py keeps as reference
        if args.format == "json":
            heads = [(f'  {{\n    "curve": {json.dumps(c)},\n    "epsilon": ',
                      f',\n    "k": {json.dumps(k)},\n    "value": ') for c, k, _ in columns]
            values = zip(*(_json_items(v) for _, _, v in columns))
            rows = [f"{pre}{e}{mid}{v}\n  }}" for e, vs in zip(_json_items(grid), values)
                    for (pre, mid), v in zip(heads, vs)]
            out.write("[\n" + ",\n".join(rows) + "\n]\n")
        else:
            w = csv.writer(out, lineterminator="\n")
            w.writerow(["curve", "epsilon", "k", "value"])
            values = zip(*([f"{v:.12g}" for v in vs] for _, _, vs in columns))
            w.writerows([c, e, k, v] for e, vs in zip([f"{e:.12g}" for e in grid], values)
                        for (c, k, _), v in zip(columns, vs))

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
    ok = (gap <= bound and grid_val <= one.upper and one.upper - one.value <= 1e-12
          and cap.feedback_surplus(args.epsilon, args.k, one.upper) < 0)  # a float check
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
        pos = first_violation(cons, [int(ch) for ch in line])
        if pos is None:
            print("ok")
        else:
            any_violation = True
            print(f"violation:{pos}")
    return 1 if any_violation else 0


# Every command: its handler, its help and each flag's add_argument
# kwargs, in the order the help lists them. _build_parser and _parse both
# read this table, so a flag is written once, here.
_COMMANDS = {
    "capacity": (cmd_capacity, "feedback capacity at one (epsilon, k) point", {
        "--k": dict(type=int, required=True, help="maximum zero-run length"),
        "--epsilon": dict(type=float, required=True, help="erasure probability"),
    }),
    "sweep": (cmd_sweep, "evaluate capacity curves over an epsilon grid", {
        "--curves": dict(default="fb0k", help=f"comma list from: {', '.join(cap.CURVES)}"),
        "--k": dict(default="1", help="comma list of k values (fb0k curve)"),
        "--d": dict(default="2", help="comma list of d values (nc-dinf curve)"),
        "--grid": dict(default="0:1:0.05", help="epsilon grid as start:stop:step"),
        "--out": dict(default="-", help="output path, '-' for stdout"),
        "--format": dict(choices=("csv", "json"), default="csv"),
    }),
    "simulate": (cmd_simulate, "Monte Carlo transmissions of the coding scheme", {
        "--k": dict(type=int, required=True),
        "--epsilon": dict(type=float, required=True),
        "--log2-messages": dict(type=int, required=True),
        "--trials": dict(type=int, required=True),
        "--seed": dict(type=int, default=0),
        "--delta": dict(default="optimal", help="'optimal' or comma-separated values"),
        "--max-uses": dict(type=int, help="per-trial channel-use cap (required above 1e6 "
                                          "expected uses, as at --epsilon 1)"),
    }),
    "oracle": (cmd_oracle, "exact grid maximum vs the solver and its upper bound", {
        "--k": dict(type=int, required=True),
        "--epsilon": dict(type=float, required=True),
        "--grid-n": dict(type=int, default=201, help="grid points per axis, 2 to 1e7"),
    }),
    "validate": (cmd_validate, "check bit strings on stdin against a (d, k) constraint", {
        "--d": dict(type=int, default=0),
        "--k": dict(required=True, help="integer or 'inf'"),
    }),
}


@functools.cache  # once per process: parse_args leaves the parser as it is
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rllbec",
        description="Feedback capacity and zero-error coding for run-length limited erasure channels.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (func, help_, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        for flag, kwargs in flags.items():
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(func=func)
    return p


def _parse(argv) -> argparse.Namespace | None:
    """The Namespace argparse returns for a well-formed `CMD --flag value
    ...` argv, without building a parser; None for any other argv (help,
    errors, --flag=value, prefixes, values starting with '-', --), which
    argparse then reads. A repeated flag keeps its last value."""
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    func, _, flags = _COMMANDS[argv[0]]
    given = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        kwargs = flags.get(flag)
        if kwargs is None or text.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(text)
        except (TypeError, ValueError):
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        given[flag] = value
    if any(kw.get("required") and flag not in given for flag, kw in flags.items()):
        return None
    return argparse.Namespace(command=argv[0], **{
        flag[2:].replace("-", "_"): given.get(flag, kw.get("default"))
        for flag, kw in flags.items()}, func=func)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv)
    if args is None:  # help and usage errors print and exit here
        args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (cap.DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
