"""The three benchmark workloads, as lists of `rllbec` command lines.

Each workload is a fixed sequence of steps; one pass runs every step
once through `rllbec.cli.main`. The seed changes only the inputs:

- sweep and grid shift the start of their epsilon grid, and the oracle
  epsilons, by a seeded fraction of one grid step. The number of points
  and the work per point stay the same. Seed 0 gives the unshifted grids.
- simulate passes the seed to `simulate --seed`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

NAMES = ("sweep", "grid", "simulate")

SWEEP_KS = (1, 2, 4, 8, 16, 32, 64)
SWEEP_DS = (1, 2, 3)
SWEEP_STEPS = 50   # epsilon grid intervals: 51 points
GRID_STEPS = 20    # 21 points
ORACLES = ((3, 0.1, 101), (3, 0.3, 101), (3, 0.6, 101), (4, 0.3, 41))  # (k, epsilon, grid_n)
# (k, epsilon, trials, delta): the ROADMAP reference point; few erasures
# with long L(j) prefix runs; many erasures with delta on the 1/2 boundary
SIM_CONFIGS = ((2, 0.3, 3000, "optimal"), (8, 0.1, 1500, "optimal"), (1, 0.6, 1000, "0.5"))
LOG2_MESSAGES = 62

_GOLDEN = 0.6180339887498949


@dataclass
class Step:
    """One CLI call and what its output must contain.

    kind is 'sweep', 'oracle' or 'simulate'. For 'sweep', `expect`
    maps each (curve, k column) to the number of epsilon points; for
    'simulate' it holds k, epsilon, trials and the delta argument.
    """

    argv: list
    kind: str
    expect: dict = field(default_factory=dict)


def shift(seed: int) -> float:
    """Seeded fraction of a grid step in [0, 1); 0 for seed 0."""
    return (seed * _GOLDEN) % 1.0


def _grid_arg(start: float, steps: int) -> str:
    # stop stays at 1 so every epsilon is valid; the step shrinks to keep
    # steps + 1 points
    return f"{start!r}:1:{(1.0 - start) / steps!r}"


def steps(workload: str, seed: int) -> list:
    if workload == "sweep":
        u = shift(seed) / SWEEP_STEPS
        expect = {("fb0k", str(k)): SWEEP_STEPS + 1 for k in SWEEP_KS}
        expect.update({("nc-dinf", f"{d},inf"): SWEEP_STEPS + 1 for d in SWEEP_DS})
        expect[("cap-12", "1,2")] = SWEEP_STEPS + 1
        argv = ["sweep", "--curves", "fb0k,nc-dinf,cap-12",
                "--k", ",".join(map(str, SWEEP_KS)), "--d", ",".join(map(str, SWEEP_DS)),
                "--grid", _grid_arg(u, SWEEP_STEPS), "--format", "json"]
        return [Step(argv, "sweep", expect)]
    if workload == "grid":
        u = shift(seed) / GRID_STEPS
        out = [Step(["sweep", "--curves", "fb-ub-2inf", "--grid", _grid_arg(u, GRID_STEPS),
                     "--format", "json"], "sweep", {("fb-ub-2inf", "2,inf"): GRID_STEPS + 1})]
        for k, eps, grid_n in ORACLES:
            out.append(Step(["oracle", "--k", str(k), "--epsilon", repr(eps + u),
                             "--grid-n", str(grid_n)], "oracle"))
        return out
    if workload == "simulate":
        return [Step(["simulate", "--log2-messages", str(LOG2_MESSAGES), "--k", str(k),
                      "--epsilon", repr(eps), "--trials", str(trials), "--delta", delta,
                      "--seed", str(seed)], "simulate",
                     {"k": k, "epsilon": eps, "trials": trials, "delta": delta})
                for k, eps, trials, delta in SIM_CONFIGS]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")
