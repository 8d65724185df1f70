"""Reference computations that only the tests use.

Each is an independent route to a number the package computes another
way: the constraint graph's Perron root, the stationary law of any
finite chain, by least squares and, for a chain with one closed class,
exactly in rationals (the reference for the labeling chain's closed
form), the zero-run chain and its closed-form law, a Monte Carlo of the renewal
process behind nc_capacity_d_inf, a zero-run curve solved one column at a time,
the text of `rllbec sweep` built one row dict at a time, and the CLI's argparse
tree built one add_argument call at a time.
"""

import argparse
import csv
import functools
import io
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from rllbec import INF, RllConstraint, SchemeParams, capacity_curve
from rllbec import capacity as cap
from rllbec.capacity import DomainError, _check_eps, _check_k, h2
from rllbec.cli import cmd_capacity, cmd_oracle, cmd_simulate, cmd_sweep, cmd_validate


def adjacency(c: RllConstraint) -> np.ndarray:
    """0/1 transition matrix of the constraint graph (row = from, column = to).

    State s counts the '0's since the last '1', capped at k, or at d for k = inf.
    """
    n = int(c.k if c.k != INF else c.d) + 1
    a = np.zeros((n, n))
    for s in range(n):
        if s < c.k:
            a[s, min(s + 1, n - 1)] = 1.0  # emit '0'
        if s >= c.d:
            a[s, 0] = 1.0  # emit '1'
    return a


def noiseless_capacity(c: RllConstraint) -> float:
    """log2 of the spectral radius of the constraint graph.

    This is the growth exponent of the number of admissible length-n
    sequences (Shannon): the Perron root of adjacency(c), which is real
    and the largest eigenvalue of the non-negative matrix.
    """
    return float(np.log2(np.linalg.eigvals(adjacency(c)).real.max()))


@dataclass(frozen=True)
class FiniteChain:
    """A row-stochastic square transition matrix over states 0..n-1."""

    P: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        object.__setattr__(self, "P", P)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError(f"transition matrix must be square, got shape {P.shape}")
        if np.any(P < -1e-15):
            raise ValueError("negative transition probability")
        rows = P.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > 1e-12:
            raise ValueError(f"rows must sum to 1, worst deviation {np.max(np.abs(rows - 1.0)):.3e}")

    @property
    def n(self) -> int:
        return self.P.shape[0]


def stationary(chain: FiniteChain, start: int = 0) -> np.ndarray:
    """Stationary distribution of the chain started from `start`.

    The states reachable from `start` form a closed set; the law solves
    pi (P_r - I) = 0, sum(pi) = 1 on that set by one least-squares solve
    of the stacked system, and states outside it carry zero mass.

    Raises:
        ValueError: `start` is out of range, or no unique law exists
            because two closed classes are reachable from `start`.
    """
    P = chain.P
    n = chain.n
    if not 0 <= start < n:
        raise ValueError(f"start state {start} out of range")
    reach = np.zeros(n, dtype=bool)
    reach[start] = True
    frontier = [start]
    while frontier:
        nxt = []
        for s in frontier:
            for t in np.nonzero(P[s] > 0.0)[0]:
                if not reach[t]:
                    reach[t] = True
                    nxt.append(int(t))
        frontier = nxt
    idx = np.flatnonzero(reach)
    m = idx.size
    a = np.vstack([P[np.ix_(idx, idx)].T - np.eye(m), np.ones((1, m))])
    b = np.zeros(m + 1)
    b[m] = 1.0
    x, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < m:
        raise ValueError(f"no unique stationary law from state {start}: "
                         f"{m - rank + 1} closed classes are reachable")
    pi = np.zeros(n)
    pi[idx] = x
    return pi


def stationary_exact(P) -> np.ndarray:
    """Stationary law of the float matrix P, solved exactly and rounded once.

    Each row is rescaled in rationals to sum to 1. The law solves
    pi (P - I) = 0 with its last equation replaced by sum(pi) = 1, by
    Gaussian elimination over fractions; that system is nonsingular
    exactly when P has one closed class, which the caller must ensure.
    Unlike `stationary`, no rounding error enters before the final
    conversion to float, subnormal entries included.
    """
    rows = [[Fraction(float(x)) for x in row] for row in P]
    rows = [[x / sum(row) for x in row] for row in rows]
    n = len(rows)
    m = [[rows[j][i] - (i == j) for j in range(n)] + [Fraction(0)] for i in range(n - 1)]
    m.append([Fraction(1)] * (n + 1))
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c])
        m[c], m[piv] = m[piv], m[c]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return np.array([float(m[i][n] / m[i][i]) for i in range(n)])


def _check_eps_delta(epsilon, delta):
    delta = tuple(delta)
    return SchemeParams(epsilon, len(delta), delta).delta


def build_s_chain(epsilon: float, delta) -> FiniteChain:
    """Chain counting consecutive '0's that made it through the channel.

    State j in 0..k is the current zero-run length. An erased slot
    carries a forced '1' (the separation rule of the restricted code),
    so the run advances only when a '0' goes through un-erased:

        row j < k: (1-eps)*delta_j forward to j+1, the rest back to 0
        row k:     back to 0 surely
    """
    delta = _check_eps_delta(epsilon, delta)
    k = len(delta)
    eb = 1.0 - epsilon
    P = np.zeros((k + 1, k + 1))
    for j in range(k):
        fwd = eb * delta[j]
        P[j, j + 1] = fwd
        P[j, 0] = 1.0 - fwd
    P[k, 0] = 1.0
    return FiniteChain(P)


def s_chain_stationary_exact(epsilon: float, delta) -> np.ndarray:
    """Closed form for stationary(build_s_chain(epsilon, delta)).

    pi_j is proportional to (1-eps)^j * prod_{m<j} delta_m for j = 0..k.
    """
    delta = _check_eps_delta(epsilon, delta)
    k = len(delta)
    eb = 1.0 - epsilon
    w = np.empty(k + 1)
    w[0] = 1.0
    for j in range(1, k + 1):
        w[j] = w[j - 1] * eb * delta[j - 1]
    return w / w.sum()


def renewal_rate_d_inf(epsilon: float, d: int, delta: float,
                       horizon_symbols: int, seed) -> float:
    """Empirical rate of the renewal process behind nc_capacity_d_inf.

    Each information symbol costs geometric(1-eps) uses until a slot is
    delivered, plus d forced '0's when the delivered bit is a '1'
    (drawn with probability delta). Returns H2(delta) * symbols / uses.
    """
    _check_eps(epsilon)
    if epsilon == 1.0:
        raise DomainError(f"need erasure probability in [0, 1), got {epsilon!r}")
    if not 0.0 <= delta <= 0.5:
        raise DomainError(f"need delta in [0, 1/2], got {delta!r}")
    d = _check_k(d, "d")
    horizon_symbols = _check_k(horizon_symbols, "horizon_symbols")
    rng = np.random.default_rng(seed)
    waits = rng.geometric(1.0 - epsilon, size=horizon_symbols)
    ones = rng.random(horizon_symbols) < delta
    total_uses = int(waits.sum() + d * ones.sum())
    return h2(delta) * horizon_symbols / total_uses


def zero_run_curve(name, epsilons, param=None) -> np.ndarray:
    """capacity_curve of one fb0k, nc-dinf or cap-12 column, solved on its
    own: one _dinkelbach over the column, from the closed-form start
    _zero_run_start and with the stop F(R) <= 2^-52 that the package's
    solvers take, whose maximizer is a plain backward pass of the column's
    k numpy stages (not capacity._zero_run), every entry evaluated until
    all stop."""
    eps = np.array(epsilons, dtype=float, ndmin=1)
    k, weight, scale = cap._as_zero_run(name, 1.0 - eps, param)

    def maximizer(level):
        u = t = 0.0
        for _ in range(k):
            u, x = cap._stage_array(level - weight * u)
            t = weight * x * (1.0 + t)
        surplus = weight * u - level
        return surplus, level + surplus / (1.0 + t)

    return cap._dinkelbach(maximizer, cap._zero_run_start(weight[None], [k])[0], 2.0 ** -52) / scale


def sweep_text(curves, grid, ks=(), ds=(), fmt="csv") -> str:
    """What `rllbec sweep` writes for these curves over the grid points:
    one dict per (epsilon, column) row, stably sorted by (epsilon, curve,
    str(k)), then json.dumps(rows, indent=2, sort_keys=True) or one
    csv.writer row per dict with epsilon and value as .12g."""
    labels = {"unconstrained": "unconstrained", "fb-ub-2inf": "2,inf", "cap-12": "1,2"}
    columns = []  # (curve, k column, param of capacity_curve)
    for curve in curves:
        if curve == "fb0k":
            columns += [(curve, k, k) for k in ks]
        elif curve == "nc-dinf":
            columns += [(curve, f"{d},inf", d) for d in ds]
        else:
            columns.append((curve, labels[curve], None))
    rows = []
    for curve, kcol, param in columns:
        values = capacity_curve(curve, grid, param).tolist()
        rows += [{"curve": curve, "epsilon": e, "k": kcol, "value": v} for e, v in zip(grid, values)]
    rows.sort(key=lambda r: (r["epsilon"], r["curve"], str(r["k"])))
    if fmt == "json":
        return json.dumps(rows, indent=2, sort_keys=True) + "\n"
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["curve", "epsilon", "k", "value"])
    for r in rows:
        w.writerow([r["curve"], f"{r['epsilon']:.12g}", r["k"], f"{r['value']:.12g}"])
    return out.getvalue()


@functools.cache  # parse_args leaves the parser as it is
def reference_parser() -> argparse.ArgumentParser:
    """The `rllbec` argparse tree written out flag by flag, which
    cli._build_parser builds from its command table and cli._parse reads
    without building."""
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
