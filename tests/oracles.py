"""Reference computations that only the tests use.

Each is an independent route to a number the package computes another
way: the constraint graph's Perron root, the zero-run chain and its
closed-form law, a Monte Carlo of the renewal process behind
nc_capacity_d_inf, and the text of `rllbec sweep` built one row dict at
a time.
"""

import csv
import io
import json

import numpy as np

from rllbec import FiniteChain, RllConstraint, SchemeParams, capacity_curve
from rllbec.capacity import DomainError, _check_eps, _check_k, h2


def adjacency(c: RllConstraint) -> np.ndarray:
    """0/1 transition matrix of the state walk (row = from, column = to)."""
    n = c.num_states
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
