"""Independent checks of the program's outputs.

No check compares against a frozen number. Each capacity value is
compared with a fresh maximization of the objective its docstring
states, written here from the formulas and solved with scipy's bounded
scalar minimizer after a coarse scan:

- fb0k:       rate(delta_chain(d)) over d in [0, 1/2]
- nc-dinf:    H2(x) / (1/(1-eps) + d*x) over x in [0, 1/2]
- cap-12:     H2(x) / (c + x), c = 1/(1-eps) + (1-eps), over x in [1/3, 1/2]

fb-ub-2inf is a brute-force maximum that is known to under-report by
a few 1e-6, so it is bounded from both sides instead: it is at least the
best point of a coarse feasible grid of our own, and at most nc-dinf at
d = 2. The objective is a mediant of terms H2(x_i)/(1/(1-eps) + 2 x_i),
each at most nc-dinf, so the upper side is a theorem. It is not strict:
below eps of about 0.2 the maximum lies on the diagonal x0 = x1 = x2,
where the two values are equal, so an exact solver ties with nc-dinf.

Each check returns (attempted, failed, notes).
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np
from scipy.optimize import minimize_scalar

VALUE_TOL = 1e-9        # the tests' value tolerance
SCAN_POINTS = 201
FEASIBLE_GRID = 41      # not a sub-grid of the program's 101 points per axis


def h2(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -(x * np.log2(x) + (1.0 - x) * np.log2(1.0 - x))
    return np.where((x > 0.0) & (x < 1.0), out, 0.0)


def zero_run_rate(eps, rows):
    """Rate of each row (delta_0..delta_{k-1}) of the zero-run scheme.

    Entropy of delta_i weighted by the chance (1-eps)^(i+1) prod_{m<i} delta_m
    of reaching run length i without an erasure, over the expected renewal
    time 1 + sum_i (1-eps)^(i+1) prod_{m<=i} delta_m.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    reach = (1.0 - eps) ** np.arange(1, rows.shape[1] + 1)
    upto = np.cumprod(rows, axis=1)
    before = np.concatenate([np.ones((rows.shape[0], 1)), upto[:, :-1]], axis=1)
    return (reach * before * h2(rows)).sum(axis=1) / (1.0 + (reach * upto).sum(axis=1))


def chain_rows(last, eps, k):
    """delta vectors on the stationarity manifold, one per last entry.

    Odds form of the identity log2(b_j/d_j) = log2(b_{j+1}/d_{j+1})
    + (1-eps) log2(b_{j+1}/b_{j+2}), with b = 1 - delta and b_k = 1.
    """
    last = np.atleast_1d(np.asarray(last, dtype=float))
    rows = np.empty((last.size, k))
    rows[:, -1] = last
    b_after = np.ones(last.size)
    with np.errstate(divide="ignore"):
        for j in range(k - 2, -1, -1):
            b_next = 1.0 - rows[:, j + 1]
            odds = b_next / rows[:, j + 1] * (b_next / b_after) ** (1.0 - eps)
            rows[:, j] = 1.0 / (1.0 + odds)
            b_after = b_next
    return rows


def maximize(f_rows, lo, hi):
    """Max of a vectorized f on [lo, hi]: coarse scan, then bounded Brent."""
    xs = np.linspace(lo, hi, SCAN_POINTS)
    vals = f_rows(xs)
    i = int(np.argmax(vals))
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)]
    res = minimize_scalar(lambda x: -float(f_rows(np.array([x]))[0]), bounds=(a, b),
                          method="bounded", options={"xatol": 1e-13})
    return max(float(vals[i]), -float(res.fun))


@functools.lru_cache(maxsize=None)
def fb0k_ref(eps, k):
    return maximize(lambda x: zero_run_rate(eps, chain_rows(x, eps, k)), 0.0, 0.5)


@functools.lru_cache(maxsize=None)
def nc_ref(eps, d):
    if eps == 1.0:
        return 0.0
    return maximize(lambda x: h2(x) / (1.0 / (1.0 - eps) + d * x), 0.0, 0.5)


@functools.lru_cache(maxsize=None)
def cap12_ref(eps):
    if eps == 1.0:
        return 0.0
    c = 1.0 / (1.0 - eps) + (1.0 - eps)
    return maximize(lambda x: h2(x) / (c + x), 1.0 / 3.0, 0.5)


@functools.lru_cache(maxsize=None)
def fb_ub_floor(eps):
    """Best value of the (2,inf) upper-bound objective on a coarse feasible grid."""
    if eps == 1.0:
        return 0.0
    axis = np.linspace(0.0, 1.0, FEASIBLE_GRID)
    x0, x1, x2 = np.meshgrid(axis, axis, axis, indexing="ij")
    feasible = x0 + x1 + x2 <= 1.0
    x0, x1, x2 = x0[feasible], x1[feasible], x2[feasible]
    num = (1.0 - eps) * (h2(x0) + eps * h2(x1) + eps ** 2 * h2(x2))
    den = 1.0 + eps + eps ** 2 + 2.0 * (1.0 - eps) * (x0 + eps * x1 + eps ** 2 * x2)
    return float(np.max(num / den))


def check_row(curve, eps, kcol, value):
    """None if a sweep row is right, else a note saying why not."""
    if not (isinstance(value, float) and math.isfinite(value)):
        return f"non-finite value {value!r}"
    if curve == "fb0k":
        ref = fb0k_ref(eps, int(kcol))
    elif curve == "nc-dinf":
        ref = nc_ref(eps, int(kcol.split(",")[0]))
    elif curve == "cap-12":
        ref = cap12_ref(eps)
    elif curve == "fb-ub-2inf":
        floor, ceiling = fb_ub_floor(eps), nc_ref(eps, 2)
        if value < floor - 1e-12:
            return f"below the feasible grid's {floor!r}"
        if value > ceiling + VALUE_TOL:
            return f"above nc-dinf d=2 = {ceiling!r}"
        return None
    else:
        return f"unexpected curve {curve!r}"
    if abs(value - ref) > VALUE_TOL:
        return f"off the independent maximum {ref!r} by {value - ref:.3e}"
    return None


def ops(step):
    """Operations a step attempts: curve points, one oracle, or trials."""
    if step.kind == "sweep":
        return sum(step.expect.values())
    if step.kind == "oracle":
        return 1
    return step.expect["trials"]


def check_sweep(rec, expect):
    """expect maps (curve, k column) to the number of epsilon points."""
    attempted = sum(expect.values())
    if rec["error"] or rec["rc"] != 0:
        return attempted, attempted, [f"sweep failed: rc={rec['rc']} {rec['error'] or ''}"]
    rows = json.loads(rec["stdout"])
    seen = {key: 0 for key in expect}
    notes, extra = [], 0
    for r in rows:
        key = (r["curve"], str(r["k"]))
        if key not in seen or seen[key] >= expect[key]:
            extra += 1
            continue
        note = check_row(r["curve"], r["epsilon"], str(r["k"]), r["value"])
        if note:
            notes.append(f"{key} eps={r['epsilon']!r}: {note}")
        else:
            seen[key] += 1
    if extra:
        notes.append(f"{extra} unexpected rows")
    return attempted, attempted - sum(seen.values()) + extra, notes


def check_oracle(rec):
    if rec["error"] or rec["rc"] != 0 or not json.loads(rec["stdout"]).get("pass"):
        return 1, 1, [f"oracle {' '.join(rec['argv'])} failed: rc={rec['rc']} {rec['error'] or ''}"]
    return 1, 0, []


def check_simulate(rec, expect):
    """Zero errors, violations and censored trials, and the rate rule of
    test_rate_matches_capacity_within_noise: |empirical - rate(params)|
    <= max(3 stderr, 0.01). A step that fails as a whole fails every trial.
    """
    trials = expect["trials"]
    if rec["error"]:
        return trials, trials, [f"simulate raised: {rec['error']}"]
    rep = json.loads(rec["stdout"])
    if rep["trials"] != trials:
        return trials, trials, [f"report has {rep['trials']} trials, asked for {trials}"]
    bad = min(trials, rep["errors"] + rep["violations"] + rep["censored"])
    notes = [f"{bad} failed trials"] if bad else []
    expected_rate = float(zero_run_rate(expect["epsilon"], [rec["delta"]])[0])
    if abs(rep["empirical_rate"] - expected_rate) > max(3.0 * rep["stderr_rate"], 0.01):
        notes.append(f"empirical rate {rep['empirical_rate']!r} vs rate(params) {expected_rate!r}")
        bad = trials
    return trials, bad, notes


def check_step(step, rec):
    if step.kind == "sweep":
        return check_sweep(rec, step.expect)
    if step.kind == "oracle":
        return check_oracle(rec)
    return check_simulate(rec, step.expect)
