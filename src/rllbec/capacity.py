"""Capacity formulas and exact solvers for erasure channels with
run-length limited inputs.

The central object is a k-vector of '0'-probabilities (delta_0, ...,
delta_{k-1}): delta_j is the chance of transmitting another '0' after j
consecutive '0's. rate() scores such a vector in bits per channel use,
and delta_chain() generates the unique vector satisfying the
stationarity identities given its last entry.

Every capacity is the maximum of a ratio N(x)/D(x), found by one
Dinkelbach iteration (_dinkelbach) on F(R) = max_x N - R*D. Its update
R <- N(x)/D(x) is the Newton step R + F(R)/D(x), since F'(R) = -D(x). For
the (0,k) rate, F has a backward recursion over the k stages with a
closed form at each one (_zero_run); the same pass sums D, so no entropy
is evaluated, and F(R) <= 0 certifies rate <= R over the whole cube
[0, 1]^k. The grid oracle runs the same recursion with each stage
maximized over a grid axis. nc_capacity_d_inf and capacity_12 are the
k = 1 rate at a rescaled weight (_as_zero_run). fb_upper_2inf maximizes
N - R*D with one stage per node, at the shift that the constraint's
multiplier adds; the same loop finds that multiplier.

The loop and the one zero-run recursion run on a float, for the point
solvers and the grid oracle, or on a stack of arrays by epsilon, one row
per zero-run curve, each joining at its own k. Only the stage primitive
differs (_stage with math, _stage_array with numpy, or a grid axis).
Each array entry stops on its own. fb_upper_2inf runs on arrays only."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["CapacityResult", "DomainError", "SchemeParams", "capacity_12",
           "capacity_curve", "capacity_curves", "delta_chain", "fb_upper_2inf",
           "feedback_capacity", "grid_argmax_rate", "grid_max_rate", "h2",
           "nc_capacity_d_inf", "rate", "stationarity_residual"]


class DomainError(ValueError):
    """Argument outside the mathematical domain of a formula."""


_MAX_STEPS = 1000  # caps every Newton loop; the longest, nc-dinf at the largest float d, takes 709
_MARGIN = 1e-14  # added to a Dinkelbach level to cover the rounding of the ratio
_MAX_AXIS = 10 ** 7  # grid points per axis of the grid oracle
_MAX_K = 10 ** 5  # longest zero run k: every solve, grid pass and codec step costs O(k)
_LN2 = math.log(2.0)
_LOG2E = 1.0 / _LN2


def h2(p):
    """Binary entropy in bits; accepts a scalar or an array over [0, 1]."""
    arr = np.asarray(p, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):  # nan fails both
        raise DomainError(f"entropy argument outside [0, 1]: {p!r}")
    # -(q log2 q + (1 - q) log2(1 - q)) inside (0, 1) and +0.0 elsewhere,
    # in three input-sized arrays
    inner = (arr > 0.0) & (arr < 1.0)
    out = np.log2(arr, out=np.zeros_like(arr), where=inner)
    np.multiply(out, arr, out=out, where=inner)
    rest = np.subtract(1.0, arr, out=np.zeros_like(arr), where=inner)
    log_rest = np.log2(rest, out=np.zeros_like(arr), where=inner)
    np.multiply(log_rest, rest, out=log_rest, where=inner)
    np.add(out, log_rest, out=out, where=inner)
    np.negative(out, out=out, where=inner)
    return float(out) if arr.ndim == 0 else out


def _check_eps(epsilon):
    if not 0.0 <= epsilon <= 1.0:
        raise DomainError(f"erasure probability must lie in [0, 1], got {epsilon!r}")


def _eps_array(epsilons):
    """epsilons as a float array of at least one dimension, each in [0, 1]."""
    eps = np.array(epsilons, dtype=float, ndmin=1)
    bad = ~((eps >= 0.0) & (eps <= 1.0))
    if bad.any():
        _check_eps(float(eps[bad][0]))
    return eps


def _check_k(k, name="k", limit=None):
    """k as an int, if it is a positive integer of any numeric type and
    not above limit."""
    try:
        ok = int(k) == k and k >= 1
    except (TypeError, ValueError, OverflowError):  # None, nan, inf
        ok = False
    if not ok:
        raise DomainError(f"{name} must be a positive integer, got {k!r}")
    if limit is not None and k > limit:
        raise DomainError(f"{name} must be at most {limit}, got {k!r}")
    return int(k)


@dataclass(frozen=True)
class SchemeParams:
    """Erasure probability plus the '0'-probability used after each run length."""

    epsilon: float
    k: int
    delta: tuple

    def __post_init__(self):
        _check_eps(self.epsilon)
        object.__setattr__(self, "k", _check_k(self.k, limit=_MAX_K))
        object.__setattr__(self, "delta", tuple(float(d) for d in self.delta))
        if self.k != len(self.delta):
            raise DomainError(f"k={self.k} but {len(self.delta)} parameters given")
        if any(not 0.0 <= d <= 1.0 for d in self.delta):
            raise DomainError(f"parameters must lie in [0, 1], got {self.delta}")


@dataclass(frozen=True)
class CapacityResult:
    """A maximized rate, its maximizer, the stationarity residual there,
    and upper, a bound that no point of the domain exceeds.
    """

    value: float
    argmax: SchemeParams
    residual: float
    upper: float


def rate(params: SchemeParams) -> float:
    """Bits per channel use achieved by a parameter vector.

    Each term of the numerator weighs the entropy of delta_i by the
    probability that a session reaches run length i without an erasure;
    the denominator is the expected renewal time back to run length 0.
    """
    eb = 1.0 - params.epsilon
    num = tail = 0.0
    before = 1.0  # prod_{m<i} delta_m
    for i, d in enumerate(params.delta, start=1):
        power = eb ** i
        num += power * h2(d) * before
        before *= d
        tail += power * before
    return num / (1.0 + tail)


def delta_chain(delta_last, epsilon, k):
    """Backward recursion filling delta_{k-2}, ..., delta_0 from delta_{k-1}.

    Each step solves the stationarity identity

        log2(db_j/d_j) = log2(db_{j+1}/d_{j+1}) + (1-eps)*log2(db_{j+1}/db_{j+2})

    for d_j, where db is shorthand for 1-delta and db_k is defined as 1.
    The degenerate input delta_last = 1 maps to the all-ones vector (the
    limit of the recursion).

    Returns:
        Tuple (delta_0, ..., delta_{k-1}).
    """
    _check_eps(epsilon)
    k = _check_k(k, limit=_MAX_K)
    if not 0.0 <= delta_last <= 1.0:
        raise DomainError(f"delta_last must lie in [0, 1], got {delta_last!r}")
    if delta_last == 1.0:
        return (1.0,) * k
    eb = 1.0 - epsilon
    out = [0.0] * k
    out[-1] = float(delta_last)
    dbar_after = 1.0  # db_{j+2}, seeded with db_k := 1
    for j in range(k - 2, -1, -1):
        d_next = out[j + 1]
        dbar_next = 1.0 - d_next
        out[j] = d_next / (d_next + dbar_next * (dbar_next / dbar_after) ** eb)
        dbar_after = dbar_next
    return tuple(out)


def stationarity_residual(params: SchemeParams) -> float:
    """Largest violation of the adjacent-parameter identity, in base-2 logs.

    Zero for k = 1 (there are no adjacent pairs).

    Raises:
        DomainError: some parameter sits on the boundary {0, 1}, where
            the log-odds are undefined.
    """
    k = params.k
    if k == 1:
        return 0.0
    d = params.delta
    if any(x <= 0.0 or x >= 1.0 for x in d):
        raise DomainError(f"residual needs interior parameters, got {d}")
    eb = 1.0 - params.epsilon
    worst = 0.0
    for j in range(k - 1):
        dbar2 = 1.0 if j + 2 == k else 1.0 - d[j + 2]
        lhs = math.log2((1.0 - d[j]) / d[j])
        rhs = math.log2((1.0 - d[j + 1]) / d[j + 1]) + eb * math.log2((1.0 - d[j + 1]) / dbar2)
        worst = max(worst, abs(lhs - rhs))
    return worst


def _dinkelbach(maximizer, level=0.0):
    """Root of a convex decreasing F by Newton's method from below, for one
    point or an array.

    maximizer(R) returns (F(R), r) with r = R - F/F'(R) the Newton step
    from R. Every capacity is the maximum of a ratio N(x)/D(x) with D > 0:
    F(R) = max_x N - R*D and r = R + F/D(x) at the maximizing x, since
    F'(R) = -D(x). fb_upper_2inf's multiplier is the one other root.
    Starting at level, below the root, R <- r climbs superlinearly and
    never passes it. With floats, the loop stops once F(R) <= 0, which
    proves R is the root, or R stops rising; with arrays, each entry stops
    on its own in the same way and keeps its level while the others rise.
    The last call to maximizer is always at the returned level. An entry
    still rising after _MAX_STEPS steps raises RuntimeError.
    """
    surplus, r = maximizer(level)
    for _ in range(_MAX_STEPS):
        rising = (surplus > 0.0) & (r > level)
        if isinstance(rising, np.ndarray):
            if not np.count_nonzero(rising):
                break
            level = np.where(rising, r, level)
        elif rising:
            level = r
        else:
            break
        surplus, r = maximizer(level)
    else:
        if np.any((surplus > 0.0) & (r > level)):
            raise RuntimeError(f"Newton iteration still rising after {_MAX_STEPS} steps")
    return level


def _stage(a):
    """H2(x) - a*x at x = 1/(1 + 2^b), b = max(a, 0), and x, for a float.

    x is the maximizer over [0, 1/2], so the value is log2(1 + 2^-a) for
    a >= 0. For a < 0, x = 1/2 is clamped and the value is taken at x,
    1 - a/2, not at the unclamped maximizer: the Newton step needs N - R*D
    at the point it returns. At the solvers' roots a >= 0, so the clamp
    only keeps rounding from breaking the codec's constraint safety.
    """
    b = a if a > 0.0 else 0.0
    x = 1.0 / (1.0 + 2.0 ** b)
    # as np.logaddexp2(0, -b) computes it: log2(1 + 2^-b) would lose 2^-b
    return math.log1p(2.0 ** -b) * _LOG2E + (b - a) * x, x


def _stage_array(a):
    """_stage of every entry of an array; a = +inf gives (0, 0)."""
    b = np.maximum(a, 0.0)
    x = 1.0 / (1.0 + np.exp2(b))
    return np.logaddexp2(0.0, -b) - np.minimum(a, 0.0) * x, x


def _zero_run(weight, k, level, stage, point=None):
    """(F, r) of the zero-run rate over a product set at level R, one
    backward pass.

    The rate is rate() with weight w in place of 1-eps, so N - R*D =
    sum_i w^(i+1) * prod_{m<i} delta_m * (H2(delta_i) - R*delta_i) - R. Its
    maximum over delta_i..delta_{k-1}, over w^(i+1) * prod_{m<i} delta_m,
    is u_i = max_x H2(x) - a_i*x with a_i = R - w*u_{i+1} and u_k = 0;
    F(R) = w*u_0 - R. stage(a) returns that value at its maximizer and
    the maximizer. The same pass sums T_i = w*delta_i*(1 + T_{i+1}), so
    D = 1 + T_0 and r = R + F/D. weight and level are floats or arrays, k
    an int or, by row, each row's k in descending order: stage i runs on
    the rows with k > i, each joining with u = t = 0, as when solved alone.
    point, if given, is filled with the maximizers.
    """
    u = t = 0.0
    top, join = k, -1  # join: the next stage at which rows join
    if not isinstance(k, int):  # level and weight hold the rows in the pass
        top, join, q, stack = k[0], k[0] - 1, 0, (level, weight)
    for i in range(top - 1, -1, -1):
        if i == join:  # the rows of k = i + 1 join, from row q on
            p, q = q, q + k.count(i + 1)
            if p:
                pad = np.zeros((q - p,) + level.shape[1:])
                u, t = np.concatenate((u, pad)), np.concatenate((t, pad))
            level, weight = (stack[0][:q], stack[1][:q]) if q < len(k) else stack
            join = k[q] - 1 if q < len(k) else -1
        u, x = stage(level - weight * u)
        t = weight * x * (1.0 + t)
        if point is not None:
            point[i] = x
    surplus = weight * u - level
    return surplus, level + surplus / (1.0 + t)


def _as_zero_run(name, eb, param):
    """(k, weight, scale) such that curve name at 1 - eps = eb is the
    maximum of the zero-run rate of _zero_run divided by scale.

    fb0k is that rate at w = eb. The nc-dinf ratio H2(x)/(1/eb + d*x) is
    w*H2(x)/(1 + w*x) / d at w = d*eb, the k = 1 rate scaled by 1/d, so
    the (1,inf) noncausal capacity equals the (0,1) feedback capacity.
    The cap-12 ratio H2(x)/(1/eb + eb + x) is the k = 1 rate at w =
    eb/(1 + eb^2). eb is a float or an array.

    Raises:
        DomainError: k or d is not a positive integer, k > _MAX_K, or d
            is too large for a float.
    """
    if name == "cap-12":
        return 1, eb / (1.0 + eb * eb), 1
    if name == "fb0k":
        return _check_k(param, limit=_MAX_K), eb, 1
    d = _check_k(param, "d")
    try:
        return 1, float(d) * eb, d
    except OverflowError:
        raise DomainError(f"d is too large for a float, got {d!r}") from None


def _solve(name, epsilon, param=None) -> CapacityResult:
    """One point of a zero-run curve, with the closed-form stages."""
    _check_eps(epsilon)
    k, weight, scale = _as_zero_run(name, 1.0 - epsilon, param)
    delta = [0.0] * k
    value = _dinkelbach(lambda level: _zero_run(weight, k, level, _stage, delta)) / scale
    params = SchemeParams(epsilon, k, delta)
    return CapacityResult(value, params, stationarity_residual(params), value + _MARGIN)


def feedback_capacity(epsilon: float, k: int) -> CapacityResult:
    """Largest achievable rate with output feedback, zero-runs capped at k.

    The maximum of rate() over the whole cube [0, 1]^k, with the closed
    form of every stage of _zero_run. The last stage gives the
    paper's first-order condition C = log2((1 - d)/d) in d = delta_{k-1},
    and the others the stationarity identities of delta_chain. Every
    delta_j lies in [1/3, 1/2]. upper is the value plus _MARGIN, where
    F(upper) < 0: no point of the cube has a higher rate.

    epsilon = 1 returns exactly 0 with every delta_j = 1/2.
    """
    return _solve("fb0k", epsilon, k)


def grid_argmax_rate(epsilon: float, k: int, grid_n: int):
    """Exact maximum of rate() over the grid_n^k points of a uniform grid.

    Each stage of _zero_run takes the best value on the axis in
    place of the closed form, so a pass costs k * grid_n scores. The
    oracle for the closed-form stages of feedback_capacity.

    Returns:
        (value, point) with point a length-k array.

    Raises:
        DomainError: grid_n outside [2, 1e7].
    """
    _check_eps(epsilon)
    k, grid_n = _check_k(k, limit=_MAX_K), _check_k(grid_n, "grid_n")
    if not 2 <= grid_n <= _MAX_AXIS:
        raise DomainError(f"need 2 to {_MAX_AXIS} grid points per axis, got {grid_n}")
    axis = np.linspace(0.0, 1.0, grid_n)
    ent = h2(axis)
    score = np.empty_like(axis)

    def best_on_axis(a):
        np.add(ent, np.multiply(axis, -a, out=score), out=score)
        i = int(np.argmax(score))
        return float(score[i]), float(axis[i])

    eb, point = 1.0 - epsilon, [0.0] * k
    value = _dinkelbach(lambda level: _zero_run(eb, k, level, best_on_axis, point))
    return value, np.array(point)


def grid_max_rate(epsilon: float, k: int, grid_n: int) -> float:
    """Value-only wrapper around grid_argmax_rate."""
    return grid_argmax_rate(epsilon, k, grid_n)[0]


def nc_capacity_d_inf(epsilon: float, d: int) -> CapacityResult:
    """Capacity with at least d '0's after every '1' and erasure positions
    known ahead of time.

    Renewal form: each information symbol costs a geometric(1-eps)
    number of uses until one is delivered, plus d forced '0's whenever
    the symbol is a '1'. Maximizing entropy per expected cost over the
    '1'-bias x gives

        max_x H2(x) / (c + d*x),   c = 1/(1-eps),

    whose maximizer is the root of (1-x)^(c+d) = x^c: the k = 1 zero-run
    rate at weight d*(1-eps) in place of 1 - eps, divided by d (see
    _as_zero_run). upper is the value plus _MARGIN, above every x.

    epsilon = 1 returns 0 (the limit value; the cost diverges).
    """
    return _solve("nc-dinf", epsilon, d)


def fb_upper_2inf(epsilon):
    """Feedback upper bound for the 'at least two 0s after every 1' family.

    Maximizes, over x in [0,1]^3 with x0 + x1 + x2 <= 1,

        N(x)   (1-eps) * (H2(x0) + eps*H2(x1) + eps^2*H2(x2))
        ---- = -----------------------------------------------------
        D(x)   1 + eps + eps^2 + 2*(1-eps)*(x0 + eps*x1 + eps^2*x2)

    The three parameters are the '1'-biases of the output graph nodes
    that still have an input choice. epsilon is a float, or an array of
    any shape, whose entries are solved together, each on its own.

    Solved by _dinkelbach, started at the ratio of the feasible diagonal
    point x = (1/3, 1/3, 1/3), (1-eps)*H2(1/3)/(1 + 2*(1-eps)/3) with
    H2(1/3) = log2(3) - 2/3: at most the maximum, so the climb stays
    below the root and its stop still certifies it. N - R*D is concave;
    with w_i = (1-eps)*eps^i and multiplier mu, node i's KKT point and
    value u_i are _stage_array(2R + mu/w_i), the max of H2(x) - (2R +
    mu/w_i)*x. So N - R*D = sum_i w_i*u_i + mu*sum_i x_i - R*(1 + eps +
    eps^2), and the step is R + F/D. A node of weight 0 gets the shift
    +inf, set up once per solve, so x_i = u_i = 0. mu is the root of the
    excess mass g(mu) = sum_i x_i - 1, convex and decreasing as every
    x_i <= 1/2 (mu = 0 where g(0) <= 0: no constraint), found by the
    Newton step mu + g/(ln2 * sum_i x_i*(1 - x_i)/w_i), which is not
    taken where g <= 0. The first level starts it at mu = 0; each later
    level R starts it at max(mu' - 2*(R - R')*(1-eps), 0) from the root
    mu' of the level R' <= R before. Unclamped, every 2R + mu/w_i is at
    most its value at that root, as w_i <= 1-eps, so no x_i falls and
    neither does g: the climb starts left of the new root, as from 0. The
    Newton computes only x_i = 1/(1 + 2^max(2R + mu/w_i, 0)); u_i is
    evaluated once per level, at the converged mu.

    The bound equals nc_capacity_d_inf(eps, 2) up to the threshold
    eps* = 1 - 1/log2(9/4) ~ 0.145244 and lies strictly below it above.
    The noncausal maximizer x, the root of (1-x)^(c+2) = x^c with
    c = 1/(1-eps), rises with eps and reaches 1/3 at eps*; up to there
    the diagonal point (x, x, x) is feasible and is the maximum, and
    beyond it that point leaves the simplex.
    """
    eps = _eps_array(epsilon)
    eb = 1.0 - eps
    w = np.array([eb, eb * eps, eb * eps * eps])
    base = 1.0 + eps + eps * eps
    live = w > 0.0
    divisor = np.where(live, w, 1.0)
    dead = np.where(live, 0.0, np.inf)  # the shift of a weight-0 node
    start = eb * (math.log2(3.0) - 2.0 / 3.0) / (1.0 + 2.0 * eb / 3.0)  # x = (1/3, 1/3, 1/3)
    mu_prev, level_prev = np.zeros_like(eps), start  # the last multiplier root and its level

    def maximizer(level):
        nonlocal mu_prev, level_prev
        shift = 2.0 * level + dead

        def newton(mu):
            x = 1.0 / (1.0 + np.exp2(np.maximum(shift + mu / divisor, 0.0)))
            excess = x[0] + x[1] + x[2] - 1.0
            spread = x * (1.0 - x) / divisor
            return excess, mu + excess / (_LN2 * (spread[0] + spread[1] + spread[2]))

        mu = _dinkelbach(newton, np.maximum(mu_prev - 2.0 * (level - level_prev) * eb, 0.0))
        mu_prev, level_prev = mu, level
        u, x = _stage_array(shift + mu / divisor)
        wu, wx = w * u, w * x
        surplus = wu[0] + wu[1] + wu[2] + mu * (x[0] + x[1] + x[2]) - level * base
        return surplus, level + surplus / (base + 2.0 * (wx[0] + wx[1] + wx[2]))

    # mu/w_i and x_i/w_i overflow at a subnormal w_i; at eps = 1 every
    # x_i(1 - x_i)/w_i is 0, and the Newton step is -inf, not taken
    with np.errstate(over="ignore", divide="ignore"):
        value = _dinkelbach(maximizer, start)
    return float(value[0]) if np.ndim(epsilon) == 0 else value


def capacity_12(epsilon: float) -> CapacityResult:
    """Capacity with both run bounds active: one or two '0's between '1's.

    The value is max over x in [1/3, 1/2] of

        H2(x) / (c + x),   c = 1/(1-eps) + (1-eps),

    whose maximizer is the root of (c+1)*ln(1-x) = c*ln(x): the k = 1
    zero-run rate at weight (1-eps)/(1 + (1-eps)^2) in place of 1 - eps
    (see _as_zero_run). The root lies in (1/3, 1/2) because c >= 2 for every
    eps, which makes the left side larger at x = 1/3. upper is the value
    plus _MARGIN, above every x.

    epsilon = 1 returns 0 (the limit value).
    """
    return _solve("cap-12", epsilon)


CURVES = ("fb0k", "unconstrained", "nc-dinf", "fb-ub-2inf", "cap-12")
_BLOCK = 4096  # cells solved in one stack; larger stacks ran slower than one column at a time


def _zero_run_stack(ks, weights):
    """A maximizer for _dinkelbach, and its start, whose row j is _zero_run
    at ks[j] (descending) and weights[j] with numpy stages. A row whose
    level has not moved since the last call has stopped for good: it keeps
    its (F, r) and is not solved again."""
    weight, surplus, r, last = np.array(weights), None, None, None

    def maximizer(level):
        nonlocal surplus, r, last
        rows = None if last is None or len(level) == 1 else np.flatnonzero((level != last).any(axis=1))
        every, last = rows is None or len(rows) == len(level), level
        if every:
            surplus, r = _zero_run(weight, ks, level, _stage_array)
        else:
            surplus[rows], r[rows] = _zero_run(weight[rows], [ks[j] for j in rows], level[rows], _stage_array)
        return surplus, r
    return maximizer, np.zeros(weight.shape)


def capacity_curves(columns, epsilons) -> list:
    """capacity_curve(name, epsilons, param) of each (name, param) in
    columns; a bad name, epsilon, k or d raises before anything is solved.
    The fb0k, nc-dinf and cap-12 columns are stacked by k descending, in
    blocks of at most _BLOCK cells (at least one row), each solved by one
    _dinkelbach (_zero_run_stack). Each entry is within a few ulps of its
    point solver and does not depend on the others; the memory held is a
    few arrays of a block's size."""
    for name, _ in columns:
        if name not in CURVES:
            raise ValueError(f"unknown curve {name!r}; choose from {', '.join(CURVES)}")
    eps = _eps_array(epsilons)
    eb = 1.0 - eps.ravel()
    runs = sorted((_as_zero_run(name, eb, param) + (j,) for j, (name, param) in enumerate(columns)
                   if name not in ("fb-ub-2inf", "unconstrained")), key=lambda run: -run[0])
    out = [fb_upper_2inf(eps) if name == "fb-ub-2inf" else 1.0 - eps if name == "unconstrained"
           else None for name, _ in columns]
    size = max(1, _BLOCK // max(eb.size, 1))
    for b in range(0, len(runs), size):
        ks, weights, scales, js = zip(*runs[b:b + size])
        for j, scale, row in zip(js, scales, _dinkelbach(*_zero_run_stack(ks, weights))):
            out[j] = (row / scale).reshape(eps.shape)
    return out


def capacity_curve(name: str, epsilons, param=None) -> np.ndarray:
    """One capacity curve, a value per entry of epsilons: capacity_curves
    of the one column (name, param), name in CURVES: fb0k (feedback_capacity,
    param = k), unconstrained (1 - eps), nc-dinf (nc_capacity_d_inf, param
    = d), fb-ub-2inf (fb_upper_2inf) or cap-12 (capacity_12)."""
    return capacity_curves([(name, param)], epsilons)[0]
