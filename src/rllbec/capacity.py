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

The loop and the recursions run on a float, for the point solvers, or
on an array with one entry per epsilon, for capacity_curve; only the
stage primitive differs (_stage with math, _stage_array with numpy).
Each array entry stops on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Argument outside the mathematical domain of a formula."""


_MAX_STEPS = 200  # caps every Newton loop, which converges superlinearly in far fewer
_MARGIN = 1e-14  # added to a Dinkelbach level to cover the rounding of the ratio
_MAX_AXIS = 10 ** 7  # grid points per axis of the grid oracle
_LN2 = math.log(2.0)


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


def _check_k(k, name="k"):
    try:
        ok = int(k) == k and k >= 1
    except (TypeError, ValueError, OverflowError):  # None, nan, inf
        ok = False
    if not ok:
        raise DomainError(f"{name} must be a positive integer, got {k!r}")


@dataclass(frozen=True)
class SchemeParams:
    """Erasure probability plus the '0'-probability used after each run length."""

    epsilon: float
    k: int
    delta: tuple

    def __post_init__(self):
        object.__setattr__(self, "delta", tuple(float(d) for d in self.delta))
        _check_eps(self.epsilon)
        _check_k(self.k)
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
    _check_k(k)
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
    The last call to maximizer is always at the returned level.
    """
    surplus, r = maximizer(level)
    for _ in range(_MAX_STEPS):
        rising = (surplus > 0.0) & (r > level)
        if isinstance(rising, np.ndarray):
            if not rising.any():
                break
            level = np.where(rising, r, level)
        elif rising:
            level = r
        else:
            break
        surplus, r = maximizer(level)
    return level


def _stage(a):
    """H2(x) - a*x at x = 1/(1 + 2^b), b = max(a, 0), and x, for a float.

    x is the maximizer over [0, 1/2], so the value is log2(1 + 2^-a) for
    a >= 0. For a < 0, x = 1/2 is clamped and the value is taken at x,
    1 - a/2, not at the unclamped maximizer: the Newton step needs N - R*D
    at the point it returns. At the solvers' roots a >= 0, so the clamp
    only keeps rounding from breaking the codec's constraint safety;
    fb_upper_2inf's a = 2R + mu/w is never negative.
    """
    b = a if a > 0.0 else 0.0
    x = 1.0 / (1.0 + 2.0 ** b)
    return math.log2(1.0 + 2.0 ** -b) + (b - a) * x, x


def _stage_array(a):
    """_stage of every entry of an array."""
    b = np.maximum(a, 0.0)
    x = 1.0 / (1.0 + np.exp2(b))
    return np.logaddexp2(0.0, -b) + (b - a) * x, x


def _zero_run(weight, k, level, stage, point=None):
    """(F, r) of the zero-run rate over a product set at level R, one
    backward pass.

    The rate is rate() with weight w in place of 1-eps, so N - R*D =
    sum_i w^(i+1) * prod_{m<i} delta_m * (H2(delta_i) - R*delta_i) - R. Its
    maximum over delta_i..delta_{k-1}, over w^(i+1) * prod_{m<i} delta_m,
    is u_i = max_x H2(x) - a_i*x with a_i = R - w*u_{i+1} and u_k = 0;
    F(R) = w*u_0 - R. stage(a) returns that value at its maximizer and
    the maximizer. The same pass sums T_i = w*delta_i*(1 + T_{i+1}), so
    D = 1 + T_0 and r = R + F/D. weight and level are floats or arrays;
    point, if given, is filled with the maximizers.
    """
    u = t = 0.0
    for i in range(k - 1, -1, -1):
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
        DomainError: k or d is not a positive integer.
    """
    if name == "cap-12":
        return 1, eb / (1.0 + eb * eb), 1
    _check_k(param, "k" if name == "fb0k" else "d")
    n = int(param)
    return (n, eb, 1) if name == "fb0k" else (1, n * eb, n)


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
    _check_k(k)
    _check_k(grid_n, "grid_n")
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


def fb_upper_2inf(epsilon: float) -> float:
    """Feedback upper bound for the 'at least two 0s after every 1' family.

    Maximizes, over x in [0,1]^3 with x0 + x1 + x2 <= 1,

        N(x)   (1-eps) * (H2(x0) + eps*H2(x1) + eps^2*H2(x2))
        ---- = -----------------------------------------------------
        D(x)   1 + eps + eps^2 + 2*(1-eps)*(x0 + eps*x1 + eps^2*x2)

    The three parameters are the '1'-biases of the output graph nodes
    that still have an input choice.

    Solved by _dinkelbach. N - R*D is concave; with w_i = (1-eps)*eps^i
    and multiplier mu, node i's KKT point and value u_i are _stage(2R +
    mu/w_i), the max of H2(x) - (2R + mu/w_i)*x. So N - R*D = sum_i w_i*u_i
    + mu*sum_i x_i - R*(1 + eps + eps^2), and the step is R + F/D. A node
    of weight 0 stays at x = 0 and is dropped. mu is the root of the
    excess mass g(mu) = sum_i x_i - 1, convex and decreasing as every
    x_i <= 1/2, found from mu = 0 (g <= 0 there: no constraint) by the
    Newton step mu + g/(ln2 * sum_i x_i*(1 - x_i)/w_i).

    The bound equals nc_capacity_d_inf(eps, 2) up to the threshold
    eps* = 1 - 1/log2(9/4) ~ 0.145244 and lies strictly below it above.
    The noncausal maximizer x, the root of (1-x)^(c+2) = x^c with
    c = 1/(1-eps), rises with eps and reaches 1/3 at eps*; up to there
    the diagonal point (x, x, x) is feasible and is the maximum, and
    beyond it that point leaves the simplex.
    """
    _check_eps(epsilon)
    eb = 1.0 - epsilon
    weights = [w for w in (eb, eb * epsilon, eb * epsilon ** 2) if w > 0.0]
    base = 1.0 + epsilon + epsilon ** 2

    def maximizer(level):
        nodes = []  # (u_i, x_i, w_i) at the last multiplier tried

        def newton(mu):
            nodes[:] = [_stage(2.0 * level + mu / w) + (w,) for w in weights]
            excess = sum(x for _, x, _ in nodes) - 1.0
            if excess <= 0.0:
                return excess, mu
            return excess, mu + excess / (_LN2 * sum(x * (1.0 - x) / w for _, x, w in nodes))

        mu = _dinkelbach(newton)
        surplus = sum(w * u for u, _, w in nodes) + mu * sum(x for _, x, _ in nodes) - level * base
        return surplus, level + surplus / (base + 2.0 * sum(w * x for _, x, w in nodes))

    return _dinkelbach(maximizer)


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


def capacity_curve(name: str, epsilons, param=None) -> np.ndarray:
    """One capacity curve, a value per entry of epsilons.

    name is one of CURVES: fb0k (feedback_capacity, param = k),
    unconstrained (1 - eps), nc-dinf (nc_capacity_d_inf, param = d),
    fb-ub-2inf (fb_upper_2inf) or cap-12 (capacity_12). fb0k, nc-dinf and
    cap-12 run one _dinkelbach over the whole array, through the same
    _zero_run and _as_zero_run as the point solvers with numpy stages, so
    each entry is within a few ulps of its point solver and does not
    depend on the other entries; the memory held is a few arrays of
    len(epsilons). fb-ub-2inf calls fb_upper_2inf once per entry.

    Raises:
        DomainError: an epsilon outside [0, 1], or k or d not a positive
            integer, before anything is solved.
        ValueError: an unknown curve name.
    """
    if name not in CURVES:
        raise ValueError(f"unknown curve {name!r}; choose from {', '.join(CURVES)}")
    eps = np.array(epsilons, dtype=float, ndmin=1)
    bad = ~((eps >= 0.0) & (eps <= 1.0))
    if bad.any():
        _check_eps(float(eps[bad][0]))
    if name == "fb-ub-2inf":
        return np.array([fb_upper_2inf(e) for e in eps.ravel().tolist()]).reshape(eps.shape)
    if name == "unconstrained":
        return 1.0 - eps
    k, weight, scale = _as_zero_run(name, 1.0 - eps, param)
    return _dinkelbach(lambda level: _zero_run(weight, k, level, _stage_array), np.zeros_like(eps)) / scale
