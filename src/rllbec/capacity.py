"""Capacity formulas and exact solvers for erasure channels with
run-length limited inputs.

The central object is a k-vector of '0'-probabilities (delta_0, ...,
delta_{k-1}): delta_j is the chance of transmitting another '0' after j
consecutive '0's. rate() scores such a vector in bits per channel use,
and delta_chain() generates the unique vector satisfying the
stationarity identities given its last entry.

Each capacity is the root of a monotone scalar equation, bisected to
adjacent floats: feedback_capacity solves C = log2((1-d)/d) in the last
parameter d (the certificate of its optimum), and nc_capacity_d_inf and
capacity_12 solve the first-order condition (1-x)^(c+d) = x^c of a
ratio H2(x) / (c + d*x). fb_upper_2inf runs Dinkelbach's iteration on a
three-parameter ratio, bisecting the multiplier of its simplex
constraint. grid_max_rate() and ub_12_two_param() brute-force the same
objectives as independent oracles. The (0,k) grid never lists its points:
rate() splits into prefix and suffix partial sums over the axes, and the
cube is scored as blocks of prefix rows against the suffix, at most
_CHUNK_ROWS scores each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class DomainError(ValueError):
    """Argument outside the mathematical domain of a formula."""


class BudgetExceeded(RuntimeError):
    """A grid search was asked for more evaluations than allowed."""


_MAX_STEPS = 200  # caps every solver loop; bisection to a root in [2**-140, 1] needs fewer
_GRID_BUDGET = 10 ** 8
_CHUNK_ROWS = 1_000_000


def h2(p):
    """Binary entropy in bits; accepts a scalar or an array over [0, 1]."""
    arr = np.asarray(p, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
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


def _h2(p):
    """h2 of one float in [0, 1], without numpy, for the scalar solvers."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def _check_eps(epsilon):
    if not 0.0 <= epsilon <= 1.0:
        raise DomainError(f"erasure probability must lie in [0, 1], got {epsilon!r}")


def _check_k(k):
    if int(k) != k or k < 1:
        raise DomainError(f"k must be a positive integer, got {k!r}")


@dataclass(frozen=True)
class SchemeParams:
    """Erasure probability plus the '0'-probability used after each run length.

    delta_ratios holds each delta_j as an exact integer ratio (p, q), so
    the codec can split huge live sets without float rounding.
    """

    epsilon: float
    k: int
    delta: tuple
    delta_ratios: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "delta", tuple(float(d) for d in self.delta))
        _check_eps(self.epsilon)
        _check_k(self.k)
        if self.k != len(self.delta):
            raise DomainError(f"k={self.k} but {len(self.delta)} parameters given")
        if any(not 0.0 <= d <= 1.0 for d in self.delta):
            raise DomainError(f"parameters must lie in [0, 1], got {self.delta}")
        object.__setattr__(self, "delta_ratios", tuple(d.as_integer_ratio() for d in self.delta))


@dataclass(frozen=True)
class CapacityResult:
    """A maximized rate, its maximizer, and the stationarity residual there."""

    value: float
    argmax: SchemeParams
    residual: float


def _rate_rows(epsilon, deltas):
    """Rate of each row of an (n, k) array; the grid oracle's refinement kernel."""
    deltas = np.asarray(deltas, dtype=float)
    eb = 1.0 - epsilon
    n, k = deltas.shape
    powers = eb ** np.arange(1, k + 1)
    running = np.cumprod(deltas, axis=1)  # prod_{m<=i} delta_m
    before = np.hstack([np.ones((n, 1)), running[:, :-1]])  # prod_{m<i}
    num = (powers * h2(deltas) * before).sum(axis=1)
    den = 1.0 + (powers * running).sum(axis=1)
    return num / den


def rate(params: SchemeParams) -> float:
    """Bits per channel use achieved by a parameter vector.

    Each term of the numerator weighs the entropy of delta_i by the
    probability that a session reaches run length i without an erasure;
    the denominator is the expected renewal time back to run length 0.
    """
    return _rate(params.epsilon, params.delta)


def _rate(epsilon, delta):
    """rate() of a sequence of parameters, term by term as in _rate_rows."""
    eb = 1.0 - epsilon
    num = tail = 0.0
    before = 1.0  # prod_{m<i} delta_m
    for i, d in enumerate(delta, start=1):
        power = eb ** i
        num += power * _h2(d) * before
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


def _bisect(before, lo, hi):
    """First point past the root of a monotone sign change on [lo, hi].

    before(x) is True on the lo side of the root and False from the root
    on; the bracket ends are assumed to straddle it and are never
    evaluated. Halves until the midpoint equals an end (adjacent floats)
    or _MAX_STEPS steps, then returns hi, where before() is False.
    """
    for _ in range(_MAX_STEPS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if before(mid):
            lo = mid
        else:
            hi = mid
    return hi


def feedback_capacity(epsilon: float, k: int) -> CapacityResult:
    """Largest achievable rate with output feedback, zero-runs capped at k.

    The k-dimensional maximization collapses onto the delta_chain
    manifold (the interior optimum must satisfy the stationarity
    identities), leaving the last parameter d = delta_{k-1}. At the
    maximum the first-order condition in d reads

        C = rate(delta_chain(d)) = log2((1 - d) / d),

    so d is the root of g(d) = rate(delta_chain(d)) - log2((1-d)/d) on
    (0, 1/2]: g tends to -inf as d -> 0+ and g(1/2) = rate >= 0, with a
    single sign change in between (a 4000-point scan finds one at every
    k and eps tried, k up to 64). d is bisected to adjacent floats;
    |g(d)| at the returned point is the certificate gap, below 1e-12.

    epsilon = 1 returns exactly 0 with d = 1/2, the limit of the root.
    """
    _check_eps(epsilon)
    _check_k(k)
    if epsilon == 1.0:
        return CapacityResult(0.0, SchemeParams(1.0, k, (0.5,) * k), 0.0)

    def below(d):
        return _rate(epsilon, delta_chain(d, epsilon, k)) < math.log2((1.0 - d) / d)

    delta = delta_chain(_bisect(below, 0.0, 0.5), epsilon, k)
    params = SchemeParams(epsilon, k, delta)
    interior = all(0.0 < x < 1.0 for x in delta)
    residual = stationarity_residual(params) if interior else 0.0
    return CapacityResult(_rate(epsilon, delta), params, residual)


def _partial_sums(values, weights):
    """The rate's partial sums over consecutive axes of the grid.

    Each of the J = len(weights) axes runs over `values`; axis j has
    weight w_j. Returns three flat arrays over the values^J points in C
    order:

        num  = sum_j w_j * H2(d_j) * prod_{m<j} d_m
        den  = sum_j w_j * prod_{m<=j} d_m
        prod = prod_j d_j

    built from the back with one broadcast multiply-add per axis, so H2
    is evaluated once per value. J = 0 gives the empty sums (0, 0, 1).
    """
    num, den, prod = np.zeros(1), np.zeros(1), np.ones(1)
    if len(weights):
        col = values[:, None]
        ent = h2(values)[:, None]
        for w in weights[::-1]:
            num = (w * ent + col * num).ravel()
            den = (col * (w + den)).ravel()
            prod = (col * prod).ravel()
    return num, den, prod


def grid_argmax_rate(epsilon: float, k: int, grid_n: int):
    """Brute-force maximum of rate() over the full [0, 1]^k cube.

    A uniform grid with grid_n points per axis, followed by one round of
    coordinate-wise refinement around the winning cell. This is the
    independent oracle confirming that the one-dimensional reduction
    misses nothing in the interior.

    The cube is never built point by point. With the axes split into a
    prefix d_0..d_{s-1} and a suffix d_s..d_{k-1}, every point's rate is

        (Pnum + Pprod * Snum) / (1 + Pden + Pprod * Sden)

    where P and S are the _partial_sums of the two sides (weights
    (1-eps)^(i+1)). The suffix is the longest run of trailing axes with
    at most _CHUNK_ROWS points, and at least the last axis, so under the
    budget the prefix has fewer than 100 * grid_n points. The scan
    takes blocks of whole prefix rows against the suffix, at most
    _CHUNK_ROWS scores each; a single trailing axis longer than that is
    cut into segments of _CHUNK_ROWS values, one prefix row at a time.
    Blocks run in C order and keep the first argmax. The scores differ
    from the row kernel _rate_rows in the last bits, so the winner is
    scored again with _rate_rows, which the refinement uses too.

    Returns:
        (value, point) with point a length-k array.

    Raises:
        BudgetExceeded: grid_n ** k would exceed 1e8 evaluations.
    """
    _check_eps(epsilon)
    _check_k(k)
    if grid_n < 2:
        raise DomainError(f"need at least 2 grid points per axis, got {grid_n}")
    total = grid_n ** k
    if total > _GRID_BUDGET:
        raise BudgetExceeded(f"{grid_n}^{k} = {total} points exceeds the {_GRID_BUDGET} budget")
    axis = np.linspace(0.0, 1.0, grid_n)
    weights = (1.0 - epsilon) ** np.arange(1, k + 1)
    s = k - 1
    while s > 0 and grid_n ** (k - s + 1) <= _CHUNK_ROWS:
        s -= 1
    pnum, pden, pprod = _partial_sums(axis, weights[:s])
    pden += 1.0
    n_suffix = grid_n ** (k - s)
    seg = min(n_suffix, _CHUNK_ROWS)
    rows = _CHUNK_ROWS // seg
    # only a single trailing axis is ever cut, so a segment's partial
    # sums are those of a shorter axis; built once when there is one
    whole = _partial_sums(axis, weights[s:]) if seg == n_suffix else None
    best_val = -1.0
    best_idx = None
    for p0 in range(0, pnum.size, rows):
        p = slice(p0, p0 + rows)
        for a in range(0, n_suffix, seg):
            snum, sden, _ = whole or _partial_sums(axis[a:a + seg], weights[s:])
            vals = pprod[p, None] * snum
            vals += pnum[p, None]
            den = pprod[p, None] * sden
            den += pden[p, None]
            vals /= den
            i = int(np.argmax(vals))
            if vals.flat[i] > best_val:
                best_val = float(vals.flat[i])
                row, col = divmod(i, vals.shape[1])
                best_idx = (p0 + row) * n_suffix + a + col
    best_pt = axis[np.array(np.unravel_index(best_idx, (grid_n,) * k))]
    best_val = float(_rate_rows(epsilon, best_pt[None, :])[0])
    h = 1.0 / (grid_n - 1)
    for j in range(k):
        cand = np.clip(np.linspace(best_pt[j] - h, best_pt[j] + h, 201), 0.0, 1.0)
        pts = np.tile(best_pt, (cand.size, 1))
        pts[:, j] = cand
        vals = _rate_rows(epsilon, pts)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_pt = pts[i].copy()
    return best_val, best_pt


def grid_max_rate(epsilon: float, k: int, grid_n: int) -> float:
    """Value-only wrapper around grid_argmax_rate."""
    return grid_argmax_rate(epsilon, k, grid_n)[0]


def _ratio_max(c, d):
    """Maximizer and maximum of H2(x) / (c + d*x) over x in [0, 1/2], c, d > 0.

    Setting the derivative to zero gives (1-x)^(c+d) = x^c. Its log form
    (c+d)*ln(1-x) - c*ln(x) is strictly decreasing, +inf at 0+ and
    d*ln(1/2) < 0 at 1/2, so it has exactly one root there: the
    maximizer, found by bisection to adjacent floats.
    """
    x = _bisect(lambda x: (c + d) * math.log1p(-x) - c * math.log(x) > 0.0, 0.0, 0.5)
    return x, _h2(x) / (c + d * x)


def nc_capacity_d_inf(epsilon: float, d: int) -> CapacityResult:
    """Capacity with at least d '0's after every '1' and erasure positions
    known ahead of time.

    Renewal form: each information symbol costs a geometric(1-eps)
    number of uses until one is delivered, plus d forced '0's whenever
    the symbol is a '1'. Maximizing entropy per expected cost over the
    '1'-bias x in [0, 1/2] gives

        max_x H2(x) / (c + d*x),   c = 1/(1-eps),

    whose maximizer is the root of (1-x)^(c+d) = x^c (see _ratio_max).

    epsilon = 1 returns 0 (the limit value; the cost diverges).
    """
    _check_eps(epsilon)
    if int(d) != d or d < 1:
        raise DomainError(f"d must be a positive integer, got {d!r}")
    if epsilon == 1.0:
        return CapacityResult(0.0, SchemeParams(1.0, 1, (0.0,)), 0.0)
    x, value = _ratio_max(1.0 / (1.0 - epsilon), d)
    return CapacityResult(value, SchemeParams(epsilon, 1, (x,)), 0.0)


def fb_upper_2inf(epsilon: float) -> float:
    """Feedback upper bound for the 'at least two 0s after every 1' family.

    Maximizes, over x in [0,1]^3 with x0 + x1 + x2 <= 1,

        N(x)   (1-eps) * (H2(x0) + eps*H2(x1) + eps^2*H2(x2))
        ---- = -----------------------------------------------------
        D(x)   1 + eps + eps^2 + 2*(1-eps)*(x0 + eps*x1 + eps^2*x2)

    The three parameters are the '1'-biases of the output graph nodes
    that still have an input choice.

    The maximum is the root R of the decreasing F(R) = max_x N - R*D.
    Dinkelbach's iteration R <- N(x)/D(x), with x the maximizer of
    N - R*D, climbs to it superlinearly from R = 0 and stops once R no
    longer rises. N - R*D is concave, so that maximizer is the KKT point
    x_i = 1 / (1 + 2^(2R + mu/((1-eps)*eps^i))), with mu = 0 if that
    point has sum <= 1 and otherwise the bisected root of sum_i x_i = 1
    (a coordinate of weight (1-eps)*eps^i = 0 stays at 0). Every R is
    the objective at a feasible point.

    The bound equals nc_capacity_d_inf(eps, 2) up to the threshold
    eps* = 1 - 1/log2(9/4) ~ 0.145244 and lies strictly below it above.
    The noncausal maximizer x, the root of (1-x)^(c+2) = x^c with
    c = 1/(1-eps), rises with eps and reaches 1/3 at eps*; up to there
    the diagonal point (x, x, x) is feasible and is the maximum, and
    beyond it that point leaves the simplex.
    """
    _check_eps(epsilon)
    if epsilon == 1.0:
        return 0.0
    eb = 1.0 - epsilon
    w0, w1, w2 = eb, eb * epsilon, eb * epsilon ** 2
    base = 1.0 + epsilon + epsilon ** 2

    def bias(w, level, mu):
        # 1/(1 + 2^t) as y/(1 + y) with y = 2^-t, so a huge t underflows
        # to 0 instead of overflowing
        if w == 0.0:
            return 0.0
        y = 2.0 ** -(2.0 * level + mu / w)
        return y / (1.0 + y)

    def mass(level, mu):
        return bias(w0, level, mu) + bias(w1, level, mu) + bias(w2, level, mu)

    def maximizer(level):
        mu = 0.0
        if mass(level, 0.0) > 1.0:
            # all three x_i equal 1/(1 + 4^level) here, so level < 1/2; at
            # mu = (1-eps)*(1 - 2*level) every x_i <= 1/3
            mu = _bisect(lambda m: mass(level, m) > 1.0, 0.0, eb * (1.0 - 2.0 * level))
        return bias(w0, level, mu), bias(w1, level, mu), bias(w2, level, mu)

    def ratio(x0, x1, x2):
        num = w0 * _h2(x0) + w1 * _h2(x1) + w2 * _h2(x2)
        return num / (base + 2.0 * (w0 * x0 + w1 * x1 + w2 * x2))

    level = 0.0
    for _ in range(_MAX_STEPS):
        r = ratio(*maximizer(level))
        if r <= level:
            break
        level = r
    return level


def capacity_12(epsilon: float) -> CapacityResult:
    """Capacity with both run bounds active: one or two '0's between '1's.

    The value is max over x in [1/3, 1/2] of

        H2(x) / (c + x),   c = 1/(1-eps) + (1-eps),

    whose maximizer is the root of (c+1)*ln(1-x) = c*ln(x) (see
    _ratio_max). The root lies in (1/3, 1/2) because c >= 2 for every
    eps, which makes the left side larger at x = 1/3.

    epsilon = 1 returns 0 (the limit value).
    """
    _check_eps(epsilon)
    if epsilon == 1.0:
        return CapacityResult(0.0, SchemeParams(1.0, 1, (0.0,)), 0.0)
    eb = 1.0 - epsilon
    x, value = _ratio_max(1.0 / eb + eb, 1.0)
    return CapacityResult(value, SchemeParams(epsilon, 1, (x,)), 0.0)


def ub_12_two_param(epsilon: float, grid_n: int = 201) -> float:
    """Two-parameter cross-check of capacity_12.

    Maximizes, over (x1, x2) in [0, 1]^2 with eb = 1 - eps,

        (eb^2 * H2(x1) + eps*eb * H2(x2)) / (1 + eb^2 + eb^2*x1 + eps*eb*x2).

    The four-node output-driven graph behind the single-parameter
    formula leaves exactly two nodes an input choice; this is the
    resulting entropy per expected cost. Its maximum sits on the
    diagonal x2 = x1 and collapses to the capacity_12 objective, an
    equality the tests exercise numerically.
    """
    _check_eps(epsilon)
    if grid_n < 2:
        raise DomainError(f"need at least 2 grid points per axis, got {grid_n}")
    if epsilon == 1.0:
        return 0.0
    eb = 1.0 - epsilon

    def f(x1, x2):
        num = eb * eb * h2(x1) + epsilon * eb * h2(x2)
        den = 1.0 + eb * eb + eb * eb * x1 + epsilon * eb * x2
        return num / den

    axis = np.linspace(0.0, 1.0, grid_n)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    vals = f(g1, g2)
    i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
    pt = np.array([axis[i], axis[j]])
    best = float(vals[i, j])
    h = 1.0 / (grid_n - 1)
    for c in range(2):
        cand = np.clip(np.linspace(pt[c] - h, pt[c] + h, 401), 0.0, 1.0)
        cols = [np.full_like(cand, pt[m]) for m in range(2)]
        cols[c] = cand
        v = f(*cols)
        i = int(np.argmax(v))
        if v[i] > best:
            best = float(v[i])
            pt[c] = cand[i]
    return best
