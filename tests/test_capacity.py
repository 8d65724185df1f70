"""Closed-form rates, the backward recursion, and the maximizers."""

import itertools
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rllbec import (
    INF,
    DomainError,
    RllConstraint,
    SchemeParams,
    capacity_12,
    capacity_curve,
    capacity_curves,
    delta_chain,
    fb_upper_2inf,
    feedback_capacity,
    grid_argmax_rate,
    grid_max_rate,
    h2,
    nc_capacity_d_inf,
    rate,
    stationarity_residual,
)
from rllbec import capacity, cli
from rllbec.capacity import CURVES, _MARGIN, _stage, _stage_array

from oracles import noiseless_capacity, zero_run_curve

LOG2_GOLDEN = math.log2((1.0 + math.sqrt(5.0)) / 2.0)
EPS_STAR = 1.0 - 1.0 / math.log2(9.0 / 4.0)  # where fb-ub-2inf leaves nc-dinf at d = 2
INV_GOLDEN_SQ = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2


class TestH2:
    def test_endpoints_and_midpoint(self):
        assert h2(0.0) == 0.0
        assert h2(1.0) == 0.0
        assert h2(0.5) == 1.0

    def test_flatness_near_half(self):
        assert abs(h2(0.11) - 0.499915958164528) <= 1e-12
        assert abs(h2(0.11) - 0.5) <= 1e-4

    def test_symmetry(self):
        for p in (0.1, 0.25, 0.4):
            assert abs(h2(p) - h2(1.0 - p)) <= 1e-15

    def test_vector_input(self):
        out = h2(np.array([0.0, 0.5, 1.0]))
        assert out.shape == (3,)
        assert np.allclose(out, [0.0, 1.0, 0.0])

    def test_domain(self):
        with pytest.raises(DomainError):
            h2(1.2)
        with pytest.raises(DomainError):
            h2(-0.1)
        # nan fails every comparison, so a test for outside [0, 1] misses it
        with pytest.raises(DomainError):
            h2(float("nan"))
        with pytest.raises(DomainError):
            h2([0.5, float("nan")])

    def test_traced_memory_peak(self):
        # three input-sized float arrays (24 MB) and the boolean mask
        p = np.linspace(0.0, 1.0, 10 ** 6)
        tracemalloc.start()
        try:
            h2(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 28 * 2 ** 20

    def test_ends_are_positive_zero(self):
        out = h2(np.array([0.0, 1.0, 0.5]))
        assert out.tolist() == [0.0, 0.0, 1.0]
        assert not np.signbit(out).any()
        assert not np.signbit(h2(0.0)) and not np.signbit(h2(1.0))


class TestSchemeParams:
    def test_rejects_inconsistent_arguments(self):
        with pytest.raises(DomainError):
            SchemeParams(1.5, 1, (0.4,))
        with pytest.raises(DomainError):
            SchemeParams(0.5, 2, (0.4,))
        with pytest.raises(DomainError):
            SchemeParams(0.5, 1, (1.4,))
        with pytest.raises(DomainError):
            SchemeParams(0.5, 0, ())
        # k is capped at _MAX_K = 10**5
        assert SchemeParams(0.3, 10 ** 5, (0.5,) * 10 ** 5).k == 10 ** 5
        with pytest.raises(DomainError, match="at most 100000"):
            SchemeParams(0.3, 10 ** 5 + 1, (0.5,) * (10 ** 5 + 1))
        # an integral k of another type is stored as an int
        for k in (2.0, np.int64(2)):
            p = SchemeParams(0.3, k, (0.4, 0.3))
            assert type(p.k) is int and p == SchemeParams(0.3, 2, (0.4, 0.3))

    def test_coerces_to_floats(self):
        p = SchemeParams(0.5, 2, [1, 0])
        assert p.delta == (1.0, 0.0)


class TestRate:
    def test_noiseless_even_split(self):
        # one use of entropy 1 per 1 + 1/2 expected uses
        assert abs(rate(SchemeParams(0.0, 1, (0.5,))) - 2.0 / 3.0) <= 1e-15

    def test_hand_computed_two_run_value(self):
        eps, d = 0.25, (0.4, 0.3)
        eb = 1.0 - eps
        num = eb * h2(d[0]) + eb ** 2 * h2(d[1]) * d[0]
        den = 1.0 + eb * d[0] + eb ** 2 * d[0] * d[1]
        assert abs(rate(SchemeParams(eps, 2, d)) - num / den) <= 1e-15

    def test_zero_at_full_erasure(self):
        assert rate(SchemeParams(1.0, 3, (0.5, 0.4, 0.3))) == 0.0

    def test_all_zero_parameters(self):
        # never sending '0' carries no information
        assert rate(SchemeParams(0.2, 2, (0.0, 0.0))) == 0.0

    def test_longest_run_scores_its_capacity(self):
        # one vector pass over the k + 1 products, about 20 ms at k = 10^5
        res = feedback_capacity(0.3, 10 ** 5)
        assert abs(rate(res.argmax) - res.value) <= 1e-12


class TestDeltaChain:
    def test_hand_value(self):
        assert np.allclose(delta_chain(0.5, 0.0, 2), (2.0 / 3.0, 0.5), atol=1e-15)

    def test_single_parameter_is_identity(self):
        assert delta_chain(0.37, 0.6, 1) == (0.37,)

    def test_degenerate_endpoints(self):
        assert delta_chain(1.0, 0.3, 3) == (1.0, 1.0, 1.0)
        assert delta_chain(0.0, 0.3, 3) == (0.0, 0.0, 0.0)

    def test_constant_at_full_erasure(self):
        assert np.allclose(delta_chain(0.3, 1.0, 4), (0.3,) * 4)

    @pytest.mark.parametrize("eps", [0.0, 0.2, 0.7])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_satisfies_identity_by_construction(self, eps, k):
        d = delta_chain(0.41, eps, k)
        assert stationarity_residual(SchemeParams(eps, k, d)) <= 1e-12

    def test_monotone_nonincreasing(self):
        d = delta_chain(0.35, 0.25, 5)
        assert all(a >= b for a, b in zip(d, d[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            delta_chain(1.5, 0.0, 2)
        with pytest.raises(DomainError):
            delta_chain(0.5, -0.1, 2)
        with pytest.raises(DomainError):
            delta_chain(0.5, 0.0, 0)
        for k in (2.0, np.int64(2)):
            assert delta_chain(0.4, 0.3, k) == delta_chain(0.4, 0.3, 2)


class TestStationarityResidual:
    def test_single_parameter_is_zero(self):
        assert stationarity_residual(SchemeParams(0.4, 1, (0.3,))) == 0.0

    def test_known_violation(self):
        # constant (0.3, 0.3) at eps=0 misses by log2(dbar/dbar_k) = log2(0.7)
        res = stationarity_residual(SchemeParams(0.0, 2, (0.3, 0.3)))
        assert abs(res - math.log2(10.0 / 7.0)) <= 1e-12

    def test_boundary_parameters_rejected(self):
        with pytest.raises(DomainError):
            stationarity_residual(SchemeParams(0.2, 2, (0.5, 0.0)))


class TestFeedbackCapacity:
    def test_golden_ratio_endpoint(self):
        res = feedback_capacity(0.0, 1)
        assert abs(res.value - LOG2_GOLDEN) <= 1e-12
        assert abs(res.argmax.delta[0] - INV_GOLDEN_SQ) <= 1e-12

    def test_full_erasure_is_exactly_zero(self):
        assert feedback_capacity(1.0, 2).value == 0.0

    def test_matches_constraint_graph_at_zero_erasure(self):
        for k in (1, 2, 3, 4):
            assert abs(feedback_capacity(0.0, k).value
                       - noiseless_capacity(RllConstraint(0, k))) <= 1e-12

    def test_frozen_midpoint_value(self):
        assert abs(feedback_capacity(0.5, 2).value - 0.4783256558773052) <= 1e-12

    def test_monotone_in_epsilon_and_k(self):
        eps_grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        for k in (1, 3):
            vals = [feedback_capacity(e, k).value for e in eps_grid]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        for e in (0.2, 0.6):
            assert feedback_capacity(e, 1).value < feedback_capacity(e, 2).value

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.3, 0.6, 0.9])
    @pytest.mark.parametrize("k", [1, 2, 3, 8, 64])
    def test_certificate_gap(self, eps, k):
        # first-order condition in the last parameter at the maximum
        res = feedback_capacity(eps, k)
        d = res.argmax.delta[-1]
        assert abs(res.value - math.log2((1.0 - d) / d)) <= 1e-12

    def test_argmax_is_consistent(self):
        res = feedback_capacity(0.3, 3)
        assert abs(rate(res.argmax) - res.value) <= 1e-15
        assert res.residual <= 1e-12

    @pytest.mark.parametrize("k", [2, 3, 4, 8, 16, 64, 256])
    def test_every_delta_at_most_half(self, k):
        # the optimal delta_j of long runs tend to 1/2; the codec's
        # constraint safety refuses any that round above it
        for i in range(0, 1000, 7):
            assert max(feedback_capacity(i / 1000, k).argmax.delta) <= 0.5

    @pytest.mark.parametrize("eps", [0.0, 0.2, 0.5, 0.9, 0.999])
    @pytest.mark.parametrize("k", [2, 3, 8, 64, 256])
    def test_matches_the_closed_form_chain(self, eps, k):
        # the paper's stationarity recursion, from the solver's last entry
        delta = feedback_capacity(eps, k).argmax.delta
        chain = delta_chain(delta[-1], eps, k)
        assert max(abs(a - b) for a, b in zip(chain, delta)) <= 1e-12

    def test_domain(self, monkeypatch):
        with pytest.raises(DomainError):
            feedback_capacity(-0.2, 1)
        with pytest.raises(DomainError):
            feedback_capacity(0.5, 0)
        # k up to 10**5 passes the domain checks, one more fails them before
        # any solve starts; d is bounded only by the float range
        class Solving(Exception):
            pass

        def solving(*args):
            raise Solving

        monkeypatch.setattr(capacity, "_dinkelbach", solving)
        solvers = (lambda k: feedback_capacity(0.3, k), lambda k: grid_argmax_rate(0.3, k, 2),
                   lambda k: capacity_curve("fb0k", [0.3], k))
        for solve in solvers:
            with pytest.raises(Solving):
                solve(10 ** 5)
            with pytest.raises(DomainError, match="at most 100000"):
                solve(10 ** 5 + 1)
        with pytest.raises(Solving):
            capacity_curve("nc-dinf", [0.3], 10 ** 6)
        assert len(delta_chain(0.4, 0.3, 10 ** 5)) == 10 ** 5
        with pytest.raises(DomainError, match="at most 100000"):
            delta_chain(0.4, 0.3, 10 ** 5 + 1)


def dual_mp(eps, k, level):
    """F(R) = max over [0,1]^k of N - R*D for the (0,k) rate, at 50 digits.

    The backward recursion u_i = log2(1 + 2^((1-eps)*u_{i+1} - R)) from
    u_k = 0, in natural units; F(R) = (1-eps)*u_0 - R. F(R) < 0 proves
    that no point of the cube has a rate of R or more.
    """
    with mpmath.workdps(50):
        eb, r = 1 - mpmath.mpf(eps), mpmath.mpf(level) * mpmath.ln2
        u = mpmath.mpf(0)
        for _ in range(k):
            u = mpmath.log1p(mpmath.exp(eb * u - r))
        return eb * u - r


class TestCertificate:
    EPS = [i / 100 for i in range(100)] + [0.999]

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 16, 64, 256])
    def test_upper_bound_holds_exactly(self, k):
        for eps in self.EPS:
            res = feedback_capacity(eps, k)
            assert 0.0 < res.upper - res.value <= 1e-12
            assert dual_mp(eps, k, res.upper) < 0

    @pytest.mark.parametrize("k", [1, 2, 64])
    def test_value_within_two_ulps_of_the_root(self, k):
        # F > 0 below the value and F < 0 above it, at 50 digits: the climb
        # did not pass the root, and its stop at F(R) <= 2^-52 left the
        # value within 2^-51 of it, closer than upper's 1e-14
        for eps in [i / 20 for i in range(20)] + [0.999]:
            value = feedback_capacity(eps, k).value
            assert dual_mp(eps, k, value - 2.0 ** -51) > 0 > dual_mp(eps, k, value + 2.0 ** -51)

    @pytest.mark.parametrize("k", [1000, 10 ** 5])
    def test_upper_bound_holds_at_large_k(self, k):
        # the 50-digit check above stops at k = 256; k goes to 10^5
        for eps in (0.0, 0.3, 0.9):
            res = feedback_capacity(eps, k)
            assert capacity._zero_run(1.0 - eps, k, res.upper, _stage)[0] < 0

    def test_curves_stay_below_upper(self):
        # one stacked pass at every column's upper, value + _MARGIN in the
        # zero-run rate's units, gives F < 0 in every cell
        columns = ([("fb0k", k) for k in (1, 2, 64, 1000)]
                   + [("nc-dinf", d) for d in (1, 2, 3, 10 ** 6)] + [("cap-12", None)])
        eps = np.linspace(0.0, 1.0, 201)
        runs = sorted(((*capacity._as_zero_run(name, 1.0 - eps, param), values)
                       for (name, param), values in zip(columns, capacity_curves(columns, eps))),
                      key=lambda run: -run[0])
        ks, weights, scales, values = zip(*runs)
        upper = (np.array(values) + _MARGIN) * np.array(scales)[:, None]
        surplus = capacity._zero_run(np.array(weights), ks, upper, _stage_array)[0]
        assert surplus.shape == (len(columns), eps.size)
        assert np.all(surplus < 0.0)

    @settings(max_examples=100, database=None, deadline=None)
    @given(st.floats(0.0, 1.0), st.lists(
        st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)), min_size=1, max_size=8))
    def test_no_point_of_the_cube_beats_upper(self, eps, delta):
        res = feedback_capacity(eps, len(delta))
        assert rate(SchemeParams(eps, len(delta), delta)) <= res.upper

    @settings(max_examples=100, database=None, deadline=None)
    @given(st.floats(0.0, 1.0), st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
           st.integers(1, 4))
    def test_no_bias_beats_upper(self, eps, x, d):
        # H2(x) / (c + d*x) with c = 1/(1-eps), and H2(x) / (c + x) with
        # c = 1/(1-eps) + (1-eps), multiplied through by 1 - eps
        eb = 1.0 - eps
        assert eb * h2(x) / (1.0 + d * eb * x) <= nc_capacity_d_inf(eps, d).upper
        assert eb * h2(x) / (1.0 + eb * eb + eb * x) <= capacity_12(eps).upper


class TestDinkelbach:
    def test_raises_at_the_step_cap(self):
        # a maximizer that climbs one ulp per call never stops on its own
        with pytest.raises(RuntimeError, match="still rising"):
            capacity._dinkelbach(lambda level: (1.0, math.nextafter(level, math.inf)))
        with pytest.raises(RuntimeError, match="still rising"):
            capacity._dinkelbach(lambda level: (np.ones_like(level), np.nextafter(level, np.inf)),
                                 np.array([0.0, 0.5]))

    def test_stops_on_its_last_allowed_step(self):
        # from level 0, climbs by 1 until level = _MAX_STEPS, then stops
        top = float(capacity._MAX_STEPS)

        def climb(level):
            return np.where(level < top, 1.0, 0.0), level + 1.0

        assert capacity._dinkelbach(climb, 0.0) == top
        assert capacity._dinkelbach(climb, np.array([0.0, top - 5.0])).tolist() == [top, top]
        with pytest.raises(RuntimeError, match="still rising"):
            capacity._dinkelbach(climb, -1.0)


EB = 1.0 - np.linspace(0.0, 1.0, 101)
# fb0k's weight at its k, and k = 1 at the nc-dinf weights, h = w/2 = 1 at
# d = 2, eps = 0, and at cap-12's
START_ROWS = ([(k, EB) for k in (1, 2, 64, 10 ** 5)] + [(1, d * EB) for d in (2, 3, 10 ** 6)]
              + [(1, EB / (1.0 + EB * EB))])


class TestZeroRunStart:
    @pytest.mark.parametrize("k, weight", START_ROWS)
    def test_is_the_first_newton_step(self, k, weight):
        # the closed form against the first step from level 0, in one
        # stacked pass and in a float pass per entry (every 25th at k =
        # 10^5), and at most 2^-52 above the root that the climb from 0
        # reaches
        def within_two_ulps(a, b):
            return abs(a - b) <= 2.0 * np.spacing(np.maximum(a, b))

        start = capacity._zero_run_start(weight[None], [k])
        assert np.all(within_two_ulps(start, capacity._zero_run(
            weight[None], [k], np.zeros_like(start), _stage_array)[1]))
        for w, first in list(zip(weight, start[0]))[::25 if k > 1000 else 1]:
            w = float(w)
            assert capacity._zero_run_start(w, k) == first
            assert within_two_ulps(first, capacity._zero_run(w, k, 0.0, _stage)[1])
            root = capacity._dinkelbach(lambda level: capacity._zero_run(w, k, level, _stage))
            assert first <= root + 2.0 ** -52


# the perfbench sweep grid, unshifted and shifted as at seed 7
SHIFT = (7 * 0.6180339887498949) % 1.0 / 50
SWEEP_GRIDS = ([i / 50 for i in range(51)], [SHIFT + i * (1.0 - SHIFT) / 50 for i in range(50)] + [1.0])


class TestCapacityCurve:
    GRIDS = SWEEP_GRIDS
    POINT = {
        "fb0k": lambda eps, k: feedback_capacity(eps, k).value,
        "nc-dinf": lambda eps, d: nc_capacity_d_inf(eps, d).value,
        "cap-12": lambda eps, _: capacity_12(eps).value,
        "fb-ub-2inf": lambda eps, _: fb_upper_2inf(eps),
        "unconstrained": lambda eps, _: 1.0 - eps,
    }
    COLUMNS = ([("fb0k", k) for k in (1, 2, 4, 8, 16, 32, 64)]
               + [("nc-dinf", d) for d in (1, 2, 3)] + [("cap-12", None)])

    @pytest.mark.parametrize("name, param", COLUMNS)
    def test_matches_the_point_solver(self, name, param):
        # the same recursion with numpy stages: a few ulps apart at most
        for grid in self.GRIDS:
            curve = capacity_curve(name, grid, param)
            assert curve.shape == (51,)
            for eps, value in zip(grid, curve):
                assert abs(value - self.POINT[name](eps, param)) <= 4.4e-16

    def test_every_k_up_to_64(self):
        grid = self.GRIDS[1]
        for k in range(1, 65):
            point = [feedback_capacity(eps, k).value for eps in grid]
            assert np.abs(capacity_curve("fb0k", grid, k) - point).max() <= 4.4e-16

    @pytest.mark.parametrize("name", ["fb-ub-2inf", "unconstrained"])
    def test_exact_curves(self, name):
        grid = self.GRIDS[1]
        assert capacity_curve(name, grid).tolist() == [self.POINT[name](eps, None) for eps in grid]

    @pytest.mark.parametrize("name, param", COLUMNS[::3] + [("fb-ub-2inf", None), ("unconstrained", None)])
    def test_entries_do_not_depend_on_each_other(self, name, param):
        # each entry stops on its own, at the level it would reach alone
        grid = np.linspace(0.0, 1.0, 37)
        curve = capacity_curve(name, grid, param)
        for i, eps in enumerate(grid):
            assert capacity_curve(name, [eps], param)[0] == curve[i]
        assert curve[-1] == 0.0

    @pytest.mark.parametrize("k", [1, 8, 64, 256])
    def test_upper_bound_holds_exactly(self, k):
        values = capacity_curve("fb0k", TestCertificate.EPS, k)
        for eps, value in zip(TestCertificate.EPS, values):
            assert dual_mp(eps, k, value + _MARGIN) < 0

    @pytest.mark.parametrize("a", [-50.0, -1.0, 0.0, 1e-12, 3.0, 40.0])
    def test_stage_value_at_its_own_point(self, a):
        # the value is taken at the clamped point x <= 1/2, not at the
        # unclamped maximizer, or the Newton step overshoots for a < 0;
        # an overflow would raise under the warnings filter
        for u, x in (_stage(a), _stage_array(np.array([a, a]))):
            assert np.all(x <= 0.5)
            assert np.all(np.abs(u - (h2(x) - a * x)) <= 2.2e-16)

    def test_traced_memory_peak(self):
        # one pass holds a few arrays of len(epsilons); a k x n matrix of
        # delta would take 8 MB
        grid = np.linspace(0.0, 1.0, 1001)
        tracemalloc.start()
        try:
            capacity_curve("fb0k", grid, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20

    @pytest.mark.parametrize("name, eps, param", [
        ("fb0k", [0.5, -0.1], 2), ("fb0k", [1.5], 2), ("cap-12", [float("nan")], None),
        ("unconstrained", [0.2, 1.2], None), ("fb-ub-2inf", [-1.0], None),
        ("fb0k", [0.5], 0), ("fb0k", [0.5], 1.5), ("fb0k", [0.5], None),
        ("nc-dinf", [0.5], 0), ("nc-dinf", [0.5], float("inf")), ("nc-dinf", [0.5], None),
    ])
    def test_domain_before_solving(self, monkeypatch, name, eps, param):
        def solve(*args):
            raise AssertionError("solved before the domain check")

        monkeypatch.setattr(capacity, "_dinkelbach", solve)
        monkeypatch.setattr(capacity, "fb_upper_2inf", solve)
        with pytest.raises(DomainError):
            capacity_curve(name, eps, param)

    def test_unknown_curve(self):
        assert set(CURVES) == set(self.POINT)
        with pytest.raises(ValueError, match="unknown curve"):
            capacity_curve("bogus", [0.5])


def alone(name, eps, param):
    """One column of capacity_curves, solved on its own."""
    if name == "fb-ub-2inf":
        return fb_upper_2inf(np.array(eps, dtype=float, ndmin=1))
    if name == "unconstrained":
        return 1.0 - np.array(eps, dtype=float, ndmin=1)
    return zero_run_curve(name, eps, param)


COLUMN = st.one_of(
    st.tuples(st.just("fb0k"), st.sampled_from([*range(1, 65), 1000])),
    st.tuples(st.just("nc-dinf"), st.one_of(st.integers(1, 5), st.integers(1, 10 ** 300))),
    st.sampled_from([("cap-12", None), ("fb-ub-2inf", None), ("unconstrained", None)]),
)
EDGE_EPS = [0.0, 1.0, 5e-324, 1.0 - 2.0 ** -53]


class TestCapacityCurves:
    @settings(max_examples=40, database=None, deadline=None)
    @given(st.lists(COLUMN, min_size=1, max_size=8),
           st.lists(st.one_of(st.sampled_from(EDGE_EPS), st.floats(0.0, 1.0)), min_size=1, max_size=40))
    @example([("fb0k", 1000), ("nc-dinf", 10 ** 300), ("fb0k", 2), ("cap-12", None), ("fb0k", 2),
              ("nc-dinf", 1), ("fb0k", 64)], EDGE_EPS)
    def test_each_column_as_solved_alone(self, columns, eps):
        # bit for bit, unsorted and with duplicates: each stacked row does
        # the arithmetic of its column alone, which runs at its own k and
        # evaluates every entry until all have stopped
        for (name, param), values in zip(columns, capacity_curves(columns, eps)):
            assert values.tobytes() == alone(name, eps, param).tobytes()

    @pytest.mark.parametrize("n", [1001, 5001])
    def test_blocks_above_the_bound(self, n):
        # four rows per block at 1,001 epsilons, one at 5,001
        columns = [("fb0k", 64), ("fb0k", 1), ("nc-dinf", 3), ("fb0k", 8), ("cap-12", None), ("fb0k", 64)]
        eps = np.linspace(0.0, 1.0, n)
        assert len(columns) * n > capacity._BLOCK
        for (name, param), values in zip(columns, capacity_curves(columns, eps)):
            assert values.tobytes() == zero_run_curve(name, eps, param).tobytes()

    def test_keeps_the_shape_of_epsilons(self):
        grid = [[0.0, 0.25], [0.5, 1.0]]
        columns = [("fb0k", 2), ("cap-12", None), ("fb-ub-2inf", None)]
        for values, flat in zip(capacity_curves(columns, grid), capacity_curves(columns, np.ravel(grid))):
            assert values.shape == (2, 2)
            assert values.ravel().tolist() == flat.tolist()

    def test_finished_columns_leave_the_loop(self, monkeypatch):
        # the perfbench sweep columns at seed 0 take 518 stage calls one
        # column at a time; stacked, a row that has stopped leaves the
        # loop, so the k = 64 row soon runs alone (250 calls); from the
        # closed-form first step, with the stop at F(R) <= 2^-52, the level-0
        # pass and the last confirming pass go too (121 calls)
        calls = []
        monkeypatch.setattr(capacity, "_stage_array", lambda a: calls.append(a.shape) or _stage_array(a))
        capacity_curves(TestCapacityCurve.COLUMNS, cli._parse_grid("0.0:1:0.02"))
        assert len(calls) <= 130

    def test_domain_before_solving(self, monkeypatch):
        def solve(*args):
            raise AssertionError("solved before the domain check")

        monkeypatch.setattr(capacity, "_dinkelbach", solve)
        monkeypatch.setattr(capacity, "fb_upper_2inf", solve)
        for columns in ([("fb-ub-2inf", None), ("fb0k", 0)], [("fb0k", 2), ("nc-dinf", None)]):
            with pytest.raises(DomainError):
                capacity_curves(columns, [0.5])
        with pytest.raises(ValueError, match="unknown curve 'bogus'"):
            capacity_curves([("fb-ub-2inf", None), ("bogus", None)], [0.5])


class TestGridSearch:
    def test_agrees_with_one_dim_reduction(self):
        for k, grid_n, bound in ((1, 201, 5e-4), (2, 201, 5e-4)):
            for eps in (0.0, 0.5):
                gap = abs(grid_max_rate(eps, k, grid_n) - feedback_capacity(eps, k).value)
                assert gap <= bound

    def test_argmax_returns_point(self):
        val, pt = grid_argmax_rate(0.25, 2, 101)
        assert pt.shape == (2,)
        assert abs(rate(SchemeParams(0.25, 2, tuple(pt))) - val) <= 1e-15

    @pytest.mark.parametrize("eps", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("grid_n", [2, 3, 7])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_the_scalar_rate(self, k, grid_n, eps):
        # eps = 1 zeroes every weight; the axis ends 0 and 1 have H2 = 0
        val, pt = grid_argmax_rate(eps, k, grid_n)
        axis = np.linspace(0.0, 1.0, grid_n)
        cube = max(rate(SchemeParams(eps, k, p)) for p in itertools.product(axis, repeat=k))
        assert abs(val - cube) <= 1e-15
        assert val <= feedback_capacity(eps, k).upper
        assert abs(rate(SchemeParams(eps, k, tuple(pt))) - val) <= 1e-15
        assert np.isin(pt, axis).all()

    @pytest.mark.parametrize("k, grid_n, mib", [(4, 41, 64), (1, 3_000_000, 128)])
    def test_traced_memory_peak(self, k, grid_n, mib):
        # tracemalloc sees numpy's data buffers; a pass holds the axis,
        # its entropies and one score per axis point
        tracemalloc.start()
        try:
            grid_argmax_rate(0.3, k, grid_n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2 ** 20

    def test_budget(self):
        # the limit is per axis and checked before anything is allocated;
        # a pass costs k * grid_n scores, so a fine 2-D grid is cheap
        with pytest.raises(DomainError):
            grid_max_rate(0.5, 1, 10 ** 7 + 1)
        gap = grid_max_rate(0.5, 2, 100_000) - feedback_capacity(0.5, 2).value
        assert -1e-9 <= gap <= 1e-13

    def test_domain(self):
        with pytest.raises(DomainError):
            grid_max_rate(0.5, 1, 1)
        for grid_n in (10.5, None, float("nan")):
            with pytest.raises(DomainError, match="grid_n"):
                grid_argmax_rate(0.3, 2, grid_n)
        value, point = grid_argmax_rate(0.3, 2, 11)
        for k, grid_n in ((2.0, 11), (np.int64(2), 11.0)):
            v, x = grid_argmax_rate(0.3, k, grid_n)
            assert v == value and x.tolist() == point.tolist()


class TestNcCapacityDInf:
    def test_half_erasure_two_run_is_half_golden(self):
        # cost 1/(1-eps) = 2 and d = 2 scale the single-run problem by 2
        res = nc_capacity_d_inf(0.5, 2)
        assert abs(res.value - LOG2_GOLDEN / 2.0) <= 1e-12
        assert abs(res.argmax.delta[0] - INV_GOLDEN_SQ) <= 1e-12

    def test_matches_constraint_graph_at_zero_erasure(self):
        for d in (1, 2, 3):
            assert abs(nc_capacity_d_inf(0.0, d).value
                       - noiseless_capacity(RllConstraint(d, INF))) <= 1e-12

    def test_full_erasure(self):
        assert nc_capacity_d_inf(1.0, 2).value == 0.0

    def test_monotone_in_d(self):
        assert nc_capacity_d_inf(0.3, 1).value > nc_capacity_d_inf(0.3, 2).value

    @pytest.mark.parametrize("d", [10 ** 6, 10 ** 15, 10 ** 300], ids=["1e6", "1e15", "1e300"])
    def test_large_d(self, d):
        # the float stage once took log2(1 + 2^-b), which loses 2^-b, and
        # the climb from 0 to a level near log2(d) once stopped at 200 steps
        for eps in (0.0, 0.3, 0.9, 0.999):
            value = nc_capacity_d_inf(eps, d).value
            assert value == capacity_curve("nc-dinf", [eps], d)[0]
            assert abs(value - float(nc_mp(eps, d))) <= 4.4e-16 * value

    def test_d_one_is_the_k_one_feedback_capacity(self):
        # H2(x)/(1/(1-eps) + x) is the k = 1 rate at the same weight 1 - eps
        for eps in np.linspace(0.0, 1.0, 1001):
            assert nc_capacity_d_inf(eps, 1).value == feedback_capacity(eps, 1).value

    def test_domain(self):
        with pytest.raises(DomainError):
            nc_capacity_d_inf(0.5, 0)
        with pytest.raises(DomainError):
            nc_capacity_d_inf(2.0, 1)
        # d * (1 - eps) once raised OverflowError; the largest d that rounds
        # to a finite float still solves
        for d in (10 ** 400, 2 ** 1024 - 2 ** 970):
            with pytest.raises(DomainError, match="too large for a float"):
                nc_capacity_d_inf(0.3, d)
            with pytest.raises(DomainError, match="too large for a float"):
                capacity_curve("nc-dinf", [0.0, 0.3, 1.0], d)
        assert np.all(np.isfinite(capacity_curve("nc-dinf", [0.0, 0.3, 1.0], 2 ** 1024 - 2 ** 970 - 1)))


def nc_mp(eps, d):
    """nc_capacity_d_inf at 40 digits: log2((1 - x)/x)/d at the root x of
    (c + d)*ln(1 - x) = c*ln(x), c = 1/(1 - eps), bisected in y = ln(x)."""
    with mpmath.workdps(40):
        c, d = 1 / (1 - mpmath.mpf(eps)), mpmath.mpf(d)
        lo, hi = mpmath.mpf(-2000), mpmath.log(0.5)  # excess > 0 at lo, < 0 at hi

        def excess(y):
            return (c + d) * mpmath.log1p(-mpmath.exp(y)) - c * y

        for _ in range(200):
            lo, hi = ((lo + hi) / 2, hi) if excess((lo + hi) / 2) > 0 else (lo, (lo + hi) / 2)
        return (mpmath.log1p(-mpmath.exp(lo)) - lo) / mpmath.ln2 / d


def fb_upper_mp(eps):
    """fb_upper_2inf at 40 digits, by Dinkelbach's iteration on R.

    At each level R the KKT point of N - R*D over the simplex is x_i =
    1/(1 + 2^(2R + mu/w_i)), with the multiplier mu = 0 if those x_i sum
    to at most 1 and otherwise the root of sum_i x_i = 1, bracketed and
    found by mpmath; the next level is N/D there.
    """
    with mpmath.workdps(40):
        e = mpmath.mpf(eps)
        w = [(1 - e) * e ** i for i in range(3)]

        def h(x):
            return -(x * mpmath.log(x, 2) + (1 - x) * mpmath.log(1 - x, 2))

        level = mpmath.mpf(0)
        for _ in range(50):
            def excess(mu):
                return sum(1 / (1 + mpmath.power(2, 2 * level + mu / wi)) for wi in w) - 1

            mu, hi = mpmath.mpf(0), mpmath.mpf(1)
            if excess(mu) > 0:
                while excess(hi) > 0:
                    hi *= 2
                mu = mpmath.findroot(excess, (0, hi), solver="anderson")
            x = [1 / (1 + mpmath.power(2, 2 * level + mu / wi)) for wi in w]
            nxt = (sum(wi * h(xi) for wi, xi in zip(w, x))
                   / (1 + e + e * e + 2 * sum(wi * xi for wi, xi in zip(w, x))))
            if abs(nxt - level) < mpmath.mpf(10) ** -38:
                return nxt
            level = nxt
    raise AssertionError(f"no convergence at eps = {eps}")


class TestFbUpper2Inf:
    def test_matches_a_40_digit_kkt_solve(self):
        # above EPS_STAR, where the simplex constraint is active, and around
        # EPS_STAR, where the diagonal start of the solve meets the root; the
        # point and the curve, all 25 entries in one call
        grid = np.concatenate([np.linspace(0.15, 0.99, 22), EPS_STAR + np.array([-1e-9, 0.0, 1e-9])])
        for eps, value in zip(grid, capacity_curve("fb-ub-2inf", grid)):
            exact = float(fb_upper_mp(eps))
            assert abs(fb_upper_2inf(eps) - exact) <= 2.2e-16
            assert abs(value - exact) <= 2.2e-16

    def test_finite_at_extreme_epsilons(self):
        # a = 2R + mu/w_i grows as w_i = (1-eps)*eps^i shrinks; no stage may
        # overflow, down to the smallest subnormal and up to 1 - 2^-53
        eps = [2.0 ** -k for k in range(1, 1075)] + [1.0 - 2.0 ** -k for k in range(1, 54)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [fb_upper_2inf(e) for e in eps]
            curve = fb_upper_2inf(np.array(eps))
        assert all(0.0 < v < 1.0 for v in values)
        assert curve.tolist() == values

    def test_shapes(self):
        # a float gives a float; an array keeps its shape, entry by entry
        value = fb_upper_2inf(0.3)
        assert type(value) is float and fb_upper_2inf(np.float64(0.3)) == value
        assert np.shape(fb_upper_2inf(np.array(0.3))) == ()
        grid = np.linspace(0.0, 1.0, 12)
        assert fb_upper_2inf(grid).shape == (12,)
        square = fb_upper_2inf(grid.reshape(3, 4))
        assert square.shape == (3, 4)
        assert square.ravel().tolist() == [fb_upper_2inf(e) for e in grid]

    @pytest.mark.parametrize("bad", [float("nan"), -0.1])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            fb_upper_2inf(bad)
        with pytest.raises(DomainError):
            fb_upper_2inf(np.array([0.2, bad, 0.5]))

    def test_frozen_values(self):
        assert abs(fb_upper_2inf(0.0) - 0.5514630897459566) <= 1e-6
        assert abs(fb_upper_2inf(0.5) - 0.3450987827069385) <= 1e-6

    def test_sits_below_the_noncausal_curve(self):
        for eps in (0.25, 0.5, 0.75):
            assert fb_upper_2inf(eps) < nc_capacity_d_inf(eps, 2).value

    def test_mediant_bound(self):
        # the objective is a mediant of terms H2(x_i) / (1/(1-eps) + 2*x_i),
        # each at most nc-dinf at d = 2; up to EPS_STAR the two are equal
        for eps in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            assert fb_upper_2inf(eps) <= nc_capacity_d_inf(eps, 2).value + 1e-12

    @staticmethod
    def gap(eps):
        return nc_capacity_d_inf(eps, 2).value - fb_upper_2inf(eps)

    def test_no_gap_up_to_the_threshold(self):
        # the diagonal point (x, x, x) at the noncausal maximizer x is
        # feasible while x <= 1/3, and then it is the maximum
        for eps in np.linspace(0.0, EPS_STAR - 1e-3, 30):
            assert abs(self.gap(eps)) <= 1e-15

    def test_gap_opens_above_the_threshold(self):
        gaps = [self.gap(eps) for eps in (EPS_STAR + 1e-3, EPS_STAR + 1e-2, 0.2, 0.5)]
        assert gaps[0] > 0.0
        assert gaps == sorted(set(gaps))

    def test_threshold_closed_form(self):
        # x = 1/3 solves (1-x)^(c+2) = x^c at c = 1/(1-eps) = log2(9/4)
        x = 1.0 / 3.0
        c = 1.0 / (1.0 - EPS_STAR)
        assert abs((1.0 - x) ** (c + 2.0) - x ** c) <= 1e-15
        # the gap grows quadratically, so it passes 1e-13 just above EPS_STAR
        lo, hi = 0.1, 0.2
        while hi - lo > 1e-7:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if self.gap(mid) > 1e-13 else (mid, hi)
        assert abs(hi - EPS_STAR) <= 1e-4

    def test_at_least_a_feasible_witness(self):
        eps, x = 0.4, (0.356152, 0.340602, 0.303245)
        assert sum(x) <= 1.0
        num = (1.0 - eps) * (h2(x[0]) + eps * h2(x[1]) + eps ** 2 * h2(x[2]))
        den = 1.0 + eps + eps ** 2 + 2.0 * (1.0 - eps) * (x[0] + eps * x[1] + eps ** 2 * x[2])
        assert fb_upper_2inf(eps) >= num / den

    def test_full_erasure(self):
        assert fb_upper_2inf(1.0) == 0.0

    @staticmethod
    def diagonal_ratio(eps):
        # N/D at x = (1/3, 1/3, 1/3), where H2(1/3) = log2(3) - 2/3
        eb = 1.0 - eps
        return eb * (math.log2(3.0) - 2.0 / 3.0) / (1.0 + 2.0 * eb / 3.0)

    def test_diagonal_point_is_below_the_bound(self):
        # the solve starts at this feasible ratio, so it may never exceed the
        # result; at EPS_STAR the diagonal point is the maximizer itself
        eps = np.concatenate([np.linspace(0.0, 1.0, 2001), EPS_STAR + np.array([-1e-9, 0.0, 1e-9])])
        assert np.all(self.diagonal_ratio(eps) <= fb_upper_2inf(eps) + 2.2e-16)
        assert fb_upper_2inf(EPS_STAR) == 0.5
        assert abs(self.diagonal_ratio(EPS_STAR) - 0.5) <= 2 ** -53

    def test_maximizer_calls(self, monkeypatch):
        # every pass of both loops, the outer one on R and the inner one on mu
        calls = []
        dinkelbach = capacity._dinkelbach

        def counting(maximizer, level=0.0):
            return dinkelbach(lambda r: calls.append(r) or maximizer(r), level)

        monkeypatch.setattr(capacity, "_dinkelbach", counting)
        for eps, most in ((np.linspace(0.0, 1.0, 21), 36), (0.3, 20)):
            calls.clear()
            fb_upper_2inf(eps)
            assert 0 < len(calls) <= most

    def test_newton_calls(self, monkeypatch):
        # each level's multiplier Newton starts at the last level's root;
        # restarted at mu = 0 every level, it takes 28 and 30 calls
        calls, depth = [], []
        dinkelbach = capacity._dinkelbach

        def counting(maximizer, level=0.0):
            inner = bool(depth)
            depth.append(None)
            try:
                return dinkelbach(lambda r: (inner and calls.append(r)) or maximizer(r), level)
            finally:
                depth.pop()

        monkeypatch.setattr(capacity, "_dinkelbach", counting)
        for n, most in ((21, 18), (1001, 23)):
            calls.clear()
            fb_upper_2inf(np.linspace(0.0, 1.0, n))
            assert 0 < len(calls) <= most

    @settings(max_examples=300, database=None, deadline=None)
    @given(st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 2.0 ** -1022, EPS_STAR, 1.0 - 2.0 ** -53, 1.0]),
                     st.floats(0.0, 1.0)),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_warm_start_is_left_of_the_multiplier_root(self, eps, s, t):
        # from the root mu_prev at level R_prev, the multiplier Newton at R >=
        # R_prev starts at mu_s = max(mu_prev - 2*(R - R_prev)*(1-eps), 0).
        # Unclamped, every a_i = 2R + mu_s/w_i is at most its value at the
        # root, as w_i <= 1-eps, so the excess sum_i x_i - 1 is no smaller and
        # the climb starts left of the new root; mu_s = 0 is the cold start.
        # The outer solve is replaced by calls at its start and at two levels
        # between the start and the value; the multiplier solves are its own.
        value = fb_upper_2inf(eps)
        solves = []  # (newton, start, root) of each multiplier solve
        dinkelbach = capacity._dinkelbach

        def spy(solve, level=0.0):
            if spy.inner:
                root = dinkelbach(solve, level)
                solves.append((solve, level, root))
                return root
            spy.inner = True
            rise = max(value - float(level[0]), 0.0)
            for r in (0.0, min(s, t), max(s, t)):
                solve(level + r * rise)
            return np.full(1, value)

        spy.inner = False
        with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", divide="ignore"):
            mp.setattr(capacity, "_dinkelbach", spy)
            fb_upper_2inf(eps)
            assert len(solves) == 3 and solves[0][1] == 0.0
            for (newton_prev, _, mu_prev), (newton, mu_s, _) in zip(solves, solves[1:]):
                if mu_s[0] > 0.0:
                    assert newton(mu_s)[0][0] >= newton_prev(mu_prev)[0][0] - 4 * 2.0 ** -52

    def test_leaves_the_error_state_as_it_was(self):
        before = np.geterr()
        fb_upper_2inf(np.linspace(0.0, 1.0, 21))
        assert np.geterr() == before
        with pytest.raises(DomainError):
            fb_upper_2inf(np.array([0.3, 1.5]))
        assert np.geterr() == before

    @settings(max_examples=100, database=None, deadline=None)
    @given(st.floats(0.0, 1.0), st.lists(
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), min_size=3, max_size=3),
        st.booleans())
    def test_no_point_of_the_simplex_beats_the_bound(self, eps, v, on_face):
        # x inside the simplex, or on its face sum = 1 (corners included); a
        # multiplier stepped past its root would leave such points above
        total = sum(v)
        if on_face and total > 0.0:
            x = [vi / total for vi in v]
        else:
            x = [vi / max(1.0, total) for vi in v]
        num = (1.0 - eps) * (h2(x[0]) + eps * h2(x[1]) + eps ** 2 * h2(x[2]))
        den = 1.0 + eps + eps ** 2 + 2.0 * (1.0 - eps) * (x[0] + eps * x[1] + eps ** 2 * x[2])
        assert num / den <= fb_upper_2inf(eps) + 1e-15


class TestCapacity12:
    def test_matches_constraint_graph_at_zero_erasure(self):
        assert abs(capacity_12(0.0).value - noiseless_capacity(RllConstraint(1, 2))) <= 1e-12

    def test_frozen_curve_points(self):
        for eps, want in ((0.25, 0.3922410958093383), (0.5, 0.3365981215881269),
                          (0.75, 0.2113403048832859), (0.9, 0.0944124695024477)):
            assert abs(capacity_12(eps).value - want) <= 1e-12

    def test_first_order_condition_at_argmax(self):
        for eps in (0.0, 0.3, 0.8):
            res = capacity_12(eps)
            x = res.argmax.delta[0]
            c = 1.0 / (1.0 - eps) + (1.0 - eps)
            assert 1.0 / 3.0 < x < 0.5
            assert abs((c + 1.0) * math.log1p(-x) - c * math.log(x)) <= 1e-12

    def test_full_erasure(self):
        assert capacity_12(1.0).value == 0.0

    def test_monotone_in_epsilon(self):
        vals = [capacity_12(e).value for e in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def ub_12_two_param(epsilon, grid_n=201):
    """Two-parameter brute-force cross-check of capacity_12.

    Maximizes, over (x1, x2) in [0, 1]^2 with eb = 1 - eps,

        (eb^2 * H2(x1) + eps*eb * H2(x2)) / (1 + eb^2 + eb^2*x1 + eps*eb*x2).

    The four-node output-driven graph behind the single-parameter
    formula leaves exactly two nodes an input choice; this is the
    resulting entropy per expected cost. Its maximum sits on the
    diagonal x2 = x1 and collapses to the capacity_12 objective. A grid
    of grid_n points per axis, then one round of coordinate-wise
    refinement around the winner.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise DomainError(f"erasure probability must lie in [0, 1], got {epsilon!r}")
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


class TestUb12TwoParam:
    def test_collapses_to_the_single_parameter_value(self):
        for eps in (0.0, 0.3, 0.7):
            assert abs(ub_12_two_param(eps) - capacity_12(eps).value) <= 1e-4

    def test_frozen_value(self):
        assert abs(ub_12_two_param(0.5) - 0.336598121485785) <= 1e-6

    def test_full_erasure(self):
        assert ub_12_two_param(1.0) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            ub_12_two_param(-0.5)
