"""Closed-form rates, the backward recursion, and the maximizers."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from rllbec import (
    INF,
    BudgetExceeded,
    DomainError,
    RllConstraint,
    SchemeParams,
    capacity_12,
    delta_chain,
    fb_upper_2inf,
    feedback_capacity,
    grid_argmax_rate,
    grid_max_rate,
    h2,
    nc_capacity_d_inf,
    noiseless_capacity,
    rate,
    stationarity_residual,
    ub_12_two_param,
)

LOG2_GOLDEN = math.log2((1.0 + math.sqrt(5.0)) / 2.0)
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

    def test_domain(self):
        with pytest.raises(DomainError):
            feedback_capacity(-0.2, 1)
        with pytest.raises(DomainError):
            feedback_capacity(0.5, 0)


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
        assert val >= cube - 1e-15
        assert val <= feedback_capacity(eps, k).value + 1e-12
        assert abs(rate(SchemeParams(eps, k, tuple(pt))) - val) <= 1e-15

    @pytest.mark.parametrize("eps", [0.3, 1.0])
    @pytest.mark.parametrize("chunk", [1, 7, 100])
    @pytest.mark.parametrize("k, grid_n", [(3, 11), (4, 6), (1, 50)])
    def test_chunking_invariance(self, monkeypatch, k, grid_n, chunk, eps):
        # (1, 50) cuts a single axis longer than one chunk into segments;
        # eps = 1 ties every point at 0, so the first in C order must win
        val, pt = grid_argmax_rate(eps, k, grid_n)
        monkeypatch.setattr("rllbec.capacity._CHUNK_ROWS", chunk)
        val_c, pt_c = grid_argmax_rate(eps, k, grid_n)
        assert val_c == val
        assert np.array_equal(pt_c, pt)

    @pytest.mark.parametrize("k, grid_n, mib", [(4, 41, 64), (1, 3_000_000, 128)])
    def test_traced_memory_peak(self, k, grid_n, mib):
        # tracemalloc sees numpy's data buffers; the single long axis
        # holds only the partial sums of one segment at a time
        tracemalloc.start()
        try:
            grid_argmax_rate(0.3, k, grid_n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2 ** 20

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            grid_max_rate(0.5, 2, 100_000)

    def test_domain(self):
        with pytest.raises(DomainError):
            grid_max_rate(0.5, 1, 1)


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

    def test_domain(self):
        with pytest.raises(DomainError):
            nc_capacity_d_inf(0.5, 0)
        with pytest.raises(DomainError):
            nc_capacity_d_inf(2.0, 1)


class TestFbUpper2Inf:
    def test_frozen_values(self):
        assert abs(fb_upper_2inf(0.0) - 0.5514630897459566) <= 1e-6
        assert abs(fb_upper_2inf(0.5) - 0.3450987827069385) <= 1e-6

    def test_sits_below_the_noncausal_curve(self):
        for eps in (0.25, 0.5, 0.75):
            assert fb_upper_2inf(eps) < nc_capacity_d_inf(eps, 2).value

    def test_mediant_bound(self):
        # the objective is a mediant of terms H2(x_i) / (1/(1-eps) + 2*x_i),
        # each at most nc-dinf at d = 2; below eps ~ 0.2 the two are equal
        for eps in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            assert fb_upper_2inf(eps) <= nc_capacity_d_inf(eps, 2).value + 1e-12

    def test_at_least_a_feasible_witness(self):
        eps, x = 0.4, (0.356152, 0.340602, 0.303245)
        assert sum(x) <= 1.0
        num = (1.0 - eps) * (h2(x[0]) + eps * h2(x[1]) + eps ** 2 * h2(x[2]))
        den = 1.0 + eps + eps ** 2 + 2.0 * (1.0 - eps) * (x[0] + eps * x[1] + eps ** 2 * x[2])
        assert fb_upper_2inf(eps) >= num / den

    def test_full_erasure(self):
        assert fb_upper_2inf(1.0) == 0.0


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
