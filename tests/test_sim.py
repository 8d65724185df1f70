"""Monte Carlo layer: channel behaviour, trial harness statistics,
rule-occupancy law, and the renewal simulator."""

import math

import numpy as np
import pytest

from rllbec import (
    BecChannel,
    DomainError,
    SimReport,
    feedback_capacity,
    h2,
    label_occupancy_check,
    nc_capacity_d_inf,
    renewal_rate_d_inf,
    run_feedback_sim,
)

GOLDEN = 0.6942419136306173  # log2 of the golden ratio


class TestBecChannel:
    def test_deterministic_extremes(self):
        clear = BecChannel(0.0, seed=1)
        assert [clear(1), clear(0), clear(1)] == [1, 0, 1]
        blocked = BecChannel(1.0, seed=1)
        assert [blocked(1), blocked(0)] == [None, None]

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            BecChannel(1.5, seed=0)
        ch = BecChannel(0.5, seed=0)
        with pytest.raises(ValueError):
            ch.step(2)

    def test_seed_reproducibility(self):
        a = BecChannel(0.4, seed=123)
        b = BecChannel(0.4, seed=123)
        assert [a(1) for _ in range(200)] == [b(1) for _ in range(200)]

    def test_erasure_fraction(self):
        ch = BecChannel(0.3, seed=9)
        n = 1_000_000
        erased = sum(ch(1) is None for _ in range(n))
        sigma = math.sqrt(n * 0.3 * 0.7)
        assert abs(erased - 0.3 * n) <= 3 * sigma


class TestRunFeedbackSim:
    def test_deterministic_report(self):
        a = run_feedback_sim(2, 0.3, 16, 40, seed=5)
        b = run_feedback_sim(2, 0.3, 16, 40, seed=5)
        assert a == b

    def test_noiseless_short_messages(self):
        # Terminating sessions never pay the trailing forced run, and the
        # integer split deviates from delta at small live sets, so short
        # messages run measurably above the asymptotic rate: this
        # configuration lands near 0.7076, not at log2(phi) = 0.6942.
        rep = run_feedback_sim(1, 0.0, 20, 200, seed=7)
        assert rep.errors == 0
        assert rep.violations == 0
        assert rep.censored == 0
        assert rep.label_histogram["~l0"] == 0
        assert abs(rep.empirical_rate - GOLDEN) <= 0.015

    def test_rate_matches_capacity_within_noise(self):
        cap = feedback_capacity(0.5, 2).value
        rep = run_feedback_sim(2, 0.5, 50, 1000, seed=11)
        assert rep.errors == 0
        assert rep.violations == 0
        assert rep.total_uses >= 100_000
        assert abs(rep.empirical_rate - cap) <= max(3 * rep.stderr_rate, 0.01)

    def test_explicit_delta_and_totals(self):
        rep = run_feedback_sim(1, 0.2, 8, 25, delta=(0.4,), seed=3)
        assert rep.trials == 25
        assert rep.total_bits == 8 * 25
        assert rep.empirical_rate == rep.total_bits / rep.total_uses
        assert sum(rep.label_histogram.values()) == rep.total_uses

    def test_full_erasure_is_censored(self):
        rep = run_feedback_sim(2, 1.0, 10, 5, delta=(0.4, 0.3), max_uses=50, seed=0)
        assert rep.censored == 5
        assert rep.total_bits == 0.0
        assert rep.empirical_rate == 0.0
        assert rep.violations == 0
        # nothing ever gets through, so the rules just bounce between
        # the first running rule and the post-erasure rule
        assert rep.label_histogram["l1"] == 0
        assert rep.label_histogram["l2"] == 0
        assert rep.label_histogram["l0"] + rep.label_histogram["~l0"] == rep.total_uses

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            run_feedback_sim(1, 0.0, 63, 1)
        with pytest.raises(DomainError):
            run_feedback_sim(1, 0.0, 8, 0)
        with pytest.raises(DomainError):
            run_feedback_sim(1, 0.0, 8, 1, delta=(0.6,))
        with pytest.raises(DomainError):
            run_feedback_sim(1, 0.0, 8, 1, delta="best")

    def test_full_erasure_needs_a_use_cap(self):
        # without a cap the first session would never end
        with pytest.raises(DomainError):
            run_feedback_sim(2, 1.0, 8, 1)


class TestLabelOccupancy:
    def test_long_run_matches_stationary_law(self):
        # long messages keep the session-end transient below the band;
        # the budget targets just over 1e6 channel uses
        cap = feedback_capacity(0.3, 2).value
        trials = int(1.03e6 * cap / 62) + 50
        rep = run_feedback_sim(2, 0.3, 62, trials, seed=5)
        assert rep.total_uses >= 1_000_000
        dev = label_occupancy_check(rep, 0.3, feedback_capacity(0.3, 2).argmax.delta)
        assert dev <= 0.01

    def test_rejects_mismatched_k(self):
        rep = run_feedback_sim(1, 0.2, 8, 10, seed=1)
        with pytest.raises(ValueError):
            label_occupancy_check(rep, 0.2, (0.4, 0.3))


class TestRenewalRate:
    def test_degenerate_delta_is_zero_rate(self):
        assert renewal_rate_d_inf(0.0, 1, 0.0, 1000, seed=0) == 0.0

    def test_matches_analytic_maximum(self):
        res = nc_capacity_d_inf(0.25, 2)
        x = res.argmax.delta[0]
        n = 1_000_000
        rate = renewal_rate_d_inf(0.25, 2, x, n, seed=4)
        et = 1 / 0.75 + 2 * x
        var = 0.25 / 0.75**2 + 4 * x * (1 - x)
        sigma_rate = h2(x) * math.sqrt(var / n) / et**2
        assert abs(rate - res.value) <= 3 * sigma_rate

    def test_mean_cost_identity(self):
        eps, d, x, n = 0.4, 1, 0.3, 500_000
        rate = renewal_rate_d_inf(eps, d, x, n, seed=8)
        mean_cost = h2(x) / rate
        et = 1 / (1 - eps) + d * x
        var = eps / (1 - eps) ** 2 + d * d * x * (1 - x)
        assert abs(mean_cost - et) <= 3 * math.sqrt(var / n)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            renewal_rate_d_inf(1.0, 1, 0.3, 100, seed=0)
        with pytest.raises(DomainError):
            renewal_rate_d_inf(0.2, 1, 0.7, 100, seed=0)
        with pytest.raises(DomainError):
            renewal_rate_d_inf(0.2, 0, 0.3, 100, seed=0)
        with pytest.raises(DomainError):
            renewal_rate_d_inf(0.2, 1, 0.3, 0, seed=0)
