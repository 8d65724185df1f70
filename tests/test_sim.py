"""Monte Carlo layer: channel behaviour, trial harness statistics,
rule-occupancy law, and the renewal simulator."""

import math

import numpy as np
import pytest

from rllbec import (
    BecChannel,
    DomainError,
    RllConstraint,
    SchemeParams,
    SimReport,
    UseBudgetExceeded,
    feedback_capacity,
    first_violation,
    h2,
    label_names,
    label_occupancy_check,
    label_of,
    nc_capacity_d_inf,
    next_label,
    codec,
    run_feedback_sim,
    sim,
    transmit_message,
)

from oracles import renewal_rate_d_inf

GOLDEN = 0.6942419136306173  # log2 of the golden ratio


def reference_sim(k, epsilon, log2_messages, trials, delta="optimal", seed=0, max_uses=None):
    """run_feedback_sim one trial at a time: the scalar codec over a
    BecChannel per trial, then replays of each transcript for the (0,k)
    constraint, the rule histogram and the erasure count."""
    if delta == "optimal":
        delta = feedback_capacity(epsilon, k).argmax.delta
    params = SchemeParams(epsilon, k, tuple(delta))
    n = 1 << log2_messages
    cons = RllConstraint(0, k)
    hist = np.zeros(k + 2, dtype=np.int64)
    rates = []
    total_uses = errors = violations = censored = erasures = 0
    for t in range(trials):
        s_msg, s_ch = np.random.SeedSequence(entropy=(seed, t)).spawn(2)
        m = int(np.random.default_rng(s_msg).integers(n))
        transcript = []
        try:
            m_hat, uses, x_seq = transmit_message(
                m, n, params, BecChannel(epsilon, s_ch), max_uses=max_uses, transcript=transcript)
            errors += m_hat != m
            rates.append(log2_messages / uses)
        except UseBudgetExceeded:
            censored += 1
            uses = len(transcript)
            x_seq = [x for x, _ in transcript]
        total_uses += uses
        violations += first_violation(cons, x_seq) is not None
        erasures += sum(y is None for _, y in transcript)
        lab = label_of(0)
        for _, y in transcript:
            hist[lab] += 1
            lab = next_label(lab, y, k)
    total_bits = float(log2_messages * (trials - censored))
    names = label_names(k)
    return SimReport(
        trials=trials,
        total_uses=total_uses,
        total_bits=total_bits,
        empirical_rate=total_bits / total_uses if total_uses else 0.0,
        mean_trial_rate=float(np.mean(rates)) if rates else 0.0,
        stderr_rate=float(np.std(rates, ddof=1) / math.sqrt(len(rates))) if len(rates) >= 2 else 0.0,
        errors=errors,
        violations=violations,
        censored=censored,
        erasures=erasures,
        label_histogram={names[i]: int(hist[i]) for i in range(k + 2)},
    )


class TestBecChannel:
    def test_deterministic_extremes(self):
        clear = BecChannel(0.0, seed=1)
        assert [clear(1), clear(0), clear(1)] == [1, 0, 1]
        blocked = BecChannel(1.0, seed=1)
        assert [blocked(1), blocked(0)] == [None, None]

    def test_rejects_bad_arguments(self, monkeypatch):
        for eps in (1.5, -0.1, float("nan")):
            with pytest.raises(DomainError):
                BecChannel(eps, seed=0)
        ch = BecChannel(0.5, seed=0)
        with pytest.raises(ValueError):
            ch.step(2)

    def test_seed_reproducibility(self):
        a = BecChannel(0.4, seed=123)
        b = BecChannel(0.4, seed=123)
        assert [a(1) for _ in range(200)] == [b(1) for _ in range(200)]

    @pytest.mark.parametrize("n", [1, 7, 256, 1000])
    def test_one_draw_per_use(self, n):
        # the lockstep simulator takes one draw of each trial's channel
        # stream per use and relies on it equalling the channel's decision
        for eps, seed in ((0.3, 1), (0.0, 2), (1.0, 3), (0.6, np.random.SeedSequence((4, 5)))):
            ch = BecChannel(eps, seed)
            expected = np.random.default_rng(seed).random(n) < eps
            assert [ch(1) is None for _ in range(n)] == expected.tolist()

    def test_simulator_streams_are_numpys(self):
        # trial t's message is the first draw of child 0, and its channel
        # the draws of child 1, of SeedSequence((seed, t)): seeds and trial
        # indices from 2**32 on take more entropy words, and one t array
        # mixes both word counts
        t = [0, 1, 2**32 - 1, 2**32, 2**40]
        draws = 600
        for seed in (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**100):
            children = [[np.random.SeedSequence((seed, ti), spawn_key=(which,)) for ti in t]
                        for which in (0, 1)]
            hi, lo, inc_hi, inc_lo = sim._generator(seed, np.array(t, dtype=np.uint64), 1)
            raw = []
            for _ in range(draws):
                hi, lo, r = sim._next_raw(hi, lo, inc_hi, inc_lo)
                raw.append(r)
            raw = np.array(raw).T
            for row, s_ch in zip(raw, children[1]):
                assert row.tolist() == np.random.PCG64(s_ch).random_raw(draws).tolist()
                for eps in (0.0, 5e-324, 0.3, 0.999, 1.0 - 2.0 ** -53, 1.0):
                    ch = BecChannel(eps, s_ch)
                    assert sim._erased(row, eps).tolist() == [ch(1) is None for _ in range(draws)]
            first = sim._next_raw(*sim._generator(seed, np.array(t, dtype=np.uint64), 0))[2]
            for log2_messages in range(1, 63):
                m = sim._message(first, log2_messages)
                assert m.dtype == np.int64
                assert m.tolist() == [int(np.random.default_rng(s).integers(2**log2_messages))
                                      for s in children[0]]

    def test_erasure_threshold_is_strict(self):
        # random() equal to epsilon is delivered, as in BecChannel
        raw = np.array([1 << 11, 3 << 11, 2**64 - 1], dtype=np.uint64)
        assert sim._erased(raw, 3 * 2.0**-53).tolist() == [True, False, False]
        assert sim._erased(raw, 1.0).tolist() == [True, True, True]
        # the extreme thresholds: random() = 0 below the least subnormal,
        # and the largest random() not below its own value
        assert sim._erased(raw - (1 << 11), 5e-324).tolist() == [True, False, False]
        assert sim._erased(raw, 1.0 - 2.0**-53).tolist() == [True, True, False]

    def test_erasure_fraction(self):
        # the channel's decisions are these draws (test_one_draw_per_use)
        n = 1_000_000
        erased = int(np.count_nonzero(np.random.default_rng(9).random(n) < 0.3))
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

    def test_rejects_bad_arguments(self, monkeypatch):
        with pytest.raises(DomainError):
            run_feedback_sim(1, 0.0, 63, 1)
        with pytest.raises(DomainError):
            run_feedback_sim(1, 0.0, 8, 0)
        with pytest.raises(DomainError):
            run_feedback_sim(1, 0.0, 8, 1, delta=(0.6,))
        with pytest.raises(DomainError):
            run_feedback_sim(1, 0.0, 8, 1, delta="best")
        # fractional counts once reached numpy and raised its TypeError
        with pytest.raises(DomainError, match="trials"):
            run_feedback_sim(1, 0.0, 8, 1.5)
        with pytest.raises(DomainError, match="log2_messages"):
            run_feedback_sim(1, 0.0, 8.5, 1)
        # integral values of other types are counts like any int
        for k in (2.0, np.int64(2)):
            assert run_feedback_sim(k, 0.3, 8, 5) == run_feedback_sim(2, 0.3, 8, 5)
            delta = feedback_capacity(0.3, 2).argmax.delta
            assert run_feedback_sim(k, 0.3, 8.0, np.int64(5), delta=delta) == run_feedback_sim(2, 0.3, 8, 5)
        # a negative cap once censored every trial; 0 stays valid
        for max_uses in (-3, 2.5, "10"):
            with pytest.raises(DomainError, match="max_uses"):
                run_feedback_sim(1, 0.0, 8, 1, max_uses=max_uses)
        # k up to 10**5 passes the domain checks, one more fails them before
        # any trial runs
        class Building(Exception):
            pass

        def building(params):
            raise Building

        monkeypatch.setattr(sim.codec, "ArrayCodec", building)
        with pytest.raises(Building):
            run_feedback_sim(10 ** 5, 0.3, 8, 1, delta=(0.5,) * 10 ** 5, max_uses=10)
        with pytest.raises(DomainError, match="at most 100000"):
            run_feedback_sim(10 ** 5 + 1, 0.3, 8, 1, delta=(0.5,) * (10 ** 5 + 1), max_uses=10)
        with pytest.raises(DomainError, match="at most 100000"):
            run_feedback_sim(10 ** 5 + 1, 0.3, 8, 1)

    @pytest.mark.parametrize("seed", [None, 1.5, -1])
    def test_rejects_bad_seeds(self, seed, monkeypatch):
        # before any trial runs
        monkeypatch.setattr(sim, "_lockstep", None)
        with pytest.raises(DomainError, match="seed"):
            run_feedback_sim(2, 0.3, 8, 3, seed=seed)

    def test_accepts_numpy_integer_seeds(self):
        assert run_feedback_sim(2, 0.3, 8, 5, seed=np.int64(4)) == run_feedback_sim(2, 0.3, 8, 5, seed=4)

    def test_full_erasure_needs_a_use_cap(self):
        # without a cap the first session would never end
        with pytest.raises(DomainError):
            run_feedback_sim(2, 1.0, 8, 1)

    @pytest.mark.parametrize("delta", [(0.0,), (1e-15,)])
    def test_unbounded_sessions_need_a_use_cap(self, delta):
        # delta_0 = 0 without erasures shrinks the live set by one message
        # per use: about 2**62 uses; 1e-15 would take about 1.2e15
        with pytest.raises(DomainError, match="max_uses"):
            run_feedback_sim(1, 0.0, 62, 1, delta=delta)
        rep = run_feedback_sim(1, 0.0, 62, 2, delta=delta, max_uses=300)
        assert rep.censored == 2
        assert rep.total_uses == 600

    def test_use_bound_follows_the_rate(self):
        # rate about 1e-3: one bit takes about 1e3 expected uses and runs,
        # while at rate about 1e-5, 62 bits would take about 6e6
        rep = run_feedback_sim(1, 0.999, 1, 1)
        assert rep.censored == 0 and rep.errors == 0
        with pytest.raises(DomainError, match="max_uses"):
            run_feedback_sim(1, 1 - 1e-5, 62, 1)

    def test_erasure_counts(self):
        assert run_feedback_sim(2, 0.0, 16, 10, seed=1).erasures == 0
        rep = run_feedback_sim(2, 1.0, 10, 5, delta=(0.4, 0.3), max_uses=50, seed=0)
        assert rep.erasures == rep.total_uses == 250
        rep = run_feedback_sim(2, 0.3, 62, 200, seed=2)
        sigma = math.sqrt(rep.total_uses * 0.3 * 0.7)
        assert abs(rep.erasures - 0.3 * rep.total_uses) <= 4 * sigma


# (k, epsilon, log2_messages, trials, delta, max_uses)
REFERENCE_CONFIGS = [
    (1, 0.0, 62, 13, "optimal", None),
    (2, 0.3, 62, 37, "optimal", None),
    (3, 0.6, 62, 11, (0.5, 0.5, 0.5), None),
    (8, 0.3, 62, 9, "optimal", None),
    (2, 0.3, 62, 15, (0.4, 0.0), None),
    (3, 0.6, 62, 8, (0.45, 0.0, 0.5), None),
    (3, 0.0, 1, 20, "optimal", None),
    (1, 0.6, 1, 21, (0.5,), None),
    (1, 0.9, 62, 6, (0.5,), None),  # about 650 uses per trial: erasure refills
    (2, 1.0, 16, 5, (0.4, 0.3), 600),
    (2, 0.6, 62, 25, "optimal", 150),
    (1, 0.0, 62, 3, (0.0,), 0),
]


class TestAgainstReference:
    @pytest.mark.parametrize("k, eps, log2_messages, trials, delta, max_uses", REFERENCE_CONFIGS)
    def test_report_equals_per_trial_run(self, k, eps, log2_messages, trials, delta, max_uses):
        got = run_feedback_sim(k, eps, log2_messages, trials, delta=delta, seed=3, max_uses=max_uses)
        assert got == reference_sim(k, eps, log2_messages, trials, delta, seed=3, max_uses=max_uses)

    def test_constraint_check_sees_the_bits_sent(self, monkeypatch):
        # a coder that reports '0' for every bit it sends: with 8 messages
        # and delta = (1/2, 1/2) each session needs at least 3 uses, so each
        # one breaks k = 2, censored or not
        class ZeroSender(codec.ArrayCodec):
            def step(self, *args):
                x, labels, lo, hi = super().step(*args)
                return np.zeros_like(x), labels, lo, hi

        monkeypatch.setattr(codec, "ArrayCodec", ZeroSender)
        assert run_feedback_sim(2, 0.0, 3, 20, delta=(0.5, 0.5)).violations == 20
        assert run_feedback_sim(2, 1.0, 3, 20, delta=(0.5, 0.5), max_uses=3).violations == 20

    def test_blocks_and_chunks_do_not_show(self, monkeypatch):
        # short trial chunks: 23 trials in chunks of 7, and capped sessions
        # that run to 120 uses
        monkeypatch.setattr(sim, "_CHUNK", 7)
        for args in ((2, 0.3, 62, 23, "optimal", None), (1, 0.6, 62, 9, (0.5,), 120)):
            k, eps, log2_messages, trials, delta, max_uses = args
            got = run_feedback_sim(k, eps, log2_messages, trials, delta=delta, seed=8, max_uses=max_uses)
            assert got == reference_sim(k, eps, log2_messages, trials, delta, seed=8, max_uses=max_uses)


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

    def test_rejects_bad_arguments(self, monkeypatch):
        with pytest.raises(DomainError):
            renewal_rate_d_inf(1.0, 1, 0.3, 100, seed=0)
        with pytest.raises(DomainError):
            renewal_rate_d_inf(0.2, 1, 0.7, 100, seed=0)
        with pytest.raises(DomainError):
            renewal_rate_d_inf(0.2, 0, 0.3, 100, seed=0)
        with pytest.raises(DomainError):
            renewal_rate_d_inf(0.2, 1, 0.3, 0, seed=0)
        # d = inf once raised OverflowError, nan a bare ValueError and
        # None a TypeError
        for d in (float("inf"), float("nan"), None, 1.5):
            with pytest.raises(DomainError, match="d must be a positive integer"):
                renewal_rate_d_inf(0.2, d, 0.3, 100, seed=0)
        for eps in (-0.1, float("nan")):
            with pytest.raises(DomainError):
                renewal_rate_d_inf(eps, 1, 0.3, 100, seed=0)
