"""Monte Carlo side: an erasure channel with explicit seeding, a trial
harness for the coding scheme, occupancy statistics for the labeling
rules, and a renewal-cost simulator for the minimum-run-length family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import codec
from .capacity import DomainError, SchemeParams, feedback_capacity, h2
from .constraint import RllConstraint, first_violation
from .markov import build_labeling_chain, stationary


class BecChannel:
    """Erasure channel: delivers x with probability 1-eps, else None.

    The seed fully determines the erasure sequence; each step consumes
    exactly one draw from the generator, so runs are reproducible and
    interleavable by construction.
    """

    def __init__(self, epsilon: float, seed):
        if not 0.0 <= epsilon <= 1.0:
            raise DomainError(f"erasure probability must lie in [0, 1], got {epsilon!r}")
        self.epsilon = epsilon
        self.rng = np.random.default_rng(seed)

    def step(self, x: int):
        if x not in (0, 1):
            raise ValueError(f"channel input must be a bit, got {x!r}")
        return None if self.rng.random() < self.epsilon else x

    def __call__(self, x: int):
        return self.step(x)


@dataclass(frozen=True)
class SimReport:
    """Aggregate of a batch of independent transmissions.

    total_bits counts delivered messages only; censored is the number
    of trials cut off by the per-trial use cap (their uses still count,
    their bits do not). label_histogram maps rule names ('~l0', 'l0',
    ..., 'lk') to the number of uses spent under each rule.
    """

    trials: int
    total_uses: int
    total_bits: float
    empirical_rate: float
    mean_trial_rate: float
    stderr_rate: float
    errors: int
    violations: int
    censored: int
    label_histogram: dict


def run_feedback_sim(k: int, epsilon: float, log2_messages: int, trials: int,
                     delta="optimal", seed: int = 0,
                     max_uses: int | None = None) -> SimReport:
    """Transmit `trials` uniformly drawn messages over fresh channels.

    Args:
        delta: explicit parameter vector, or "optimal" to use the
            capacity-achieving one.
        seed: root seed; each trial derives its own independent message
            and channel streams from (seed, trial index), so reports are
            reproducible and order-independent.
        max_uses: optional per-trial cap; required for epsilon = 1,
            where a session never finishes.
    """
    if not 1 <= log2_messages <= 62:
        raise DomainError(f"log2_messages must lie in [1, 62], got {log2_messages}")
    if trials < 1:
        raise DomainError(f"trials must be positive, got {trials}")
    if epsilon == 1.0 and max_uses is None:
        raise DomainError("erasure probability 1 never lets a session finish; set max_uses")
    if isinstance(delta, str):
        if delta != "optimal":
            raise DomainError(f"delta must be a vector or 'optimal', got {delta!r}")
        delta = feedback_capacity(epsilon, k).argmax.delta
    params = SchemeParams(epsilon, k, tuple(delta))
    n = 1 << log2_messages
    cons = RllConstraint(0, k)
    hist = np.zeros(k + 2, dtype=np.int64)
    rates = []
    total_uses = 0
    errors = violations = censored = 0
    for t in range(trials):
        ss = np.random.SeedSequence(entropy=(seed, t))
        s_msg, s_ch = ss.spawn(2)
        m = int(np.random.default_rng(s_msg).integers(n))
        channel = BecChannel(epsilon, s_ch)
        transcript = []
        try:
            m_hat, uses, x_seq = codec.transmit_message(
                m, n, params, channel, max_uses=max_uses, transcript=transcript)
            if m_hat != m:
                errors += 1
            rates.append(log2_messages / uses)
        except codec.UseBudgetExceeded:
            censored += 1
            uses = len(transcript)
            x_seq = [x for x, _ in transcript]
        total_uses += uses
        if first_violation(cons, x_seq) is not None:
            violations += 1
        # the rule sequence is a function of the outputs alone
        lab = codec.label_of(0)
        for _, y in transcript:
            hist[lab] += 1
            lab = codec.next_label(lab, y, k)
    delivered = trials - censored
    total_bits = float(log2_messages * delivered)
    names = codec.label_names(k)
    stderr = float(np.std(rates, ddof=1) / math.sqrt(len(rates))) if len(rates) >= 2 else 0.0
    return SimReport(
        trials=trials,
        total_uses=total_uses,
        total_bits=total_bits,
        empirical_rate=total_bits / total_uses if total_uses else 0.0,
        mean_trial_rate=float(np.mean(rates)) if rates else 0.0,
        stderr_rate=stderr,
        errors=errors,
        violations=violations,
        censored=censored,
        label_histogram={names[i]: int(hist[i]) for i in range(k + 2)},
    )


def label_occupancy_check(report: SimReport, epsilon: float, delta) -> float:
    """Sup distance between empirical rule frequencies and the chain law.

    The reference law is the stationary distribution of the labeling
    chain started from L(0), matching how every session begins.
    """
    delta = tuple(float(d) for d in delta)
    k = len(delta)
    names = codec.label_names(k)
    if set(report.label_histogram) != set(names):
        raise ValueError("report histogram does not match this k")
    pi = stationary(build_labeling_chain(epsilon, delta), start=codec.label_of(0))
    total = sum(report.label_histogram.values())
    if total == 0:
        raise ValueError("report contains no channel uses")
    freq = np.array([report.label_histogram[nm] / total for nm in names])
    return float(np.max(np.abs(freq - pi)))


def renewal_rate_d_inf(epsilon: float, d: int, delta: float,
                       horizon_symbols: int, seed) -> float:
    """Empirical rate of the renewal process behind nc_capacity_d_inf.

    Each information symbol costs geometric(1-eps) uses until a slot is
    delivered, plus d forced '0's when the delivered bit is a '1'
    (drawn with probability delta). Returns H2(delta) * symbols / uses.
    """
    if not 0.0 <= epsilon < 1.0:
        raise DomainError(f"need erasure probability in [0, 1), got {epsilon!r}")
    if not 0.0 <= delta <= 0.5:
        raise DomainError(f"need delta in [0, 1/2], got {delta!r}")
    if int(d) != d or d < 1:
        raise DomainError(f"d must be a positive integer, got {d!r}")
    if horizon_symbols < 1:
        raise DomainError(f"horizon must be positive, got {horizon_symbols}")
    rng = np.random.default_rng(seed)
    waits = rng.geometric(1.0 - epsilon, size=horizon_symbols)
    ones = rng.random(horizon_symbols) < delta
    total_uses = int(waits.sum() + d * ones.sum())
    return h2(delta) * horizon_symbols / total_uses
