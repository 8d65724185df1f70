"""Monte Carlo side: an erasure channel with explicit seeding, a trial
harness for the coding scheme, occupancy statistics for the labeling
rules, and a renewal-cost simulator for the minimum-run-length family.

The trial harness steps every unfinished trial together: one channel
use of all of them is one call of codec.ArrayCodec.step on int64
columns. Each trial still draws its message and its erasures from its
own seeded streams, the erasures in blocks that equal BecChannel's draws
one by one, so a report equals what one transmit_message per trial over
a BecChannel gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import codec
from .capacity import DomainError, SchemeParams, feedback_capacity, h2, rate
from .markov import build_labeling_chain, stationary

_BLOCK = 256        # erasure draws per trial and refill
_CHUNK = 4096       # trials stepped together, which bounds the memory for any count
_MAX_EXPECTED_USES = 1e6  # per trial, for runs without a use cap


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
    their bits do not). erasures counts the erased channel uses.
    label_histogram maps rule names ('~l0', 'l0', ..., 'lk') to the
    number of uses spent under each rule.
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
    erasures: int
    label_histogram: dict


def _stream(seed, t: int, which: int):
    """Seed of trial t's message (which = 0) or channel (which = 1) stream:
    child `which` of SeedSequence(entropy=(seed, t)).spawn(2)."""
    return np.random.SeedSequence((seed, t), spawn_key=(which,))


def _erasures(channel_seed, start: int, epsilon: float):
    """Erasure mask of the channel stream's draws start, ..., start + _BLOCK - 1.

    A BecChannel on the same seed erases its i-th use exactly when draw i
    is below epsilon; random() takes one 64-bit output per draw, so
    advancing the generator by `start` outputs skips `start` draws.
    """
    bits = np.random.PCG64(channel_seed)
    bits.advance(start)
    return np.random.Generator(bits).random(_BLOCK) < epsilon


def _lockstep(coder, k, n, epsilon, seed, first, count, max_uses, uses, delivered, hist):
    """Run trials first, ..., first + count - 1 to their ends, all at once.

    Each pass of the loop is one channel use of every unfinished trial.
    Writes each trial's uses, and whether it decoded before the cap,
    into `uses` and `delivered`; adds the uses under each rule to `hist`.

    Returns:
        (errors, violations, erasures) among these trials.
    """
    m = np.empty(count, dtype=np.int64)
    erased = np.empty((_BLOCK, count), dtype=bool)
    for row in range(count):
        m[row] = np.random.default_rng(_stream(seed, first + row, 0)).integers(n)
        erased[:, row] = _erasures(_stream(seed, first + row, 1), 0, epsilon)
    row = np.arange(count)
    lo = np.zeros(count, dtype=np.int64)
    hi = np.full(count, n, dtype=np.int64)
    label = np.full(count, codec.label_of(0), dtype=np.int64)
    run = np.zeros(count, dtype=np.int64)  # trailing '0's sent
    bad = np.zeros(count, dtype=bool)      # broke the (0,k) constraint
    errors = violations = n_erased = 0
    step = 0
    while row.size:
        if max_uses is not None and step >= max_uses:
            uses[first + row] = step
            violations += int(np.count_nonzero(bad))
            break
        col = step % _BLOCK
        if col == 0 and step:
            for r in row.tolist():
                erased[:, r] = _erasures(_stream(seed, first + r, 1), step, epsilon)
        e = erased[col, row]
        n_erased += int(np.count_nonzero(e))
        hist += np.bincount(label, minlength=hist.size)
        x, label, lo, hi = coder.step(label, lo, hi, m, e)
        run = (run + 1) * (1 - x)
        bad |= run > k
        step += 1
        done = hi - lo == 1
        if done.any():
            ended = first + row[done]
            uses[ended] = step
            delivered[ended] = True
            errors += int(np.count_nonzero(lo[done] != m[done]))
            violations += int(np.count_nonzero(bad[done]))
            live = ~done
            row, m, lo, hi, label, run, bad = (v[live] for v in (row, m, lo, hi, label, run, bad))
    return errors, violations, n_erased


def run_feedback_sim(k: int, epsilon: float, log2_messages: int, trials: int,
                     delta="optimal", seed: int = 0,
                     max_uses: int | None = None) -> SimReport:
    """Transmit `trials` uniformly drawn messages over fresh channels.

    All unfinished trials advance together, one channel use per step.
    The engine checks the (0,k) constraint on the bits sent, counts the
    uses under each rule and the erased uses, and compares each decoded
    message with the sent one as the trial ends. The report equals what
    transmit_message over a BecChannel gives, trial by trial.

    Args:
        delta: explicit parameter vector, or "optimal" to use the
            capacity-achieving one.
        seed: root seed; each trial derives its own independent message
            and channel streams from (seed, trial index), so reports are
            reproducible and order-independent.
        max_uses: optional per-trial cap. Without one, the scheme's rate
            must promise at most 1e6 expected uses per trial; a zero rate
            (epsilon = 1, or delta_0 = 0 without erasures) never would.

    Raises:
        DomainError: bad arguments, some delta_j > 1/2, or no cap where
            one is needed.
        codec.EmptySet: an update emptied a live set, which the codec
            never does.
    """
    if not 1 <= log2_messages <= 62:
        raise DomainError(f"log2_messages must lie in [1, 62], got {log2_messages}")
    if trials < 1:
        raise DomainError(f"trials must be positive, got {trials}")
    if isinstance(delta, str):
        if delta != "optimal":
            raise DomainError(f"delta must be a vector or 'optimal', got {delta!r}")
        delta = feedback_capacity(epsilon, k).argmax.delta
    params = SchemeParams(epsilon, k, tuple(delta))
    if max_uses is None:
        r = rate(params)
        if r == 0.0 or log2_messages / r > _MAX_EXPECTED_USES:
            raise DomainError(f"rate {r!r} needs more than {_MAX_EXPECTED_USES:.0e} expected uses "
                              f"per trial; set max_uses")
    coder = codec.ArrayCodec(params)
    n = 1 << log2_messages
    uses = np.zeros(trials, dtype=np.int64)
    delivered = np.zeros(trials, dtype=bool)
    hist = np.zeros(k + 2, dtype=np.int64)
    errors = violations = erasures = 0
    for first in range(0, trials, _CHUNK):
        e, v, x = _lockstep(coder, k, n, epsilon, seed, first, min(_CHUNK, trials - first),
                            max_uses, uses, delivered, hist)
        errors, violations, erasures = errors + e, violations + v, erasures + x
    rates = log2_messages / uses[delivered]
    censored = trials - rates.size
    total_uses = int(uses.sum())
    total_bits = float(log2_messages * rates.size)
    names = codec.label_names(k)
    stderr = float(np.std(rates, ddof=1) / math.sqrt(rates.size)) if rates.size >= 2 else 0.0
    return SimReport(
        trials=trials,
        total_uses=total_uses,
        total_bits=total_bits,
        empirical_rate=total_bits / total_uses if total_uses else 0.0,
        mean_trial_rate=float(np.mean(rates)) if rates.size else 0.0,
        stderr_rate=stderr,
        errors=errors,
        violations=violations,
        censored=censored,
        erasures=erasures,
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
