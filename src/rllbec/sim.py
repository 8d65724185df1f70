"""Monte Carlo side: an erasure channel with explicit seeding, a trial
harness for the coding scheme, and occupancy statistics for the labeling
rules.

The trial harness steps every unfinished trial together: one channel
use of all of them is one call of codec.ArrayCodec.step on int64
columns. Trial t draws its message and then one erasure decision per
use from its own SplitMix64 stream, which depends on (seed, t) alone;
the streams of a chunk of trials are one uint64 column. Each trial runs
to transmit_message's cap, so a report equals what one transmit_message
per trial, over a channel that replays the trial's stream, gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import codec
from .capacity import DomainError, SchemeParams, _check_eps, _check_k, feedback_capacity
from .markov import stationary

__all__ = ["BecChannel", "SimReport", "label_occupancy_check", "run_feedback_sim"]

_CHUNK = 4096  # trials stepped together, which bounds the memory for any count


class BecChannel:
    """Erasure channel: delivers x with probability 1-eps, else None.

    The seed fully determines the erasure sequence; each step consumes
    exactly one draw from the generator, so runs are reproducible and
    interleavable by construction.
    """

    def __init__(self, epsilon: float, seed):
        _check_eps(epsilon)
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


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the state steps by the odd
# constant gamma, about 2**64 / golden ratio, and each output is a
# bijective mix of the new state
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MUL_A, _MUL_B = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def _draw(state):
    """Step each SplitMix64 state of a uint64 array in place, and return the
    mix of each new state: its next output."""
    state += _GAMMA
    z = state ^ state >> 30
    z *= _MUL_A
    z ^= z >> 27
    z *= _MUL_B
    z ^= z >> 31
    return z


def _streams(seed: int, t, log2_messages: int):
    """Each trial t_i's stream (uint64 column t) after its first draw, and its
    message: the top log2_messages bits of that draw.

    The seed's 64-bit words, low first (one word for 0), fold into a key,
    each one as the draw from the state key ^ word, starting from key 0.
    Trial t_i's stream starts at draw t_i + 1 from the state key, so it
    depends on (seed, t_i) alone, and distinct trials start at distinct
    states.

    Returns:
        (m, state): int64 messages and the uint64 states.
    """
    key = np.zeros(1, dtype=np.uint64)  # an array: uint64 scalars warn as they wrap
    for s in range(0, max(seed.bit_length(), 1), 64):
        key = _draw(key ^ (seed >> s & 0xFFFFFFFFFFFFFFFF))
    state = _draw(key + t * _GAMMA)
    return (_draw(state) >> (64 - log2_messages)).astype(np.int64), state


def _threshold(epsilon: float):
    """ceil(epsilon * 2**53) as a uint64: _erased's threshold for epsilon."""
    return np.uint64(math.ceil(epsilon * 2.0 ** 53))


def _erased(raw, threshold):
    """random() < epsilon for each 64-bit draw raw, where random() is
    (raw >> 11) * 2**-53, as numpy's and BecChannel's: so raw >> 11 <
    ceil(epsilon * 2**53) = threshold exactly."""
    return raw >> 11 < threshold


def _lockstep(coder, k, log2_messages, epsilon, seed, first, count, max_uses,
              uses, delivered, hist):
    """Run trials first, ..., first + count - 1 to their ends, all at once.

    Each pass of the loop is one channel use of every unfinished trial,
    and one draw of each one's stream (_streams), which _erased turns
    into its erasure decision. Writes each trial's uses, and whether it
    decoded before the cap, into `uses` and `delivered`; adds the uses
    under each rule to `hist`.

    Returns:
        (errors, violations, erasures) among these trials.
    """
    m, state = _streams(seed, np.arange(first, first + count, dtype=np.uint64), log2_messages)
    row = np.arange(count)
    lo = np.zeros(count, dtype=np.int64)
    hi = np.full(count, 1 << log2_messages, dtype=np.int64)
    label = np.full(count, codec.label_of(0), dtype=np.int64)
    run = np.zeros(count, dtype=np.int64)  # trailing '0's sent
    bad = np.zeros(count, dtype=bool)      # broke the (0,k) constraint
    errors = violations = n_erased = 0
    step, threshold = 0, _threshold(epsilon)
    while row.size:
        if step >= max_uses:
            uses[first + row] = step
            violations += int(np.count_nonzero(bad))
            break
        e = _erased(_draw(state), threshold)
        n_erased += int(np.count_nonzero(e))
        hist += np.bincount(label, minlength=hist.size)
        x, label, lo, hi = coder.step(label, lo, hi, m, e)
        run = (run + 1) * (1 - x)
        bad |= run > k
        step += 1
        done = hi - lo == 1
        if np.count_nonzero(done):
            ended = first + row[done]
            uses[ended] = step
            delivered[ended] = True
            errors += int(np.count_nonzero(lo[done] != m[done]))
            violations += int(np.count_nonzero(bad[done]))
            live = ~done
            row, m, lo, hi, label, run, bad, state = (
                v[live] for v in (row, m, lo, hi, label, run, bad, state))
    return errors, violations, n_erased


def run_feedback_sim(k: int, epsilon: float, log2_messages: int, trials: int,
                     delta="optimal", seed: int = 0,
                     max_uses: int | None = None) -> SimReport:
    """Transmit `trials` uniformly drawn messages over fresh channels.

    All unfinished trials advance together, one channel use per step.
    The engine checks the (0,k) constraint on the bits sent, counts the
    uses under each rule and the erased uses, and compares each decoded
    message with the sent one as the trial ends. Trial t's message is the
    top log2_messages bits of the first draw of its SplitMix64 stream,
    and use i is erased when draw i + 1, as a uniform random() in [0, 1)
    with 53 bits, lies below epsilon. The stream depends on (seed, t)
    alone, and the cap is transmit_message's: the report is what it gives
    over a channel making those decisions, trial by trial.

    Args:
        delta: explicit parameter vector, or "optimal" to use the
            capacity-achieving one.
        seed: root seed, a non-negative int; each trial derives its own
            stream from (seed, trial index), so reports are reproducible
            and order-independent.
        max_uses: optional per-trial cap, a non-negative int; 0 ends
            every trial before its first use. Without one, the cap is
            transmit_message's (codec._check_use_bound), which needs a
            rate promising at most 1e6 expected uses per trial.

    Raises:
        DomainError: bad arguments (a seed or max_uses that is not a
            non-negative int among them), some delta_j > 1/2, or no cap
            where one is needed.
        codec.EmptySet: an update emptied a live set, which the codec
            never does.
    """
    log2_messages, trials = _check_k(log2_messages, "log2_messages"), _check_k(trials, "trials")
    if log2_messages > 62:
        raise DomainError(f"log2_messages must lie in [1, 62], got {log2_messages}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError(f"seed must be a non-negative int, got {seed!r}")
    seed = int(seed)
    if max_uses is not None:  # a bad cap fails before the "optimal" solve
        max_uses = codec._check_use_bound(None, log2_messages, max_uses)
    if isinstance(delta, str):
        if delta != "optimal":
            raise DomainError(f"delta must be a vector or 'optimal', got {delta!r}")
        delta = feedback_capacity(epsilon, k).argmax.delta
    params = SchemeParams(epsilon, k, tuple(delta))
    k = params.k
    max_uses = codec._check_use_bound(params, log2_messages, max_uses)
    coder = codec.ArrayCodec(params)
    uses = np.zeros(trials, dtype=np.int64)
    delivered = np.zeros(trials, dtype=bool)
    hist = np.zeros(k + 2, dtype=np.int64)
    errors = violations = erasures = 0
    for first in range(0, trials, _CHUNK):
        e, v, x = _lockstep(coder, k, log2_messages, epsilon, seed, first,
                            min(_CHUNK, trials - first), max_uses, uses, delivered, hist)
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
    chain, which is unique: every rule leads back to L(0).
    """
    delta = tuple(float(d) for d in delta)
    k = len(delta)
    names = codec.label_names(k)
    if set(report.label_histogram) != set(names):
        raise ValueError("report histogram does not match this k")
    pi = stationary(epsilon, delta)
    total = sum(report.label_histogram.values())
    if total == 0:
        raise ValueError("report contains no channel uses")
    freq = np.array([report.label_histogram[nm] / total for nm in names])
    return float(np.max(np.abs(freq - pi)))

