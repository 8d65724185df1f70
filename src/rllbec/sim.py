"""Monte Carlo side: an erasure channel with explicit seeding, a trial
harness for the coding scheme, occupancy statistics for the labeling
rules, and a renewal-cost simulator for the minimum-run-length family.

The trial harness steps every unfinished trial together: one channel
use of all of them is one call of codec.ArrayCodec.step on int64
columns. Trial t draws its message and its erasures from the two
children of numpy's SeedSequence((seed, t)). Those streams are derived
as uint64 columns for a whole chunk of trials, bit for bit as numpy's
SeedSequence and PCG64 give them, and each trial's channel generator
takes one step per use. So a report equals what one transmit_message
per trial over a BecChannel gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import codec
from .capacity import DomainError, SchemeParams, _check_eps, _check_k, feedback_capacity, h2, rate
from .markov import build_labeling_chain, stationary

_CHUNK = 4096  # trials stepped together, which bounds the memory for any count
_MAX_EXPECTED_USES = 1e6  # per trial, for runs without a use cap


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


# numpy's SeedSequence (a pool of four uint32 words, numpy/random/
# bit_generator.pyx) and PCG64 (O'Neill's 128-bit LCG with XSL-RR output)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875   # entropy mixing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED   # state generation
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_LCG_HI, _LCG_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)


def _hasher(const, mult):
    """SeedSequence's hashmix of uint32 columns; its constant steps once per call."""
    def hashmix(w):
        nonlocal const
        w = w ^ const
        const = const * mult & 0xFFFFFFFF
        w = w * const
        return w ^ (w >> 16)
    return hashmix


def _mix(x, y):
    """SeedSequence's mix of a hashed word y into the pool word x."""
    x = x * _MIX_L - y * _MIX_R
    return x ^ (x >> 16)


def _generator(seed: int, t, spawn: int):
    """State of PCG64(SeedSequence((seed, t_i), spawn_key=(spawn,))) for each
    trial index t_i (uint64 column), as the uint64 columns (hi, lo, inc_hi,
    inc_lo) of its 128-bit state and increment.

    The entropy is the uint32 words of seed, then of t_i, low words first
    (one word for 0), zero-padded to four words, then the spawn word; a
    t_i >= 2**32 takes two words, so the rows are grouped by t_i's count.
    """
    hi, lo, inc_hi, inc_lo = (np.empty(t.size, dtype=np.uint64) for _ in range(4))
    seed_words = [seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
    wide = t > 0xFFFFFFFF
    for t_words, rows in ((1, ~wide), (2, wide)):
        if not rows.any():
            continue
        ti = t[rows]
        size = ti.size
        entropy = [np.full(size, w, dtype=np.uint32) for w in seed_words]
        entropy += [(ti >> s & 0xFFFFFFFF).astype(np.uint32) for s in (0, 32)[:t_words]]
        entropy += [np.zeros(size, dtype=np.uint32)] * (4 - len(entropy))
        entropy.append(np.full(size, spawn, dtype=np.uint32))
        hashmix = _hasher(_INIT_A, _MULT_A)
        pool = [hashmix(w) for w in entropy[:4]]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for w in entropy[4:]:
            for dst in range(4):
                pool[dst] = _mix(pool[dst], hashmix(w))
        # generate_state(4, np.uint64): eight words cycling over the pool,
        # paired low word first
        hashmix = _hasher(_INIT_B, _MULT_B)
        words = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
        s_hi, s_lo, q_hi, q_lo = (words[i] | words[i + 1] << 32 for i in range(0, 8, 2))
        # seeding: inc = 2 * (q_hi, q_lo) + 1, and from state 0 one step,
        # adding (s_hi, s_lo), then one more step
        c_hi, c_lo = q_hi << 1 | q_lo >> 63, q_lo << 1 | 1
        x_lo = c_lo + s_lo
        x_hi, x_lo = _step(c_hi + s_hi + (x_lo < s_lo), x_lo, c_hi, c_lo)
        hi[rows], lo[rows], inc_hi[rows], inc_lo[rows] = x_hi, x_lo, c_hi, c_lo
    return hi, lo, inc_hi, inc_lo


def _step(hi, lo, inc_hi, inc_lo):
    """One step of the 128-bit LCGs: state * multiplier + inc, on uint64 halves."""
    p_hi, p_lo = codec.mul128(lo, _LCG_LO)
    p_hi = p_hi + lo * _LCG_HI + hi * _LCG_LO
    lo = p_lo + inc_lo
    return p_hi + inc_hi + (lo < inc_lo), lo


def _next_raw(hi, lo, inc_hi, inc_lo):
    """Each generator's next random_raw() output: step, then XSL-RR (the
    xor of the state's halves, rotated right by its top six bits).

    Returns:
        (hi, lo, raw): the new state halves and the outputs.
    """
    hi, lo = _step(hi, lo, inc_hi, inc_lo)
    x = hi ^ lo
    r = hi >> 58
    return hi, lo, x >> r | x << ((64 - r) & 63)


def _message(raw, log2_messages: int):
    """integers(2**log2_messages) of a Generator whose next output is raw:
    Lemire's bounded draw, which for a power of two keeps the top bits of
    the 64-bit output, or of its low 32-bit half below 33 bits."""
    if log2_messages > 32:
        return (raw >> (64 - log2_messages)).astype(np.int64)
    return ((raw & 0xFFFFFFFF) >> (32 - log2_messages)).astype(np.int64)


def _erased(raw, epsilon: float):
    """Generator.random() < epsilon for the draw of each raw output, as
    BecChannel erases: random() is (raw >> 11) * 2**-53."""
    return (raw >> 11) * 2.0 ** -53 < epsilon


def _lockstep(coder, k, log2_messages, epsilon, seed, first, count, max_uses,
              uses, delivered, hist):
    """Run trials first, ..., first + count - 1 to their ends, all at once.

    Each pass of the loop is one channel use of every unfinished trial,
    and one draw of each one's channel generator. Writes each trial's
    uses, and whether it decoded before the cap, into `uses` and
    `delivered`; adds the uses under each rule to `hist`.

    Returns:
        (errors, violations, erasures) among these trials.
    """
    t = np.arange(first, first + count, dtype=np.uint64)
    m = _message(_next_raw(*_generator(seed, t, 0))[2], log2_messages)
    g_hi, g_lo, inc_hi, inc_lo = _generator(seed, t, 1)
    row = np.arange(count)
    lo = np.zeros(count, dtype=np.int64)
    hi = np.full(count, 1 << log2_messages, dtype=np.int64)
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
        g_hi, g_lo, raw = _next_raw(g_hi, g_lo, inc_hi, inc_lo)
        e = _erased(raw, epsilon)
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
            row, m, lo, hi, label, run, bad, g_hi, g_lo, inc_hi, inc_lo = (
                v[live] for v in (row, m, lo, hi, label, run, bad, g_hi, g_lo, inc_hi, inc_lo))
    return errors, violations, n_erased


def run_feedback_sim(k: int, epsilon: float, log2_messages: int, trials: int,
                     delta="optimal", seed: int = 0,
                     max_uses: int | None = None) -> SimReport:
    """Transmit `trials` uniformly drawn messages over fresh channels.

    All unfinished trials advance together, one channel use per step.
    The engine checks the (0,k) constraint on the bits sent, counts the
    uses under each rule and the erased uses, and compares each decoded
    message with the sent one as the trial ends. Trial t's message is
    default_rng(s0).integers(2**log2_messages), and its erasures are the
    decisions of BecChannel(epsilon, s1), where s0 and s1 are the two
    children of SeedSequence((seed, t)). The engine derives those streams
    itself, equal to numpy's, so the report equals what transmit_message
    over such a BecChannel gives, trial by trial.

    Args:
        delta: explicit parameter vector, or "optimal" to use the
            capacity-achieving one.
        seed: root seed, a non-negative int; each trial derives its own
            independent message and channel streams from (seed, trial
            index), so reports are reproducible and order-independent.
        max_uses: optional per-trial cap, a non-negative int; 0 ends
            every trial before its first use. Without one, the scheme's
            rate must promise at most 1e6 expected uses per trial; a zero
            rate (epsilon = 1, or delta_0 = 0 without erasures) never would.

    Raises:
        DomainError: bad arguments (a seed or max_uses that is not a
            non-negative int among them), some delta_j > 1/2, or no cap
            where one is needed.
        codec.EmptySet: an update emptied a live set, which the codec
            never does.
    """
    _check_k(log2_messages, "log2_messages")
    _check_k(trials, "trials")
    log2_messages, trials = int(log2_messages), int(trials)
    if log2_messages > 62:
        raise DomainError(f"log2_messages must lie in [1, 62], got {log2_messages}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError(f"seed must be a non-negative int, got {seed!r}")
    seed = int(seed)
    if max_uses is not None and (not isinstance(max_uses, (int, np.integer)) or max_uses < 0):
        raise DomainError(f"max_uses must be a non-negative int, got {max_uses!r}")
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
    _check_eps(epsilon)
    if epsilon == 1.0:
        raise DomainError(f"need erasure probability in [0, 1), got {epsilon!r}")
    if not 0.0 <= delta <= 0.5:
        raise DomainError(f"need delta in [0, 1/2], got {delta!r}")
    _check_k(d, "d")
    _check_k(horizon_symbols, "horizon_symbols")
    horizon_symbols = int(horizon_symbols)
    rng = np.random.default_rng(seed)
    waits = rng.geometric(1.0 - epsilon, size=horizon_symbols)
    ones = rng.random(horizon_symbols) < delta
    total_uses = int(waits.sum() + d * ones.sum())
    return h2(delta) * horizon_symbols / total_uses
