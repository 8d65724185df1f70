"""Zero-error variable-length coding over the erasure channel with a cap
of k consecutive '0's.

The transmitter keeps a live interval of still-possible messages and a
labeling rule. Each rule splits the live interval into a '0' block and
a '1' block; the channel output (fed back, so both ends see it) shrinks
the interval to the matching block and drives the rule forward:

    L(j), j < k: the '0' block is a prefix, sized by delta_j
    L(k):        the '0' block is empty, every message sends '1'
    Tilde0:      used right after an erasure; the '0' block is a suffix
                 sized by delta_0, which keeps it disjoint from L(j)'s
                 prefix so the pre-erasure bit never conflicts

Because the receiver sees the same outputs, no separate decoder state
exists: the transmission ends when the live interval is a singleton,
and that singleton is the message. No output sequence can make a live
message emit more than k '0's in a row, so the constraint holds no
matter what the channel does.

The scalar functions are the specification: a session is a rule and the
live set's integer bounds lo < hi, split at _cut's c. ArrayCodec holds
the same state and cut for many sessions at once, on int64 arrays.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .capacity import DomainError, SchemeParams, rate

__all__ = ["TILDE0", "ArrayCodec", "EmptySet", "MessageOutsideLiveSet", "UseBudgetExceeded",
           "input_bit", "label_names", "label_of", "next_label", "partition", "transmit_message",
           "update_live"]

TILDE0 = 0
_MAX_EXPECTED_USES = 1e6  # per transmission, for one without a use cap
_CAP_PER_EXPECTED_USE = 1000  # transmit_message's default cap, in expected uses
_LOW32 = np.uint64(0xFFFFFFFF)


class MessageOutsideLiveSet(RuntimeError):
    """The requested message is not in the current live interval."""


class EmptySet(RuntimeError):
    """An update would leave no live messages (inconsistent output)."""


class UseBudgetExceeded(RuntimeError):
    """The session hit its channel-use cap before finishing."""


def label_of(j: int) -> int:
    """Index of rule L(j); TILDE0 (= 0) is the post-erasure rule."""
    return j + 1


def delta_index(label: int) -> int:
    """Which delta parameter a rule reads: j for L(j), 0 for Tilde0."""
    return 0 if label == TILDE0 else label - 1


def label_names(k: int) -> list[str]:
    """Printable names in chain order: ['~l0', 'l0', ..., 'lk']."""
    return ["~l0"] + [f"l{j}" for j in range(k + 1)]


def partition(label: int, live_size: int, params: SchemeParams) -> int:
    """Size of the '0' block for a rule and live size.

    The size is floor(delta_j * live_size) in exact integer arithmetic,
    so it stays right for live sizes beyond float precision (2**53).
    The block is a suffix of the live set under Tilde0 and a prefix
    under every L(j); L(k) returns 0, as its input is forced to '1'.
    """
    live_size = operator.index(live_size)
    if live_size < 1:
        raise ValueError(f"live_size must be positive, got {live_size}")
    k = params.k
    if not 0 <= label <= k + 1:
        raise ValueError(f"label {label} out of range for k={k}")
    if label == label_of(k):
        return 0
    p, q = params.delta[delta_index(label)].as_integer_ratio()
    zc = p * live_size // q
    if zc == 0 and live_size >= 2:
        # an empty block stalls the session once the posterior is tight;
        # one message is safe: 1 + floor(a/2) <= a and 2*1 <= a for a >= 2
        zc = 1
    return zc


def _cut(label: int, lo: int, hi: int, params: SchemeParams) -> int:
    """Cut c of the live set [lo, hi): the '0' block is [lo, c), or [c, hi) under Tilde0."""
    zc = partition(label, hi - lo, params)
    return hi - zc if label == TILDE0 else lo + zc


def input_bit(label: int, lo: int, hi: int, m: int, params: SchemeParams) -> int:
    """Bit that message m transmits under the rule, with live set [lo, hi)."""
    if not lo <= m < hi:
        raise MessageOutsideLiveSet(f"message {m} not in [{lo}, {hi})")
    return int((m >= _cut(label, lo, hi, params)) != (label == TILDE0))


def next_label(label: int, y, k: int) -> int:
    """Rule transition driven by one channel output.

    y is 0, 1, or None for an erasure. Any output from L(k) resets to
    L(0); a '1' resets to L(0); an erasure at Tilde0 also resets
    (the pre-erasure bit is already re-resolved); any other erasure
    parks at Tilde0; a '0' advances the run index.
    """
    if label == label_of(k) or y == 1 or (y is None and label == TILDE0):
        return label_of(0)
    if y is None:
        return TILDE0
    if y == 0:
        return label_of(delta_index(label) + 1)
    raise ValueError(f"output must be 0, 1, or None, got {y!r}")


def update_live(label: int, lo: int, hi: int, y, params: SchemeParams) -> tuple[int, int]:
    """Bounds (lo, hi) of the live set after output y: the block that sent y.

    An erasure (y = None) leaves them unchanged. Raises EmptySet if the
    matching block is empty, which cannot happen for outputs actually
    produced by a live message.
    """
    if y is None:
        return lo, hi
    if y not in (0, 1):
        raise ValueError(f"output must be 0, 1, or None, got {y!r}")
    c = _cut(label, lo, hi, params)
    if (y == 1) != (label == TILDE0):  # the block above the cut sent y
        lo = c
    else:
        hi = c
    if lo >= hi:
        raise EmptySet(f"output {y} under label {label} leaves no live message")
    return lo, hi


def _check_safe(params: SchemeParams):
    if any(d > 0.5 for d in params.delta):
        raise DomainError(f"constraint safety needs every delta <= 1/2, got {params.delta}")


def _check_use_bound(params: SchemeParams, log2_messages: float, max_uses) -> int:
    """The use cap of every session, in transmit_message and in each trial
    of sim.run_feedback_sim: max_uses, which must be a non-negative int, or
    without one 1000 * ceil(log2_messages / rate), 1000 times the expected
    uses, which needs a rate promising at most 1e6 of them; a zero rate
    (epsilon = 1, or delta_0 = 0 without erasures) never would. params is
    read only without max_uses."""
    if max_uses is not None:
        if not isinstance(max_uses, (int, np.integer)) or max_uses < 0:
            raise DomainError(f"max_uses must be a non-negative int, got {max_uses!r}")
        return int(max_uses)
    r = rate(params)
    if r == 0.0 or log2_messages / r > _MAX_EXPECTED_USES:
        raise DomainError(f"rate {r!r} needs more than {_MAX_EXPECTED_USES:.0e} expected uses "
                          f"per transmission; set max_uses")
    return _CAP_PER_EXPECTED_USE * math.ceil(log2_messages / r)


def transmit_message(m: int, n_messages: int, params: SchemeParams, channel,
                     max_uses: int | None = None):
    """Run one full transmission of message m out of n_messages.

    Args:
        channel: callable bit -> output (0, 1, or None for erasure); it
            sees every use's (x, y), so a wrapping channel can record them.
        max_uses: optional cap on channel uses. Without one, the rate
            must promise at most 1e6 expected uses over a uniformly drawn
            message, and the cap is 1000 times that expectation,
            1000 * ceil(log2(n_messages) / rate(params)), where a channel
            that erases every use ends. A given m, such as n_messages - 1
            under a small delta_0, can take several times the expectation.

    Returns:
        (m_hat, uses, x_seq): the decoded message (always equal to m),
        the number of channel uses, and the transmitted bit sequence.

    Raises:
        ValueError: fewer than 2 messages.
        MessageOutsideLiveSet: m outside [0, n_messages).
        UseBudgetExceeded: the cap hit before the interval is a singleton.
        DomainError: some delta_j > 1/2, which would let the '0' blocks
            of L(j) and Tilde0 overlap, or a bad or missing cap (_check_use_bound).
        TypeError: m or n_messages is not an int (numpy integers are).
    """
    m, n_messages = operator.index(m), operator.index(n_messages)
    if n_messages < 2:
        raise ValueError(f"need at least 2 messages, got {n_messages}")
    if not 0 <= m < n_messages:
        raise MessageOutsideLiveSet(f"message {m} not in [0, {n_messages})")
    _check_safe(params)
    max_uses = _check_use_bound(params, math.log2(n_messages), max_uses)
    label, lo, hi, x_seq = label_of(0), 0, n_messages, []
    while hi - lo > 1:
        if len(x_seq) >= max_uses:
            raise UseBudgetExceeded(f"live size still {hi - lo} after {max_uses} uses")
        x = input_bit(label, lo, hi, m, params)
        y = channel(x)
        x_seq.append(x)
        lo, hi = update_live(label, lo, hi, y, params)
        label = next_label(label, y, params.k)
    return lo, len(x_seq), x_seq


def mulhi(a, b_lo, b_hi):
    """High uint64 word of the 128-bit product of uint64 arrays a and b, with
    b given as its 32-bit halves, so no partial product wraps."""
    a_lo, a_hi = a & _LOW32, a >> 32
    t = a_hi * b_lo + ((a_lo * b_lo) >> 32)  # at most (2**32 - 1) * 2**32
    u = (t & _LOW32) + a_lo * b_hi           # likewise
    return a_hi * b_hi + (t >> 32) + (u >> 32)


class ArrayCodec:
    """One channel use of many sessions at once, on int64 arrays.

    step() is the elementwise image of one pass through the loop of
    transmit_message: it holds the same state (rule, lo, hi), cuts at
    _cut's c, then applies input_bit, update_live and next_label; and
    zero_counts() is that of partition. The scalar functions stay the
    specification. Live sizes lie below 2**63, and the '0' block size
    floor(delta_j * a) is exact there: np.frexp writes a float delta_j <=
    1/2 as p / 2**e with p < 2**53 and e >= 53, so b = p << max(64 - e, 0)
    lies below 2**64, and the size is the high word of b * a (mulhi),
    shifted right by max(e - 64, 0). The tables are a few numpy
    expressions over the rule index, with no loop over the rules.

    Raises:
        DomainError: some delta_j > 1/2, as transmit_message does.
    """

    def __init__(self, params: SchemeParams):
        _check_safe(params)
        k = params.k
        rule = np.arange(k + 2)
        # delta_index of each rule; L(k), whose '0' block stays empty, reads 0
        mant, expo = np.frexp(np.array((params.delta[0],) + params.delta + (0.0,)))
        # delta_j = p / 2**e with p = mant * 2**53 < 2**53 and e >= 53; p * a < 2**116,
        # so e >= 116 gives 0, and e <= 127 keeps the shift below 64
        e = np.minimum(53 - expo, 127).astype(np.uint64)
        b = (mant * 2.0 ** 53).astype(np.uint64) << (64 - np.minimum(e, 64))
        self._mul = np.array([b & _LOW32, b >> 32, e - np.minimum(e, 64)])  # b's halves, shift
        self._bump = rule != label_of(k)
        # next_label at 3 * rule + output, output 2 standing for an erasure
        nxt = np.stack([np.maximum(rule, label_of(0)) + 1, np.full(k + 2, label_of(0)),
                        np.where(rule == TILDE0, label_of(0), TILDE0)], axis=1)
        nxt[label_of(k)] = label_of(0)
        self._next = nxt.ravel()

    def zero_counts(self, labels, sizes):
        """partition(label, size, params) of each (label, size) pair."""
        b_lo, b_hi, shift = self._mul.take(labels, axis=1)
        zc = (mulhi(sizes.astype(np.uint64), b_lo, b_hi) >> shift).astype(np.int64)
        return np.maximum(zc, self._bump[labels] & (sizes >= 2))  # the one-message bump

    def step(self, labels, lo, hi, m, erased):
        """One channel use of every session; erased masks the erased outputs.

        Returns:
            (x, labels, lo, hi): the bits sent, then each session's rule
            and live interval after the use.

        Raises:
            EmptySet: as update_live, which outputs of live messages never do.
        """
        zc = self.zero_counts(labels, hi - lo)
        # _cut: the '0' block is [lo, c), or [c, hi) under Tilde0
        suffix = labels == TILDE0
        c = np.where(suffix, hi - zc, lo + zc)
        upper = m >= c
        x = (upper != suffix).astype(np.int64)
        # a delivered bit keeps its block, which is the one holding m
        delivered = ~erased
        lo = np.where(delivered & upper, c, lo)
        hi = np.where(delivered & ~upper, c, hi)
        empty = lo >= hi
        if np.count_nonzero(empty):
            raise EmptySet(f"an output empties {np.count_nonzero(empty)} live sets")
        return x, self._next.take(3 * labels + np.where(erased, 2, x)), lo, hi
