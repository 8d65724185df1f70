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

ArrayCodec applies the same rules to many sessions at once, one channel
use per call, on int64 arrays; the scalar functions are its
specification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .capacity import DomainError, SchemeParams

TILDE0 = 0
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


@dataclass(frozen=True)
class MessageInterval:
    """Contiguous integer range [lo, hi) of still-possible messages."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo >= self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi})")

    @property
    def size(self) -> int:
        return self.hi - self.lo

    def __contains__(self, m) -> bool:
        return self.lo <= m < self.hi


def partition(label: int, live_size: int, params: SchemeParams):
    """Size and placement of the '0' block for a rule and live size.

    The size is floor(delta_j * live_size) in exact integer arithmetic,
    so it stays right for live sizes beyond float precision (2**53).

    Returns:
        (zero_count, side) with side 'prefix' or 'suffix'. L(k) always
        returns (0, 'prefix'): its input is forced to '1'.
    """
    if live_size < 1:
        raise ValueError(f"live_size must be positive, got {live_size}")
    k = params.k
    if not 0 <= label <= k + 1:
        raise ValueError(f"label {label} out of range for k={k}")
    if label == label_of(k):
        return 0, "prefix"
    p, q = params.delta_ratios[delta_index(label)]
    zc = p * live_size // q
    if zc == 0 and live_size >= 2:
        # an empty block stalls the session once the posterior is tight;
        # one message is safe: 1 + floor(a/2) <= a and 2*1 <= a for a >= 2
        zc = 1
    return zc, ("suffix" if label == TILDE0 else "prefix")


def input_bit(session: "SchemeSession", m: int) -> int:
    """Bit that message m transmits under the session's current rule."""
    if m not in session.live:
        raise MessageOutsideLiveSet(f"message {m} not in {session.live}")
    zc, side = partition(session.label, session.live.size, session.params)
    if side == "prefix":
        return 0 if m < session.live.lo + zc else 1
    return 0 if m >= session.live.hi - zc else 1


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


def update_live(live: MessageInterval, label: int, y, params: SchemeParams) -> MessageInterval:
    """Shrink the live interval to the block matching output y.

    An erasure (y = None) leaves the interval unchanged. Raises
    EmptySet if the matching block is empty, which cannot happen for
    outputs actually produced by a live message.
    """
    if y is None:
        return live
    zc, side = partition(label, live.size, params)
    if side == "prefix":
        zl, zh = live.lo, live.lo + zc
    else:
        zl, zh = live.hi - zc, live.hi
    if y == 0:
        nl, nh = zl, zh
    elif y == 1:
        nl, nh = (live.lo + zc, live.hi) if side == "prefix" else (live.lo, live.hi - zc)
    else:
        raise ValueError(f"output must be 0, 1, or None, got {y!r}")
    if nl >= nh:
        raise EmptySet(f"output {y} under label {label} empties {live}")
    return MessageInterval(nl, nh)


def _check_safe(params: SchemeParams):
    if any(d > 0.5 for d in params.delta):
        raise DomainError(f"constraint safety needs every delta <= 1/2, got {params.delta}")


@dataclass
class SchemeSession:
    """Mutable state of one transmission: parameters, rule, live interval.

    Single-threaded by design; independent sessions may run in parallel.
    """

    params: SchemeParams
    label: int
    live: MessageInterval
    uses: int = 0

    @classmethod
    def start(cls, params: SchemeParams, n_messages: int) -> "SchemeSession":
        if n_messages < 2:
            raise ValueError(f"need at least 2 messages, got {n_messages}")
        return cls(params=params, label=label_of(0), live=MessageInterval(0, n_messages))


def transmit_message(m: int, n_messages: int, params: SchemeParams, channel,
                     max_uses: int | None = None, transcript: list | None = None):
    """Run one full transmission of message m out of n_messages.

    Args:
        channel: callable bit -> output (0, 1, or None for erasure).
        max_uses: optional cap on channel uses.
        transcript: optional list collecting (x, y) pairs per use.

    Returns:
        (m_hat, uses, x_seq): the decoded message (always equal to m),
        the number of channel uses, and the transmitted bit sequence.

    Raises:
        MessageOutsideLiveSet: m outside [0, n_messages).
        UseBudgetExceeded: max_uses hit before the interval is a singleton.
        DomainError: some delta_j > 1/2, which would let the '0' blocks
            of L(j) and Tilde0 overlap.
    """
    session = SchemeSession.start(params, n_messages)
    if m not in session.live:
        raise MessageOutsideLiveSet(f"message {m} not in [0, {n_messages})")
    _check_safe(params)
    x_seq = []
    while session.live.size > 1:
        if max_uses is not None and session.uses >= max_uses:
            raise UseBudgetExceeded(f"live size still {session.live.size} after {max_uses} uses")
        x = input_bit(session, m)
        y = channel(x)
        session.uses += 1
        x_seq.append(x)
        if transcript is not None:
            transcript.append((x, y))
        session.live = update_live(session.live, session.label, y, session.params)
        session.label = next_label(session.label, y, session.params.k)
    return session.live.lo, session.uses, x_seq


def mul128(a, b):
    """Full 128-bit product of uint64 arrays a and b, as the pair (high, low)
    of uint64 words, built from 32-bit halves so no partial product wraps."""
    a_lo, a_hi = a & _LOW32, a >> 32
    b_lo, b_hi = b & _LOW32, b >> 32
    t = a_hi * b_lo + ((a_lo * b_lo) >> 32)  # at most (2**32 - 1) * 2**32
    u = (t & _LOW32) + a_lo * b_hi           # likewise
    return a_hi * b_hi + (t >> 32) + (u >> 32), a * b


class ArrayCodec:
    """One channel use of many sessions at once, on int64 arrays.

    step() is the elementwise image of one pass through the loop of
    transmit_message (input_bit, update_live, next_label), and
    zero_counts() that of partition's count; the scalar functions stay
    the specification. Live sizes lie below 2**63, and the '0' block
    size floor(delta_j * a) is exact there: a float delta_j is p / 2**e
    with p < 2**53, so the size is the 128-bit product p * a (mul128)
    shifted right by e.

    Raises:
        DomainError: some delta_j > 1/2, as transmit_message does.
    """

    def __init__(self, params: SchemeParams):
        _check_safe(params)
        k = params.k
        p = np.zeros(k + 2, dtype=np.uint64)
        e = np.zeros(k + 2, dtype=np.uint64)
        for label in range(k + 2):
            if label != label_of(k):  # L(k) keeps an empty '0' block
                num, den = params.delta_ratios[delta_index(label)]
                # a product below 2**116 shifted by 127 is 0, as by any e above
                p[label], e[label] = num, min(den.bit_length() - 1, 127)
        self._p, self._e = p, e
        self._bump = np.arange(k + 2) != label_of(k)
        # next_label by (rule, output), output 2 standing for an erasure
        self._next = np.array([[next_label(lab, y, k) for y in (0, 1, None)]
                               for lab in range(k + 2)], dtype=np.int64)

    def zero_counts(self, labels, sizes):
        """partition(label, size, params)[0] of each (label, size) pair."""
        e = self._e[labels]
        hi64, lo64 = mul128(sizes.astype(np.uint64), self._p[labels])
        s = e & 63
        # (hi64 << 1) << (63 - s) is hi64 << (64 - s), and 0 at s = 0
        zc = np.where(e < 64, (lo64 >> s) | ((hi64 << 1) << (63 - s)), hi64 >> s).astype(np.int64)
        zc[(zc == 0) & (sizes >= 2) & self._bump[labels]] = 1  # the one-message bump
        return zc

    def step(self, labels, lo, hi, m, erased):
        """One channel use of every session; erased masks the erased outputs.

        Returns:
            (x, labels, lo, hi): the bits sent, then each session's rule
            and live interval after the use.

        Raises:
            EmptySet: as update_live, which outputs of live messages never do.
        """
        zc = self.zero_counts(labels, hi - lo)
        # partition cuts [lo, hi) at c: the '0' block is the prefix [lo, c),
        # or the suffix [c, hi) under Tilde0
        suffix = labels == TILDE0
        c = np.where(suffix, hi - zc, lo + zc)
        upper = m >= c
        x = (upper != suffix).astype(np.int64)
        # a delivered bit keeps its block, which is the one holding m
        delivered = ~erased
        lo = np.where(delivered & upper, c, lo)
        hi = np.where(delivered & ~upper, c, hi)
        empty = lo >= hi
        if empty.any():
            raise EmptySet(f"an output empties {np.count_nonzero(empty)} live sets")
        return x, self._next[labels, np.where(erased, 2, x)], lo, hi
