"""Run-length limited binary constraints as finite walks.

A (d, k)-RLL sequence keeps every run of consecutive '0's between two
'1's at least d long and never longer than k. The walk state is the
number of '0's seen since the most recent '1', capped at the largest
count that still matters: k when k is finite, d otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["INF", "IllegalEdge", "RllConstraint", "first_violation", "initial_state",
           "next_state", "validate_sequence"]

INF = math.inf


class IllegalEdge(ValueError):
    """A symbol that the constraint forbids from the current state."""


@dataclass(frozen=True)
class RllConstraint:
    """Bounds on the zero-runs of a binary sequence.

    Args:
        d: minimum number of '0's after every '1' (0 disables the bound).
        k: maximum run of consecutive '0's (math.inf disables the bound).
    """

    d: int
    k: float

    def __post_init__(self):
        if self.d < 0 or int(self.d) != self.d:
            raise ValueError(f"d must be a nonnegative integer, got {self.d!r}")
        if self.k != INF and (self.k < 1 or int(self.k) != self.k):
            raise ValueError(f"k must be a positive integer or inf, got {self.k!r}")
        if self.k != INF and self.d >= self.k:
            # d == k would force a single periodic sequence; the walk below
            # assumes at least one state with a genuine choice.
            raise ValueError(f"need d < k, got d={self.d}, k={self.k}")

    @property
    def num_states(self) -> int:
        cap = self.k if self.k != INF else self.d
        return int(cap) + 1


def initial_state(c: RllConstraint) -> int:
    """State of a fresh sequence: the last '1' sits d steps in the past.

    For d = 0 this is the usual convention of a virtual '1' just before
    the sequence starts; for d > 0 it means the minimum run is already
    paid off, so a leading '1' is legal.
    """
    return min(c.d, c.num_states - 1)


def next_state(c: RllConstraint, s: int, x: int) -> int:
    """Advance the walk by one symbol.

    Raises:
        IllegalEdge: x is not allowed at state s.
        ValueError: x is not a bit or s is out of range.
    """
    if not 0 <= s < c.num_states:
        raise ValueError(f"state {s} out of range for {c}")
    if x == 0:
        if s >= c.k:
            raise IllegalEdge(f"'0' after a run of {s} zeros exceeds k={c.k}")
        return min(s + 1, c.num_states - 1)
    if x == 1:
        if s < c.d:
            raise IllegalEdge(f"'1' after only {s} zeros violates d={c.d}")
        return 0
    raise ValueError(f"symbol must be 0 or 1, got {x!r}")


def first_violation(c: RllConstraint, bits) -> int | None:
    """1-based position of the first symbol breaking the constraint, or None."""
    s = initial_state(c)
    for i, b in enumerate(bits, start=1):
        try:
            s = next_state(c, s, b)
        except IllegalEdge:
            return i
    return None


def validate_sequence(c: RllConstraint, bits) -> bool:
    """True iff every prefix of the sequence is admissible."""
    return first_violation(c, bits) is None

