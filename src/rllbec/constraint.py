"""Run-length limited binary constraints and a one-pass check.

A (d, k)-RLL sequence keeps every run of consecutive '0's between two
'1's at least d long and never longer than k. first_violation scans a
sequence once, counting the '0's since the most recent '1'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["INF", "RllConstraint", "first_violation"]

INF = math.inf


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
            # d == k would force a single periodic sequence
            raise ValueError(f"need d < k, got d={self.d}, k={self.k}")


def first_violation(c: RllConstraint, bits) -> int | None:
    """1-based position of the first symbol breaking the constraint, or None.

    The run of '0's since the last '1' starts at d, as if a '1' came d
    steps before the sequence. A '0' that lifts it above k, or a '1'
    while it is below d, is the violation; the scan reads no further.
    Any other symbol before it raises ValueError.
    """
    d, k, run = c.d, c.k, c.d
    for i, b in enumerate(bits, start=1):
        if b == 0:
            run += 1
            if run > k:
                return i
        elif b == 1:
            if run < d:
                return i
            run = 0
        else:
            raise ValueError(f"symbol must be 0 or 1, got {b!r}")
    return None
