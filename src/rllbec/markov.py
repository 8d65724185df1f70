"""Finite Markov chains and the labeling chain of the coding scheme.

The labeling chain tracks which labeling rule the transmitter applies at
each channel use. stationary() solves for the law of any such chain
directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .capacity import SchemeParams


@dataclass(frozen=True)
class FiniteChain:
    """A row-stochastic square transition matrix over states 0..n-1."""

    P: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        object.__setattr__(self, "P", P)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError(f"transition matrix must be square, got shape {P.shape}")
        if np.any(P < -1e-15):
            raise ValueError("negative transition probability")
        rows = P.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > 1e-12:
            raise ValueError(f"rows must sum to 1, worst deviation {np.max(np.abs(rows - 1.0)):.3e}")

    @property
    def n(self) -> int:
        return self.P.shape[0]


def stationary(chain: FiniteChain, start: int = 0) -> np.ndarray:
    """Stationary distribution of the chain started from `start`.

    The states reachable from `start` form a closed set; the law solves
    pi (P_r - I) = 0, sum(pi) = 1 on that set by one least-squares solve
    of the stacked system, and states outside it carry zero mass.

    Raises:
        ValueError: `start` is out of range, or no unique law exists
            because two closed classes are reachable from `start`.
    """
    P = chain.P
    n = chain.n
    if not 0 <= start < n:
        raise ValueError(f"start state {start} out of range")
    reach = np.zeros(n, dtype=bool)
    reach[start] = True
    frontier = [start]
    while frontier:
        nxt = []
        for s in frontier:
            for t in np.nonzero(P[s] > 0.0)[0]:
                if not reach[t]:
                    reach[t] = True
                    nxt.append(int(t))
        frontier = nxt
    idx = np.flatnonzero(reach)
    m = idx.size
    a = np.vstack([P[np.ix_(idx, idx)].T - np.eye(m), np.ones((1, m))])
    b = np.zeros(m + 1)
    b[m] = 1.0
    x, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < m:
        raise ValueError(f"no unique stationary law from state {start}: "
                         f"{m - rank + 1} closed classes are reachable")
    pi = np.zeros(n)
    pi[idx] = x
    return pi


def build_labeling_chain(epsilon: float, delta) -> FiniteChain:
    """Output-driven chain over the labeling rules of a coding session.

    State order is [~l0, l0, l1, ..., lk]: index 0 is the labeling used
    right after an erasure, index j+1 is the labeling after j delivered
    '0's. With eb = 1 - epsilon the rows are:

        l_j (j < k): eb*delta_j to l_{j+1}, eb*(1-delta_j) to l0, eps to ~l0
        ~l0:         eb*delta_0 to l1, everything else to l0
        l_k:         1 to l0 (the input is forced, any output resets)
    """
    delta = tuple(delta)
    delta = SchemeParams(epsilon, len(delta), delta).delta
    k = len(delta)
    eb = 1.0 - epsilon
    P = np.zeros((k + 2, k + 2))
    P[0, 2] = eb * delta[0]
    P[0, 1] = eb * (1.0 - delta[0]) + epsilon
    for j in range(k):
        row = j + 1
        P[row, j + 2] = eb * delta[j]
        P[row, 1] = eb * (1.0 - delta[j])
        P[row, 0] = epsilon
    P[k + 1, 1] = 1.0
    return FiniteChain(P)

