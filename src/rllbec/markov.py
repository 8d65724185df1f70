"""Finite Markov chains and the two chains induced by the coding scheme.

The labeling chain tracks which labeling rule the transmitter applies at
each channel use; the zero-run chain tracks how many '0's went through
since the last delivered '1'. stationary() solves for the law of any
such chain directly; the zero-run chain also has a closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def _check_eps_delta(epsilon, delta):
    delta = tuple(float(d) for d in delta)
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"erasure probability must lie in [0, 1], got {epsilon}")
    if len(delta) < 1:
        raise ValueError("need at least one parameter")
    if any(not 0.0 <= d <= 1.0 for d in delta):
        raise ValueError(f"parameters must lie in [0, 1], got {delta}")
    return delta


def build_labeling_chain(epsilon: float, delta) -> FiniteChain:
    """Output-driven chain over the labeling rules of a coding session.

    State order is [~l0, l0, l1, ..., lk]: index 0 is the labeling used
    right after an erasure, index j+1 is the labeling after j delivered
    '0's. With eb = 1 - epsilon the rows are:

        l_j (j < k): eb*delta_j to l_{j+1}, eb*(1-delta_j) to l0, eps to ~l0
        ~l0:         eb*delta_0 to l1, everything else to l0
        l_k:         1 to l0 (the input is forced, any output resets)
    """
    delta = _check_eps_delta(epsilon, delta)
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


def build_s_chain(epsilon: float, delta) -> FiniteChain:
    """Chain counting consecutive '0's that made it through the channel.

    State j in 0..k is the current zero-run length. An erased slot
    carries a forced '1' (the separation rule of the restricted code),
    so the run advances only when a '0' goes through un-erased:

        row j < k: (1-eps)*delta_j forward to j+1, the rest back to 0
        row k:     back to 0 surely
    """
    delta = _check_eps_delta(epsilon, delta)
    k = len(delta)
    eb = 1.0 - epsilon
    P = np.zeros((k + 1, k + 1))
    for j in range(k):
        fwd = eb * delta[j]
        P[j, j + 1] = fwd
        P[j, 0] = 1.0 - fwd
    P[k, 0] = 1.0
    return FiniteChain(P)


def s_chain_stationary_exact(epsilon: float, delta) -> np.ndarray:
    """Closed form for stationary(build_s_chain(epsilon, delta)).

    pi_j is proportional to (1-eps)^j * prod_{m<j} delta_m for j = 0..k.
    """
    delta = _check_eps_delta(epsilon, delta)
    k = len(delta)
    eb = 1.0 - epsilon
    w = np.empty(k + 1)
    w[0] = 1.0
    for j in range(1, k + 1):
        w[j] = w[j - 1] * eb * delta[j - 1]
    return w / w.sum()
