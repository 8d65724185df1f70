"""The labeling chain of the coding scheme and its stationary law.

The labeling chain tracks which labeling rule the transmitter applies at
each channel use. Its states are ordered [~l0, l0, l1, ..., lk], as
codec.label_names gives them.
"""

from __future__ import annotations

import numpy as np

from . import codec
from .capacity import SchemeParams, _products

__all__ = ["build_labeling_chain", "stationary"]


def _checked_delta(epsilon, delta) -> tuple:
    delta = tuple(delta)
    return SchemeParams(epsilon, len(delta), delta).delta


def stationary(epsilon: float, delta) -> np.ndarray:
    """Stationary law of build_labeling_chain(epsilon, delta), in closed form.

    Every rule reaches L(0), so the chain has one closed class and one
    law. With the products p_j = (1-eps)^j * delta_0 ... delta_{j-1} that
    capacity.rate() shares (_products) and A = 1 / sum_{j<=k} p_j:

        pi(l_j) = A * p_j                                  for 1 <= j <= k
        pi(~l0) = eps * (A + sum_{1<=j<k} pi(l_j)) / (1 + eps)
        pi(l0)  = A - pi(~l0)

    A is the mass of {~l0, l0}, the two rules that lead to l1; ~l0 is
    entered by an erasure under l0, ..., l(k-1). The rate is this law's
    mean delivered entropy, (1-eps) * sum_rule pi(rule) * h2(delta_rule).
    """
    delta = _checked_delta(epsilon, delta)
    k = len(delta)
    p = _products(epsilon, delta)
    pi = np.empty(k + 2)
    pi[1:] = p / p.sum()
    pi[0] = epsilon * (pi[1] + pi[2:k + 1].sum()) / (1.0 + epsilon)
    pi[1] -= pi[0]
    return pi


def build_labeling_chain(epsilon: float, delta) -> np.ndarray:
    """(k+2)x(k+2) transition matrix of the labeling chain.

    Each rule puts the probability of each channel output on the rule
    codec.next_label moves to: '0' with (1-eps)*delta_j, '1' with
    (1-eps)*(1-delta_j) and an erasure with eps, where Tilde0 reads
    delta_0 and L(k) sends '1' surely.
    """
    delta = _checked_delta(epsilon, delta)
    k = len(delta)
    P = np.zeros((k + 2, k + 2))
    for rule in range(k + 2):
        d = 0.0 if rule == codec.label_of(k) else delta[codec.delta_index(rule)]
        for y, w in ((0, (1.0 - epsilon) * d), (1, (1.0 - epsilon) * (1.0 - d)), (None, epsilon)):
            P[rule, codec.next_label(rule, y, k)] += w
    return P
