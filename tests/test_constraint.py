"""Constraint check: legality, violation positions, graph capacity."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rllbec import INF, RllConstraint, first_violation

from oracles import noiseless_capacity

LOG2_GOLDEN = math.log2((1.0 + math.sqrt(5.0)) / 2.0)


def scan_first_violation(d, k, bits):
    """Independent oracle: plain run-length bookkeeping, no state cap.

    The fictitious run of d zeros before the sequence encodes the same
    pre-history convention first_violation uses.
    """
    run = d
    for pos, b in enumerate(bits, start=1):
        if b == 0:
            run += 1
            if run > k:
                return pos
        else:
            if run < d:
                return pos
            run = 0
    return None


class TestRllConstraint:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RllConstraint(-1, 2)
        with pytest.raises(ValueError):
            RllConstraint(0, 0)
        with pytest.raises(ValueError):
            RllConstraint(2, 2)
        with pytest.raises(ValueError):
            RllConstraint(0, 2.5)


class TestValidation:
    def test_known_sequences(self):
        c02 = RllConstraint(0, 2)
        assert first_violation(c02, [1, 0, 1, 0, 0]) is None
        assert first_violation(c02, [1, 0, 0, 0]) == 4
        c2inf = RllConstraint(2, INF)
        assert first_violation(c2inf, [1, 1, 0, 1]) == 2
        assert first_violation(c2inf, [1, 0, 0, 1, 0, 0, 0]) is None
        c12 = RllConstraint(1, 2)
        assert first_violation(c12, [1, 0, 1, 0, 0, 1]) is None
        assert first_violation(c12, [1, 1]) == 2
        assert first_violation(c12, [0, 0]) == 2  # pre-history '1' one step back

    def test_empty_sequence_is_valid(self):
        assert first_violation(RllConstraint(1, 3), []) is None

    @pytest.mark.parametrize("d,k", [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, INF), (2, INF), (3, INF)])
    def test_exhaustive_agreement_with_scanner(self, d, k):
        # every binary sequence up to length 12
        for n in range(13):
            for bits in itertools.product((0, 1), repeat=n):
                assert first_violation(RllConstraint(d, k), bits) == scan_first_violation(d, k, bits)

    @settings(database=None, deadline=None)
    @given(st.integers(0, 6).flatmap(lambda d: st.tuples(
               st.just(d), st.one_of(st.integers(d + 1, 40), st.just(INF)))),
           st.lists(st.tuples(st.integers(0, 1), st.integers(1, 45)), max_size=40).map(
               lambda runs: [b for b, n in runs for _ in range(n)][:300]))
    def test_long_runs_agree_with_scanner(self, dk, bits):
        # up to 300 bits, drawn as runs of up to 45 equal bits: runs longer
        # than the exhaustive test's 12 bits, at k up to 40
        d, k = dk
        assert first_violation(RllConstraint(d, k), bits) == scan_first_violation(d, k, bits)

    @pytest.mark.parametrize("bits", [[0, 2], [1, -1], [0, 0.5]])
    def test_rejects_a_non_bit(self, bits):
        with pytest.raises(ValueError):
            first_violation(RllConstraint(0, 2), bits)

    def test_stops_at_the_violating_symbol(self):
        # validate passes a generator; the scan must not read past the violation
        def bits():
            yield from (1, 0, 0, 0)
            raise AssertionError("read past the violation")

        assert first_violation(RllConstraint(0, 2), bits()) == 4
        assert first_violation(RllConstraint(2, INF), iter([1, 0, 1, "never read"])) == 3


class TestNoiselessCapacity:
    def test_golden_ratio_for_single_zero_run(self):
        assert abs(noiseless_capacity(RllConstraint(0, 1)) - LOG2_GOLDEN) <= 1e-12

    def test_known_values(self):
        # largest roots of x^3 = x^2 + x + 1 and x^3 = x + 1
        tribonacci = max(np.roots([1, -1, -1, -1]).real)
        plastic = max(np.roots([1, 0, -1, -1]).real)
        assert abs(noiseless_capacity(RllConstraint(0, 2)) - math.log2(tribonacci)) <= 1e-9
        assert abs(noiseless_capacity(RllConstraint(1, 2)) - math.log2(plastic)) <= 1e-9
        assert abs(noiseless_capacity(RllConstraint(2, INF)) - 0.5514630897459566) <= 1e-9

    @pytest.mark.parametrize("d,k", [(0, 1), (0, 4), (1, 2), (1, 5), (2, INF), (4, INF)])
    def test_matches_dense_eigensolver(self, d, k):
        # reference: largest root of the characteristic equation of the
        # run lengths, x^(k+2) - x^(k+1) - x^(k+1-d) + 1 for finite k
        # (the extra root x = 1 is never the largest) and x^(d+1) - x^d - 1
        # for k = inf
        coeffs = np.zeros(d + 2 if k == INF else k + 3)
        coeffs[:2] = 1.0, -1.0
        coeffs[d + 1] -= 1.0  # x^(k+1-d) in the finite case; for d = 0 it adds to x^(k+1)
        if k != INF:
            coeffs[-1] = 1.0
        lam = max(np.roots(coeffs).real)
        assert abs(noiseless_capacity(RllConstraint(d, k)) - math.log2(lam)) <= 1e-12

    def test_capacity_increases_with_k(self):
        vals = [noiseless_capacity(RllConstraint(0, k)) for k in range(1, 8)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(v < 1.0 for v in vals)
