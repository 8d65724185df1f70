"""Interval codec: partitions, rule transitions, live-set updates, and
full transmissions driven by adversarial and random outputs."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rllbec import (
    TILDE0,
    ArrayCodec,
    DomainError,
    EmptySet,
    MessageOutsideLiveSet,
    RllConstraint,
    SchemeParams,
    UseBudgetExceeded,
    feedback_capacity,
    first_violation,
    input_bit,
    label_names,
    label_of,
    next_label,
    partition,
    transmit_message,
    update_live,
)

import oracles


def params_k1(d0=0.45, eps=0.0):
    return SchemeParams(eps, 1, (d0,))


def params_k2(d=(0.45, 0.3), eps=0.0):
    return SchemeParams(eps, 2, d)


class TestLabels:
    def test_indexing(self):
        assert TILDE0 == 0
        assert label_of(0) == 1
        assert label_of(3) == 4

    def test_names(self):
        assert label_names(2) == ["~l0", "l0", "l1", "l2"]


class TestPartition:
    def test_prefix_under_running_rule(self):
        p = params_k1()
        assert partition(label_of(0), 10, p) == 4
        # the '0' block is the prefix [2, 6) of [2, 12)
        assert [input_bit(label_of(0), 2, 12, m, p) for m in range(2, 12)] == [0] * 4 + [1] * 6
        assert update_live(label_of(0), 2, 12, 0, p) == (2, 6)
        assert update_live(label_of(0), 2, 12, 1, p) == (6, 12)

    def test_forced_rule_has_empty_zero_block(self):
        assert partition(label_of(2), 10, params_k2()) == 0
        assert partition(label_of(1), 5, params_k1(d0=0.5)) == 0
        assert [input_bit(label_of(1), 0, 5, m, params_k1(d0=0.5)) for m in range(5)] == [1] * 5

    def test_suffix_after_erasure(self):
        p = params_k1(d0=0.5)
        assert partition(TILDE0, 7, p) == 3
        # the '0' block is the suffix [4, 7) of [0, 7)
        assert [input_bit(TILDE0, 0, 7, m, p) for m in range(7)] == [1] * 4 + [0] * 3
        assert update_live(TILDE0, 0, 7, 0, p) == (4, 7)
        assert update_live(TILDE0, 0, 7, 1, p) == (0, 4)

    def test_small_live_sets_keep_both_blocks_nonempty(self):
        assert partition(label_of(0), 2, params_k1(d0=0.38)) == 1
        assert partition(TILDE0, 3, params_k1(d0=0.2)) == 1
        # a singleton is never split
        assert partition(label_of(0), 1, params_k1(d0=0.4)) == 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            partition(label_of(0), 0, params_k1())
        with pytest.raises(ValueError):
            partition(9, 4, params_k1())

    def test_disjointness_arithmetic_for_all_small_sizes(self):
        # the '0' prefix of any running rule fits inside the '1' prefix
        # left by the post-erasure rule, and two post-erasure suffixes
        # never cover more than the whole interval
        grid = [0.05 * i for i in range(1, 11)]  # 0.05 .. 0.50
        a = np.arange(1, 10_001)
        for d0 in grid:
            zc0 = np.floor(d0 * a).astype(int)
            zc0[(zc0 == 0) & (a >= 2)] = 1
            assert np.all(2 * zc0 <= a)
            for di in grid:
                zci = np.floor(di * a).astype(int)
                zci[(zci == 0) & (a >= 2)] = 1
                assert np.all(zci <= a - zc0)


class TestArraySplit:
    # live sizes at the small end, around float precision and up to 2**62 - 1
    SIZES = [1, 2, 3, 2**53 - 1, 2**53, 2**53 + 1, 2**53 + 3, 2**62 - 1]
    DELTAS = [0.0, 0.5, 5e-324, 2.0**-64, 2.0**-63, 1 / 3]

    def test_equals_scalar_partition(self):
        rng = np.random.default_rng(11)
        sizes = self.SIZES + rng.integers(1, 2**62, 300).tolist()
        # uniform draws, and log-uniform ones whose exponents pass 64
        deltas = (self.DELTAS + rng.uniform(0.0, 0.5, 20).tolist()
                  + (0.5 * 2.0 ** -rng.uniform(0, 80, 20)).tolist())
        for k in (1, 3):
            for d in deltas:
                delta = (d,) + tuple(rng.choice(deltas, k - 1))
                params = SchemeParams(0.3, k, delta)
                coder = ArrayCodec(params)
                for label in range(k + 2):
                    got = coder.zero_counts(np.full(len(sizes), label), np.array(sizes))
                    want = [partition(label, a, params) for a in sizes]
                    assert got.tolist() == want, (delta, label)

    def test_step_follows_the_scalar_session(self):
        # every message of 37 at once, against one scalar session each
        params = params_k2((0.45, 0.3), eps=0.4)
        coder = ArrayCodec(params)
        rng = np.random.default_rng(5)
        n = 37
        m = np.arange(n)
        labels, lo, hi = np.full(n, label_of(0)), np.zeros(n, dtype=np.int64), np.full(n, n)
        sessions = [(label_of(0), 0, n)] * n  # (label, lo, hi) of each scalar session
        while m.size:
            erased = rng.random(m.size) < 0.4
            x, labels, lo, hi = coder.step(labels, lo, hi, m, erased)
            for i, (label, s_lo, s_hi) in enumerate(sessions):
                xi = input_bit(label, s_lo, s_hi, int(m[i]), params)
                y = None if erased[i] else xi
                s_lo, s_hi = update_live(label, s_lo, s_hi, y, params)
                sessions[i] = next_label(label, y, params.k), s_lo, s_hi
                assert (x[i], labels[i], lo[i], hi[i]) == (xi, *sessions[i])
            live = hi - lo > 1
            assert np.all(lo[~live] == m[~live])
            m, labels, lo, hi = m[live], labels[live], lo[live], hi[live]
            sessions = [sess for sess, keep in zip(sessions, live) if keep]

    @pytest.mark.parametrize("k", [1, 2, 8, 64])
    def test_tables_equal_the_rule_by_rule_build(self, k):
        # the closed-form tables against one rule at a time (the reduced
        # fraction of each delta_j and next_label): the same sizes and
        # steps, on delta_j at the ends, subnormal, below 2**-53 and inside
        rng = np.random.default_rng(k)
        ref = ArrayCodec.__new__(ArrayCodec)
        sizes = np.array(self.SIZES + rng.integers(1, 2**62, 200).tolist())
        for delta in [(d,) * k for d in (0.0, 5e-324, 2.0**-60, 1 / 3, 0.5)] + [
                tuple(rng.choice([0.0, 5e-324, 2.0**-60, 1 / 3, 0.5, 2.0**-64], k))]:
            params = SchemeParams(0.3, k, delta)
            coder = ArrayCodec(params)
            ref._mul, ref._bump, ref._next = oracles.array_codec_tables(params)
            assert coder._next.tolist() == ref._next.tolist()
            assert coder._bump.tolist() == ref._bump.tolist()
            labels = rng.integers(0, k + 2, sizes.size)
            assert coder.zero_counts(labels, sizes).tolist() == ref.zero_counts(labels, sizes).tolist()
            n = 1000
            state = (np.full(n, label_of(0)), np.zeros(n, dtype=np.int64), np.full(n, n))
            m = np.arange(n)
            for _ in range(30):
                erased = rng.random(n) < 0.3
                got = coder.step(*state, m, erased)
                want = ref.step(*state, m, erased)
                assert all(a.tolist() == b.tolist() for a, b in zip(got, want))
                state = got[1:]

    def test_rejects_unsafe_delta(self):
        with pytest.raises(DomainError):
            ArrayCodec(SchemeParams(0.0, 2, (0.4, 0.6)))

    def test_empty_update_raises(self):
        # a message below its live set sends '0' under the forced rule,
        # whose '0' block is empty
        coder = ArrayCodec(params_k1(d0=0.5))
        with pytest.raises(EmptySet):
            coder.step(np.array([label_of(1)]), np.array([4]), np.array([8]), np.array([0]),
                       np.array([False]))


class TestNextLabel:
    def test_one_resets(self):
        assert next_label(label_of(2), 1, 3) == label_of(0)
        assert next_label(TILDE0, 1, 3) == label_of(0)

    def test_forced_rule_always_resets(self):
        for y in (0, 1, None):
            assert next_label(label_of(3), y, 3) == label_of(0)

    def test_erasure_parks_then_resets(self):
        assert next_label(label_of(1), None, 2) == TILDE0
        assert next_label(TILDE0, None, 2) == label_of(0)

    def test_zero_advances(self):
        assert next_label(label_of(0), 0, 2) == label_of(1)
        assert next_label(TILDE0, 0, 2) == label_of(1)

    def test_rejects_bad_output(self):
        with pytest.raises(ValueError):
            next_label(label_of(0), 2, 2)


class TestUpdateLive:
    def test_zero_keeps_prefix(self):
        assert update_live(label_of(0), 0, 10, 0, params_k1()) == (0, 4)

    def test_one_after_erasure_keeps_prefix_complement(self):
        assert update_live(TILDE0, 0, 10, 1, params_k1(d0=0.4)) == (0, 6)

    def test_erasure_changes_nothing(self):
        assert update_live(label_of(0), 2, 9, None, params_k1()) == (2, 9)

    def test_inconsistent_output_raises(self):
        # the forced rule sends '1' everywhere; observing '0' is impossible
        with pytest.raises(EmptySet):
            update_live(label_of(1), 0, 4, 0, params_k1())
        with pytest.raises(EmptySet):
            update_live(label_of(0), 0, 1, 0, params_k1(d0=0.4))

    def test_rejects_bad_output(self):
        for y in (2, -1, 0.5):
            with pytest.raises(ValueError):
                update_live(label_of(0), 0, 10, y, params_k1())


class TestInputBit:
    def test_zero_block_membership(self):
        assert [input_bit(label_of(0), 0, 10, m, params_k1()) for m in range(10)] == [
            0, 0, 0, 0, 1, 1, 1, 1, 1, 1]

    def test_suffix_rule(self):
        assert [input_bit(TILDE0, 0, 8, m, params_k1(d0=0.5)) for m in range(8)] == [
            1, 1, 1, 1, 0, 0, 0, 0]

    def test_message_outside_live(self):
        for m in (-1, 10):
            with pytest.raises(MessageOutsideLiveSet):
                input_bit(label_of(0), 0, 10, m, params_k1())


class TestTransmit:
    def test_two_messages_one_use_without_noise(self):
        m_hat, uses, x_seq = transmit_message(1, 2, params_k1(d0=0.5), lambda x: x)
        assert (m_hat, uses, x_seq) == (1, 1, [1])

    def test_all_messages_decode_without_noise(self):
        p = params_k2((0.45, 0.3))
        for m in range(37):
            m_hat, uses, x_seq = transmit_message(m, 37, p, lambda x: x)
            assert m_hat == m
            assert len(x_seq) == uses
            assert first_violation(RllConstraint(0, 2), x_seq) is None

    def test_all_messages_decode_with_seeded_erasures(self):
        p = params_k2((0.45, 0.3), eps=0.4)
        rng = np.random.default_rng(42)
        channel = lambda x: None if rng.random() < 0.4 else x
        for m in range(37):
            m_hat, uses, x_seq = transmit_message(m, 37, p, channel)
            assert m_hat == m
            assert uses < 10_000
            assert first_violation(RllConstraint(0, 2), x_seq) is None

    def test_decoder_replays_from_outputs_alone(self):
        p = params_k2((0.4, 0.25), eps=0.3)
        rng = np.random.default_rng(7)
        outputs = []

        def channel(x):  # it sees every use, so it records the outputs
            outputs.append(None if rng.random() < 0.3 else x)
            return outputs[-1]

        m_hat, uses, _ = transmit_message(23, 64, p, channel)
        label, lo, hi = label_of(0), 0, 64
        for y in outputs:
            lo, hi = update_live(label, lo, hi, y, p)
            label = next_label(label, y, p.k)
        assert hi - lo == 1 and lo == m_hat == 23
        assert len(outputs) == uses

    def test_use_budget(self):
        with pytest.raises(UseBudgetExceeded):
            transmit_message(0, 16, params_k1(eps=1.0), lambda x: None, max_uses=7)

    def test_default_cap_ends_an_always_erasing_channel(self):
        # 3 bits at rate 0.6487: 1000 * ceil(4.62) = 5,000 uses, then the cap
        params, sent = feedback_capacity(0.3, 2).argmax, []
        with pytest.raises(UseBudgetExceeded, match="after 5000 uses"):
            transmit_message(3, 8, params, lambda x: sent.append(x))
        assert len(sent) == 5000

    def test_default_cap_lets_the_worst_message_finish(self):
        # delta_0 = 0.01 without erasures: 2**20 - 1 is the last message of
        # every L(0) split, so it takes about 1,000 uses where a uniform one
        # takes 20 / rate = 250 on average; the cap is 1000 * 251
        params = SchemeParams(0.0, 1, (0.01,))
        m_hat, uses, x_seq = transmit_message(2**20 - 1, 2**20, params, lambda x: x)
        assert m_hat == 2**20 - 1
        assert 500 < uses < 5000
        assert first_violation(RllConstraint(0, 1), x_seq) is None

    def test_refuses_a_session_without_a_cap_that_needs_one(self):
        # a subnormal delta_0 makes every L(0) '0' block a single message,
        # so without erasures the last of n messages takes n - 1 uses
        p, n, sent = SchemeParams(0.0, 1, (2.0 ** -1074,)), 2 ** 62, []

        def unused(x):
            raise AssertionError("the session started without a cap")

        with pytest.raises(DomainError):
            transmit_message(n - 1, n, p, unused)
        with pytest.raises(UseBudgetExceeded):
            transmit_message(n - 1, n, p, lambda x: sent.append(x) or x, max_uses=7)
        assert len(sent) == 7
        with pytest.raises(DomainError):  # rate 0: every use is erased
            transmit_message(0, 16, params_k1(eps=1.0), lambda x: None)

    def test_rejects_bad_arguments(self):
        with pytest.raises(MessageOutsideLiveSet):
            transmit_message(5, 4, params_k1(), lambda x: x)
        with pytest.raises(ValueError):
            transmit_message(0, 1, params_k1(), lambda x: x)
        with pytest.raises(DomainError):
            transmit_message(0, 8, SchemeParams(0.0, 1, (0.7,)), lambda x: x)
        with pytest.raises(TypeError):  # a message count is an int, not 8.0
            transmit_message(0, 8.0, params_k1(), lambda x: x)

    def test_exact_split_above_float_precision(self):
        # floor(0.5 * a) in float64 rounds up for odd a > 2**53, which made
        # the prefix block of L(0) and the suffix block of Tilde0 overlap
        # by one message; that message then sent '0', '0' under k = 1
        outputs = iter([None])
        channel = lambda x: next(outputs, x)
        m = 2**61 - 1
        m_hat, _, x_seq = transmit_message(m, 2**62 - 1, SchemeParams(0.5, 1, (0.5,)), channel)
        assert m_hat == m
        assert first_violation(RllConstraint(0, 1), x_seq) is None
        assert partition(TILDE0, 2**62 - 1, SchemeParams(0.5, 1, (0.5,))) == 2**61 - 1

    @pytest.mark.parametrize("n", [np.int64(2**40), np.int64(2**62), np.uint64(2**62)])
    def test_numpy_integer_sizes_equal_python_ints(self, n):
        # p * live_size with p up to 2**53 wrapped in int64 above sizes of
        # about 2**10, so a session on numpy sizes cut at the wrong place
        params = feedback_capacity(0.3, 2).argmax
        for label in range(params.k + 2):
            assert partition(label, n, params) == partition(label, int(n), params)
        got = transmit_message(n - 5, n, params, lambda x: x, max_uses=200)
        assert got == transmit_message(int(n) - 5, int(n), params, lambda x: x, max_uses=200)


def walk_all_outputs(k, n, delta, depth):
    """Every consistent output sequence up to the given length.

    Tracks the zero-run of each live message and asserts it never
    exceeds k, no matter which erasure/delivery pattern the channel
    picks. Erasures are always consistent; '0'/'1' require the matching
    block to be nonempty.
    """
    params = SchemeParams(0.5, k, delta)  # erasure rate plays no role here
    stack = [((0, n, label_of(0), (0,) * n), 0)]
    while stack:
        (lo, hi, label, runs), d = stack.pop()
        a = hi - lo
        if a == 1 or d == depth:
            continue
        zc = partition(label, a, params)
        zl, zh = (hi - zc, hi) if label == TILDE0 else (lo, lo + zc)
        new_runs = []
        for i, m in enumerate(range(lo, hi)):
            r = runs[i] + 1 if zl <= m < zh else 0
            assert r <= k, f"zero-run {r} exceeds k={k} (n={n}, delta={delta})"
            new_runs.append(r)
        new_runs = tuple(new_runs)
        stack.append(((lo, hi, next_label(label, None, k), new_runs), d + 1))
        if zc > 0:
            stack.append(((zl, zh, next_label(label, 0, k), new_runs[zl - lo:zh - lo]), d + 1))
        if zc < a:
            nl, nh = (lo, hi - zc) if label == TILDE0 else (lo + zc, hi)
            stack.append(((nl, nh, next_label(label, 1, k), new_runs[nl - lo:nh - lo]), d + 1))


class TestConstraintSafety:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exhaustive_over_output_sequences(self, k):
        opt = feedback_capacity(0.3, k).argmax.delta
        deltas = [opt, (0.5,) * k, (0.1,) * k]
        for delta in deltas:
            for n in (2, 3, 5, 17):
                walk_all_outputs(k, n, delta, depth=8)


# delta_j in [0, 1/2], its ends and the smallest subnormal drawn on purpose
DELTA_J = st.one_of(st.sampled_from([0.0, 0.5, 2.0 ** -1074]), st.floats(0.0, 0.5))


class TestSessionProperties:
    MAX_USES = 200  # a tiny delta_0 with 2**62 messages would take about 2**62 uses

    @settings(max_examples=100, database=None, deadline=None)
    @given(st.lists(DELTA_J, min_size=1, max_size=6), st.integers(1, 62), st.integers(0, 2 ** 62),
           st.integers(0, 2 ** 62), st.lists(st.booleans(), max_size=64))
    def test_array_step_scalar_session_decoding_and_safety(self, delta, log2_n, n, m, pattern):
        # k = len(delta), n in [2, 2**log2_n] and m in [0, n); the channel
        # erases the uses its pattern marks, then delivers every use after
        # the pattern; the receiver replays the outputs alone
        k = len(delta)
        params = SchemeParams(0.5, k, delta)
        n = 2 + n % (2 ** log2_n - 1)
        m %= n
        coder = ArrayCodec(params)
        label, s_lo, s_hi = label_of(0), 0, n  # the scalar session
        labels, lo, hi = np.array([label]), np.array([0]), np.array([n])
        x_seq, sizes = [], []
        while s_hi - s_lo > 1 and len(x_seq) < self.MAX_USES:
            sizes.append(s_hi - s_lo)
            erased = len(x_seq) < len(pattern) and pattern[len(x_seq)]
            x, labels, lo, hi = coder.step(labels, lo, hi, np.array([m]), np.array([erased]))
            xi = input_bit(label, s_lo, s_hi, m, params)
            y = None if erased else xi
            s_lo, s_hi = update_live(label, s_lo, s_hi, y, params)
            label = next_label(label, y, k)
            assert (x[0], labels[0], lo[0], hi[0]) == (xi, label, s_lo, s_hi)
            assert s_lo <= m < s_hi
            x_seq.append(xi)
        if s_hi - s_lo == 1:
            assert s_lo == m
        assert first_violation(RllConstraint(0, k), x_seq) is None
        # at every live size met, the '0' prefix of each L(j) and the '0'
        # suffix of Tilde0 fit side by side (zero_counts equals partition)
        sizes = np.array(sizes, dtype=np.int64)
        zc = coder.zero_counts(np.repeat(np.arange(k + 2), sizes.size), np.tile(sizes, k + 2))
        zc = zc.reshape(k + 2, sizes.size)
        assert np.all(zc[label_of(0):label_of(k)] + zc[TILDE0] <= sizes)
