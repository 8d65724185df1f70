"""Chains, stationary laws, and the closed forms they must match."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rllbec import (
    DomainError,
    SchemeParams,
    build_labeling_chain,
    h2,
    rate,
    stationary,
)

from oracles import FiniteChain, build_s_chain, s_chain_stationary_exact, stationary_exact
from oracles import stationary as general_stationary


class TestFiniteChain:
    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            FiniteChain(np.array([[0.5, 0.4], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            FiniteChain(np.array([[1.1, -0.1], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            FiniteChain(np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]]))

    def test_accepts_stochastic_matrix(self):
        chain = FiniteChain(np.array([[0.25, 0.75], [1.0, 0.0]]))
        assert chain.n == 2


class TestStationary:
    def test_two_state_hand_solution(self):
        # 0.1*pi0 = 0.5*pi1, so pi = (5/6, 1/6)
        chain = FiniteChain(np.array([[0.9, 0.1], [0.5, 0.5]]))
        pi = general_stationary(chain)
        assert np.allclose(pi, [5 / 6, 1 / 6], atol=1e-11)
        assert abs(pi.sum() - 1.0) <= 1e-12

    def test_unreachable_states_get_zero_mass(self):
        P = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])
        chain = FiniteChain(P)
        assert np.allclose(general_stationary(chain, start=0), [1.0, 0.0, 0.0])
        assert np.allclose(general_stationary(chain, start=1), [0.0, 0.5, 0.5], atol=1e-11)

    def test_fixed_point_quality(self):
        chain = FiniteChain(build_labeling_chain(0.35, (0.45, 0.25, 0.1)))
        pi = general_stationary(chain)
        assert np.max(np.abs(pi @ chain.P - pi)) <= 1e-10

    def test_periodic_chain(self):
        # eps=0, delta_0=1: L(0) and L(1) alternate with period 2, and the
        # post-erasure rule is transient from the default start
        pi = general_stationary(FiniteChain(build_labeling_chain(0.0, (1.0,))))
        assert np.max(np.abs(pi - [0.0, 0.5, 0.5])) <= 1e-12

    def test_two_closed_classes_have_no_unique_law(self):
        chain = FiniteChain(np.array([[0.5, 0.25, 0.25], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        with pytest.raises(ValueError):
            general_stationary(chain)
        assert np.array_equal(general_stationary(chain, start=2), [0.0, 0.0, 1.0])

    def test_bad_start(self):
        chain = FiniteChain(np.eye(2))
        with pytest.raises(ValueError):
            general_stationary(chain, start=5)


class TestLabelingChain:
    def test_single_run_matrix_by_hand(self):
        eps, d0 = 0.3, 0.4
        eb = 1.0 - eps
        P = build_labeling_chain(eps, (d0,))
        expect = np.array([
            [0.0, eb * (1 - d0) + eps, eb * d0],  # post-erasure rule
            [eps, eb * (1 - d0), eb * d0],        # L(0)
            [0.0, 1.0, 0.0],                      # L(1), forced input
        ])
        assert np.allclose(P, expect)

    def test_three_run_matrix_by_hand(self):
        eps, (d0, d1, d2) = 0.2, (0.45, 0.3, 0.15)
        eb = 1.0 - eps
        P = build_labeling_chain(eps, (d0, d1, d2))
        expect = np.array([
            [0.0, eb * (1 - d0) + eps, eb * d0, 0.0, 0.0],  # post-erasure rule
            [eps, eb * (1 - d0), eb * d0, 0.0, 0.0],        # L(0)
            [eps, eb * (1 - d1), 0.0, eb * d1, 0.0],        # L(1)
            [eps, eb * (1 - d2), 0.0, 0.0, eb * d2],        # L(2)
            [0.0, 1.0, 0.0, 0.0, 0.0],                      # L(3), forced input
        ])
        assert np.allclose(P, expect)

    @settings(max_examples=200, database=None, deadline=None)
    @given(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), st.lists(
        st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)), min_size=1, max_size=12))
    @example(0.0, [5e-324, 0.8923338459721397, 0.0, 0.5, 1.3353237914310727e-10, 0.11434207027297627,
                   5e-324, 0.19296618235029428, 0.6114533399486621, 0.5, 5e-324, 0.5])
    def test_closed_form_matches_exact_solve(self, eps, delta):
        # reference: the exact rational solve on the chain built from
        # next_label; the least-squares solve is off by 1.2e-14 on the
        # explicit example, whose subnormal deltas hypothesis can draw
        pi = stationary(eps, delta)
        ref = stationary_exact(build_labeling_chain(eps, delta))
        assert np.max(np.abs(pi - ref)) <= 1e-14

    def test_single_run_stationary_by_hand(self):
        # pi(~l0) = eps*p, pi(l0) = p, pi(l1) = eb*d0*p*(1+eps),
        # normalized by p = 1/((1+eps)(1+eb*d0))
        eps, d0 = 0.3, 0.4
        eb = 1.0 - eps
        p = 1.0 / ((1 + eps) * (1 + eb * d0))
        pi = stationary(eps, (d0,))
        assert np.allclose(pi, [eps * p, p, eb * d0 * p * (1 + eps)], atol=1e-11)

    def test_rows_are_stochastic(self):
        P = build_labeling_chain(0.2, (0.5, 0.4, 0.3, 0.2))
        assert np.allclose(P.sum(axis=1), 1.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_labeling_chain(1.5, (0.4,))
        with pytest.raises(ValueError):
            build_labeling_chain(0.5, ())
        with pytest.raises(ValueError):
            build_labeling_chain(0.5, (1.2,))
        with pytest.raises(DomainError):
            build_labeling_chain(float("nan"), (0.4,))

    @pytest.mark.parametrize("eps", [0.0, 0.3, 0.7])
    @pytest.mark.parametrize("delta", [(0.4,), (0.45, 0.3), (0.5, 0.35, 0.15)])
    def test_entropy_weighted_occupancy_equals_rate(self, eps, delta):
        # sum over rules of (1-eps)*H2(delta_rule)*pi(rule) reproduces the
        # closed-form rate; the forced rule contributes zero entropy and
        # the post-erasure rule reads delta_0
        k = len(delta)
        pi = stationary(eps, delta)
        ent = np.array([h2(delta[0])] + [h2(d) for d in delta] + [0.0])
        lhs = float(((1.0 - eps) * ent * pi).sum())
        assert abs(lhs - rate(SchemeParams(eps, k, delta))) <= 1e-9


class TestSChain:
    def test_matrix_by_hand(self):
        eps, delta = 0.25, (0.4, 0.3)
        chain = build_s_chain(eps, delta)
        eb = 0.75
        expect = np.array([
            [1 - eb * 0.4, eb * 0.4, 0.0],
            [1 - eb * 0.3, 0.0, eb * 0.3],
            [1.0, 0.0, 0.0],
        ])
        assert np.allclose(chain.P, expect)

    def test_closed_form_example(self):
        pi = s_chain_stationary_exact(0.25, (0.45, 0.4, 0.3))
        assert np.allclose(pi, [0.6842139, 0.23092219, 0.06927666, 0.01558725], atol=1e-7)
        assert abs(pi.sum() - 1.0) <= 1e-12

    def test_no_erasures_no_truncation(self):
        # eps=0, all-ones delta: the walk cycles 0 -> 1 -> ... -> k -> 0
        pi = s_chain_stationary_exact(0.0, (1.0, 1.0))
        assert np.allclose(pi, [1 / 3, 1 / 3, 1 / 3])

    @pytest.mark.parametrize("eps", [0.0, 0.3, 0.7, 0.95])
    @pytest.mark.parametrize("delta", [(0.5,), (0.45, 0.35), (0.4, 0.3, 0.2)])
    def test_closed_form_matches_power_iteration(self, eps, delta):
        # reference: the direct solve in stationary()
        pi_exact = s_chain_stationary_exact(eps, delta)
        pi_solved = general_stationary(build_s_chain(eps, delta))
        assert np.max(np.abs(pi_exact - pi_solved)) <= 1e-12
