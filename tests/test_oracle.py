"""Exact oracles: DP probability, enumeration, closed forms, dispersion."""

import time

import numpy as np
import pytest

from seqrisk import (
    KINDS,
    MC,
    REACH,
    SCOPE,
    HorizonPolicy,
    InstanceTooLargeError,
    MarkovModel,
    ValueDistribution,
    counterexample_model,
    dispersion_probability,
    enumerate_sub_distribution,
    exact_bijection_check,
    exact_outcome_probability,
)

from seqrisk.oracle import _binomial_pmf, _binomial_sf, outcome_probability_dp

from conftest import make_random_model


def branch_coin_chain(p):
    """The branching coin model expanded into a seven-state chain: start,
    terminal branch, coin states by depth, absorbing outcome, absorbing end."""
    start, stop, c0, c1, c2, heads, done = range(7)
    t = np.zeros((7, 7))
    t[start, stop] = p
    t[start, c0] = 1.0 - p
    t[stop, stop] = 1.0
    t[c0, heads] = 0.5
    t[c0, c1] = 0.5
    t[c1, heads] = 0.5
    t[c1, c2] = 0.5
    t[c2, heads] = 0.5
    t[c2, done] = 0.5
    t[heads, heads] = 1.0
    t[done, done] = 1.0
    return MarkovModel.step_mode(t, start, heads, 4)


def matrix_vector_dp(transition, initial_state, outcome_state, steps):
    """The outcome-probability recursion on one matrix, one product a step."""
    keep = np.arange(transition.shape[0]) != outcome_state
    hazard, inner = transition[:, outcome_state], transition[:, keep]
    p = np.zeros(transition.shape[0])
    for _ in range(steps):
        p = hazard + inner @ p[keep]
    return float(min(1.0, p[initial_state]))


class TestExactOutcomeProbability:
    def test_unreachable_outcome(self):
        m = MarkovModel.step_mode([[1.0, 0.0], [0.0, 1.0]], 0, 1, 8)
        assert exact_outcome_probability(m) == 0.0

    def test_geometric_closed_form(self):
        h, steps = 0.2, 7
        m = MarkovModel.step_mode([[1.0 - h, h], [0.0, 1.0]], 0, 1, steps)
        assert abs(exact_outcome_probability(m) - (1.0 - (1.0 - h) ** steps)) <= 1e-12

    def test_branching_coin_chain_closed_form(self):
        for p in (0.0, 0.25, 0.5, 0.9):
            m = branch_coin_chain(p)
            assert abs(exact_outcome_probability(m) - 7.0 / 8.0 * (1.0 - p)) <= 1e-12

    def test_monotone_in_horizon(self):
        for seed in range(15):
            base = make_random_model(seed)
            probs = [
                exact_outcome_probability(
                    MarkovModel.step_mode(base.transition, base.initial_state,
                                          base.outcome_state, h)
                )
                for h in range(1, 8)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(probs, probs[1:]))

    def test_stack_matches_each_matrix_alone_bit_for_bit(self):
        # a stack's matrices reach BLAS in the layout a lone matrix has, so no
        # chain's probability depends on the stack (or sub-stack) it is in,
        # and a lone matrix gets the bits of the plain matrix-vector loop
        rng = np.random.default_rng(11)
        for n_states in (2, 3, 4, 6, 11, 20):
            for outcome in sorted({0, n_states // 2, n_states - 1}):
                stack = rng.dirichlet(np.ones(n_states), size=(40, n_states))
                alone = [outcome_probability_dp(t, 1, outcome, 12) for t in stack]
                assert alone == [matrix_vector_dp(t, 1, outcome, 12) for t in stack]
                assert outcome_probability_dp(stack, 1, outcome, 12).tolist() == alone
                assert outcome_probability_dp(stack[::3], 1, outcome, 12).tolist() == alone[::3]
                grid = outcome_probability_dp(
                    stack.reshape(4, 10, n_states, n_states), 1, outcome, 12)
                assert grid.ravel().tolist() == alone

    def test_invalid_model_rejected(self):
        from seqrisk import ModelValidationError

        with pytest.raises(ModelValidationError):
            MarkovModel(2, np.array([[0.5, 0.4], [0.0, 1.0]]), 0, 1,
                        HorizonPolicy(max_steps=3))


class TestValueDistribution:
    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            ValueDistribution.from_pairs([(0.0, 0.4), (1.0, 0.4)])

    @pytest.mark.parametrize("pairs", [
        [(0.0, float("nan")), (1.0, 1.0)],
        [(0.0, float("inf")), (1.0, 1.0)],
        [(float("nan"), 0.5), (1.0, 0.5)],
        [(float("inf"), 0.5), (0.0, 0.5)],
    ], ids=["nan_probability", "inf_probability", "nan_value", "inf_value"])
    def test_non_finite_atoms_rejected(self, pairs):
        # a NaN passes both the negativity check and the sum check
        with pytest.raises(ValueError, match="non-finite atom value or probability"):
            ValueDistribution.from_pairs(pairs)

    def test_duplicate_values_merge(self):
        d = ValueDistribution.from_pairs([(0.5, 0.25), (0.5 + 1e-14, 0.25), (1.0, 0.5)])
        assert len(d.atoms) == 2
        assert abs(d.mean() - 0.75) <= 1e-12

    def test_moments(self):
        d = ValueDistribution.from_pairs([(0.0, 0.5), (1.0, 0.5)])
        assert d.mean() == 0.5 and d.variance() == 0.25 and d.second_moment() == 0.5

    def test_csv(self, tmp_path):
        d = ValueDistribution.from_pairs([(0.0, 0.25), (2.0, 0.75)])
        path = tmp_path / "dist.csv"
        d.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "value,probability"
        assert len(lines) == 3


class TestEnumeration:
    def test_counterexample_mc_atoms(self):
        p = 0.25
        d = enumerate_sub_distribution(counterexample_model(p), MC)
        atoms = dict(d.atoms)
        assert set(atoms) == {0.0, 1.0}
        assert abs(atoms[1.0] - 7.0 / 8.0 * (1.0 - p)) <= 1e-15
        assert abs(atoms[0.0] - (p + (1.0 - p) / 8.0)) <= 1e-15

    def test_counterexample_scope_second_moment(self):
        for p in (0.0, 0.5):
            d = enumerate_sub_distribution(counterexample_model(p), SCOPE)
            assert abs(d.second_moment() - 15.0 / 16.0 * (1.0 - p)) <= 1e-15

    def test_reach_variance_never_exceeds_mc(self):
        for seed in range(25):
            m = make_random_model(seed)
            dists = {k: enumerate_sub_distribution(m, k)
                     for k in KINDS}
            assert dists[REACH].variance() <= dists[MC].variance() + 1e-12
            assert dists[REACH].variance() <= dists[SCOPE].variance() + 1e-12

    def test_matches_dp_oracle(self):
        for seed in range(25):
            m = make_random_model(seed)
            p = exact_outcome_probability(m)
            for kind in KINDS:
                d = enumerate_sub_distribution(m, kind)
                assert abs(d.mean() - p) <= 1e-10

    def test_mc_variance_is_bernoulli(self):
        for seed in range(10):
            m = make_random_model(seed)
            p = exact_outcome_probability(m)
            d = enumerate_sub_distribution(m, MC)
            assert abs(d.variance() - p * (1.0 - p)) <= 1e-12

    def test_size_guard(self):
        rng = np.random.default_rng(0)
        t = rng.dirichlet(np.ones(10), size=10)
        m = MarkovModel.step_mode(t, 0, 9, 10)
        with pytest.raises(InstanceTooLargeError):
            enumerate_sub_distribution(m, MC)

    def test_size_guard_refuses_a_huge_step_cap_at_once(self):
        m = make_random_model(3)
        huge = MarkovModel(m.n_states, m.transition, m.initial_state, m.outcome_state,
                           HorizonPolicy(max_steps=10**9))
        started = time.perf_counter()
        with pytest.raises(InstanceTooLargeError):
            exact_bijection_check(huge)
        assert time.perf_counter() - started < 0.5

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            enumerate_sub_distribution(counterexample_model(0.5), "other")

    def test_degenerate_branch_enumerates_to_one(self):
        # from state 1 the outcome takes all mass; excluded paths reaching it
        # contribute survival-complement exactly 1
        rows = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]
        m = MarkovModel.step_mode(rows, 0, 2, 4)
        d = enumerate_sub_distribution(m, REACH)
        assert d.atoms == ((1.0, 1.0),)
        assert abs(d.mean() - exact_outcome_probability(m)) <= 1e-12


class TestCounterexampleModel:
    def test_p_validated(self):
        with pytest.raises(ValueError):
            counterexample_model(1.5)

    @pytest.mark.parametrize("p", ["0.5", None, True])
    def test_p_must_be_a_number(self, p):
        with pytest.raises(ValueError, match="p must be a number"):
            counterexample_model(p)

    def test_p_one_outcome_impossible(self):
        d = enumerate_sub_distribution(counterexample_model(1.0), MC)
        assert d.mean() == 0.0

    def test_p_zero_probability(self):
        d = enumerate_sub_distribution(counterexample_model(0.0), MC)
        assert abs(d.mean() - 7.0 / 8.0) <= 1e-15

    def test_variance_gap_closed_form(self):
        for p in (0.0, 0.3, 0.6, 0.99):
            mc = enumerate_sub_distribution(counterexample_model(p), MC)
            sc = enumerate_sub_distribution(counterexample_model(p), SCOPE)
            gap = sc.variance() - mc.variance()
            assert abs(gap - (1.0 - p) / 16.0) <= 1e-12

    def test_gap_positive_at_vanishing_probability(self):
        p = 0.999
        mc = enumerate_sub_distribution(counterexample_model(p), MC)
        sc = enumerate_sub_distribution(counterexample_model(p), SCOPE)
        assert mc.mean() < 0.001
        assert sc.variance() > mc.variance()


class TestDispersionProbability:
    def test_reference_value(self):
        assert abs(dispersion_probability(100, 1e-4, 1e-3) - 0.0943) <= 1e-4

    def test_both_zero(self):
        assert dispersion_probability(100, 0.0, 0.0) == 0.0

    def test_certain_elevation(self):
        assert dispersion_probability(1, 0.0, 1.0) == 1.0

    def test_monotone_in_elevated_rate(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(1, 200))
            base = float(rng.uniform(0, 0.5))
            lo, hi = np.sort(rng.uniform(0, 1, size=2))
            assert (dispersion_probability(n, base, hi)
                    >= dispersion_probability(n, base, lo) - 1e-12)

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            dispersion_probability(0, 0.1, 0.2)
        with pytest.raises(ValueError):
            dispersion_probability(10, -0.1, 0.2)
        with pytest.raises(ValueError):
            dispersion_probability(10, 0.1, 1.2)

    def test_a_bool_is_not_a_sample_count(self):
        # True == 1 would answer for one sample
        with pytest.raises(ValueError, match="n_samples"):
            dispersion_probability(True, 0.1, 0.2)

    @pytest.mark.parametrize("n", ["3", None, 2.0])
    def test_sample_count_must_be_an_integer(self, n):
        # 2.0 once answered for two samples
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            dispersion_probability(n, 0.1, 0.2)

    @pytest.mark.parametrize("name,args", [("p_base", (10, "0.1", 0.2)),
                                           ("p_elevated", (10, 0.1, None))])
    def test_rates_must_be_numbers(self, name, args):
        with pytest.raises(ValueError, match=f"{name} must be a number"):
            dispersion_probability(*args)


@pytest.mark.parametrize("n", [1, 5, 100, 1000])
@pytest.mark.parametrize("p", [0.0, 1e-4, 0.5, 0.999, 1.0])
def test_binomial_terms_match_scipy(n, p):
    stats = pytest.importorskip("scipy.stats")
    k = np.arange(n + 1)
    # relative agreement down to 1e-280: below that scipy's sf loses digits
    # (n = 100, p = 1e-4, k = 78: exact rationals give 2.0376113e-295, as
    # does the log-space sum; scipy gives 2.0376332e-295)
    np.testing.assert_allclose(_binomial_pmf(n, p), stats.binom.pmf(k, n, p),
                               rtol=1e-10, atol=1e-280)
    np.testing.assert_allclose(_binomial_sf(n, p), stats.binom.sf(k, n, p),
                               rtol=1e-10, atol=1e-280)


class TestBijectionCheck:
    def test_random_models_agree(self):
        for seed in range(25):
            m = make_random_model(seed)
            p_a, p_b = exact_bijection_check(m)
            assert abs(p_a - p_b) < 1e-10

    def test_outcome_impossible(self):
        m = MarkovModel.step_mode([[1.0, 0.0], [0.0, 1.0]], 0, 1, 5)
        assert exact_bijection_check(m) == (0.0, 0.0)

    def test_counterexample_value(self):
        p = 0.4
        p_a, p_b = exact_bijection_check(counterexample_model(p))
        truth = 7.0 / 8.0 * (1.0 - p)
        assert abs(p_a - truth) <= 1e-12 and abs(p_b - truth) <= 1e-12
