"""Chain construction, sweeps, metrics, equivalence, and cohort pipeline."""

import hashlib
import tracemalloc
import weakref
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from seqrisk import (
    CalibrationError,
    ChainSpec,
    CohortSpec,
    ExperimentTable,
    InstanceTooLargeError,
    MarkovModel,
    MC,
    OUTCOME_EXCLUDED,
    REACH,
    SCOPE,
    STANDARD,
    UndefinedMetricError,
    auroc,
    brier,
    calibration_curve,
    enumerate_sub_distribution,
    equivalence_ratio,
    estimate,
    estimate_distribution_experiment,
    exact_outcome_probability,
    random_chain,
    sample_batch,
    spontaneity,
    synthetic_cohort_eval,
    validate,
    variance_sweep,
)
from seqrisk import experiments
from seqrisk.experiments import (
    SPONTANEITY_GRID,
    MetricRow,
    _auroc_columns,
    _auroc_rows,
    _bootstrap_aurocs,
    _calibrated_chains,
    _ci_bounds,
    _ci_row,
    _cohort_metrics,
    _equivalence,
    _raise_first,
    _StageClock,
)
from seqrisk.oracle import outcome_probability_dp
from seqrisk.rng import KeyedStream, stream_keys, substream

from conftest import lone_chain


class TestChainSpec:
    def test_zero_hazard_state_count_rejected(self):
        with pytest.raises(ValueError, match="spontaneity"):
            ChainSpec(n_states=4, spontaneity=0.1, horizon_steps=5)

    def test_round_trip(self):
        spec = ChainSpec(6, 0.5, 10, seed=3, target_probability=0.4)
        assert ChainSpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_lists_every_field_in_order(self):
        spec = ChainSpec(6, 0.5, 10, seed=3, target_probability=0.4)
        assert list(spec.to_dict().items()) == [
            ("n_states", 6), ("spontaneity", 0.5), ("horizon_steps", 10), ("seed", 3),
            ("target_probability", 0.4), ("equal_transitions", False)]

    def test_from_dict_names_the_missing_keys(self):
        with pytest.raises(ValueError, match=r"chain spec lacks the required keys "
                                             r"\['n_states', 'horizon_steps'\]"):
            ChainSpec.from_dict({"spontaneity": 0.5, "seed": 2})


#: one wrong CohortSpec field, and the error it gets
COHORT_SPEC_ERRORS = {
    "fractional_timelines": ({"n_timelines": 10.7}, "n_timelines must be an integer"),
    "fractional_patients": ({"n_patients": 20.9}, "n_patients must be an integer"),
    "float_rounds": ({"bootstrap_rounds": 3.0}, "bootstrap_rounds must be an integer"),
    "float_seed": ({"seed": 1.5}, "seed must be an integer"),
    "short_range": ({"risk_range": (0.1,)}, "risk_range must be a pair of numbers"),
    "string_range": ({"risk_range": ("0.1", 0.5)}, "risk_range must be a number"),
    "dict_template": ({"chain_template": {"n_states": 4}},
                      "chain_template must be a ChainSpec"),
}


class TestCohortSpec:
    @pytest.mark.parametrize("entry,message", COHORT_SPEC_ERRORS.values(),
                             ids=COHORT_SPEC_ERRORS)
    def test_mistyped_field_rejected(self, entry, message):
        fields = {"n_patients": 20, "chain_template": ChainSpec(4, 1.0, 5), **entry}
        with pytest.raises(ValueError, match=message):
            CohortSpec(**fields)


class TestRandomChain:
    # digests of the transition matrices of untargeted chains, taken before
    # the chains' streams were read through one keyed Philox generator
    UNTARGETED = {
        (True, 0): "ace67c26133fb12fcbd09bdb40d4580cc2fbfb538bcd43642ec0a89ab73a6578",
        (True, 3): "abe3a63af48fe9488087db2c78261af2af56dc87d70603f6710d86a046c4865f",
        (False, 0): "fc11b6f62895f23621458af15da614313e2c0646adeebd92b063665484c81eab",
        (False, 3): "908cd182d9fb7883f6e67fdc82e203f5ce9c780dfcd11ead1e34091fa08259ee",
    }

    @pytest.mark.parametrize("equal,seed", UNTARGETED)
    def test_untargeted_chain_digest(self, equal, seed):
        chain = random_chain(ChainSpec(11, 0.5, 20, seed=seed, equal_transitions=equal))
        assert hashlib.sha256(chain.transition.tobytes()).hexdigest() == \
            self.UNTARGETED[equal, seed]

    def test_spontaneity_round_trip(self):
        spec = ChainSpec(11, 0.4, 20, seed=1)
        chain = random_chain(spec)
        assert spontaneity(chain) == 0.4

    def test_full_spontaneity(self):
        chain = random_chain(ChainSpec(4, 1.0, 5, seed=2))
        non_outcome = [s for s in range(4) if s != chain.outcome_state]
        assert all(chain.transition[s, chain.outcome_state] > 0 for s in non_outcome)

    def test_rows_stochastic_and_outcome_absorbing(self):
        chain = random_chain(ChainSpec(7, 0.5, 10, seed=3, target_probability=0.3))
        assert validate(chain.transition) == []
        o = chain.outcome_state
        assert chain.transition[o, o] == 1.0

    def test_hazard_mass_confined_to_selected_states(self):
        spec = ChainSpec(9, 0.25, 10, seed=4)  # two of eight non-outcome states
        chain = random_chain(spec)
        hazards = chain.transition[:-1, chain.outcome_state]
        assert int((hazards > 0).sum()) == 2

    @pytest.mark.parametrize("equal", [True, False], ids=["equal", "random"])
    def test_untargeted_hazard_scale_is_drawn_after_the_parts(self, equal):
        # theta = U(0.05, 0.9) * theta_max from the chain's stream, written
        # out here apart from the stacked calibration random_chain runs
        spec = ChainSpec(6, 0.6, 8, seed=4, equal_transitions=equal)
        gen = substream(4, 0, 0)
        W, weights = experiments._chain_parts(spec, gen)
        theta = gen.uniform(0.05, 0.9) * (1.0 / weights.max())
        assert np.array_equal(random_chain(spec).transition,
                              experiments._assemble_chain(W, weights, theta))

    def test_target_probability_calibrated(self):
        for target in (0.05, 0.5, 0.9):
            chain = random_chain(ChainSpec(6, 1.0, 12, seed=5, target_probability=target))
            assert abs(exact_outcome_probability(chain) - target) <= 1e-6

    @pytest.mark.parametrize("equal", [True, False], ids=["equal", "random"])
    @pytest.mark.parametrize("target", [1e-4, 1e-6, 1e-8])
    def test_rare_target_calibrated_to_a_relative_tolerance(self, target, equal):
        chain = random_chain(ChainSpec(11, 0.5, 20, seed=1, target_probability=target,
                                       equal_transitions=equal))
        assert abs(exact_outcome_probability(chain) - target) <= 1e-4 * target

    def test_infeasible_target_names_interval(self):
        spec = ChainSpec(4, 0.67, 1, seed=2, target_probability=0.999)
        with pytest.raises(CalibrationError) as err:
            random_chain(spec)
        lo, hi = err.value.achievable
        assert lo == 0.0 and hi < 0.999

    def test_stalled_bisection_names_its_last_midpoint(self):
        # 200 halvings leave this target short of its relative 1e-4: the
        # error names the probability the chain stalled at, near the target,
        # not the one at the top of the interval
        spec = ChainSpec(11, 0.5, 20, seed=1, target_probability=1e-58)
        with pytest.raises(CalibrationError, match="bisection stalled at") as err:
            random_chain(spec)
        stalled = float(str(err.value).split()[3].rstrip(","))
        assert str(err.value) == f"bisection stalled at {stalled!r}, target 1e-58"
        assert 0.5e-58 < stalled < 1.5e-58 and abs(stalled - 1e-58) > 1e-62
        assert err.value.achievable[1] > 0.99

    def test_seed_comes_from_the_spec(self):
        spec = ChainSpec(5, 0.5, 6, seed=6)
        assert np.array_equal(random_chain(spec).transition,
                              lone_chain(spec, 6, 0, 0).transition)

    def test_equal_transitions_uniform_rows(self):
        chain = random_chain(ChainSpec(5, 1.0, 6, seed=6, target_probability=0.5,
                                       equal_transitions=True))
        block = chain.transition[:-1, :-1]
        # uniform residual mass over non-outcome states
        assert np.allclose(block, block[0, 0])


class TestCalibratedStack:
    @pytest.mark.parametrize("shape", [(6, 1.0, 12), (6, 0.6, 12), (11, 0.5, 20)])
    @pytest.mark.parametrize("equal", [True, False])
    def test_each_chain_is_random_chain_bit_for_bit(self, shape, equal):
        tpl = ChainSpec(*shape, equal_transitions=equal)
        targets = substream(4, 5, 0).uniform(0.03, 0.55, size=40)
        stack, achieved, errors = _calibrated_chains(
            [tpl] * 40, targets, stream_keys(4, 6, np.arange(40)))
        assert errors == [None] * 40
        assert np.array_equal(
            achieved, outcome_probability_dp(stack, 0, tpl.n_states - 1, tpl.horizon_steps))
        for i, target in enumerate(targets):
            alone = lone_chain(replace(tpl, target_probability=float(target)), 4, 6, i)
            assert np.array_equal(stack[i], alone.transition)

    def test_infeasible_target_raises_as_alone_for_the_first_such_chain(self):
        # a target of 0 is never achievable; random transitions give every
        # chain its own achievable interval, so the message names the chain
        tpl = ChainSpec(5, 0.5, 3)
        targets = [0.1, 0.1, 0.0, 0.1, 0.0]
        _, _, errors = _calibrated_chains(
            [tpl] * 5, targets, stream_keys(2, 6, np.arange(5)))
        with pytest.raises(CalibrationError) as stacked:
            _raise_first(errors)
        with pytest.raises(CalibrationError) as alone:
            lone_chain(replace(tpl, target_probability=0.0), 2, 6, 2)
        assert str(stacked.value) == str(alone.value)
        assert stacked.value.achievable == alone.value.achievable

    @pytest.mark.parametrize("target", [0.5, None])
    @pytest.mark.parametrize("equal", [True, False])
    def test_one_spec_per_chain_gives_each_random_chain(self, equal, target):
        # the points of a spontaneity sweep differ in how many states carry
        # hazard; a chain without a target draws its hazard scale
        specs = [ChainSpec(11, g, 20, target_probability=target, equal_transitions=equal)
                 for g in SPONTANEITY_GRID]
        stack, achieved, errors = _calibrated_chains(
            specs, [target] * len(specs), stream_keys(5, 2, np.arange(len(specs)), 0))
        assert errors == [None] * len(specs)
        for j, spec in enumerate(specs):
            alone = lone_chain(spec, 5, 2, j, 0)
            assert np.array_equal(stack[j], alone.transition)
            assert achieved[j] == exact_outcome_probability(alone)

    def test_only_chains_with_a_target_get_its_bound(self):
        # the largest outcome probability bounds a target; a chain's DP does
        # not depend on its stack, so chains with and without one mix
        specs = [ChainSpec(11, 0.5, 20, target_probability=t) for t in (None, 0.3, None, 0.6)]
        keys = stream_keys(7, 6, np.arange(4))
        with mock.patch.object(experiments, "outcome_probability_dp",
                               wraps=outcome_probability_dp) as dp:
            stack, achieved, errors = _calibrated_chains(
                specs, [s.target_probability for s in specs], keys)
        assert dp.call_args_list[0].args[0].shape == (2, 11, 11)
        assert errors == [None] * 4
        for i, spec in enumerate(specs):
            alone = lone_chain(spec, 7, 6, i)
            assert np.array_equal(stack[i], alone.transition)
            assert achieved[i] == exact_outcome_probability(alone)
        # without a target, only the probability the chain ends on
        with mock.patch.object(experiments, "outcome_probability_dp",
                               wraps=outcome_probability_dp) as dp:
            random_chain(specs[0])
        assert dp.call_count == 1

    def test_failures_are_reported_per_chain(self):
        # targets of 0 are never achievable: those chains get the error they
        # raise alone, and the others their chains
        tpl = ChainSpec(5, 0.5, 3)
        targets = [0.1, 0.1, 0.0, 0.1, 0.0]
        stack, _, errors = _calibrated_chains(
            [tpl] * 5, targets, stream_keys(2, 6, np.arange(5)))
        for i, target in enumerate(targets):
            spec = replace(tpl, target_probability=target)
            if target == 0.0:
                with pytest.raises(CalibrationError) as alone:
                    lone_chain(spec, 2, 6, i)
                assert str(errors[i]) == str(alone.value)
                assert errors[i].achievable == alone.value.achievable
            else:
                assert errors[i] is None
                assert np.array_equal(stack[i], lone_chain(spec, 2, 6, i).transition)


class TestKeyedStreams:
    """A stack's streams travel as Philox keys, read through one generator
    only where a chain draws."""

    def test_equal_transitions_with_targets_read_no_stream(self):
        tpl = ChainSpec(6, 1.0, 12, equal_transitions=True)
        targets = substream(4, 5, 0).uniform(0.03, 0.55, size=20)
        with mock.patch.object(KeyedStream, "at") as at:
            _, _, errors = _calibrated_chains(
                [tpl] * 20, targets, stream_keys(4, 6, np.arange(20)))
        at.assert_not_called()
        assert errors == [None] * 20

    def test_traced_bytes_per_row_of_the_benchmark_cohort(self):
        # the benchmark cohort's 500 x 100 stack, 12 steps, reads about 64
        # bytes per row: one generator per chain, read step by step, peaked
        # at 78.4, a buffer of 2**18 uniforms at 101, and drawing the whole
        # stack's uniforms ahead at once at 190
        tpl = ChainSpec(6, 1.0, 12, equal_transitions=True)
        n_pat, n = 500, 100
        targets = 0.03 + 0.52 * substream(9, 5, 0).beta(1.8, 2.2, size=n_pat)
        transitions, _, errors = _calibrated_chains(
            [tpl] * n_pat, targets, stream_keys(9, 6, np.arange(n_pat)))
        assert errors == [None] * n_pat
        chain = experiments._chain_model(tpl, transitions[0])
        keys = stream_keys(9, 7, np.arange(n_pat)), stream_keys(9, 8, np.arange(n_pat))
        tracemalloc.start()
        try:
            experiments._sample_pools(chain, transitions, n, *keys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (n_pat * n) <= 70.0


class TestCalibrationFailures:
    """Every experiment that calibrates a chain the caller names raises the
    error that chain gets alone; a target of 0 is never achievable, and
    random transitions give each chain its own achievable interval."""

    SPEC = ChainSpec(5, 0.5, 3, seed=2, target_probability=0.0)

    @staticmethod
    def assert_same_error(raised, alone):
        assert str(raised.value) == str(alone.value)
        assert raised.value.achievable == alone.value.achievable

    def test_sample_count_sweep(self):
        with pytest.raises(CalibrationError) as raised:
            variance_sweep("sample_count", [1, 2], self.SPEC, 10)
        with pytest.raises(CalibrationError) as alone:
            lone_chain(self.SPEC, 2, 3, 0, 0)
        self.assert_same_error(raised, alone)

    def test_distribution(self):
        with pytest.raises(CalibrationError) as raised:
            estimate_distribution_experiment(self.SPEC, 10, 5)
        with pytest.raises(CalibrationError) as alone:
            lone_chain(self.SPEC, 2, 4, 0)
        self.assert_same_error(raised, alone)

    def test_cohort_raises_for_the_lowest_numbered_failing_patient(self):
        # over one step, a chain reaches at most its initial state's share of
        # the largest hazard weight: here patients 0 and 3 fall short
        tpl = ChainSpec(5, 0.5, 1)
        spec = CohortSpec(n_patients=8, chain_template=tpl, n_timelines=4,
                          bootstrap_rounds=2, risk_range=(0.5, 0.55), seed=5)
        (a, b), (lo, hi) = experiments.COHORT_RISK_BETA, spec.risk_range
        targets = lo + (hi - lo) * substream(5, 5, 0).beta(a, b, size=8)
        failing = []
        for i, target in enumerate(targets):
            try:
                lone_chain(replace(tpl, target_probability=float(target)), 5, 6, i)
            except CalibrationError as exc:
                failing.append(exc)
        assert len(failing) == 2
        with pytest.raises(CalibrationError) as raised:
            synthetic_cohort_eval(spec)
        assert str(raised.value) == str(failing[0])
        assert raised.value.achievable == failing[0].achievable


class TestSpontaneityMeasure:
    def test_no_hazard(self):
        from seqrisk import MarkovModel

        m = MarkovModel.step_mode([[1.0, 0.0], [0.0, 1.0]], 0, 1, 4)
        assert spontaneity(m) == 0.0

    def test_all_hazardous(self):
        chain = random_chain(ChainSpec(6, 1.0, 8, seed=7))
        assert spontaneity(chain) == 1.0


class TestBatchSampler:
    def test_agrees_with_per_trajectory_estimates(self):
        chain = random_chain(ChainSpec(5, 0.75, 10, seed=8, target_probability=0.35))
        p = exact_outcome_probability(chain)
        mc_v, scope_v = sample_batch(chain, STANDARD, 40_000, substream(1, 20, 0))
        (reach_v,) = sample_batch(chain, OUTCOME_EXCLUDED, 40_000, substream(1, 20, 1))
        for vals in (mc_v, scope_v, reach_v):
            se = vals.std(ddof=1) / np.sqrt(vals.size)
            assert abs(vals.mean() - p) <= 4.5 * max(se, 1e-12)
        rep = estimate(chain, REACH, 2_000, seed=9)
        pooled = np.hypot(rep.std_error, reach_v.std(ddof=1) / np.sqrt(reach_v.size))
        assert abs(rep.mean - reach_v.mean()) <= 4.5 * max(pooled, 1e-12)

    def test_deterministic_chain_exact(self):
        h, steps = 0.25, 8
        from seqrisk import MarkovModel

        m = MarkovModel.step_mode([[1.0 - h, h], [0.0, 1.0]], 0, 1, steps)
        (reach_v,) = sample_batch(m, OUTCOME_EXCLUDED, 50, substream(2, 20, 2))
        expected = 1.0
        for _ in range(steps):
            expected *= 1.0 - h
        assert np.all(reach_v == 1.0 - expected)

    def test_degenerate_rows_yield_one(self):
        from seqrisk import MarkovModel

        rows = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]
        m = MarkovModel.step_mode(rows, 0, 2, 5)
        (reach_v,) = sample_batch(m, OUTCOME_EXCLUDED, 20, substream(3, 20, 3))
        assert np.all(reach_v == 1.0)


class TestVarianceSweep:
    def test_mc_variance_matches_bernoulli(self):
        p = 0.3
        base = ChainSpec(6, 1.0, 12, seed=10, equal_transitions=True)
        table = variance_sweep("probability", [p], base, 20_000)
        var = table.single(task="probability=0.3", kind=MC, statistic="variance").value
        # spread of the variance estimate for a Bernoulli sample of this size
        se = np.sqrt(2.0 / 20_000) * p * (1 - p) + 0.25 / 20_000
        assert abs(var - p * (1 - p)) <= 5 * se + 1e-4

    @pytest.mark.parametrize("replications", [100.5, 100.0, True, "100"])
    def test_replications_must_be_an_integer(self, replications):
        base = ChainSpec(4, 0.67, 3, seed=2, equal_transitions=True)
        with pytest.raises(ValueError, match="replications must be an integer"):
            variance_sweep("probability", [0.3], base, replications)

    def test_failed_point_marked_and_sweep_continues(self):
        base = ChainSpec(4, 0.67, 1, seed=2, equal_transitions=False)
        table = variance_sweep("probability", [0.3, 0.999], base, 100)
        assert table.rows_where(task="probability=0.3", statistic="variance")
        failed = table.rows_where(task="probability=0.999", statistic="failed")
        assert len(failed) == 1

    def test_exact_variance_rows_present_for_small_chains(self):
        base = ChainSpec(4, 1.0, 5, seed=11, equal_transitions=True)
        table = variance_sweep("probability", [0.4], base, 200)
        exact_mc = table.single(task="probability=0.4", kind=MC,
                                statistic="exact_variance").value
        p = table.single(task="probability=0.4", statistic="exact_probability").value
        assert abs(exact_mc - p * (1 - p)) <= 1e-10

    def test_sample_count_axis_reports_scaled_variance(self):
        base = ChainSpec(5, 1.0, 8, seed=12, target_probability=0.5,
                         equal_transitions=True)
        table = variance_sweep("sample_count", [1, 4, 16], base, 800)
        for n in (1, 4, 16):
            var = table.single(task=f"sample_count={n}", kind=MC,
                               statistic="variance").value
            scaled = table.single(task=f"sample_count={n}", kind=MC,
                                  statistic="variance_times_n").value
            assert abs(scaled - var * n) <= 1e-12

    def test_sample_count_axis_holds_one_mode_pool_at_a_time(self):
        # MC and SCOPE are reduced to their variances before REACH samples:
        # no standard-mode array is alive when the excluded batch starts
        base = ChainSpec(5, 1.0, 8, seed=12, target_probability=0.5)
        standard, alive = [], []

        def spy(source, vocab, horizon, mode, n, rngs):
            if mode == OUTCOME_EXCLUDED:
                alive.append(sum(ref() is not None for ref in standard))
            values = sample_stack(source, vocab, horizon, mode, n, rngs)
            if mode == STANDARD:
                standard.extend(weakref.ref(v) for v in values)
            return values

        sample_stack = experiments._sample_stack
        with mock.patch.object(experiments, "_sample_stack", spy):
            table = variance_sweep("sample_count", [1, 4], base, 100)
        assert alive == [0]
        assert table == variance_sweep("sample_count", [1, 4], base, 100)

    def test_one_count_grid_is_pinned(self):
        # a grid of one count n reads one pool of replications x n samples on
        # point 0's streams and averages whole rows: its table keeps its digest
        base = ChainSpec(5, 0.6, 8, seed=12, target_probability=0.5)
        text = variance_sweep("sample_count", [4], base, 100).to_csv_text()
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "c1c7987bfb6671b2b522494a7999910ea8cd635197d8e542e7243e9da9781a63"

    def test_counts_read_prefixes_of_one_pool(self):
        base = ChainSpec(5, 0.6, 8, seed=12, target_probability=0.5)
        grid, reps = [4, 1, 4, 2], 100
        table = variance_sweep("sample_count", grid, base, reps)
        chain = lone_chain(base, 12, 3, 0, 0)
        source = (chain.transition[None], chain.initial_state)
        pools = {}
        for mode, kinds, stream in ((STANDARD, (MC, SCOPE), 1), (OUTCOME_EXCLUDED, (REACH,), 2)):
            values = experiments._sample_stack(source, chain.vocabulary, chain.horizon, mode,
                                               reps * 4, stream_keys(12, 3, 0, stream))
            pools.update(zip(kinds, (v.reshape(reps, 4) for v in values)))
        rows = [r for r in table.rows if r.statistic == "variance"]
        assert [(r.task, r.kind, r.n) for r in rows] == \
            [(f"sample_count={n}", kind, n) for n in grid for kind in (MC, SCOPE, REACH)]
        for r in rows:
            assert r.value == float(pools[r.kind][:, :r.n].mean(axis=1).var(ddof=1))
        # rows keep grid order; the two points of count 4 are the same rows
        assert table.rows[1:7] == table.rows[13:19]

    def test_default_grid_samples_one_pool_per_mode(self):
        base = ChainSpec(11, 1.0, 20, seed=3, target_probability=0.5)
        calls = []

        def spy(source, vocab, horizon, mode, n, keys):
            calls.append((mode, n))
            return sample_stack(source, vocab, horizon, mode, n, keys)

        sample_stack = experiments._sample_stack
        with mock.patch.object(experiments, "_sample_stack", spy):
            variance_sweep("sample_count", experiments.SAMPLE_COUNT_GRID, base,
                           experiments.SAMPLE_COUNT_REPLICATIONS)
        assert calls == [(STANDARD, 2_000 * 128), (OUTCOME_EXCLUDED, 2_000 * 128)]

    @pytest.mark.parametrize("axis, grid", [("probability", [0.3, 0.6]),
                                            ("spontaneity", [0.5, 1.0]),
                                            ("sample_count", [1, 4])])
    def test_seed_comes_from_the_spec(self, axis, grid):
        base = ChainSpec(4, 1.0, 5, seed=3, target_probability=0.4)
        table = variance_sweep(axis, grid, base, 200)
        assert variance_sweep(axis, grid, base, 200) == table
        assert {r.seed for r in table.rows} == {3}
        other = variance_sweep(axis, grid, replace(base, seed=4), 200)
        assert [r.value for r in other.rows] != [r.value for r in table.rows]

    def test_bad_axis_and_empty_grid(self):
        base = ChainSpec(4, 1.0, 5, seed=0)
        with pytest.raises(ValueError):
            variance_sweep("other", [0.5], base, 100)
        with pytest.raises(ValueError):
            variance_sweep("probability", [], base, 100)

    @pytest.mark.parametrize("value", [0, 2.7, -1, float("nan")])
    def test_sample_counts_must_be_positive_integers(self, value):
        base = ChainSpec(4, 1.0, 5, seed=0, target_probability=0.4)
        with pytest.raises(ValueError, match=f"positive integers, got {value!r}"):
            variance_sweep("sample_count", [4, value], base, 100)

    @pytest.mark.parametrize("axis", ["probability", "spontaneity", "sample_count"])
    @pytest.mark.parametrize("value", [True, "0.5", None], ids=["bool", "string", "none"])
    def test_grid_values_must_be_numbers(self, axis, value):
        base = ChainSpec(4, 1.0, 5, seed=0, target_probability=0.4)
        with pytest.raises(ValueError, match=f"{axis} grid value must be a number, got "
                                             f"{value!r}"):
            variance_sweep(axis, [1, value], base, 100)

    def test_integral_float_sample_count_is_that_count(self):
        base = ChainSpec(4, 1.0, 5, seed=0, target_probability=0.4)
        assert variance_sweep("sample_count", [2.0], base, 100) == \
            variance_sweep("sample_count", [2], base, 100)


def reference_sweep(axis, grid, base, replications):
    """The rows of ``variance_sweep`` on the probability or spontaneity axis,
    built point by point: one ``random_chain``, its DP probability and two
    ``sample_batch`` calls per point."""
    seed, aid = base.seed, {"probability": 1, "spontaneity": 2}[axis]
    varied = "target_probability" if axis == "probability" else "spontaneity"
    rows = []
    for j, g in enumerate(grid):
        task = f"{axis}={g:g}"
        try:
            chain = lone_chain(replace(base, **{varied: float(g)}), seed, aid, j, 0)
        except (CalibrationError, ValueError):
            rows.append(MetricRow(task, "", 0, "failed", float("nan"), seed=seed))
            continue
        rows.append(MetricRow(task, "", 0, "exact_probability",
                              exact_outcome_probability(chain), seed=seed))
        rows.append(MetricRow(task, "", 0, "spontaneity", spontaneity(chain), seed=seed))
        mc, scope = sample_batch(chain, STANDARD, replications, substream(seed, aid, j, 1))
        (reach,) = sample_batch(chain, OUTCOME_EXCLUDED, replications,
                                substream(seed, aid, j, 2))
        for kind, vals in ((MC, mc), (SCOPE, scope), (REACH, reach)):
            rows.append(MetricRow(task, kind, 1, "mean", float(vals.mean()), seed=seed))
            rows.append(MetricRow(task, kind, 1, "variance", float(vals.var(ddof=1)),
                                  seed=seed))
        try:
            for kind in (MC, SCOPE, REACH):
                rows.append(MetricRow(task, kind, 1, "exact_variance",
                                      enumerate_sub_distribution(chain, kind).variance(),
                                      seed=seed))
        except InstanceTooLargeError:
            pass
    return ExperimentTable(rows)


class TestStackedSweepCalibration:
    """A sweep calibrates all its points in one bisection, yet every row is
    the one a point-by-point sweep gives, failed points included."""

    CASES = {
        # 0.999 is out of reach, 0 never achievable, 1.5 no target at all
        "probability": ("probability", [0.2, 0.999, 0.45, 0.0, 1.5],
                        ChainSpec(4, 0.67, 4, seed=2),
                        {"probability=0.999", "probability=0", "probability=1.5"}),
        # spontaneity 0 leaves no state with hazard: no spec takes it
        "spontaneity": ("spontaneity", [0, 0.34, 0.67, 1.0],
                        ChainSpec(4, 1.0, 4, seed=2, target_probability=0.4),
                        {"spontaneity=0"}),
        "spontaneity_no_target": ("spontaneity", [0.34, 0, 1.0],
                                  ChainSpec(4, 1.0, 4, seed=3, equal_transitions=True),
                                  {"spontaneity=0"}),
    }

    @pytest.mark.parametrize("axis,grid,base,failed", CASES.values(), ids=CASES)
    def test_rows_equal_the_point_by_point_reference(self, axis, grid, base, failed):
        table = variance_sweep(axis, grid, base, 300)
        assert {r.task for r in table.rows_where(statistic="failed")} == failed
        assert len(table.rows_where(statistic="exact_variance")) == 3 * (len(grid) - len(failed))
        assert table.to_csv_text() == reference_sweep(axis, grid, base, 300).to_csv_text()

    @pytest.mark.parametrize("axis,grid,models", [
        ("probability", [0.2, 0.999, 0.45], 2),
        ("sample_count", [1, 2, 4], 1),
    ])
    def test_one_model_per_calibrated_chain(self, monkeypatch, axis, grid, models):
        # the sampler reads the stop rules of the model the sweep built
        built = []
        init = MarkovModel.__post_init__

        def counting(model):
            built.append(model)
            init(model)

        monkeypatch.setattr(MarkovModel, "__post_init__", counting)
        variance_sweep(axis, grid, ChainSpec(4, 0.67, 4, seed=2, target_probability=0.3), 200)
        assert len(built) == models

    @pytest.mark.parametrize("axis,grid,stages", [
        ("probability", [0.3, 1.5, 0.6], {"calibrate", "sample", "enumerate"}),
        ("sample_count", [1, 4], {"calibrate", "sample"}),
    ])
    def test_stage_seconds(self, axis, grid, stages):
        table = variance_sweep(axis, grid, ChainSpec(4, 1.0, 5, target_probability=0.4), 200)
        assert set(table.stage_seconds) == stages
        assert all(v >= 0 for v in table.stage_seconds.values())


class TestStageClock:
    def test_laps_of_one_stage_add_up(self, monkeypatch):
        ticks = iter([0.0, 1.0, 3.0, 6.0, 10.0])
        monkeypatch.setattr(experiments, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
        clock = _StageClock()
        for stage in ("a", "b", "a", "b"):
            clock.lap(stage)
        assert clock.seconds == {"a": 1.0 + 3.0, "b": 2.0 + 4.0}


class TestDistributionExperiment:
    def test_mc_support_and_reach_mean(self):
        spec = ChainSpec(6, 1.0, 12, seed=13, target_probability=0.3,
                         equal_transitions=True)
        result = estimate_distribution_experiment(spec, 3000, 10)
        mc_scaled = result.estimates[MC] * 10
        assert np.allclose(mc_scaled, np.round(mc_scaled), atol=1e-9)
        reach = result.estimates[REACH]
        se = reach.std(ddof=1) / np.sqrt(reach.size)
        assert abs(reach.mean() - result.true_probability) <= 4 * max(se, 1e-12)

    @pytest.mark.parametrize("counts,name", [((10.5, 3), "n_estimates"),
                                             ((True, 3), "n_estimates"),
                                             ((10, 3.0), "samples_per_estimate")])
    def test_counts_must_be_integers(self, counts, name):
        spec = ChainSpec(4, 1.0, 3, seed=1, target_probability=0.3)
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            estimate_distribution_experiment(spec, *counts)

    def test_scope_mass_above_one_on_high_probability_chain(self):
        spec = ChainSpec(11, 1.0, 20, seed=5, target_probability=0.9,
                         equal_transitions=True)
        result = estimate_distribution_experiment(spec, 2000, 10)
        assert float((result.estimates[SCOPE] > 1.0).mean()) > 0.05

    def test_seed_comes_from_the_spec(self):
        spec = ChainSpec(5, 1.0, 8, seed=3, target_probability=0.4)
        result = estimate_distribution_experiment(spec, 100, 5)
        again = estimate_distribution_experiment(spec, 100, 5)
        other = estimate_distribution_experiment(replace(spec, seed=4), 100, 5)
        assert result.seed == again.seed == 3 and other.seed == 4
        for kind, values in result.estimates.items():
            assert np.array_equal(again.estimates[kind], values)
            assert not np.array_equal(other.estimates[kind], values)
        with pytest.raises(TypeError):
            estimate_distribution_experiment(spec, 100, 5, seed=4)

    def test_csv_schema(self, tmp_path):
        spec = ChainSpec(4, 1.0, 5, seed=14, target_probability=0.4)
        result = estimate_distribution_experiment(spec, 200, 5)
        path = tmp_path / "hist.csv"
        result.write_csv(path, bins=10)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "kind,bin_low,bin_high,count"
        assert len(lines) == 1 + 3 * 10
        # the edges read back as numbers, whatever the numpy scalar repr
        for kind, lo, hi, count in (line.split(",") for line in lines[1:]):
            assert float(lo) < float(hi) and int(count) >= 0

    @pytest.mark.parametrize("bins,message", [
        (0, "bins must be >= 1, got 0"),
        (-2, "bins must be >= 1, got -2"),
        (True, "bins must be an integer, got True"),
        (2.5, "bins must be an integer, got 2.5"),
        ("4", "bins must be an integer, got '4'"),
    ], ids=["zero", "negative", "bool", "fraction", "string"])
    def test_bins_must_be_a_positive_integer(self, bins, message):
        result = estimate_distribution_experiment(ChainSpec(4, 1.0, 5, seed=14), 20, 5)
        with pytest.raises(ValueError, match=f"^{message}$"):
            result.to_csv_text(bins=bins)


def reference_auroc_columns(score_matrix, labels):
    """Average-rank AUROC of every column (Hanley & McNeil, 1982), by an
    argsort per column and passes over the tie groups: a tie group gets the
    mean of its first and last 1-based positions."""
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    rows = np.ascontiguousarray(score_matrix.T)
    order = np.argsort(rows, axis=1)
    ranked = np.take_along_axis(rows, order, axis=1)
    n = labels.size
    idx = np.arange(n)
    new_group = np.ones(ranked.shape, dtype=bool)
    new_group[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    last_of_group = np.ones(ranked.shape, dtype=bool)
    last_of_group[:, :-1] = new_group[:, 1:]
    first = np.maximum.accumulate(np.where(new_group, idx, 0), axis=1)
    last = np.minimum.accumulate(
        np.where(last_of_group, idx, n - 1)[:, ::-1], axis=1
    )[:, ::-1]
    ranks = (first + last) / 2.0 + 1.0
    u = (ranks * pos[order]).sum(axis=1) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def pairwise_auroc(scores, labels):
    """AUROC of one column by comparing every positive with every negative."""
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def cohort_like_scores(kind, rng, n_pat, n_timelines):
    """Patients x sample counts running means like a cohort's, with labels."""
    risk = rng.uniform(0.02, 0.5, size=(n_pat, 1))
    if kind == MC:  # 0/1 outcomes
        values = (rng.random((n_pat, n_timelines)) < risk).astype(float)
    elif kind == SCOPE:  # skewed, mostly small, some well above 1
        values = risk * rng.pareto(1.5, size=(n_pat, n_timelines))
    else:  # [0, 1] on a coarse grid, so ties cross the labels
        values = np.round(risk + 0.3 * rng.random((n_pat, n_timelines)), 1)
    labels = (rng.random(n_pat) < risk[:, 0]).astype(int)
    labels[:2] = 0, 1
    return values.cumsum(axis=1) / np.arange(1, n_timelines + 1), labels


#: nonnegative scores at the edges of the key layout
EDGE_SCORES = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-310, 1.0, 2.0, 3.0,
               1e300, np.nextafter(1e300, 0.0), np.nextafter(1e300, np.inf),
               1.7976931348623157e308)


@st.composite
def labelled_matrix(draw, scores, max_cols=4):
    n = draw(st.integers(2, 20))
    cols = draw(st.integers(1, max_cols))
    n_pos = draw(st.integers(1, n - 1))
    labels = draw(st.permutations([1] * n_pos + [0] * (n - n_pos)))
    return draw(hnp.arrays(float, (n, cols), elements=scores)), np.array(labels)


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.9, 0.1], [1, 0]) == 1.0

    def test_all_ties(self):
        assert auroc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            auroc([0.1, 0.2], [1, 1])

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(5, 60))
            scores = np.round(rng.random(n), 1)  # coarse grid forces ties
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            got = auroc(scores, labels)
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            wins = (pos[:, None] > neg[None, :]).sum()
            ties = (pos[:, None] == neg[None, :]).sum()
            want = (wins + 0.5 * ties) / (pos.size * neg.size)
            assert abs(got - want) <= 1e-12

    def test_column_version_matches_scalar(self):
        rng = np.random.default_rng(4)
        scores = rng.random((50, 6))
        labels = rng.integers(0, 2, size=50)
        labels[0], labels[1] = 0, 1
        cols = _auroc_columns(scores, labels)
        for j in range(6):
            assert abs(cols[j] - auroc(scores[:, j], labels)) <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            auroc([0.1, bad, 0.5], [0, 1, 1])

    def test_matches_scipy_average_ranks(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(11)
        for trial in range(60):
            n = int(rng.integers(2, 80))
            cols = int(rng.integers(1, 40))
            if trial % 3 == 0:  # few distinct values
                scores = rng.integers(0, 4, size=(n, cols)).astype(float)
            elif trial % 3 == 1:  # running means of 0/1 draws, as in the cohort
                draws = rng.random((n, cols)) < rng.uniform(0.02, 0.5)
                scores = draws.cumsum(axis=1) / np.arange(1, cols + 1)
            else:
                scores = rng.random((n, cols))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            n_pos = int(labels.sum())
            ranks = stats.rankdata(scores, axis=0, method="average")
            u = ranks[labels == 1].sum(axis=0) - n_pos * (n_pos + 1) / 2.0
            want = u / (n_pos * (n - n_pos))
            np.testing.assert_array_equal(_auroc_columns(scores, labels), want)
            assert auroc(scores[:, 0], labels) == want[0]

    @pytest.mark.parametrize("kind", [MC, SCOPE, REACH])
    def test_equals_the_rank_reference(self, kind):
        rng = np.random.default_rng([MC, SCOPE, REACH].index(kind))
        for _ in range(20):
            n_pat, n_timelines = (int(x) for x in rng.integers(2, 300, size=2))
            scores, labels = cohort_like_scores(kind, rng, n_pat, n_timelines)
            np.testing.assert_array_equal(
                _auroc_columns(scores, labels), reference_auroc_columns(scores, labels))

    @settings(max_examples=100, deadline=None, database=None)
    @given(labelled_matrix(st.one_of(st.sampled_from(EDGE_SCORES),
                                     st.floats(0.0, 4.0), st.floats(0.0, 1e300))))
    def test_columns_equal_the_pairwise_oracle(self, case):
        scores, labels = case
        want = [pairwise_auroc(scores[:, j], labels) for j in range(scores.shape[1])]
        np.testing.assert_array_equal(_auroc_columns(scores, labels), want)

    @settings(max_examples=100, deadline=None, database=None)
    @given(labelled_matrix(st.one_of(
        st.sampled_from((-1e300, 1e300, -0.0, 0.0, -1.0, -5e-324)),
        st.floats(-4.0, 4.0), st.floats(-1e300, 1e300)), max_cols=1))
    @example((np.array([[1e300], [-1e300], [0.0], [-0.0], [1e300]]),
              np.array([1, 0, 1, 0, 0])))
    def test_scalar_handles_any_finite_scores(self, case):
        scores, labels = case
        assert auroc(scores[:, 0], labels) == pairwise_auroc(scores[:, 0], labels)

    @pytest.mark.parametrize("bad", [-1e-300, -1.0, np.nan])
    def test_columns_reject_negative_and_nan(self, bad):
        scores = np.array([[0.1, 0.2], [0.3, bad], [0.5, 0.6]])
        with pytest.raises(ValueError, match="nonnegative"):
            _auroc_columns(scores, np.array([0, 1, 1]))


class TestBrierAndCalibration:
    def test_perfect_scores(self):
        assert brier([1.0, 0.0, 1.0], [1, 0, 1]) == 0.0

    def test_constant_half_on_balanced_labels(self):
        assert brier([0.5, 0.5], [1, 0]) == 0.25

    def test_range_validated(self):
        with pytest.raises(ValueError):
            brier([1.2], [1])
        with pytest.raises(ValueError):
            brier([], [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            brier([0.1, bad], [0, 1])
        with pytest.raises(ValueError, match="finite"):
            calibration_curve([0.1, bad, 0.5], [0, 1, 1])

    def test_calibration_bins(self):
        scores = [0.05, 0.08, 0.95, 0.55]
        labels = [0, 0, 1, 1]
        rows = calibration_curve(scores, labels, n_bins=10)
        assert len(rows) == 3
        mean_score, event_rate, count = rows[0]
        assert count == 2 and event_rate == 0.0 and abs(mean_score - 0.065) < 1e-12

    @pytest.mark.parametrize("n_bins", [2.5, True, "10", None])
    def test_bin_count_must_be_an_integer(self, n_bins):
        # 2.5 raised a TypeError from range, and True gave one bin
        with pytest.raises(ValueError, match="n_bins must be an integer"):
            calibration_curve([0.1, 0.9], [0, 1], n_bins)

    def test_scores_from_true_probabilities_are_calibrated(self):
        rng = np.random.default_rng(6)
        p = rng.uniform(0.05, 0.95, size=4000)
        labels = (rng.random(4000) < p).astype(int)
        for mean_score, event_rate, count in calibration_curve(p, labels, 10):
            half = 1.96 * np.sqrt(mean_score * (1 - mean_score) / count)
            assert abs(event_rate - mean_score) <= half + 0.02


def make_auc_table(curves, reps=40, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    table = {}
    for kind, values in curves.items():
        for n, v in enumerate(values, start=1):
            table[(kind, n)] = v + noise * rng.standard_normal(reps)
    return table


def auc_rows(table, kind):
    """The replicates of ``kind`` in ``table``, one row per ascending count."""
    return np.array([table[key] for key in sorted(k for k in table if k[0] == kind)])


class TestEquivalenceRatio:
    def test_dominating_alternative_reaches_at_one(self):
        curves = {
            "mc": np.linspace(0.6, 0.7, 10),
            "reach": np.linspace(0.8, 0.85, 10),
        }
        table = make_auc_table(curves)
        row = equivalence_ratio(table, "mc", 10, "reach", 20, seed=1)
        assert row.value == 10.0
        assert row.ci_low == row.ci_high == 10.0

    def test_identical_alternative_strict_ties_do_not_qualify(self):
        # the alternative equals the reference cell exactly: with strict
        # inequality the matching count never qualifies, so the point
        # estimate lands one step later
        curves = {"mc": np.linspace(0.6, 0.7, 10)}
        table = make_auc_table(curves)
        table.update({("alt", n): table[("mc", n)] for n in range(1, 11)})
        row, m_point, _, _ = _equivalence(auc_rows(table, "mc")[4], range(1, 11),
                                          auc_rows(table, "alt"), "alt", 5, 10,
                                          substream(0, 30, 0), 0)
        assert m_point == 6
        assert row.value == pytest.approx(5 / 6)

    def test_flat_identical_curve_never_reached(self):
        table = make_auc_table({"mc": np.full(5, 0.7), "alt": np.full(5, 0.7)})
        row, m_point, _, not_reached = _equivalence(auc_rows(table, "mc")[4], range(1, 6),
                                                    auc_rows(table, "alt"), "alt", 5, 25,
                                                    substream(0, 30, 1), 0)
        assert m_point is None
        assert not_reached == 25
        assert np.isnan(row.value)

    @pytest.mark.parametrize("field, value, message", [
        ("bootstrap_rounds", 0, "bootstrap_rounds must be >= 1, got 0"),
        ("bootstrap_rounds", True, "bootstrap_rounds must be an integer, got True"),
        ("bootstrap_rounds", 20.0, "bootstrap_rounds must be an integer, got 20.0"),
        ("reference_n", 10.7, "reference_n must be an integer, got 10.7"),
        ("reference_n", 0, "reference_n must be >= 1, got 0"),
    ], ids=["zero_rounds", "bool_rounds", "float_rounds", "fractional_n", "zero_n"])
    def test_counts_are_checked(self, field, value, message):
        table = make_auc_table({"mc": np.linspace(0.6, 0.7, 10),
                                "reach": np.linspace(0.8, 0.85, 10)})
        args = {"reference_n": 10, "bootstrap_rounds": 20, field: value}
        with pytest.raises(ValueError, match=message):
            equivalence_ratio(table, "mc", args["reference_n"], "reach",
                              args["bootstrap_rounds"], seed=1)

    def test_missing_cells_rejected(self):
        table = make_auc_table({"mc": np.linspace(0.6, 0.7, 5)})
        with pytest.raises(ValueError):
            equivalence_ratio(table, "mc", 5, "reach", 10, seed=0)
        with pytest.raises(ValueError):
            equivalence_ratio(table, "scope", 5, "mc", 10, seed=0)

    def test_seed_draws_the_rounds_and_labels_the_row(self):
        curves = {
            "mc": np.linspace(0.60, 0.75, 8),
            "alt": np.linspace(0.63, 0.78, 8),
        }
        table = make_auc_table(curves, reps=40, noise=0.03, seed=5)
        row = equivalence_ratio(table, "mc", 8, "alt", 60, seed=1)
        assert (row.value, row.ci_low, row.ci_high) == (8 / 7, 1.0, 4 / 3)
        assert row.seed == 1
        twin, *_ = _equivalence(auc_rows(table, "mc")[7], range(1, 9), auc_rows(table, "alt"),
                                "alt", 8, 60, substream(1, 10, 0), 1)
        assert row == twin

    def test_counts_need_not_be_contiguous(self):
        # cells at 1, 2, 4, 8, inserted out of order: the alternative first
        # beats mc @ 8 (0.75) at count 4, the third cell
        curves = {"mc": {1: 0.6, 2: 0.65, 4: 0.7, 8: 0.75},
                  "alt": {1: 0.62, 2: 0.7, 4: 0.8, 8: 0.85}}
        table = {(kind, n): np.full(40, curve[n])
                 for n in (8, 1, 4, 2) for kind, curve in curves.items()}
        row = equivalence_ratio(table, "mc", 8, "alt", 20, seed=2)
        assert (row.value, row.ci_low, row.ci_high) == (2.0, 2.0, 2.0)
        twin, m_point, m_samples, not_reached = _equivalence(
            table[("mc", 8)], (1, 2, 4, 8), auc_rows(table, "alt"), "alt", 8, 20,
            substream(2, 10, 0), 2)
        assert row == twin
        assert (m_point, m_samples, not_reached) == (4, (4,) * 20, 0)

    def test_bootstrap_ci_matches_independent_reimplementation(self):
        curves = {
            "mc": np.linspace(0.60, 0.75, 8),
            "alt": np.linspace(0.63, 0.78, 8),
        }
        table = make_auc_table(curves, reps=40, noise=0.01, seed=5)
        rounds = 60
        got_row, _, m_samples, not_reached = _equivalence(
            auc_rows(table, "mc")[7], range(1, 9), auc_rows(table, "alt"), "alt", 8, rounds,
            substream(7, 30, 2), 0)

        # from-scratch percentile bootstrap with a twin stream
        rng = substream(7, 30, 2)
        counts = sorted(n for k, n in table if k == "alt")
        ref = np.asarray(table[("mc", 8)], float)
        m_vals, missed = [], 0
        for _ in range(rounds):
            ref_b = ref[rng.integers(0, ref.size, ref.size)].mean()
            for n in counts:
                alt = np.asarray(table[("alt", n)], float)
                if alt[rng.integers(0, alt.size, alt.size)].mean() > ref_b:
                    m_vals.append(n)
                    break
            else:
                missed += 1
        assert tuple(m_vals) == m_samples and missed == not_reached
        ratios = 8 / np.asarray(m_vals, float)
        lo, hi = np.percentile(ratios, [2.5, 97.5])
        assert got_row.ci_low == pytest.approx(min(lo, got_row.value))
        assert got_row.ci_high == pytest.approx(max(hi, got_row.value))


class TestExperimentTable:
    def test_csv_round_trip_and_column_order(self, tmp_path):
        rows = (
            MetricRow("t1", MC, 1, "variance", 0.25, seed=3),
            MetricRow("t1", REACH, 1, "variance", 0.1, 0.05, 0.2, seed=3),
        )
        table = ExperimentTable(rows)
        path = tmp_path / "table.csv"
        table.write_csv(path)
        text = path.read_text()
        assert text.splitlines()[0] == "task,kind,n,statistic,value,ci_low,ci_high,seed"
        assert ExperimentTable.read_csv(path) == table

    HEADER = "task,kind,n,statistic,value,ci_low,ci_high,seed\n"

    def test_short_row_names_its_line(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(self.HEADER + "t1,mc,1,variance,0.25,,,3\n\nt1,mc,1,variance,0.25\n")
        with pytest.raises(ValueError, match="line 4 has 5 cells, expected 8"):
            ExperimentTable.read_csv(path)

    def test_extra_cell_names_its_line(self, tmp_path):
        # an extra comma would otherwise drop the last cell unseen
        path = tmp_path / "table.csv"
        path.write_text(self.HEADER + "t1,mc,1,variance,0.25,,,3,\n")
        with pytest.raises(ValueError, match="line 2 has 9 cells, expected 8"):
            ExperimentTable.read_csv(path)

    def test_ci_ordering_enforced(self):
        with pytest.raises(ValueError):
            MetricRow("t", MC, 1, "auroc", 0.9, 0.1, 0.5)

    def test_single_raises_on_ambiguity(self):
        table = ExperimentTable((
            MetricRow("t", MC, 1, "variance", 0.2),
            MetricRow("t", MC, 2, "variance", 0.1),
        ))
        with pytest.raises(ValueError):
            table.single(task="t", kind=MC, statistic="variance")


def per_patient_cohort_csv(spec):
    """The cohort table with every patient calibrated and sampled on its own,
    one ``random_chain`` and two ``sample_batch`` calls each."""
    seed, tpl = spec.seed, spec.chain_template
    n_pat, n = spec.n_patients, spec.n_timelines
    (a, b), (lo, hi) = experiments.COHORT_RISK_BETA, spec.risk_range
    targets = lo + (hi - lo) * substream(seed, 5, 0).beta(a, b, size=n_pat)
    p_exact = np.empty(n_pat)
    pools = {kind: np.empty((n_pat, n)) for kind in (MC, SCOPE, REACH)}
    for i in range(n_pat):
        chain = lone_chain(replace(tpl, target_probability=float(targets[i])), seed, 6, i)
        p_exact[i] = exact_outcome_probability(chain)
        pools[MC][i], pools[SCOPE][i] = sample_batch(
            chain, STANDARD, n, substream(seed, 7, i))
        (pools[REACH][i],) = sample_batch(
            chain, OUTCOME_EXCLUDED, n, substream(seed, 8, i))
    labels = (substream(seed, 5, 1).random(n_pat) < p_exact).astype(int)
    rows = _cohort_metrics(spec, pools, labels, _StageClock())
    return ExperimentTable(rows).to_csv_text()


@pytest.fixture(scope="module")
def small_cohort():
    spec = CohortSpec(
        n_patients=150,
        chain_template=ChainSpec(5, 1.0, 8, seed=0, equal_transitions=True),
        n_timelines=20,
        bootstrap_rounds=8,
        seed=77,
    )
    return spec, synthetic_cohort_eval(spec)


def reference_bootstrap_aurocs(pools, labels, rounds, seed):
    """The cohort's AUROC rounds in straight lines: per round and kind,
    ``take_along_axis`` -> ``cumsum`` -> divide by the sample count ->
    ``_auroc_columns``."""
    n_pat, pool_n = pools[MC].shape
    denom = np.arange(1, pool_n + 1, dtype=float)
    auc = {kind: np.empty((pool_n, rounds)) for kind in (MC, SCOPE, REACH)}
    for r in range(rounds):
        rr = substream(seed, 9, r)
        idx_std = rr.integers(0, pool_n, size=(n_pat, pool_n))
        idx_rea = rr.integers(0, pool_n, size=(n_pat, pool_n))
        for kind in (MC, SCOPE, REACH):
            idx = idx_rea if kind == REACH else idx_std
            scores = np.take_along_axis(pools[kind], idx, axis=1).cumsum(axis=1)
            scores /= denom
            auc[kind][:, r] = _auroc_columns(scores, labels)
    return auc


def bootstrap_case(case):
    """``(pools, labels, rounds)`` of a seeded cohort-like case."""
    rng = substream(0, 50, sorted(BOOTSTRAP_CASES).index(case))
    n_pat, pool_n, rounds = BOOTSTRAP_CASES[case]
    risk = rng.uniform(0.02, 0.6, size=(n_pat, 1))
    hits = (rng.random((n_pat, pool_n)) < risk).astype(float)
    scope = risk * rng.pareto(1.5, size=(n_pat, pool_n))
    reach = np.minimum(risk + 0.2 * rng.random((n_pat, pool_n)), 1.0)
    labels = (rng.random(n_pat) < risk[:, 0]).astype(int)
    labels[:2] = 0, 1
    if case == "mc_rows_all_0_or_all_1":
        hits[:] = rng.random((n_pat, 1)) < 0.4
    elif case == "heavy_ties":
        scope = rng.choice([0.0, -0.0, 0.5, 1.0, 2.0], size=(n_pat, pool_n))
        reach = rng.choice([-0.0, 0.25, 0.5], size=(n_pat, pool_n))
    elif case == "ties_made_by_the_division":
        # six draws of x and six of the next double sum apart, yet tie once
        # divided by 6: a negative and a positive patient
        x = 0.5331689761992734
        scope[:2] = reach[:2] = [[np.nextafter(x, 1.0)], [x]]
    elif case == "one_positive_patient":
        labels[:] = 0
        labels[n_pat // 2] = 1
    return {MC: hits, SCOPE: scope, REACH: reach}, labels, rounds


#: case -> (patients, timelines, rounds)
BOOTSTRAP_CASES = {
    "cohort_like": (60, 12, 5),
    "mc_rows_all_0_or_all_1": (40, 9, 4),
    "heavy_ties": (50, 10, 4),
    "ties_made_by_the_division": (30, 6, 2),
    "one_timeline": (30, 1, 3),
    "two_timelines": (30, 2, 3),
    "one_positive_patient": (25, 8, 3),
    "one_round": (45, 16, 1),
}


class TestCohortBootstrap:
    @pytest.mark.parametrize("case", BOOTSTRAP_CASES)
    def test_equals_the_straight_line_rounds(self, case):
        pools, labels, rounds = bootstrap_case(case)
        got = _bootstrap_aurocs(pools, labels, rounds, 3)
        want = reference_bootstrap_aurocs(pools, labels, rounds, 3)
        for kind in (MC, SCOPE, REACH):
            assert got[kind].shape == (pools[MC].shape[1], rounds)
            np.testing.assert_array_equal(got[kind], want[kind])

    def test_pools_are_not_modified(self):
        pools, labels, rounds = bootstrap_case("heavy_ties")
        before = {kind: v.copy() for kind, v in pools.items()}
        _bootstrap_aurocs(pools, labels, rounds, 3)
        for kind, v in pools.items():
            assert np.array_equal(v.view(np.uint64), before[kind].view(np.uint64))

    @pytest.mark.parametrize("kind,bad", [(MC, 0.5), (MC, 2.0), (SCOPE, -1e-300),
                                          (REACH, float("nan"))])
    def test_invalid_pool_values_rejected(self, kind, bad):
        pools, labels, rounds = bootstrap_case("cohort_like")
        pools[kind][3, 4] = bad
        with pytest.raises(ValueError):
            _bootstrap_aurocs(pools, labels, rounds, 3)

    @pytest.mark.parametrize("ties", [False, True])
    def test_ci_bounds_equal_numpy_percentiles(self, ties):
        rng = substream(0, 52, int(ties))
        for n in range(1, 101):
            samples = rng.random(n)
            if ties:
                samples = rng.choice(samples[:max(1, n // 4)], size=n)
            want = np.percentile(samples, [2.5, 97.5])
            assert np.array(_ci_bounds(samples)).tobytes() == want.tobytes(), n
            rows = np.stack([samples, samples[::-1] * 3.0, np.full(n, 0.1)])
            want = np.percentile(rows, [2.5, 97.5], axis=1)
            assert np.array(_ci_bounds(rows)).tobytes() == want.tobytes(), n

    @pytest.mark.parametrize("rounds", [1, 2, 7, 40, 129])
    def test_auroc_rows_equal_one_ci_row_per_count(self, rounds):
        rng = substream(0, 51, rounds)
        auc = rng.uniform(0.4, 0.9, size=(6, rounds))
        # constant rows whose mean is not the constant: the CI must widen
        auc[1], auc[2] = 0.1, 0.7
        auc[3, 0] = 0.05  # one low outlier
        rows = _auroc_rows(SCOPE, auc, 4)
        assert rows == [_ci_row("cohort", SCOPE, j + 1, "auroc", float(reps.mean()), reps, 4)
                        for j, reps in enumerate(auc)]
        if rounds in (7, 129):
            assert rows[1].ci_low == rows[1].value < 0.1
            assert rows[2].ci_high == rows[2].value > 0.7


class TestSyntheticCohort:
    # digests of to_csv_text(): "equal" and "random" taken before the
    # bootstrap ranked MC by counting and gathered into reused buffers, the
    # benchmark-size and one-class cohorts before the equivalence read the
    # bootstrap's arrays
    PINNED = {
        "equal": (CohortSpec(n_patients=80,
                             chain_template=ChainSpec(5, 0.75, 8, equal_transitions=True),
                             n_timelines=16, bootstrap_rounds=9, seed=4),
                  "3df065a5aa51b99042dd128643af0a7323972290c0f28dda684166b6675384ec"),
        "random": (CohortSpec(n_patients=70, chain_template=ChainSpec(6, 0.6, 10),
                              n_timelines=13, bootstrap_rounds=5, seed=12),
                   "0f78bfdd7b6cf799534c667a9524ada147911ffb419d306efd6f64bac0564d94"),
        "benchmark": (CohortSpec(n_patients=500,
                                 chain_template=ChainSpec(6, 1.0, 12, equal_transitions=True),
                                 n_timelines=100, bootstrap_rounds=40, seed=9),
                      "fe099fdd224efe8d9c628fa1099b0312993505dce1f1ec21c5c57f188681158b"),
        # the cohort of test_degenerate_labels_drop_rounds: every label is 0
        "one_class": (CohortSpec(n_patients=40,
                                 chain_template=ChainSpec(4, 1.0, 6, seed=0,
                                                          equal_transitions=True),
                                 n_timelines=5, bootstrap_rounds=4, risk_range=(1e-5, 2e-5),
                                 seed=5),
                      "cd07e3a1c65ac4ceb0a408b04d8a0d29cfd441cde72d3228aeae43c13ce72cb9"),
    }

    @pytest.mark.parametrize("case", PINNED)
    def test_pinned_table_digest(self, case):
        spec, digest = self.PINNED[case]
        text = synthetic_cohort_eval(spec).to_csv_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_auroc_rows_cover_all_counts(self, small_cohort):
        spec, table = small_cohort
        for kind in (MC, SCOPE, REACH):
            rows = table.rows_where(task="cohort", kind=kind, statistic="auroc")
            assert len(rows) == spec.n_timelines
            assert all(0.0 <= r.value <= 1.0 for r in rows)
            assert all(r.ci_low <= r.value <= r.ci_high for r in rows)

    def test_equivalence_and_calibration_rows_present(self, small_cohort):
        _, table = small_cohort
        for kind in (SCOPE, REACH):
            assert table.rows_where(task="equivalence", kind=kind,
                                    statistic="equivalence_ratio")
            assert table.rows_where(task="equivalence", kind=kind,
                                    statistic="equivalence_m")
        for kind in (MC, SCOPE, REACH):
            assert table.rows_where(kind=kind, statistic="brier")
            assert table.rows_where(kind=kind, statistic="cal_event_rate")
        assert table.rows_where(kind=SCOPE, statistic="n_clipped")

    @pytest.mark.parametrize("equal", [True, False])
    def test_equals_patient_by_patient_reference(self, equal):
        spec = CohortSpec(
            n_patients=60,
            chain_template=ChainSpec(5, 0.75, 8, equal_transitions=equal),
            n_timelines=12,
            bootstrap_rounds=6,
            seed=31,
        )
        assert synthetic_cohort_eval(spec).to_csv_text() == per_patient_cohort_csv(spec)

    def test_seed_comes_from_the_spec(self):
        spec = CohortSpec(n_patients=20, chain_template=ChainSpec(4, 1.0, 5, seed=0),
                          n_timelines=5, bootstrap_rounds=3, seed=8)
        table = synthetic_cohort_eval(spec).to_csv_text()
        # the template's seed is not read
        template = replace(spec.chain_template, seed=1)
        assert synthetic_cohort_eval(replace(spec, chain_template=template)).to_csv_text() == table
        assert synthetic_cohort_eval(replace(spec, seed=9)).to_csv_text() != table
        with pytest.raises(TypeError):
            synthetic_cohort_eval(spec, 8)

    def test_reproducible(self, small_cohort):
        spec, table = small_cohort
        again = synthetic_cohort_eval(spec)
        assert again.to_csv_text() == table.to_csv_text()

    def test_an_equivalence_error_propagates(self, monkeypatch):
        # only a one-class cohort skips the equivalence rows; on a two-class
        # cohort an error there is not turned into a table without them
        spec = CohortSpec(n_patients=60,
                          chain_template=ChainSpec(5, 0.75, 8, equal_transitions=True),
                          n_timelines=12, bootstrap_rounds=6, seed=3)
        assert synthetic_cohort_eval(spec).rows_where(statistic="equivalence_ratio")

        def broken(*args, **kwargs):
            raise ValueError("equivalence failed")

        monkeypatch.setattr(experiments, "_equivalence", broken)
        with pytest.raises(ValueError, match="equivalence failed"):
            synthetic_cohort_eval(spec)

    def test_degenerate_labels_drop_rounds(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a single-class round reached the AUROC")

        for ranking in ("_auroc_columns", "_key_sort_aurocs", "_count_aurocs"):
            monkeypatch.setattr(experiments, ranking, unreachable)
        spec = CohortSpec(
            n_patients=40,
            chain_template=ChainSpec(4, 1.0, 6, seed=0, equal_transitions=True),
            n_timelines=5,
            bootstrap_rounds=4,
            risk_range=(1e-5, 2e-5),
            seed=5,
        )
        table = synthetic_cohort_eval(spec)
        for kind in (MC, SCOPE, REACH):
            dropped = table.single(task="cohort", kind=kind,
                                   statistic="auroc_rounds_dropped")
            assert dropped.value == 4.0
        assert not table.rows_where(statistic="auroc")
        # every label is 0
        assert {r.value for r in table.rows_where(statistic="cal_event_rate")} == {0.0}
