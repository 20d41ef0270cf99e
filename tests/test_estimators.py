"""Sub-estimators, aggregation, and report invariants."""

import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqrisk import (
    CLIP_TO_UNIT,
    MC,
    OUTCOME_EXCLUDED,
    REACH,
    SCOPE,
    STANDARD,
    ChainSpec,
    EstimateReport,
    MarkovModel,
    counterexample_model,
    estimate,
    exact_outcome_probability,
    paired_estimates,
    random_chain,
    sample_batch,
    seqmodel,
    trajectory_stream,
)
from seqrisk.estimators import (
    CLIP_NONE, CLIP_POLICIES, KINDS, aggregate, apply_clip, required_mode,
)

from conftest import RuledChain, ScriptedStream, make_random_model, ruled_batch


class WrappedChain:
    """A chain's distributions behind a plain class, not a MarkovModel."""

    def __init__(self, chain):
        self.chain = chain
        self.vocabulary, self.horizon = chain.vocabulary, chain.horizon

    def next_distribution(self, prefix):
        return self.chain.next_distribution(prefix)


@pytest.fixture(scope="module")
def wrapped_chain():
    """An 11-state, 20-step chain and the same chain wrapped."""
    chain = random_chain(ChainSpec(11, 0.5, 20, seed=1, target_probability=0.3))
    return chain, WrappedChain(chain)


def reference_aggregate(values, clip_policy=CLIP_NONE):
    """The list-based aggregation the array code must match bit for bit:
    ``(mean, sample_variance, std_error, n_clipped)``."""
    if clip_policy == CLIP_NONE:
        values, n_clipped = list(values), 0
    else:
        values, n_clipped = [min(v, 1.0) for v in values], sum(1 for v in values if v > 1.0)
    n = len(values)
    mean = math.fsum(values) / n
    if n > 1:
        ss = math.fsum((v - mean) ** 2 for v in values)
        residual = math.fsum(v - mean for v in values)
        var = max(0.0, (ss - residual * residual / n) / (n - 1))
    else:
        var = 0.0
    return mean, var, math.sqrt(var / n), n_clipped


def assert_same_report(a, b):
    """Every field equal; the sub-values bit for bit."""
    for f in fields(EstimateReport):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "sub_values":
            assert x.dtype == y.dtype == np.float64 and x.tobytes() == y.tobytes()
        else:
            assert x == y, f.name


def summary(rep):
    return rep.mean, rep.sample_variance, rep.std_error, rep.n_clipped


#: bounded floats, so that no square or sum overflows
_VALUE_LISTS = st.one_of(
    st.lists(st.sampled_from([0.0, 1.0]), min_size=1, max_size=200),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=200),
    # Pareto-skewed scope-like values, many above 1
    st.lists(st.floats(1e-6, 1.0).map(lambda u: u ** -1.5), min_size=1, max_size=200),
    st.tuples(st.floats(-1e6, 1e6), st.integers(1, 200)).map(lambda t: [t[0]] * t[1]),
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=1),
)


def one_value(model, mode, uniforms):
    """Sub-values of one trajectory drawn with the given uniforms, all read."""
    stream = ScriptedStream(uniforms)
    values = [float(v[0]) for v in sample_batch(model, mode, 1, stream)]
    assert stream.uniforms == []
    return values


class TestSubEstimators:
    """The sub-values the sampler returns for one trajectory on a path the
    uniforms set.  The counterexample model stops at its terminal branch
    when ``u < p`` and otherwise flips a fair coin at each later step: heads,
    the outcome, when ``u < 0.5``."""

    def test_mc_hit(self):
        mc, _ = one_value(counterexample_model(0.0), STANDARD, [0.5, 0.9, 0.1])
        assert mc == 1.0

    def test_mc_miss(self):
        mc, _ = one_value(counterexample_model(0.0), STANDARD, [0.5, 0.9, 0.9, 0.9])
        assert mc == 0.0

    def test_scope_zero_hazards(self):
        # the terminal branch ends the timeline before any coin step
        assert one_value(counterexample_model(1.0), STANDARD, [0.5]) == [0.0, 0.0]

    def test_scope_coin_run_value(self):
        # a no-hit run of three fair-coin steps after the opening branch
        assert one_value(counterexample_model(0.0), STANDARD, [0.5, 0.9, 0.9, 0.9]) == [0.0, 1.5]

    def test_reach_zero_hazards(self):
        m = MarkovModel.step_mode([[1.0, 0.0], [0.0, 1.0]], 0, 1, 2)
        assert one_value(m, OUTCOME_EXCLUDED, [0.5, 0.5]) == [0.0]

    def test_reach_single_certain_step(self):
        # the outcome takes all the mass: a degenerate step draws no uniform
        m = MarkovModel.step_mode([[0.0, 1.0], [0.0, 1.0]], 0, 1, 5)
        assert one_value(m, OUTCOME_EXCLUDED, []) == [1.0]

    def test_reach_survival_product(self):
        # the branch, then three coin steps with heads excluded
        (got,) = one_value(counterexample_model(0.0), OUTCOME_EXCLUDED, [0.5, 0.9, 0.1, 0.5])
        assert got == 1.0 - 0.5 ** 3
        # brute-force over the eight equally likely flip patterns of the
        # three hazardous steps: the chance any step flips to the outcome
        hit_prob = sum(1.0 / 8.0 for bits in range(8) if bits != 0)
        assert abs(got - hit_prob) < 1e-15

    def test_required_mode(self):
        assert required_mode(MC) == STANDARD
        assert required_mode(SCOPE) == STANDARD
        assert required_mode(REACH) == OUTCOME_EXCLUDED
        with pytest.raises(ValueError):
            required_mode("other")


class TestAggregation:
    def test_mean_matches_fsum(self):
        rng = np.random.default_rng(0)
        values = list(rng.random(1000))
        rep = aggregate(MC, values)
        assert abs(rep.mean - math.fsum(values) / len(values)) <= 1e-12

    def test_single_value_variance_zero(self):
        rep = aggregate(MC, [1.0])
        assert rep.sample_variance == 0.0 and rep.std_error == 0.0

    def test_clip_policy_counts_and_monotonicity(self):
        rng = np.random.default_rng(1)
        values = list(rng.random(500) * 2.0)
        clipped, n_clipped = apply_clip(values, CLIP_TO_UNIT)
        assert n_clipped == sum(1 for v in values if v > 1.0)
        for raw, c in zip(values, clipped):
            assert c <= raw
            if raw <= 1.0:
                assert c == raw

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate(MC, [])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="^kind must be one of .*, got 'bogus'$"):
            aggregate("bogus", [0.0, 1.0])

    @pytest.mark.parametrize("bad,index", [(math.nan, 0), (math.inf, 1), (-math.inf, 1)])
    def test_values_that_are_not_finite_rejected(self, bad, index):
        values = [0.5, 1.0]
        values[index] = bad
        message = f"sub_values must be finite, got {bad!r} at index {index}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            aggregate(MC, values)

    @settings(max_examples=300, deadline=None)
    @given(values=_VALUE_LISTS, clip_policy=st.sampled_from(CLIP_POLICIES))
    def test_matches_the_list_reference(self, values, clip_policy):
        rep = aggregate(SCOPE, np.array(values), clip_policy=clip_policy)
        assert summary(rep) == reference_aggregate(values, clip_policy)
        expected = [min(v, 1.0) for v in values] if clip_policy == CLIP_TO_UNIT else values
        assert rep.sub_values.tolist() == expected

    @pytest.mark.parametrize("x", [0.5491046120679859, 15.640057591216767,
                                   0.20111836581123388, 3.7208132707691375])
    def test_squares_match_the_list_reference(self, x):
        # the deviations of [0, 2x] are -x and x, so the variance is 2 x**2;
        # on glibc, ``x * x`` differs from ``x ** 2`` in the last bit here
        values = [0.0, 2.0 * x]
        assert summary(aggregate(SCOPE, values)) == reference_aggregate(values)

    def test_report_owns_read_only_values(self):
        values = np.array([0.25, 1.5, 0.5])
        rep = aggregate(SCOPE, values)
        assert values.flags.writeable and not rep.sub_values.flags.writeable
        assert not np.shares_memory(values, rep.sub_values)
        values[0] = 9.0
        assert rep.sub_values[0] == 0.25

    def test_report_round_trip_with_sidecar(self, tmp_path):
        rep = aggregate(SCOPE, [0.25, 1.5, 0.5], seed=9)
        path = tmp_path / "report.json"
        rep.save(path)
        side = tmp_path / "report.json.f64"
        assert side.read_bytes() == np.array([0.25, 1.5, 0.5], dtype="<f8").tobytes()
        assert json.loads(path.read_text())["sub_values_file"] == side.name
        assert_same_report(EstimateReport.load(path), rep)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [1, 3, 100_000])
    def test_save_load_round_trip(self, tmp_path, kind, n):
        rep = estimate(make_random_model(3), kind, n, seed=4)
        path = tmp_path / "report.json"
        rep.save(path)
        assert set(rep.files(path)) == {path, tmp_path / "report.json.f64"}
        loaded = EstimateReport.load(path)
        assert_same_report(loaded, rep)
        assert not loaded.sub_values.flags.writeable

    def test_load_rejects_a_truncated_sidecar(self, tmp_path):
        path = tmp_path / "report.json"
        aggregate(MC, [0.0, 1.0, 1.0, 0.0]).save(path)
        side = tmp_path / "report.json.f64"
        side.write_bytes(side.read_bytes()[:16])
        with pytest.raises(ValueError, match="16 bytes, expected 4 float64 values"):
            EstimateReport.load(path)

    def test_load_rejects_an_unknown_key(self, tmp_path):
        path = tmp_path / "report.json"
        aggregate(MC, [0.0, 1.0]).save(path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "meen": 0.5}))
        with pytest.raises(ValueError, match=r"unknown report keys \['meen'\]"):
            EstimateReport.load(path)

    @pytest.mark.parametrize("key", ["mean", "seed", "sub_values_file"])
    def test_load_rejects_a_missing_key(self, tmp_path, key):
        path = tmp_path / "report.json"
        aggregate(MC, [0.0, 1.0]).save(path)
        meta = json.loads(path.read_text())
        del meta[key]
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=rf"lacks the report keys \['{key}'\]"):
            EstimateReport.load(path)

    def test_load_rejects_inline_sub_values(self, tmp_path):
        # the format before the sidecar: the values listed in the metadata
        path = tmp_path / "report.json"
        aggregate(MC, [0.0, 1.0]).save(path)
        meta = json.loads(path.read_text())
        del meta["sub_values_file"]
        path.write_text(json.dumps({**meta, "sub_values": [0.0, 1.0]}))
        with pytest.raises(ValueError, match="lists its sub_values inline"):
            EstimateReport.load(path)

    @pytest.mark.parametrize("field,value,message", [
        ("kind", "bogus", "kind must be one of ('mc', 'scope', 'reach'), got 'bogus'"),
        ("clip_policy", "zzz", "clip_policy must be one of ('none', 'clip_to_unit'), "
                               "got 'zzz'"),
        ("mean", "x", "mean must be a number, got 'x'"),
        ("sample_variance", -0.5, "sample_variance must be finite and >= 0, got -0.5"),
        ("std_error", None, "std_error must be a number, got None"),
        ("n_clipped", -5, "n_clipped must be in [0, n=2], got -5"),
        ("n_clipped", 3, "n_clipped must be in [0, n=2], got 3"),
        ("n_clipped", 1.5, "n_clipped must be an integer, got 1.5"),
        ("seed", "7", "seed must be an integer, got '7'"),
    ], ids=["kind", "clip_policy", "mean", "variance", "std_error", "n_clipped_negative",
            "n_clipped_above_n", "n_clipped_fraction", "seed"])
    def test_load_rejects_a_bad_field(self, tmp_path, field, value, message):
        path = tmp_path / "report.json"
        aggregate(MC, [0.0, 1.0]).save(path)
        path.write_text(json.dumps({**json.loads(path.read_text()), field: value}))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EstimateReport.load(path)

    def test_load_rejects_a_mean_that_is_not_finite(self, tmp_path):
        # the json module reads and writes NaN
        path = tmp_path / "report.json"
        aggregate(MC, [0.0, 1.0]).save(path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "mean": math.nan}))
        with pytest.raises(ValueError, match="^mean must be finite, got nan$"):
            EstimateReport.load(path)

    @pytest.mark.parametrize("text", ["5", "[1]"])
    def test_load_rejects_metadata_that_is_not_an_object(self, tmp_path, text):
        path = tmp_path / "report.json"
        path.write_text(text)
        message = f"report must be a JSON object, got {text}"
        with pytest.raises(ValueError, match=re.escape(message)):
            EstimateReport.load(path)

    @pytest.mark.parametrize("name", ["../report.json.f64", "{absolute}",
                                      "sub/report.json.f64", "..", ""])
    def test_load_rejects_a_sidecar_outside_the_directory(self, tmp_path, name):
        # a well-formed sidecar sits where each bad name points
        path = tmp_path / "sub" / "report.json"
        path.parent.mkdir()
        aggregate(MC, [0.0, 1.0]).save(path)
        outside = tmp_path / "report.json.f64"
        outside.write_bytes(path.with_name("report.json.f64").read_bytes())
        meta = json.loads(path.read_text())
        name = name.format(absolute=outside)
        path.write_text(json.dumps({**meta, "sub_values_file": name}))
        with pytest.raises(ValueError, match="sub_values_file"):
            EstimateReport.load(path)


class TestEstimate:
    def test_certain_outcome_any_n(self):
        m = MarkovModel.step_mode([[0.0, 1.0], [0.0, 1.0]], 0, 1, 5)
        for n in (1, 7):
            rep = estimate(m, MC, n, seed=0)
            assert rep.mean == 1.0 and rep.sample_variance == 0.0

    def test_reach_deterministic_backbone(self):
        h, steps = 0.3, 6
        m = MarkovModel.step_mode([[1.0 - h, h], [0.0, 1.0]], 0, 1, steps)
        rep = estimate(m, REACH, 25, seed=1)
        expected = 1.0
        for _ in range(steps):
            expected *= 1.0 - h
        expected = 1.0 - expected
        assert all(v == expected for v in rep.sub_values)
        assert rep.sample_variance == 0.0

    def test_n_zero_rejected(self):
        m = make_random_model(0)
        with pytest.raises(ValueError):
            estimate(m, MC, 0, seed=0)

    @pytest.mark.parametrize("model", [make_random_model(0), counterexample_model(0.3)],
                             ids=["markov", "non_markov"])
    @pytest.mark.parametrize("n", [2.5, True])
    def test_non_integral_n_rejected(self, model, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            estimate(model, MC, n, seed=0)
        with pytest.raises(ValueError, match="n must be an integer"):
            paired_estimates(model, n, seed=0)

    def test_numpy_integer_n(self):
        m = make_random_model(0)
        assert_same_report(estimate(m, MC, np.int64(3), seed=0), estimate(m, MC, 3, seed=0))
        assert paired_estimates(m, np.int64(3), seed=0)[1].n == 3

    def test_seed_determinism(self):
        m = make_random_model(5)
        a = estimate(m, REACH, 50, seed=3)
        b = estimate(m, REACH, 50, seed=3)
        assert_same_report(a, b)

    def test_mc_matches_oracle_at_large_n(self):
        m = make_random_model(21)
        p = exact_outcome_probability(m)
        rep = estimate(m, MC, 20_000, seed=4)
        assert abs(rep.mean - p) <= 4.0 * max(rep.std_error, 1e-9)

    @pytest.mark.parametrize("n", [1, 300, 2 * seqmodel._BINS])
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.9])
    def test_counterexample_gives_its_chain_values(self, p, n):
        # the counterexample model as a chain over its own tokens: the first
        # row from the empty prefix, the coin row after any token
        m = counterexample_model(p)
        first, coin = m.next_distribution([]), m.next_distribution([1])
        chain = RuledChain([first, coin, coin, coin], 0, m.vocabulary, m.horizon)
        seed = 12
        mc, scope = ruled_batch(chain, STANDARD, n, trajectory_stream(seed))
        (reach,) = ruled_batch(chain, OUTCOME_EXCLUDED, n, trajectory_stream(seed))
        for kind, values in ((MC, mc), (SCOPE, scope), (REACH, reach)):
            assert estimate(m, kind, n, seed=seed).sub_values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("seed", [3, 17])
    @pytest.mark.parametrize("n", [1, 5, 1023, 1024, 5000])
    def test_wrapped_chain_gives_the_chain_report(self, wrapped_chain, n, seed):
        # the same distributions behind a plain class give the same files
        chain, wrapped = wrapped_chain
        for kind in KINDS:
            want = estimate(chain, kind, n, seed=seed).files("report.json")
            assert estimate(wrapped, kind, n, seed=seed).files("report.json") == want

    def test_sub_value_ranges(self):
        m = make_random_model(13)
        for kind in (MC, REACH):
            rep = estimate(m, kind, 200, seed=5)
            assert all(0.0 <= v <= 1.0 for v in rep.sub_values)
        rep = estimate(m, SCOPE, 200, seed=5)
        assert all(v >= 0.0 for v in rep.sub_values)


class TestPairedEstimates:
    def test_no_outcome_model(self):
        m = MarkovModel.step_mode([[1.0, 0.0], [0.0, 1.0]], 0, 1, 4)
        mc_rep, scope_rep = paired_estimates(m, 20, seed=0)
        assert mc_rep.mean == 0.0 and scope_rep.mean == 0.0

    def test_shared_pool_values_are_the_batch_values(self):
        m = counterexample_model(0.3)
        seed, n = 11, 300
        mc_rep, scope_rep = paired_estimates(m, n, seed=seed)
        mc, scope = sample_batch(m, STANDARD, n, trajectory_stream(seed))
        assert mc_rep.sub_values.tobytes() == mc.tobytes()
        assert scope_rep.sub_values.tobytes() == scope.tobytes()

    def test_both_means_converge_to_exact_probability(self):
        p = 0.3
        m = counterexample_model(p)
        truth = (7.0 / 8.0) * (1.0 - p)
        mc_rep, scope_rep = paired_estimates(m, 30_000, seed=8)
        assert abs(mc_rep.mean - truth) <= 4.0 * mc_rep.std_error
        assert abs(scope_rep.mean - truth) <= 4.0 * scope_rep.std_error
