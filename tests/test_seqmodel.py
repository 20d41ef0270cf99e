"""Model types, distribution checks, and trajectory sampling."""

import hashlib
import json
import re
import tracemalloc

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from seqrisk import (
    KINDS,
    OUTCOME_EXCLUDED,
    STANDARD,
    ChainSpec,
    HorizonPolicy,
    MarkovModel,
    ModelValidationError,
    Vocabulary,
    counterexample_model,
    enumerate_sub_distribution,
    estimate,
    exact_bijection_check,
    paired_estimates,
    random_chain,
    sample_batch,
    trajectory_stream,
    validate,
)
from seqrisk import cli, oracle, seqmodel
from seqrisk.rng import KeyedStream, stream_keys, substream

from conftest import (
    BAD_COUNTS,
    RuledChain,
    ScriptedStream,
    assert_matches_reference,
    check_against_reference,
    make_random_model,
    reference_sample,
    reference_values,
    raises_count_error,
    ruled_batch,
)


@st.composite
def random_case(draw):
    """Random chain with its vocabulary and horizon, and a mode: one-hot and
    degenerate rows, terminal sets, and token times that include zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_states = draw(st.integers(2, 5))
    vocab, horizon, mode = draw(random_rules(rng, n_states))
    m = RuledChain(random_rows(rng, n_states), int(rng.integers(n_states)), vocab, horizon)
    return m, mode


@st.composite
def random_stack(draw):
    """One to five random chains over one vocabulary, horizon and initial
    state, as the stacked sampler takes them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_states = draw(st.integers(2, 6))
    n_chains = draw(st.integers(1, 5))
    vocab, horizon, mode = draw(random_rules(rng, n_states))
    stack = np.stack([random_rows(rng, n_states) for _ in range(n_chains)])
    return stack, int(rng.integers(n_states)), vocab, horizon, mode


def random_rows(rng, n_states):
    """Row-stochastic matrix with zeros, one-hot rows and degenerate ones."""
    rows = rng.dirichlet(np.ones(n_states), size=n_states)
    rows[rng.random(rows.shape) < 0.3] = 0.0
    for s in np.nonzero(rows.sum(axis=1) == 0.0)[0]:
        rows[s, rng.integers(n_states)] = 1.0  # one-hot rows, degenerate ones too
    return rows / rows.sum(axis=1, keepdims=True)


@st.composite
def random_rules(draw, rng, n_states):
    """Vocabulary (terminal set, token times that include zero), horizon and mode."""
    unit_times = draw(st.booleans())
    max_steps = draw(st.integers(1, 8))
    time_limit = draw(st.sampled_from([None, 0.0, 0.5, 1.0, 2.5, 3.0, 6.0]))
    mode = draw(st.sampled_from([STANDARD, OUTCOME_EXCLUDED]))
    terminal = frozenset(int(t) for t in np.nonzero(rng.random(n_states) < 0.25)[0])
    times = np.ones(n_states) if unit_times else rng.choice(
        [0.0, 0.5, 1.0, 1.5], size=n_states)
    vocab = Vocabulary(size=n_states, outcome=int(rng.integers(n_states)),
                       terminal=terminal, time_map=times)
    return vocab, HorizonPolicy(max_steps=max_steps, time_limit=time_limit), mode


def chain(rows, initial=0, outcome=None, steps=5):
    rows = np.asarray(rows, dtype=float)
    if outcome is None:
        outcome = rows.shape[0] - 1
    return MarkovModel.step_mode(rows, initial, outcome, steps)


#: count arguments of this module that no table of their own covers:
#: (name, least value, call with the value)
COUNT_ARGUMENTS = {
    "Vocabulary.size": ("size", 1, lambda v: Vocabulary(size=v, outcome=0)),
    "HorizonPolicy.max_steps": ("max_steps", 1, lambda v: HorizonPolicy(max_steps=v)),
}


@pytest.mark.parametrize("bad", BAD_COUNTS)
@pytest.mark.parametrize("name,least,call", COUNT_ARGUMENTS.values(), ids=COUNT_ARGUMENTS)
def test_count_arguments_are_checked(name, least, call, bad):
    value = BAD_COUNTS[bad](least)
    with raises_count_error(name, least, value):
        call(value)


class TestVocabulary:
    def test_outcome_in_range(self):
        with pytest.raises(ValueError):
            Vocabulary(size=3, outcome=3)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(size=2, outcome=0, time_map=[1.0, -0.5])

    def test_terminal_tokens_validated(self):
        with pytest.raises(ValueError):
            Vocabulary(size=2, outcome=0, terminal=frozenset({5}))

    def test_outcome_may_be_terminal(self):
        v = Vocabulary(size=3, outcome=1, terminal=frozenset({1, 2}))
        assert 1 in v.terminal

    @pytest.mark.parametrize("field,value", [("size", 3.0), ("size", True),
                                             ("outcome", 1.0), ("outcome", False)])
    def test_size_and_outcome_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            Vocabulary(**{"size": 3, "outcome": 1, field: value})

    @pytest.mark.parametrize("token", [1.5, 1.0, True])
    def test_terminal_tokens_must_be_integers(self, token):
        with pytest.raises(ValueError, match="terminal token must be an integer"):
            Vocabulary(size=3, outcome=0, terminal={token})

    def test_numpy_integers_accepted(self):
        v = Vocabulary(size=np.int64(3), outcome=np.int64(1), terminal={np.int64(2)})
        assert v.terminal == {2}


class TestHorizonPolicy:
    def test_max_steps_required_positive(self):
        with pytest.raises(ValueError):
            HorizonPolicy(max_steps=0)

    def test_negative_time_limit_rejected(self):
        with pytest.raises(ValueError):
            HorizonPolicy(max_steps=3, time_limit=-1.0)

    @pytest.mark.parametrize("limit", [float("inf"), float("nan")])
    def test_non_finite_time_limit_rejected(self, limit):
        with pytest.raises(ValueError, match="time_limit must be finite and >= 0 when set"):
            HorizonPolicy(max_steps=10, time_limit=limit)

    def test_round_trip(self):
        h = HorizonPolicy(max_steps=4, time_limit=2.5)
        assert HorizonPolicy.from_dict(h.to_dict()) == h

    def test_numpy_scalars_are_kept_as_plain_numbers(self):
        h = HorizonPolicy(max_steps=np.int64(3), time_limit=np.float32(2.5))
        assert type(h.max_steps) is int and type(h.time_limit) is float
        assert json.loads(json.dumps(h.to_dict())) == {"max_steps": 3, "time_limit": 2.5}

    @pytest.mark.parametrize("d", [{}, {"time_limit": 2.0}])
    def test_from_dict_names_a_missing_key(self, d):
        with pytest.raises(ValueError, match=r"horizon lacks the required keys \['max_steps'\]"):
            HorizonPolicy.from_dict(d)


class TestNextDistribution:
    def test_markov_row(self):
        m = chain([[0.3, 0.7], [0.0, 1.0]], steps=3)
        assert np.allclose(m.next_distribution([0]), [0.3, 0.7])

    def test_empty_prefix_uses_initial_state(self):
        m = chain([[0.3, 0.7], [0.0, 1.0]], initial=0, steps=3)
        assert np.allclose(m.next_distribution([]), [0.3, 0.7])

    def test_counterexample_first_branch(self):
        m = counterexample_model(0.5)
        (dist,) = seqmodel._read_rows(m, [[]], m.vocabulary.size)
        assert np.allclose(dist, [0.5, 0.5, 0.0, 0.0])

    def test_invalid_prefix_token(self):
        m = chain([[0.3, 0.7], [0.0, 1.0]])
        with pytest.raises(ValueError, match="invalid token"):
            m.next_distribution([7])

    def test_vectors_are_normalized_on_random_models(self):
        for seed in range(50):
            m = make_random_model(seed)
            prefix = [] if seed % 2 else [seed % m.n_states]
            (dist,) = seqmodel._read_rows(m, [prefix], m.n_states)
            assert abs(float(dist.sum()) - 1.0) <= 1e-12
            assert np.all(dist >= 0) and np.all(dist <= 1)


def one_step_model(row, outcome):
    """Model whose next-token vector is always ``row``, stopped after one token."""
    size = len(row)
    return RuledChain([row] * size, 0, Vocabulary(size=size, outcome=outcome),
                      HorizonPolicy(max_steps=1))


class MarkedFirstStep:
    """Model whose first token is drawn from ``row`` and whose second and
    last step has hazard ``2 ** -(t + 1)`` after a first token ``t``, so a
    trajectory's values show its first token."""

    def __init__(self, row, outcome):
        self.row = np.asarray(row, dtype=float)
        self.vocabulary = Vocabulary(size=self.row.size, outcome=outcome)
        self.horizon = HorizonPolicy(max_steps=2)

    def mark(self, token):
        return 2.0 ** -(token + 1)

    def next_distribution(self, prefix):
        if not prefix:
            return self.row
        dist = np.zeros(self.row.size)
        o = self.vocabulary.outcome
        mark = self.mark(prefix[0])
        dist[o], dist[(o + 1) % dist.size] = mark, 1.0 - mark
        return dist


def first_tokens(row, outcome, mode, uniforms):
    """First tokens of :class:`MarkedFirstStep` trajectories, one per uniform,
    read back from one batch's values; None where the first step is
    degenerate.  The values each token gives are computed as the sampler
    computes them, from the unrestricted hazard ``row[outcome]``."""
    m = MarkedFirstStep(row, outcome)
    h = float(m.row[outcome])
    if mode == STANDARD:
        # scope: a first token that is the outcome ends the trajectory
        token_of = {0.0 + h + m.mark(t): t for t in range(m.row.size)}
        token_of[0.0 + h] = outcome
    else:
        token_of = {1.0 - 1.0 * (1.0 - h) * (1.0 - m.mark(t)): t for t in range(m.row.size)}
        token_of[1.0] = None
    assert len(token_of) == m.row.size + 1
    k = len(uniforms)
    values = sample_batch(m, mode, k, ScriptedStream(list(uniforms) + [0.5] * k))[-1]
    return [token_of[v] for v in values.tolist()]


class TestRestrictedDistribution:
    """An outcome-excluded draw removes the outcome's mass and renormalizes
    the rest; the recorded hazard stays unrestricted."""

    def test_renormalization(self):
        # restricted vector [0, 0.375, 0.625]: token 1 below u = 0.375; the
        # values are read with the unrestricted hazard 0.2
        us = [0.0, 0.3749, 0.3751, 0.999]
        assert first_tokens([0.2, 0.3, 0.5], 0, OUTCOME_EXCLUDED, us) == [1, 1, 2, 2]

    def test_zero_hazard_identity(self):
        row, us = [0.0, 0.4, 0.6], np.linspace(0.0, 0.999, 50)
        excluded = first_tokens(row, 0, OUTCOME_EXCLUDED, us)
        assert excluded == first_tokens(row, 0, STANDARD, us)
        assert set(excluded) == {1, 2}

    def test_degenerate(self):
        # the stream holds no uniform: a degenerate step must not draw one
        m = one_step_model([1.0, 0.0, 0.0], 0)
        (reach,) = sample_batch(m, OUTCOME_EXCLUDED, 1, ScriptedStream([]))
        assert reach.tolist() == [1.0]

    def test_invalid_vector_rejected(self):
        m = one_step_model([0.5, 0.2], 0)
        with pytest.raises(ModelValidationError):
            sample_batch(m, OUTCOME_EXCLUDED, 1, trajectory_stream(0))

    def test_closure_on_random_vectors(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            dist = rng.dirichlet(np.ones(int(rng.integers(2, 7))))
            o = int(rng.integers(0, dist.size))
            if dist[o] >= 1.0 - 1e-15:
                continue
            for tok in first_tokens(dist, o, OUTCOME_EXCLUDED, np.linspace(0.0, 0.999, 20)):
                assert tok != o and dist[tok] > 0.0


class TestOutcomeOnlyStep:
    """A step on which only the outcome has positive probability is
    degenerate in the outcome-excluded mode, although its hazard falls short
    of ``DEGENERATE_HAZARD``: it draws no token, and ``reach`` reads 1."""

    ROW = [1.0 - 1e-13, 0.0, 0.0]

    def models(self):
        generic = RuledChain([self.ROW] * 3, 0, Vocabulary(size=3, outcome=0),
                             HorizonPolicy(max_steps=2))
        return generic, MarkovModel.step_mode([self.ROW] * 3, 0, 0, 2)

    def test_row_passes_validate(self):
        assert validate(self.ROW) == []

    def test_reference_sampler_draws_nothing(self):
        # the streams hold no uniform: neither sampler may draw one
        for m in self.models():
            tokens, hazards, _, degenerate = reference_sample(
                m, OUTCOME_EXCLUDED, ScriptedStream([]))
            assert degenerate and tokens == [] and hazards == [1.0 - 1e-13]
            values = sample_batch(m, OUTCOME_EXCLUDED, 1, ScriptedStream([]))
            assert_matches_reference(values, (1.0,))

    @pytest.mark.parametrize("n", [1, 5, seqmodel._BINS])
    def test_batch_reads_no_uniform(self, n):
        for m in self.models():
            rng = substream(0, 20, 0)
            (reach,) = sample_batch(m, OUTCOME_EXCLUDED, n, rng)
            assert np.all(reach == 1.0)
            assert rng.random() == substream(0, 20, 0).random()

    def test_oracles(self):
        for m in self.models():
            assert enumerate_sub_distribution(m, "reach").atoms == ((1.0, 1.0),)
            p_a, p_b = exact_bijection_check(m)
            assert p_b == 1.0 and abs(p_a - p_b) <= 1e-12


class TestDegenerateGate:
    """A chain stack checks outcome-excluded steps for degenerate rows only
    when a running row can stand on one: some state other than the outcome
    is degenerate, or the trajectories start on the outcome.  Any other
    model checks every step."""

    # state 2 sends all its mass to the outcome 3, and state 0 cannot reach
    # it in one step: a trajectory stands on it at step 3 at the earliest
    ROWS = [[0.5, 0.3, 0.0, 0.2], [0.0, 0.4, 0.3, 0.3],
            [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0]]

    @pytest.mark.parametrize("mode", [STANDARD, OUTCOME_EXCLUDED])
    def test_degenerate_state_first_reached_at_step_3(self, mode):
        # the chain draws from its bucket table; the same rows as another
        # model compare
        m = MarkovModel.step_mode(self.ROWS, 0, 3, 6)
        n = seqmodel._BINS
        check_against_reference(sample_batch, m, mode, lambda: trajectory_stream(5), n=n)
        values = sample_batch(m, mode, n, trajectory_stream(5))
        generic = RuledChain(self.ROWS, 0, m.vocabulary, m.horizon)
        assert all(a.tobytes() == b.tobytes() for a, b in
                   zip(values, sample_batch(generic, mode, n, trajectory_stream(5))))
        if mode == OUTCOME_EXCLUDED:
            # reach is 1 only after a degenerate step: states 0 and 1 have
            # hazards below 1
            assert 0 < np.count_nonzero(values[0] == 1.0) < n

    @pytest.mark.parametrize("n", [1, 5, seqmodel._BINS])
    def test_trajectories_that_start_on_the_outcome(self, n):
        # only the outcome's row is degenerate, and every trajectory starts
        # there: it draws nothing and reach reads 1
        m = MarkovModel.step_mode([[1.0, 0.0, 0.0], [0.5, 0.25, 0.25], [0.2, 0.3, 0.5]],
                                  0, 0, 4)
        rng = substream(0, 20, 0)
        (reach,) = sample_batch(m, OUTCOME_EXCLUDED, n, rng)
        assert np.all(reach == 1.0)
        assert rng.random() == substream(0, 20, 0).random()


class TestZeroProbabilityDraw:
    """A uniform at or above the last cumulative probability that rounding
    left below 1 draws the last token with positive draw probability, never
    a token of probability 0.  Token times 1, 1, 0 under a time limit of 0.5
    make the drawn token visible in the values: only token 2 lets a
    trajectory go on to a second step."""

    BELOW_ONE = float(np.nextafter(1.0, 0.0))
    # mode, row, outcome, first uniform, the token it draws
    CASES = {
        "standard_outcome_row": (STANDARD, [1.0 - 1e-13, 0.0, 0.0], 0, 1.0 - 5e-14, 0),
        "standard_short_sum": (
            STANDARD, [0.5574632335731879, 0.4425367664268119, 0.0], 2, BELOW_ONE, 1),
        "excluded_short_sum": (
            OUTCOME_EXCLUDED, [0.0010397580548109561, 0.25215560168911316, 0.7468046402560758],
            2, BELOW_ONE, 1),
    }

    @staticmethod
    def model(row, outcome):
        vocab = Vocabulary(size=3, outcome=outcome, time_map=[1.0, 1.0, 0.0])
        return RuledChain([row] * 3, 0, vocab, HorizonPolicy(max_steps=2, time_limit=0.5))

    @pytest.mark.parametrize("mode,row,outcome,u,token", CASES.values(), ids=CASES)
    def test_reference_samplers(self, mode, row, outcome, u, token):
        m = self.model(row, outcome)
        assert reference_sample(m, mode, ScriptedStream([u, 0.5]))[0] == [token]
        for batch in (sample_batch, ruled_batch):
            check_against_reference(batch, m, mode, lambda: ScriptedStream([u, 0.5]))

    @pytest.mark.parametrize("n", [1, 5, seqmodel._BINS])
    @pytest.mark.parametrize("mode,row,outcome,u,token", CASES.values(), ids=CASES)
    def test_batch_sampler(self, mode, row, outcome, u, token, n):
        m = self.model(row, outcome)
        want = reference_values(m, mode, ScriptedStream([u]))
        for batch in (sample_batch, ruled_batch):
            stream = ScriptedStream([u] * n + [0.5] * n)
            values = batch(m, mode, n, stream)
            assert all(np.all(v == v[0]) for v in values)
            assert_matches_reference(values, want)
            assert stream.uniforms == [0.5] * n


def one_trajectory(model, mode, seed):
    """Values of one ``sample_batch`` trajectory on ``trajectory_stream(seed)``
    and the number of uniforms it read, which is the number of tokens it
    drew."""
    rng = trajectory_stream(seed)
    values = [float(v[0]) for v in sample_batch(model, mode, 1, rng)]
    after, fresh = rng.random(), trajectory_stream(seed)
    for read in range(1000):
        if fresh.random() == after:
            return values, read
    raise AssertionError("the stream moved more than 1000 uniforms")


class TestSampleTrajectory:
    """Single trajectories: ``sample_batch`` at ``n = 1``, its values and the
    uniforms it reads."""

    def test_outcome_impossible(self):
        m = chain([[1.0, 0.0], [0.0, 1.0]], steps=6)
        assert one_trajectory(m, STANDARD, 1) == ([0.0, 0.0], 6)

    def test_outcome_certain(self):
        m = chain([[0.0, 1.0], [0.0, 1.0]], steps=6)
        assert one_trajectory(m, STANDARD, 1) == ([1.0, 1.0], 1)

    def test_matches_reference_sampler(self):
        rows = [[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]]
        for m in (MarkovModel.step_mode(rows, 0, 2, 4), counterexample_model(0.3)):
            for mode in (STANDARD, OUTCOME_EXCLUDED):
                for seed in (3, 17, 99):
                    # each sampler reads 40 trajectories in order from its own
                    # copy of the stream, so one that drew a uniform it did not
                    # use would fall out of step with the other
                    rng, ref_rng = trajectory_stream(seed), trajectory_stream(seed)
                    for _ in range(40):
                        assert_matches_reference(sample_batch(m, mode, 1, rng),
                                                 reference_values(m, mode, ref_rng))
                    assert rng.random() == ref_rng.random()

    def test_generic_path_matches_markov_fast_path(self):
        m = make_random_model(12)
        generic = RuledChain(m.transition, m.initial_state, m.vocabulary, m.horizon)
        for mode in (STANDARD, OUTCOME_EXCLUDED):
            for seed in range(30):
                for model in (m, generic):
                    check_against_reference(sample_batch, model, mode,
                                            lambda: trajectory_stream(seed))

    def test_seed_determinism(self):
        m = make_random_model(3)
        a = sample_batch(m, STANDARD, 100, trajectory_stream(11))
        b = sample_batch(m, STANDARD, 100, trajectory_stream(11))
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))

    def test_outcome_excluded_never_contains_outcome(self):
        # an outcome state that only leads to itself: a trajectory that drew
        # the outcome would end on a degenerate step, with reach exactly 1
        for seed in range(30):
            m = make_random_model(seed)
            n, o = m.n_states, m.outcome_state
            rows = m.transition.copy()
            rows[o] = np.eye(n)[o]
            start = m.initial_state if m.initial_state != o else (o + 1) % n
            absorbing = MarkovModel.step_mode(rows, start, o, m.horizon.max_steps)
            (reach,) = sample_batch(absorbing, OUTCOME_EXCLUDED, 200, trajectory_stream(seed))
            assert np.all(reach < 1.0)

    def test_hazards_are_unrestricted_in_excluded_mode(self):
        # both modes must record the same hazard at step one (same prefix)
        m = make_random_model(8)
        h0 = float(m.transition[m.initial_state, m.outcome_state])
        one = MarkovModel.step_mode(m.transition, m.initial_state, m.outcome_state, 1)
        assert one_trajectory(one, OUTCOME_EXCLUDED, 0)[0] == [1.0 - (1.0 - h0)]
        assert one_trajectory(one, STANDARD, 0)[0][1] == h0

    def test_end_index_bounded_and_hazards_in_range(self):
        for seed in range(40):
            m = make_random_model(seed)
            for mode in (STANDARD, OUTCOME_EXCLUDED):
                values, read = one_trajectory(m, mode, seed)
                assert read <= m.horizon.max_steps
                if mode == STANDARD:
                    # one hazard per token, each in [0, 1]
                    mc, scope = values
                    assert mc in (0.0, 1.0) and 0.0 <= scope <= read
                else:
                    assert 0.0 <= values[0] <= 1.0

    def test_terminal_token_stops_generation(self):
        # the first token is always the terminal branch; the coin steps after
        # it would each add a hazard of 0.5
        m = counterexample_model(1.0)
        assert one_trajectory(m, STANDARD, 5) == ([0.0, 0.0], 1)

    def test_time_limit_stops_generation(self):
        # two-token loop, each token worth 1.5 time units, limit 2.0:
        # the second token pushes elapsed to 3.0 > 2.0
        class Loop:
            vocabulary = Vocabulary(size=2, outcome=1, time_map=[1.5, 1.5])
            horizon = HorizonPolicy(max_steps=50, time_limit=2.0)

            def next_distribution(self, prefix):
                return np.array([1.0, 0.0])

        assert one_trajectory(Loop(), STANDARD, 2) == ([0.0, 0.0], 2)

    def test_time_limit_stop_matches_the_same_step_cap(self):
        # tokens of 2.0 time units pass a limit of 5.0 on the third token,
        # where unit tokens meet a cap of 3 steps: the same trajectories
        rows = [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.0, 0.0, 1.0]]
        timed = RuledChain(rows, 0, Vocabulary(size=3, outcome=2, time_map=[2.0] * 3),
                           HorizonPolicy(max_steps=10, time_limit=5.0))
        capped = RuledChain(rows, 0, Vocabulary.unit_steps(3, 2), HorizonPolicy(max_steps=3))
        assert {stop for _, stop, _ in oracle._walk(timed, STANDARD)} == {"outcome",
                                                                          "time_limit"}
        for kind in KINDS:
            assert (enumerate_sub_distribution(timed, kind).atoms
                    == enumerate_sub_distribution(capped, kind).atoms)
        for mode in (STANDARD, OUTCOME_EXCLUDED):
            rng_t, rng_c = trajectory_stream(8), trajectory_stream(8)
            for a, b in zip(sample_batch(timed, mode, 500, rng_t),
                            sample_batch(capped, mode, 500, rng_c)):
                assert np.array_equal(a, b)
            assert rng_t.random() == rng_c.random()

    def test_degenerate_hazard_flags_trajectory(self):
        # outcome takes all mass from state 1; exclusion cannot continue
        # there, so the second step draws no token and reach reads 1
        rows = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]
        m = MarkovModel.step_mode(rows, 0, 2, 5)
        assert one_trajectory(m, OUTCOME_EXCLUDED, 1) == ([1.0], 1)

    def test_unknown_mode_rejected(self):
        m = make_random_model(1)
        with pytest.raises(ValueError):
            sample_batch(m, "other", 1, trajectory_stream(0))

    def test_hazard_consistency_chi_square(self):
        # empirical outcome frequency at the first two steps vs recorded
        # hazards.  Scope tells the paths apart: 0.2 is a hit at step 1, and
        # 0.2 + rows[s][2] a second step from state s
        rows = [[0.55, 0.25, 0.2], [0.4, 0.35, 0.25], [0.0, 0.0, 1.0]]
        m = MarkovModel.step_mode(rows, 0, 2, 2)
        n = 100_000
        mc, scope = sample_batch(m, STANDARD, n, trajectory_stream(424242))
        first = scope == 0.0 + 0.2
        assert np.all(mc[first] == 1.0)
        checks = [(int(first.sum()), n, 0.2)]
        seen = first.copy()
        for s in (0, 1):
            h = float(rows[s][2])
            via = scope == 0.0 + 0.2 + h
            seen |= via
            checks.append((int(mc[via].sum()), int(via.sum()), h))
        assert seen.all()
        for hits, count, h in checks:
            chi2 = (hits - count * h) ** 2 / (count * h * (1 - h))
            p_value = float(stats.chi2.sf(chi2, df=1))
            assert p_value > 1e-3, f"hazard mismatch: {hits}/{count} vs {h}"


class TestSampleMarkovBatch:
    """The batched sampler, :func:`sample_batch`, and its stacked core."""

    ROWS = [[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]]

    def test_outcome_comes_from_the_vocabulary(self):
        # the vocabulary names token 1, not the last state: hazards are
        # column 1 and drawing token 1 ends a standard timeline
        m = RuledChain(self.ROWS, 0, Vocabulary.unit_steps(3, 1),
                       HorizonPolicy(max_steps=4, time_limit=4.0))
        for mode in (STANDARD, OUTCOME_EXCLUDED):
            for seed in range(40):
                check_against_reference(ruled_batch, m, mode, lambda: trajectory_stream(seed))

    def test_vocabulary_size_must_match(self):
        m = RuledChain(self.ROWS, 0, Vocabulary.unit_steps(4, 1), HorizonPolicy(max_steps=4))
        with pytest.raises(ValueError):
            ruled_batch(m, STANDARD, 1, trajectory_stream(0))

    @pytest.mark.parametrize("n", [-1, 2.5, 3.0, True, "4"])
    def test_n_must_be_a_count(self, n):
        m = chain(self.ROWS)
        with pytest.raises(ValueError, match="^n must be"):
            sample_batch(m, STANDARD, n, trajectory_stream(0))

    @settings(max_examples=400, deadline=None, database=None)
    @given(case=random_case(), seed=st.integers(0, 2**32 - 1))
    def test_single_trajectory_matches_reference(self, case, seed):
        # the per-state tables and the tables built from the prefixes
        m, mode = case
        for batch in (ruled_batch, sample_batch):
            check_against_reference(batch, m, mode, lambda: trajectory_stream(seed))

    @settings(max_examples=300, deadline=None, database=None)
    @given(case=random_case(), n=st.sampled_from([1, 40, 2 * seqmodel._BINS]),
           seed=st.integers(0, 2**32 - 1))
    def test_generic_model_matches_the_per_state_tables(self, case, n, seed):
        # a model that is not a MarkovModel gets its chain's values bit for bit
        m, mode = case
        got = sample_batch(m, mode, n, trajectory_stream(seed))
        want = ruled_batch(m, mode, n, trajectory_stream(seed))
        assert len(got) == len(want)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    @pytest.mark.parametrize("n", [1, 7, 1023, 2 * seqmodel._BINS])
    @settings(max_examples=40, deadline=None, database=None)
    @given(case=random_case(), seed=st.integers(0, 2**32 - 1))
    def test_bucket_table_draws_match_comparison(self, n, case, seed):
        # the chain's bucket table, with _BINS buckets and with 4 (most rows
        # fall back to the comparison), against the same rows as a model
        # that is not a MarkovModel, which compares column by column: equal
        # values, and the streams left at the same position
        m, _ = case
        for mode in (STANDARD, OUTCOME_EXCLUDED):
            r = trajectory_stream(seed)
            compared = sample_batch(m, mode, n, r)
            after = r.bit_generator.random_raw(2).tobytes()
            for bins in (seqmodel._BINS, 4):
                r = trajectory_stream(seed)
                with mock.patch.object(seqmodel, "_BINS", bins):
                    table = ruled_batch(m, mode, n, r)
                assert all(a.tobytes() == b.tobytes() for a, b in zip(table, compared))
                assert r.bit_generator.random_raw(2).tobytes() == after

    @settings(max_examples=200, deadline=None, database=None)
    @given(case=random_stack(),
           n=st.one_of(st.integers(1, 40), st.just(seqmodel._BINS + 1)),
           seed=st.integers(0, 2**32 - 1))
    def test_stack_rows_equal_each_chain_alone(self, case, n, seed):
        # each chain reads only its own stream, so its rows of the stack are
        # exactly its batch alone, which reads its bucket table
        stack, initial, vocab, horizon, mode = case
        check_stack_against_each_chain(stack, initial, vocab, horizon, mode, n, seed)

    @pytest.mark.parametrize("mode", [STANDARD, OUTCOME_EXCLUDED])
    def test_a_chain_whose_rows_all_stop_at_step_1(self, mode):
        # token 1 is terminal and chain 1 draws it first, so its block is
        # empty from step 2 on; chains 0 and 2 draw token 0 (time 0.5) until
        # the outcome 2 or the time limit, which the fifth token passes
        vocab = Vocabulary(size=3, outcome=2, terminal=frozenset({1}),
                           time_map=[0.5, 1.0, 1.0])
        horizon = HorizonPolicy(max_steps=8, time_limit=2.0)
        drift = [[0.9, 0.0, 0.1]] * 3
        stack = np.array([drift, [[0.0, 1.0, 0.0]] * 3, drift])
        values = check_stack_against_each_chain(stack, 0, vocab, horizon, mode, 40, 7)
        if mode == OUTCOME_EXCLUDED:
            (reach,) = values
            assert np.all(reach[1] == 0.0)
            assert np.allclose(reach[[0, 2]], 1.0 - 0.9 ** 5, rtol=0.0, atol=1e-15)
        else:
            mc, scope = values
            assert np.all(mc[1] == 0.0) and np.all(scope[1] == 0.0)
            assert np.isclose(scope[[0, 2]].max(), 0.5, rtol=0.0, atol=1e-15)


class TestKeyedGroups:
    """A keyed stack steps in groups of whole chains: a group of one chain
    reads its stream step by step, a larger group draws every step's
    uniforms of each chain ahead.  Whatever the groups, each chain gets the
    values :func:`sample_batch` gives it alone on its key's stream."""

    N = 30

    def case(self, name):
        """``(stack, initial state, vocab, horizon)``; every case's loop runs
        ``horizon.max_steps`` steps."""
        if name == "terminal token and time limit":
            rows, vocab, horizon = ruled_rows(0, (4, 5, 5))
            return rows, 0, vocab, horizon
        if name == "degenerate rows":
            # state 2 of chains 0 and 2 and state 1 of chain 1 send all
            # their mass to the outcome 3
            rows = np.array(TestDegenerateGate.ROWS)
            other = rows.copy()
            other[0] = [0.3, 0.3, 0.2, 0.2]
            other[1] = [0.0, 0.0, 0.0, 1.0]
            m = MarkovModel.step_mode(rows, 0, 3, 6)
            return np.array([rows, other, rows]), 0, m.vocabulary, m.horizon
        if name == "rows that all stop at step 1":
            vocab = Vocabulary(size=3, outcome=2, terminal=frozenset({1}),
                               time_map=[0.5, 1.0, 1.0])
            drift = [[0.9, 0.0, 0.1]] * 3
            stack = np.array([drift, [[0.0, 1.0, 0.0]] * 3, drift])
            return stack, 0, vocab, HorizonPolicy(max_steps=8, time_limit=2.0)
        # unit times, no terminal token and an absorbing outcome: when
        # excluded, every row runs every step
        rows = substream(0, 40, 2).random((5, 4, 4)) + 0.05
        rows[:, 3] = [0.0, 0.0, 0.0, 1.0]
        rows /= rows.sum(axis=-1, keepdims=True)
        m = MarkovModel.step_mode(rows[0], 0, 3, 5)
        return rows, 0, m.vocabulary, m.horizon

    def budget(self, grouping, chains, steps):
        """A ``_GROUP`` that makes the groups of ``grouping``."""
        if grouping == "one chain":
            # one step of one chain: too small for a window of two chains
            return self.N
        if grouping == "windows":
            # two chains per group, drawing 2 steps ahead at a time
            return 2 * (2 * self.N + 3)
        per_group = chains if grouping == "whole stack" else 2
        return per_group * (self.N * steps + 3)

    @pytest.mark.parametrize("mode", [STANDARD, OUTCOME_EXCLUDED])
    @pytest.mark.parametrize("grouping", ["one chain", "two chains", "whole stack",
                                          "windows"])
    @pytest.mark.parametrize("name", ["terminal token and time limit", "degenerate rows",
                                      "rows that all stop at step 1", "no early ends"])
    def test_each_chain_equals_its_batch_alone(self, name, grouping, mode):
        stack, initial, vocab, horizon = self.case(name)
        budget = self.budget(grouping, len(stack), horizon.max_steps)
        with mock.patch.object(seqmodel, "_GROUP", budget):
            check_stack_against_each_chain(stack, initial, vocab, horizon, mode, self.N, 4)

    @pytest.mark.parametrize("grouping,draws", [("one chain", 1), ("two chains", 1),
                                                ("whole stack", 1), ("windows", 3)])
    def test_each_window_sets_each_stream_once(self, grouping, draws):
        # a group of one chain sets the stream to its key and reads it step
        # by step; a larger group sets it once per chain and window: every
        # row runs all 5 steps, 3 windows of up to 2
        stack, initial, vocab, horizon = self.case("no early ends")
        keys = stream_keys(4, 30, np.arange(len(stack)))
        budget = self.budget(grouping, len(stack), horizon.max_steps)
        with mock.patch.object(seqmodel, "_GROUP", budget), \
                mock.patch.object(KeyedStream, "at", autospec=True,
                                  side_effect=KeyedStream.at) as at:
            seqmodel._sample_stack((stack, initial), vocab, horizon, OUTCOME_EXCLUDED,
                                   self.N, keys)
        got = [call.args[1].tobytes() for call in at.call_args_list]
        per = {"one chain": 1, "whole stack": len(keys)}.get(grouping, 2)
        want = [key.tobytes() for g in range(0, len(keys), per)
                for _ in range(draws) for key in keys[g:g + per]]
        assert got == want

    def test_a_stack_reads_keys(self):
        stack, initial, vocab, horizon = self.case("no early ends")
        with pytest.raises(ValueError, match="Philox keys"):
            seqmodel._sample_stack((stack, initial), vocab, horizon, STANDARD, 3,
                                   substream(0, 1, 2))
        with pytest.raises(ValueError, match="Philox keys"):
            seqmodel._sample_stack((stack, initial), vocab, horizon, STANDARD, 3,
                                   stream_keys(0, 1, np.arange(2)))


class TestBlockInvariance:
    """A step walks the running rows in blocks of ``_BLOCK`` rows; every
    block size gives the values one block per step gives, and leaves a lone
    chain's stream where it does."""

    BLOCKS = [1, 7, 1000]

    def case(self, name):
        """``(source, vocab, horizon, n, number of streams)`` of a case."""
        if name in ("table", "small batch"):
            m = random_chain(ChainSpec(n_states=6, spontaneity=0.6, horizon_steps=9,
                                       target_probability=0.4, seed=2))
            n = seqmodel._BINS if name == "table" else 40
            return (m.transition[None], 0), m.vocabulary, m.horizon, n, 1
        if name == "stack":
            rows, vocab, horizon = ruled_rows(0, (4, 5, 5))
            return (rows, 0), vocab, horizon, 60, 4
        if name == "stack without early ends":
            # unit times, no terminal token and an absorbing outcome: when
            # excluded, every row runs every step and no row number is kept
            rows = substream(0, 40, 2).random((3, 4, 4)) + 0.05
            rows[:, 3] = [0.0, 0.0, 0.0, 1.0]
            rows /= rows.sum(axis=-1, keepdims=True)
            m = MarkovModel.step_mode(rows[0], 0, 3, 5)
            return (rows, 0), m.vocabulary, m.horizon, 40, 3
        rows, vocab, horizon = ruled_rows(1, (5, 5))
        if name == "terminal token and time limit":
            return (rows[None], 0), vocab, horizon, seqmodel._BINS, 1
        if name == "other model":
            return RuledChain(rows, 0, vocab, horizon), vocab, horizon, 50, 1
        # state 2 is degenerate when the outcome 3 is excluded
        m = MarkovModel.step_mode(TestDegenerateGate.ROWS, 0, 3, 6)
        if name == "degenerate":
            return (m.transition[None], 0), m.vocabulary, m.horizon, seqmodel._BINS, 1
        # every row starts on the outcome, so every step 1 is degenerate
        return (m.transition[None], 3), m.vocabulary, m.horizon, 30, 1

    @pytest.mark.parametrize("mode", [STANDARD, OUTCOME_EXCLUDED])
    @pytest.mark.parametrize("name", ["table", "small batch", "stack",
                                      "stack without early ends",
                                      "terminal token and time limit", "other model",
                                      "degenerate", "start on the outcome"])
    def test_values_and_streams_do_not_depend_on_the_block(self, name, mode):
        source, vocab, horizon, n, n_streams = self.case(name)

        def run():
            if n_streams > 1:
                keys = stream_keys(3, 50, np.arange(n_streams))
                values = seqmodel._sample_stack(source, vocab, horizon, mode, n, keys)
                return [v.tobytes() for v in values]
            rng = substream(3, 50, 0)
            values = seqmodel._sample_stack(source, vocab, horizon, mode, n, rng)
            # where the stream stands: the words it gives next
            return [v.tobytes() for v in values], rng.bit_generator.random_raw(5).tobytes()

        want = run()
        for block in self.BLOCKS:
            with mock.patch.object(seqmodel, "_BLOCK", block):
                assert run() == want, block

    @pytest.mark.parametrize("mode,most", [(STANDARD, 27.3), (OUTCOME_EXCLUDED, 13.4)])
    def test_traced_bytes_per_row(self, mode, most):
        # the running state is allocated once, its tokens in 16 bits and its
        # row numbers in 32, and a step's buffers hold one block of 32,768
        # rows: the peak is 25.7 and 12.6 bytes per row (28.2 and 15.0 with
        # blocks of 65,536); with every integer in 8 bytes it is 35.9 and
        # 18.8, and a sampler that allocates its per-step temporaries
        # afresh, one entry per running row, peaks at 51.9 and 50.7
        chain = random_chain(ChainSpec(n_states=11, spontaneity=0.5, horizon_steps=20,
                                       target_probability=0.3, seed=0))
        n = 256_000
        rng = trajectory_stream(7)
        tracemalloc.start()
        try:
            sample_batch(chain, mode, n, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n <= most


def check_stack_against_each_chain(stack, initial, vocab, horizon, mode, n, seed):
    """Chain ``c``'s rows of the stack, keyed by ``stream_keys(seed, 30, c)``,
    equal its batch alone on ``Generator(Philox(key=keys[c]))``.  Returns
    the stack's values."""
    keys = stream_keys(seed, 30, np.arange(len(stack)))
    values = seqmodel._sample_stack((stack, initial), vocab, horizon, mode, n, keys)
    for c, rows in enumerate(stack):
        rng = np.random.Generator(np.random.Philox(key=keys[c]))
        alone = ruled_batch(RuledChain(rows, initial, vocab, horizon), mode, n, rng)
        assert len(values) == len(alone)
        for got, want in zip(values, alone):
            assert np.array_equal(got[c], want)
    return values


def sha256_of(values):
    """SHA-256 of a sampler call's arrays, one after another."""
    h = hashlib.sha256()
    for v in values:
        h.update(v.tobytes())
    return h.hexdigest()


def ruled_rows(key, shape):
    """Random rows from ``substream(0, 40, key)`` with zeros, over a
    vocabulary whose token 3 is terminal and whose token times differ,
    under a time limit: ``(rows, vocab, horizon)``."""
    rows = substream(0, 40, key).random(shape)
    rows[rows < 0.25] = 0.0
    rows[..., 0] += 0.01
    rows /= rows.sum(axis=-1, keepdims=True)
    vocab = Vocabulary(size=5, outcome=4, terminal=frozenset({3}),
                       time_map=[1.0, 0.5, 1.5, 0.0, 1.0])
    return rows, vocab, HorizonPolicy(max_steps=12, time_limit=6.0)


class WideVocabulary:
    """A model over 2**15 + 5 tokens that draws only four of them, two
    beyond int16's range, its next distribution set by the last one, under
    a terminal token and a time limit: the sampler holds its tokens in
    int32.  A :class:`MarkovModel` that wide would take 8 GiB."""

    SIZE = 2**15 + 5
    TOKENS = np.array([0, 9, 2**15, 2**15 + 4])  # the last is the outcome

    def __init__(self, seed):
        rows = substream(0, 43, seed).random((4, 4))
        rows[rows < 0.2] = 0.0
        rows[:, 0] += 0.01
        self.rows = rows / rows.sum(axis=1, keepdims=True)
        times = np.zeros(self.SIZE)
        times[self.TOKENS] = [1.0, 0.5, 1.5, 1.0]
        self.vocabulary = Vocabulary(size=self.SIZE, outcome=self.SIZE - 1,
                                     terminal=frozenset({9}), time_map=times)
        self.horizon = HorizonPolicy(max_steps=5, time_limit=3.5)

    def next_distribution(self, prefix):
        dist = np.zeros(self.SIZE)
        dist[self.TOKENS] = self.rows[np.searchsorted(self.TOKENS, prefix[-1]) if prefix else 0]
        return dist


class TestStateTypes:
    """The running state's integers take the narrowest types the vocabulary
    and the row count allow (:func:`seqmodel._state_types`)."""

    @pytest.mark.parametrize("size,rows,want", [
        (2**15 - 1, 1, (np.int16, np.int32)),
        (2**15, 1, (np.int32, np.int32)),
        (2, 2**31 - 1, (np.int16, np.int32)),
        (2, 2**31, (np.int16, np.intp)),
        (2**31, 2**31, (np.int32, np.intp)),
    ])
    def test_types_at_their_edges(self, size, rows, want):
        assert seqmodel._state_types(size, rows) == tuple(np.dtype(t) for t in want)

    @pytest.mark.parametrize("mode", [STANDARD, OUTCOME_EXCLUDED])
    @pytest.mark.parametrize("seed", [2, 3])
    def test_int32_tokens_match_the_reference(self, mode, seed):
        model = WideVocabulary(seed)
        with mock.patch.object(seqmodel, "_state_types",
                               wraps=seqmodel._state_types) as types:
            check_against_reference(sample_batch, model, mode,
                                    lambda: trajectory_stream(seed), n=8)
        assert seqmodel._state_types(*types.call_args.args)[0] == np.int32


class TestPinnedBits:
    """Digests of the sampler's output, taken at the commit before the
    sampler's running rows were kept compacted (alive-mask loop).  A speed
    change that moves one bit of the values fails here by name."""

    # the benchmark's estimate chain on trajectory_stream(7), both sizes
    # drawn from the bucket table; n = 500 was taken when it compared
    CHAIN = {
        (4096, STANDARD): "f8b5dc464f58f227858c4b7393e7c39d2f520710b67f1b49eec40b76df19ba7f",
        (4096, OUTCOME_EXCLUDED):
            "cb79642ed53623c693bf53aeb705634e63e14924f4051c5c93c7897066880882",
        (500, STANDARD): "e604fcbe7556be7565864d4c809d2fe39269846df07d1fac62929c3f9ce28e22",
        (500, OUTCOME_EXCLUDED):
            "5a5a73785f5e5201fcdae3cb51669604c470d7060fea16c7db465e5a1ed4cae8",
    }
    STACK = {
        STANDARD: "d0f4037ef3d2529a15a5556823ce6d4d8177884a0431af306447a30675c3269f",
        OUTCOME_EXCLUDED: "5fb2ed740044cb33800aa42dfeef08a60c583be6441d37c8d4b66482c3f34d2d",
    }
    # taken at the commit before the bucket-table path read 64-bit words
    TABLE = {
        STANDARD: "954be7230b86b4fefc211eada51278125b2f58322b834af2eced2aebe327c2a9",
        OUTCOME_EXCLUDED: "a8f0034d89ef81387841648c36d3c9e1977eec92d57ae8958fc1233f7bc49aa4",
    }

    @staticmethod
    def chain_values(n, mode):
        chain = random_chain(ChainSpec(n_states=11, spontaneity=0.5, horizon_steps=20,
                                       target_probability=0.3, seed=0))
        return sample_batch(chain, mode, n, trajectory_stream(7))

    @staticmethod
    def stack_values(mode):
        rows, vocab, horizon = ruled_rows(0, (4, 5, 5))
        return seqmodel._sample_stack((rows, 0), vocab, horizon, mode, 300,
                                      stream_keys(0, 41, np.arange(4)))

    @staticmethod
    def table_values(mode):
        # n = 2 * _BINS rows of one chain draw from its bucket table
        rows, vocab, horizon = ruled_rows(1, (5, 5))
        return seqmodel._sample_stack((rows[None], 0), vocab, horizon, mode,
                                      2 * seqmodel._BINS, substream(0, 42, 0))

    @pytest.mark.parametrize("n,mode", CHAIN)
    def test_benchmark_chain(self, n, mode):
        assert sha256_of(self.chain_values(n, mode)) == self.CHAIN[n, mode]

    @pytest.mark.parametrize("mode", STACK)
    def test_four_chain_stack(self, mode):
        assert sha256_of(self.stack_values(mode)) == self.STACK[mode]

    @pytest.mark.parametrize("mode", TABLE)
    def test_single_chain_bucket_table(self, mode):
        assert sha256_of(self.table_values(mode)) == self.TABLE[mode]

    @pytest.mark.parametrize("types", [(np.int32, np.int32), (np.int16, np.intp),
                                       (np.int32, np.intp)])
    def test_digests_hold_in_wider_types(self, types):
        # what a vocabulary of 2**15 tokens or a call of 2**31 rows runs
        with mock.patch.object(seqmodel, "_state_types",
                               return_value=tuple(np.dtype(t) for t in types)):
            for mode in (STANDARD, OUTCOME_EXCLUDED):
                for n in (4096, 500):
                    assert sha256_of(self.chain_values(n, mode)) == self.CHAIN[n, mode]
                assert sha256_of(self.stack_values(mode)) == self.STACK[mode]
                assert sha256_of(self.table_values(mode)) == self.TABLE[mode]

    @pytest.mark.parametrize("mode", [STANDARD, OUTCOME_EXCLUDED])
    def test_digests_hold_in_blocks_of_7_rows(self, mode):
        with mock.patch.object(seqmodel, "_BLOCK", 7):
            for n in (4096, 500):
                assert sha256_of(self.chain_values(n, mode)) == self.CHAIN[n, mode]
            assert sha256_of(self.stack_values(mode)) == self.STACK[mode]
            assert sha256_of(self.table_values(mode)) == self.TABLE[mode]


class TestPinnedReports:
    """Digests of the two files ``seqrisk estimate --spec`` writes for the
    benchmark's estimate chain at n = 2,000 and seed 3, taken at the commit
    before a report computed its statistics from its sub-values.  A change
    to the report's fields, their order or their values fails here.  The
    chain's scope values stay below 1 at target 0.3, so the row at target
    0.6 (205 values clipped) is the one that pins clipping."""

    # (kind, clip policy, target probability): (report JSON, .f64 sidecar)
    REPORTS = {
        ("mc", "none", 0.3): (
            "7def94da45d1e751112d1c8a4f75b0b2857f81ec37bf7d93b6f3a36262516351",
            "d1aed174bc4e8a2abf8b82590272e7049e8c8abf092dc6d23c3c20f760baeb4e"),
        ("scope", "none", 0.3): (
            "aa6cc010145333a4ea2abbf6ccd689ae9c1c111952f6ee00eea5a5665603906e",
            "4e3044fadeac6eefd39f61256de3fafba251c68a7af71a7e8a1a12dc11dd4df8"),
        ("reach", "none", 0.3): (
            "5c65c363e9506c2aaf90c76d53687fd8df58a5c27970e109500156943c10b160",
            "08a8c71f37c03c67245bee52458bc24a240b7a4ad368007365fefefec38d86b2"),
        ("scope", "clip_to_unit", 0.3): (
            "49b1dcb343aa8272925614844edb97b4f938074f69ece7dd17a70fe0b83e44d3",
            "4e3044fadeac6eefd39f61256de3fafba251c68a7af71a7e8a1a12dc11dd4df8"),
        ("scope", "clip_to_unit", 0.6): (
            "b74409abaadad2e79f2d620972b51284ccdb2eea6d035c15ae7a88476fd79fcc",
            "3eb6354f8ad49dc08826ce98a31b9d61a522e9b199c1c03afa5cf256f4872c55"),
    }

    @pytest.mark.parametrize("kind,clip,target", REPORTS)
    def test_estimate_report_files(self, tmp_path, kind, clip, target):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_states": 11, "spontaneity": 0.5, "horizon_steps": 20,
                                    "target_probability": target,
                                    "equal_transitions": False}))
        out = tmp_path / "report.json"
        assert cli.main(["estimate", "--spec", str(spec), "--kind", kind, "--n", "2000",
                         "--seed", "3", "--clip", clip, "--out", str(out)]) == 0
        got = tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in (out, tmp_path / "report.json.f64"))
        assert got == self.REPORTS[kind, clip, target]


class TestWordDraws:
    """The bucket-table path reads ``bit_generator.random_raw`` words where
    the other paths read ``random()`` doubles: the same uniforms, from the
    same stream positions."""

    @pytest.mark.parametrize("bitgen", [np.random.Philox, np.random.PCG64,
                                        np.random.SFC64])
    def test_words_make_the_doubles_random_returns(self, bitgen):
        words, doubles = (np.random.Generator(bitgen(11)) for _ in range(2))
        for k in (1, 7, 1000):
            got = (words.bit_generator.random_raw(k) >> 11) * 2.0**-53
            assert got.tobytes() == doubles.random(k).tobytes()
        assert words.random() == doubles.random()

    @pytest.mark.parametrize("bitgen", [np.random.Philox, np.random.PCG64,
                                        np.random.SFC64])
    @pytest.mark.parametrize("a,b", [(1, 1), (3, 6), (5, 4), (7, 1001), (4, 8)])
    def test_chained_draws_are_one_draw(self, bitgen, a, b):
        # a step draws its rows block after block: random_raw(a) then
        # random_raw(b) must be random_raw(a + b), and so for random(out=),
        # whatever buffered words a size that is no multiple of 4 leaves
        one, two = (np.random.Generator(bitgen(5)) for _ in range(2))
        chained = np.concatenate([two.bit_generator.random_raw(a),
                                  two.bit_generator.random_raw(b)])
        assert chained.tobytes() == one.bit_generator.random_raw(a + b).tobytes()
        whole, parts = np.empty(a + b), np.empty(a + b)
        one.random(out=whole)
        two.random(out=parts[:a])
        two.random(out=parts[a:])
        assert whole.tobytes() == parts.tobytes()
        # and both streams stand at the same position
        assert (one.bit_generator.random_raw(9).tobytes()
                == two.bit_generator.random_raw(9).tobytes())

    def test_mt19937_rejected(self):
        m = chain([[0.5, 0.5], [0.0, 1.0]])
        for n in (1, seqmodel._BINS):
            with pytest.raises(ValueError, match="MT19937"):
                sample_batch(m, STANDARD, n, np.random.Generator(np.random.MT19937(0)))

    @pytest.mark.parametrize("n", [1, 7, 1023, 2 * seqmodel._BINS])
    @pytest.mark.parametrize("mode", [STANDARD, OUTCOME_EXCLUDED])
    def test_table_path_leaves_the_stream_where_random_does(self, mode, n):
        # the chain draws words through its bucket table; the same rows as a
        # model that is not a MarkovModel compare doubles
        m = random_chain(ChainSpec(n_states=6, spontaneity=0.6, horizon_steps=9,
                                   target_probability=0.4, seed=2))
        twin = RuledChain(m.transition, m.initial_state, m.vocabulary, m.horizon)
        r1, r2 = trajectory_stream(3), trajectory_stream(3)
        table = sample_batch(m, mode, n, r1)
        compared = sample_batch(twin, mode, n, r2)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(table, compared))
        assert r1.random() == r2.random()

    @pytest.mark.parametrize("mode", [STANDARD, OUTCOME_EXCLUDED])
    def test_each_group_of_one_chain_builds_one_table(self, mode):
        # a lone chain at n = 1 and every chain of a keyed stack that steps
        # alone build their chain's table, once; a group of several chains
        # and another model build none
        stack, initial, vocab, horizon = TestKeyedGroups().case("no early ends")
        n = TestKeyedGroups.N
        keys = stream_keys(4, 30, np.arange(len(stack)))
        m = MarkovModel.step_mode(stack[0], initial, vocab.outcome, horizon.max_steps)
        cums = seqmodel._draw_tables(stack.reshape(-1, vocab.size), vocab.outcome,
                                     mode == OUTCOME_EXCLUDED)[1]

        def built(run, budget=seqmodel._GROUP):
            with mock.patch.object(seqmodel, "_bucket_table",
                                   wraps=seqmodel._bucket_table) as table, \
                    mock.patch.object(seqmodel, "_GROUP", budget):
                run()
            return [call.args[0] for call in table.call_args_list]

        (cum,) = built(lambda: sample_batch(m, mode, 1, trajectory_stream(2)))
        assert np.array_equal(cum, cums[:vocab.size])
        alone = built(lambda: seqmodel._sample_stack((stack, initial), vocab, horizon,
                                                     mode, n, keys), budget=n)
        assert len(alone) == len(stack)
        assert np.array_equal(np.concatenate(alone), cums)
        assert built(lambda: seqmodel._sample_stack((stack, initial), vocab, horizon,
                                                    mode, n, keys)) == []
        twin = RuledChain(stack[0], initial, vocab, horizon)
        assert built(lambda: sample_batch(twin, mode, n, trajectory_stream(2))) == []


def _cum(row):
    """Cumulative row as the batch sampler builds it: last entry forced to 1."""
    cum = np.cumsum(np.asarray(row, dtype=float))
    cum[-1] = 1.0
    return cum


class TestBucketTable:
    B = seqmodel._BINS
    CUMS = [
        _cum([0.25, 0.25, 0.5]),  # every boundary on a bucket edge
        _cum([0.5, 0.5]),
        _cum([0.3, 0.0, 0.0, 0.2, 0.0, 0.5]),  # zero tokens: repeated boundaries
        _cum([0.1, 1e-5, 2e-5, 3e-5, 0.0, 1 - 0.1 - 6e-5]),  # several in one bucket
        _cum([0.6, 0.4 + 5e-13, 0.0]),  # overshoots 1 before the forced last entry
        _cum([1.0, 0.0, 0.0]),
        _cum([0.0, 0.0, 1.0]),
        np.zeros(3),  # degenerate row of the outcome-excluded mode: never forced
        _cum(np.array([1e-14, 0.0, 0.0]) / (1.0 - (1.0 - 1e-14))),  # near-degenerate
    ]

    def test_lookup_equals_comparison_at_every_edge_and_boundary(self):
        for cum in self.CUMS:
            table = seqmodel._bucket_table(cum[None, :], np.int16)
            assert table.shape == (self.B,)
            us = [b / self.B for b in range(self.B)]
            for c in cum:
                us += [c, np.nextafter(c, -np.inf), np.nextafter(c, np.inf)]
            for u in (u for u in us if 0.0 <= u < 1.0):
                b = int(u * self.B)
                inside = any(b < c * self.B < b + 1 for c in cum)
                got = table[b]
                if inside:
                    assert got == -1, (cum, u)
                else:
                    assert got == (cum <= u).sum(), (cum, u)

    def test_rows_are_independent(self):
        cums = np.array([c for c in self.CUMS if c.size == 3])
        table = seqmodel._bucket_table(cums, np.int16)
        for s, cum in enumerate(cums):
            own = seqmodel._bucket_table(cum[None, :], np.int16)
            assert np.array_equal(table[s::len(cums)], own)


class TestValidate:
    def test_identity_ok(self):
        assert validate(np.eye(3)) == []
        assert chain(np.eye(3)).n_states == 3

    def test_row_sum_violation_names_row(self):
        rows = np.array([[0.5, 0.49], [0.0, 1.0]])
        with pytest.raises(ModelValidationError) as err:
            MarkovModel(rows, 0, 1, HorizonPolicy(max_steps=2))
        out = err.value.violations
        assert len(out) == 1 and "row 0" in out[0]

    def test_non_finite_entries_named(self):
        rows = np.array([[np.nan, 1.0], [0.0, 1.0], [np.inf, 0.0]])
        assert validate(rows) == ["row 0 entry 0 = nan outside [0, 1]",
                                  "row 2 entry 0 = inf outside [0, 1]"]

    def test_stack_diagnostics_name_the_chain(self):
        stack = np.array([np.eye(2), [[0.5, 0.4], [np.nan, 1.0]], np.eye(2)])
        assert validate(stack) == ["chain 1 row 0 sums to 0.9, expected 1",
                                   "chain 1 row 1 entry 0 = nan outside [0, 1]"]
        assert validate(np.stack([np.eye(3)] * 4)) == []

    def test_range_violation(self):
        rows = np.array([[1.1, -0.1], [0.0, 1.0]])
        with pytest.raises(ModelValidationError) as err:
            MarkovModel(rows, 0, 1, HorizonPolicy(max_steps=2))
        assert any("outside [0, 1]" in v for v in err.value.violations)


class FixedRowModel:
    """Model without a transition matrix whose next-token vector is always
    ``row``, over a vocabulary of ``size`` tokens (outcome 2)."""

    def __init__(self, row, size=None):
        self.row = np.asarray(row, dtype=float)
        self.vocabulary = Vocabulary(size=size or self.row.size, outcome=2)
        self.horizon = HorizonPolicy(max_steps=3)

    def next_distribution(self, prefix):
        return self.row


BAD_ROWS = {
    "half_mass": ([0.25, 0.125, 0.125], None, "sums to 0.5, expected 1"),
    "nan": ([np.nan, 0.5, 0.5], None, "entry 0 = nan outside [0, 1]"),
    "short": ([0.25, 0.25, 0.5], 4, "shape (3,), expected (4,)"),
}


class TestNonMarkovDistributionsChecked:
    @pytest.mark.parametrize("row,size,message", BAD_ROWS.values(), ids=BAD_ROWS)
    def test_samplers_and_oracles_reject(self, row, size, message):
        m = FixedRowModel(row, size)
        calls = [lambda mode=mode: sample_batch(m, mode, 1, trajectory_stream(0))
                 for mode in (STANDARD, OUTCOME_EXCLUDED)]
        calls += [lambda kind=kind: estimate(m, kind, 20, seed=0) for kind in KINDS]
        calls += [lambda kind=kind: enumerate_sub_distribution(m, kind) for kind in KINDS]
        calls += [lambda: paired_estimates(m, 20, seed=0), lambda: exact_bijection_check(m)]
        for call in calls:
            with pytest.raises(ModelValidationError) as err:
                call()
            assert err.value.violations == [f"next_distribution([]): {message}"]

    def test_the_first_bad_prefix_is_named(self):
        class PerToken:
            vocabulary, horizon = Vocabulary(size=3, outcome=2), HorizonPolicy(max_steps=3)

            def next_distribution(self, prefix):
                return {0: [0.5, 0.5, 0.0], 1: [0.5, 0.0, 0.0], 2: [1.0, 0.0]}[prefix[-1]]

        for prefixes, message in (([[0], [1], [2]], "[1]): sums to 0.5, expected 1"),
                                  ([[0], [2], [1]], "[2]): shape (2,), expected (3,)")):
            with pytest.raises(ModelValidationError) as err:
                seqmodel._read_rows(PerToken(), prefixes, 3)
            assert err.value.violations == [f"next_distribution({message}"]

    def test_helpers_reject_non_finite_entries(self):
        message = r"next_distribution\(\[5\]\): entry 0 = nan"
        with pytest.raises(ModelValidationError, match=message):
            seqmodel._read_rows(FixedRowModel([np.nan, 0.5, 0.5]), [[5]], 3)
        assert validate(np.array([0.5, np.inf, 0.5])) == ["entry 1 = inf outside [0, 1]"]


class TestSerialization:
    def test_markov_json_round_trip(self):
        m = make_random_model(9)
        m2 = MarkovModel.from_json(m.to_json())
        assert np.array_equal(m.transition, m2.transition)
        assert (m.initial_state, m.outcome_state, m.horizon) == (
            m2.initial_state, m2.outcome_state, m2.horizon)

    def test_numpy_states_serialize(self):
        m = MarkovModel(np.eye(3), np.int64(0), np.int64(2), HorizonPolicy(np.int64(4)))
        assert type(m.initial_state) is int and type(m.outcome_state) is int
        m2 = MarkovModel.from_json(m.to_json())
        assert (m2.initial_state, m2.outcome_state, m2.horizon) == (0, 2, m.horizon)

    def test_size_is_the_matrix_size(self):
        # the file keeps n_states, which from_json checks against the entries
        m = make_random_model(9)
        assert m.n_states == len(m.transition)
        assert json.loads(m.to_json())["n_states"] == m.n_states

    @pytest.mark.parametrize("rows", [np.full((2, 3), 1 / 3), np.ones(1), np.eye(2)[None]])
    def test_transition_must_be_square(self, rows):
        message = f"transition must be a square matrix, got shape {rows.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MarkovModel(rows, 0, 0, HorizonPolicy(max_steps=2))

    def test_bad_transition_length(self):
        doc = {"n_states": 2, "transition": [1.0, 0.0, 1.0],
               "initial_state": 0, "outcome_state": 1, "horizon": {"max_steps": 2}}
        with pytest.raises(ValueError):
            MarkovModel.from_json(json.dumps(doc))

    @pytest.mark.parametrize("key", ["horizon", "transition"])
    def test_from_json_names_a_missing_key(self, key):
        doc = json.loads(make_random_model(9).to_json())
        del doc[key]
        with pytest.raises(ValueError, match=rf"model lacks the required keys \['{key}'\]"):
            MarkovModel.from_json(json.dumps(doc))
