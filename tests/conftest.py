"""Shared fixtures: seeded random-model suites and their exact statistics, a
chain that is not a :class:`MarkovModel`, the straight-line reference
sampler the batched sampler is held to, and the calibrated chain every
experiment's chain is held to."""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass

import numpy as np
import pytest

from seqrisk import (
    KINDS,
    OUTCOME_EXCLUDED,
    STANDARD,
    MarkovModel,
    enumerate_sub_distribution,
    exact_bijection_check,
    exact_outcome_probability,
    experiments,
    seqmodel,
)
from seqrisk.rng import stream_keys

SUITE_SEED_BASE = 1000
SUITE_SIZE = 200

CRITERION_LINES: list[str] = []


#: the values every count argument rejects, by the least value it takes
BAD_COUNTS = {"bool": lambda least: True, "fraction": lambda least: 2.5,
              "below_least": lambda least: least - 1}


def raises_count_error(name: str, least: int, value):
    """``pytest.raises`` for the message the count check on ``name`` gives
    ``value``: a bool or a fraction is not an integer."""
    if isinstance(value, int) and not isinstance(value, bool):
        message = f"{name} must be >= {least}, got {value}"
    else:
        message = f"{name} must be an integer, got {value!r}"
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


def record_criterion(line: str) -> None:
    CRITERION_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


def make_random_model(seed: int, max_states: int = 5, max_horizon: int = 6) -> MarkovModel:
    """Small random chain: arbitrary stochastic rows, some zero hazards."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_states + 1))
    horizon = int(rng.integers(2, max_horizon + 1))
    t = rng.dirichlet(np.ones(n), size=n)
    outcome = int(rng.integers(0, n))
    for s in range(n):
        if s != outcome and rng.random() < 0.35:
            t[s, outcome] = 0.0
    t = t / t.sum(axis=1, keepdims=True)
    initial = int(rng.integers(0, n))
    return MarkovModel.step_mode(t, initial, outcome, horizon)


def lone_chain(spec, seed, *key):
    """The chain ``spec`` gets alone with its parts drawn from
    ``substream(seed, *key)``: a one-chain calibration, raising the
    :class:`CalibrationError` it gets."""
    return experiments._lone_chain(spec, stream_keys(seed, *key))[0]


class RuledChain:
    """Chain with the stop rules it is given: rows, an initial state, a
    vocabulary (any outcome token, terminal set and token times) and a
    horizon.  It is not a :class:`MarkovModel`, so both samplers read and
    check its rows like any model's distributions, prefix by prefix."""

    def __init__(self, rows, initial, vocabulary, horizon):
        self.rows = np.asarray(rows, dtype=float)
        self.initial = initial
        self.vocabulary = vocabulary
        self.horizon = horizon

    def next_distribution(self, prefix):
        return self.rows[prefix[-1] if prefix else self.initial]


def ruled_batch(m, mode, n, rng):
    """Batch values of a :class:`RuledChain` from the per-state tables of the
    stacked sampler core, which takes the stop rules explicitly."""
    values = seqmodel._sample_stack((m.rows[None], m.initial), m.vocabulary, m.horizon,
                                    mode, n, rng)
    return tuple(v[0] for v in values)


class ScriptedStream:
    """Stand-in for a generator whose ``random()`` returns the given
    uniforms in order, and whose ``random(out=a)`` fills ``a`` with the next
    ones (and fails when asked for more).  ``bit_generator.random_raw(k)``
    returns the next ``k`` as the 64-bit words ``random()`` turns into them,
    ``u * 2**53 << 11``; each uniform must be a multiple of ``2**-53``."""

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)

    def random(self, out=None):
        if out is None:
            return self.uniforms.pop(0)
        for i in range(out.size):
            out[i] = self.uniforms.pop(0)
        return out

    @property
    def bit_generator(self):
        return self

    def random_raw(self, size):
        words = []
        for _ in range(size):
            u = self.uniforms.pop(0)
            assert int(u * 2**53) == u * 2**53, f"{u!r} is no 53-bit uniform"
            words.append(int(u * 2**53) << 11)
        return np.array(words, dtype=np.uint64)


def reference_sample(model, mode, rng):
    """Straight-line sampler written directly against the documented
    semantics: one uniform per drawn token read from ``rng`` and nothing
    more; an outcome-excluded step is degenerate when its hazard is at
    least ``1 - 1e-15`` or no other token has positive probability; inverse
    CDF with every cumulative entry from the last token with positive draw
    probability onward set to 1."""
    vocab, horizon = model.vocabulary, model.horizon
    tokens, hazards = [], []
    elapsed = 0.0
    hit = None
    state_prefix = []
    while True:
        dist = np.asarray(model.next_distribution(state_prefix), dtype=float)
        h = float(dist[vocab.outcome])
        hazards.append(h)
        if mode == OUTCOME_EXCLUDED:
            others = [p for v, p in enumerate(dist) if v != vocab.outcome]
            if h >= 1.0 - 1e-15 or not any(p > 0.0 for p in others):
                return tokens, hazards, hit, True
            dist = dist / (1.0 - h)
            dist[vocab.outcome] = 0.0
        cum = np.cumsum(dist)
        cum[max(v for v, p in enumerate(dist) if p > 0.0):] = 1.0
        tok = int(np.searchsorted(cum, rng.random(), side="right"))
        tokens.append(tok)
        state_prefix.append(tok)
        elapsed += float(vocab.time_map[tok])
        if mode == STANDARD and tok == vocab.outcome:
            hit = len(tokens) - 1
            break
        if tok in vocab.terminal:
            break
        if horizon.time_limit is not None and elapsed > horizon.time_limit:
            break
        if len(tokens) >= horizon.max_steps:
            break
    return tokens, hazards, hit, False


def reference_values(model, mode, rng):
    """Sub-values of one :func:`reference_sample` trajectory, in the order
    the batched sampler returns them: ``(mc, scope)`` in standard mode, with
    the hazards summed by ``fsum``, or ``(reach,)``, 1 for a degenerate
    trajectory."""
    _, hazards, hit, degenerate = reference_sample(model, mode, rng)
    if mode == STANDARD:
        return 1.0 if hit is not None else 0.0, math.fsum(hazards)
    surv = 1.0
    for h in hazards:
        surv *= 1.0 - h
    return (1.0 if degenerate else 1.0 - surv,)


def assert_matches_reference(values, reference):
    """One trajectory's batch ``values`` equal its ``reference`` values:
    ``mc`` and ``reach`` exactly, ``scope`` up to rounding (the batch sums
    hazards in step order, the reference with fsum)."""
    got = [float(v[0]) for v in values]
    assert len(got) == len(reference)
    if len(got) == 1:
        assert got == list(reference)
        return
    assert got[0] == reference[0]
    assert math.isclose(got[1], reference[1], rel_tol=1e-15, abs_tol=1e-15)


def reference_batch(model, mode, n, rng):
    """:func:`reference_values` of ``n`` trajectories read from one stream in
    the batch layout: each step gives the next uniform to every trajectory
    that draws a token, in index order.  Every unfinished trajectory is
    replayed on the uniforms it holds until it ends or asks for one more
    (the scripted stream raises IndexError)."""
    uniforms = [[] for _ in range(n)]
    values = [None] * n
    while True:
        need = []
        for i in range(n):
            if values[i] is None:
                try:
                    values[i] = reference_values(model, mode, ScriptedStream(uniforms[i]))
                except IndexError:
                    need.append(i)
        if not need:
            return values
        for i in need:
            uniforms[i].append(rng.random())


def check_against_reference(batch, model, mode, stream, n=1):
    """``batch(model, mode, n, ·)`` against :func:`reference_batch`, each on
    its own ``stream()``: equal values, and both streams at the same
    position afterwards, so the batch read one uniform per token and no
    more."""
    r1, r2 = stream(), stream()
    values = batch(model, mode, n, r1)
    for i, want in enumerate(reference_batch(model, mode, n, r2)):
        assert_matches_reference([v[i:i + 1] for v in values], want)
    assert r1.random() == r2.random()


@dataclass(frozen=True)
class SuiteRecord:
    seed: int
    model: MarkovModel
    dp_probability: float
    dists: dict
    p_standard: float
    p_excluded: float


@pytest.fixture(scope="session")
def model_suite():
    """200 seeded random models with their enumeration-exact statistics.

    Returns (records, build_seconds); the build time counts against the
    enumeration-based acceptance criteria.
    """
    t0 = time.perf_counter()
    records = []
    for i in range(SUITE_SIZE):
        seed = SUITE_SEED_BASE + i
        model = make_random_model(seed)
        dists = {
            kind: enumerate_sub_distribution(model, kind)
            for kind in KINDS
        }
        p_a, p_b = exact_bijection_check(model)
        records.append(
            SuiteRecord(
                seed=seed,
                model=model,
                dp_probability=exact_outcome_probability(model),
                dists=dists,
                p_standard=p_a,
                p_excluded=p_b,
            )
        )
    return records, time.perf_counter() - t0
