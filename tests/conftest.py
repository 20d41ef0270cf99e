"""Shared fixtures: seeded random-model suites and their exact statistics, and
a chain that is not a :class:`MarkovModel`."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pytest

from seqrisk import (
    KINDS,
    MarkovModel,
    enumerate_sub_distribution,
    exact_bijection_check,
    exact_outcome_probability,
    seqmodel,
)

SUITE_SEED_BASE = 1000
SUITE_SIZE = 200

CRITERION_LINES: list[str] = []


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
                                    mode, n, [rng])
    return tuple(v[0] for v in values)


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
