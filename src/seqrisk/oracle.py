"""Exact ground truth for the estimators, independent of any sampling.

Three mechanisms live here:

* a dynamic-programming recursion for the probability that a Markov chain
  reaches its outcome state within the horizon;
* exhaustive enumeration of every sequence a small model can generate,
  yielding the exact distribution of each sub-estimator; and
* closed-form references: a branching counterexample model whose
  hazard-sum estimator keeps strictly larger variance than plain Monte
  Carlo at arbitrarily small outcome probability, and the binomial
  dispersion probability that a higher-risk case outranks a baseline case
  when both are scored by finite-sample proportions.

Enumeration walks the model's own vocabulary and horizon and checks every
distribution it reads (:class:`~seqrisk.errors.ModelValidationError`).  It
is guarded: it refuses instances whose sequence tree could exceed
``LEAF_GUARD`` leaves.  Path probabilities are kept as plain
doubles (paths whose probability underflows contribute less than 1e-290
to any statistic, far below every tolerance used in the package).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InstanceTooLargeError
from .estimators import MC, required_mode
from .seqmodel import (
    OUTCOME_EXCLUDED,
    STANDARD,
    HorizonPolicy,
    MarkovModel,
    Vocabulary,
    _check_count,
    _check_probability,
    _degenerate,
    _read_rows,
    _stop_reason,
    effective_steps,
)

LEAF_GUARD = 10_000_000
#: atoms closer than this are floating-point duplicates of one value
MERGE_TOL = 1e-12


@dataclass(frozen=True)
class ValueDistribution:
    """Discrete distribution of a sub-estimator: (value, probability) atoms."""

    atoms: tuple

    @classmethod
    def from_pairs(cls, pairs) -> "ValueDistribution":
        """Build from raw (value, probability) pairs.

        Atoms whose values lie within ``MERGE_TOL`` of each other are merged
        (they are floating-point duplicates of the same analytic value).  A
        non-finite value or probability, a negative probability or
        probabilities that do not sum to 1 raise ValueError.
        """
        pairs = sorted((float(v), float(p)) for v, p in pairs)
        if not pairs:
            raise ValueError("no atoms")
        if not all(math.isfinite(v) and math.isfinite(p) for v, p in pairs):
            raise ValueError("non-finite atom value or probability")
        if any(p < 0 for _, p in pairs):
            raise ValueError("negative atom probability")
        merged: list[list[float]] = []
        for v, p in pairs:
            if merged and v - merged[-1][0] <= MERGE_TOL:
                v0, p0 = merged[-1]
                total = p0 + p
                if total > 0:
                    merged[-1][0] = (v0 * p0 + v * p) / total
                merged[-1][1] = total
            else:
                merged.append([v, p])
        total = math.fsum(p for _, p in merged)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"atom probabilities sum to {total!r}, expected 1")
        return cls(tuple((v, p) for v, p in merged))

    def mean(self) -> float:
        return math.fsum(v * p for v, p in self.atoms)

    def second_moment(self) -> float:
        return math.fsum(v * v * p for v, p in self.atoms)

    def variance(self) -> float:
        m = self.mean()
        return math.fsum((v - m) ** 2 * p for v, p in self.atoms)

    def expect(self, func) -> float:
        return math.fsum(func(v) * p for v, p in self.atoms)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("value,probability\n")
            for v, p in self.atoms:
                fh.write(f"{v!r},{p!r}\n")


def exact_outcome_probability(model: MarkovModel) -> float:
    """P(chain visits the outcome state within its step horizon), exactly."""
    return outcome_probability_dp(
        model.transition,
        model.initial_state,
        model.outcome_state,
        effective_steps(model.vocabulary, model.horizon),
    )


def outcome_probability_dp(
    transition: np.ndarray, initial_state: int, outcome_state: int, steps: int
) -> float | np.ndarray:
    """Outcome probability of a bare transition matrix within ``steps`` steps.

    Recursion over remaining steps h:
    ``p_h(s) = T[s, O] + sum_{s' != O} T[s, s'] * p_{h-1}(s')`` with
    ``p_0 = 0``; the answer is ``p_H(initial)``.  The matrix is not
    validated: chain calibration evaluates candidates before building a
    :class:`MarkovModel`.

    ``transition`` may be a ``(..., S, S)`` stack of matrices sharing the
    initial and outcome states; the result is then an array of the stack's
    shape, else a float.  Every matrix is handed to BLAS in the layout a
    lone matrix has (Fortran order, contiguous vector), so a chain's
    probability does not depend on the stack it is evaluated in.
    """
    keep = np.arange(transition.shape[-1]) != outcome_state
    others = np.flatnonzero(keep)
    hazard = np.ascontiguousarray(transition[..., :, outcome_state, None])
    inner = np.ascontiguousarray(np.swapaxes(transition, -1, -2)[..., keep, :])
    inner = np.swapaxes(inner, -1, -2)
    # p is a column per matrix; take() copies it contiguously, as BLAS needs
    p = np.zeros(transition.shape[:-1] + (1,))
    for _ in range(steps):
        p = hazard + inner @ p.take(others, axis=-2)
    p = np.minimum(1.0, p[..., initial_state, 0])
    return float(p) if transition.ndim == 2 else p


def _static_guard(vocab: Vocabulary, horizon: HorizonPolicy) -> None:
    # worst case: a full |V|-ary tree as deep as the step cap; any size >= 2
    # passes the guard within 24 steps, so the cap at 64 keeps the power small
    if vocab.size ** min(horizon.max_steps, 64) > LEAF_GUARD:
        raise InstanceTooLargeError(
            f"{vocab.size} tokens over {horizon.max_steps} steps may exceed "
            f"{LEAF_GUARD} leaves"
        )


def _walk(model, mode: str):
    """Yield (path probability, stop reason, value) for every path of ``mode``.

    The value is the path's hazard sum in standard mode and its
    survival complement ``1 - prod(1 - h)`` in outcome-excluded mode, where
    a path that reaches a degenerate step (:func:`_degenerate`) stops there
    with value exactly 1.
    """
    vocab, horizon = model.vocabulary, model.horizon
    _static_guard(vocab, horizon)
    o = vocab.outcome
    times = vocab.time_map.tolist()
    excluded = mode == OUTCOME_EXCLUDED
    # acc: the hazard sum (standard) or the survival product (excluded)
    stack = [((), 1.0, 0.0, 1.0 if excluded else 0.0)]
    while stack:
        prefix, prob, elapsed, acc = stack.pop()
        probs = _read_rows(model, [list(prefix)], vocab.size)[0].tolist()
        h = probs[o]
        if excluded:
            # the outcome is no candidate; the largest other probability is
            # 0 exactly when their total is
            probs[o] = 0.0
            if _degenerate(h, max(probs)):
                yield prob, "degenerate_hazard", 1.0
                continue
            acc, scale = acc * (1.0 - h), 1.0 - h
        else:
            # p / 1.0 is p exactly
            acc, scale = acc + h, 1.0
        n_tok = len(prefix) + 1
        for tok, p in enumerate(probs):
            if p <= 0.0:
                continue
            prob2 = prob * (p / scale)
            elapsed2 = elapsed + times[tok]
            stop = _stop_reason(vocab, horizon, mode, tok, elapsed2, n_tok)
            if stop is None:
                stack.append((prefix + (tok,), prob2, elapsed2, acc))
            else:
                yield prob2, stop, 1.0 - acc if excluded else acc


def enumerate_sub_distribution(model, kind: str) -> ValueDistribution:
    """Exact distribution of one sub-estimator by full sequence enumeration."""
    walk = _walk(model, required_mode(kind))
    if kind == MC:
        pairs = [(1.0 if stop == "outcome" else 0.0, prob) for prob, stop, _ in walk]
    else:
        pairs = [(value, prob) for prob, _, value in walk]
    return ValueDistribution.from_pairs(pairs)


def exact_bijection_check(model) -> tuple[float, float]:
    """(P(outcome in a standard timeline), expected survival-complement).

    The first is enumerated over standard sequences, the second over
    outcome-excluded sequences; the two agree for every model because
    outcome-free standard paths and all-failure excluded paths carry the
    same probability.
    """
    p_a = math.fsum(prob for prob, stop, _ in _walk(model, STANDARD) if stop == "outcome")
    p_b = math.fsum(prob * value for prob, _, value in _walk(model, OUTCOME_EXCLUDED))
    return p_a, p_b


class _BranchCoinModel:
    """First token: immediate-terminal branch (prob p) or a coin phase.

    The coin phase emits fair heads/tails tokens; heads is the outcome, and
    at most three coin tokens are generated.  The outcome probability
    ``(7/8) * (1 - p)`` can be pushed arbitrarily low by raising ``p`` while
    the hazard-sum estimator keeps variance strictly above Monte Carlo's.
    """

    STOP, GO, HEADS, TAILS = 0, 1, 2, 3

    def __init__(self, p: float):
        self.p = float(p)
        self._vocab = Vocabulary(size=4, outcome=self.HEADS, terminal=frozenset({self.STOP}))
        self._first = np.array([self.p, 1.0 - self.p, 0.0, 0.0])
        self._coin = np.array([0.0, 0.0, 0.5, 0.5])
        self._first.flags.writeable = False
        self._coin.flags.writeable = False

    @property
    def vocabulary(self) -> Vocabulary:
        return self._vocab

    @property
    def horizon(self) -> HorizonPolicy:
        # first token plus at most three coin tokens
        return HorizonPolicy(max_steps=4)

    def next_distribution(self, prefix: Sequence[int]) -> np.ndarray:
        if any(not 0 <= t < 4 for t in prefix):
            raise ValueError("invalid token id in prefix")
        return self._first if len(prefix) == 0 else self._coin


def counterexample_model(p: float) -> _BranchCoinModel:
    """Model showing no outcome-probability threshold makes the hazard-sum
    estimator dominate Monte Carlo; see :class:`_BranchCoinModel`."""
    _check_probability("p", p)
    return _BranchCoinModel(p)


def dispersion_probability(n_samples: int, p_base: float, p_elevated: float) -> float:
    """Probability a higher-risk case outranks a baseline case on MC scores.

    Both cases are scored by proportions out of ``n_samples`` Bernoulli
    draws (rates ``p_base`` and ``p_elevated``); returns the probability
    the elevated case's count is strictly larger:
    ``sum_k Binom(k; n, p_base) * P(Binom(n, p_elevated) > k)``.
    Binomial terms are evaluated in log space.
    """
    _check_count("n_samples", n_samples)
    _check_probability("p_base", p_base)
    _check_probability("p_elevated", p_elevated)
    n = int(n_samples)
    return float(math.fsum(_binomial_pmf(n, p_base) * _binomial_sf(n, p_elevated)))


def _binomial_pmf(n: int, p: float) -> np.ndarray:
    """``P(X = k)`` for ``X ~ Binom(n, p)`` and ``k = 0..n``, from log terms.

    ``log n!`` comes from a cumulative sum of ``log(1..n)``; the ``0 * log 0``
    terms at ``k = 0`` and ``k = n`` are masked to 0 so ``p`` may be 0 or 1.
    """
    k = np.arange(n + 1)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_hit = np.where(k > 0, k * np.log(p), 0.0)
        log_miss = np.where(k < n, (n - k) * np.log1p(-p), 0.0)
    return np.exp(log_fact[n] - log_fact - log_fact[::-1] + log_hit + log_miss)


def _binomial_sf(n: int, p: float) -> np.ndarray:
    """``P(X > k)`` for ``X ~ Binom(n, p)`` and ``k = 0..n``.

    Summed from ``k = n`` downwards, so each small upper tail is a sum of
    its own small terms rather than one minus a number close to one.
    """
    tail = np.cumsum(_binomial_pmf(n, p)[::-1])[::-1]
    return np.append(tail[1:], 0.0)
