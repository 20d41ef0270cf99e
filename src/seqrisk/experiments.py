"""Markov-chain experiment suite and synthetic-cohort evaluation.

The sweeps measure how the three estimators' variances respond to the
outcome probability, to chain spontaneity (the fraction of non-outcome
states with a direct transition to the outcome), and to the number of
sampled timelines.  The cohort pipeline scores a population of patients,
each driven by its own calibrated chain, and evaluates the estimators the
way a prediction study would: AUROC against labels drawn from the exact
per-patient probability, bootstrapped over timeline resamples, plus Brier
scores, calibration curves, and sample-count equivalence ratios.

Every experiment makes its chains one way, :func:`_calibrated_chains`
(one bisection over a list of specs, then one validation of the stack),
and samples them one way, :func:`_sample_pools` (one stacked sampler call
per mode, each chain on its own stage streams).  A sweep calibrates all
the points of its axis together and samples each point alone (the
``sample_count`` axis samples one pool for all its counts); a cohort
calibrates and samples all its patients as one stack.  Every chain's
numbers are those it gets alone.  Each experiment reads one seed, its
spec's ``seed``, and derives every stage stream from it, so results are
reproducible bit-for-bit from the spec; the per-chain streams of a stack
travel as Philox keys (:func:`seqrisk.rng.stream_keys`).  Default sweep
parameters:
11-state chains, 20-step horizon, 10,000 replications, probability grid
0.05..0.95 (step 0.05), spontaneity grid 0.1..1.0 (step 0.1).
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    CalibrationError,
    InstanceTooLargeError,
    ModelValidationError,
    UndefinedMetricError,
)
from .estimators import CLIP_TO_UNIT, KINDS, MC, REACH, SCOPE, _BATCH_KINDS, apply_clip
from .oracle import enumerate_sub_distribution, outcome_probability_dp
from .rng import KeyedStream, stream_keys, substream
from .seqmodel import (
    MarkovModel,
    _check_choice,
    _check_count,
    _check_number,
    _check_probability,
    _from_dict,
    _sample_stack,
    validate,
)

DEFAULT_CHAIN_STATES = 11
DEFAULT_HORIZON_STEPS = 20
DEFAULT_REPLICATIONS = 10_000
SAMPLE_COUNT_REPLICATIONS = 2_000
PROBABILITY_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))
SPONTANEITY_GRID = tuple(round(0.1 * i, 1) for i in range(1, 11))
SAMPLE_COUNT_GRID = (1, 2, 4, 8, 16, 32, 64, 128)

AXES = ("probability", "spontaneity", "sample_count")
_AXIS_ID = {"probability": 1, "spontaneity": 2, "sample_count": 3}

#: transition mass below this counts as "no transition" for spontaneity
SPONTANEITY_EPS = 1e-12

#: Beta shape ``(a, b)`` of a cohort's per-patient target risks
COHORT_RISK_BETA = (1.8, 2.2)
#: equal-width bins of a cohort's calibration rows
COHORT_CALIBRATION_BINS = 10

CSV_COLUMNS = ("task", "kind", "n", "statistic", "value", "ci_low", "ci_high", "seed")


@dataclass(frozen=True)
class ChainSpec:
    """Parameters of one random chain.

    ``spontaneity`` fixes how many non-outcome states get a direct hazard
    (``round(spontaneity * (n_states - 1))``, always the lowest-numbered
    states).  With ``equal_transitions`` every non-outcome state spreads
    its remaining mass uniformly over the non-outcome states, which makes
    the chain fully determined by (states, spontaneity, target); otherwise
    row weights and hazard weights are drawn from the supplied stream.
    When ``target_probability`` is set, the hazard masses are scaled by
    bisection until the exact outcome probability matches it to within
    1e-6, and to within 1e-4 of the target relative to it.
    ``seed`` keys :func:`random_chain`'s stream, ``substream(seed, 0, 0)``,
    and every stage stream of :func:`variance_sweep` and
    :func:`estimate_distribution_experiment`.  A spec keeps its numbers as
    plain ``int`` and ``float``, whatever numbers it is given, so that
    :meth:`to_dict` gives JSON.
    """

    n_states: int
    spontaneity: float
    horizon_steps: int
    seed: int = 0
    target_probability: float | None = None
    equal_transitions: bool = False

    def __post_init__(self):
        _check_count("n_states", self.n_states, least=2)
        _check_count("horizon_steps", self.horizon_steps)
        _check_count("seed", self.seed, least=0)
        _check_number("spontaneity", self.spontaneity)
        if not isinstance(self.equal_transitions, bool):
            raise ValueError(
                f"equal_transitions must be true or false, got {self.equal_transitions!r}"
            )
        if not 0.0 < self.spontaneity <= 1.0:
            raise ValueError("spontaneity must lie in (0, 1]")
        if round(self.spontaneity * (self.n_states - 1)) < 1:
            raise ValueError(
                "spontaneity too small: no non-outcome state would carry hazard"
            )
        target = self.target_probability
        if target is not None:
            if isinstance(target, bool) or not isinstance(target, numbers.Real):
                raise ValueError(
                    f"target_probability must be a number or null, got {target!r}"
                )
            _check_probability("target_probability", target)
            object.__setattr__(self, "target_probability", float(target))
        for name, kind in (("n_states", int), ("spontaneity", float),
                           ("horizon_steps", int), ("seed", int)):
            object.__setattr__(self, name, kind(getattr(self, name)))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ChainSpec":
        return _from_dict(cls, d, "chain spec")


@dataclass(frozen=True)
class CohortSpec:
    """Synthetic cohort: one calibrated chain per patient.

    Per-patient target probabilities are drawn as
    ``lo + (hi - lo) * Beta(a, b)`` with ``(lo, hi) = risk_range`` and the
    fixed shape ``(a, b) = COHORT_RISK_BETA`` (1.8, 2.2); labels come from
    the exact outcome probability of each patient's chain, so cohort ground
    truth carries no estimation noise.  ``seed`` keys every stage stream of
    :func:`synthetic_cohort_eval`; ``chain_template.seed`` is not read, as
    each patient's chain draws its parts from its own stage stream, and
    ``chain_template.target_probability`` must be None.  Counts and seed
    are kept as plain ``int`` and ``risk_range`` as a tuple of two floats.
    """

    n_patients: int
    chain_template: ChainSpec
    n_timelines: int = 100
    bootstrap_rounds: int = 40
    risk_range: tuple = (0.03, 0.55)
    seed: int = 0

    def __post_init__(self):
        _check_count("n_patients", self.n_patients, least=2)
        _check_count("n_timelines", self.n_timelines)
        _check_count("bootstrap_rounds", self.bootstrap_rounds)
        _check_count("seed", self.seed, least=0)
        if not isinstance(self.chain_template, ChainSpec):
            raise ValueError(
                f"chain_template must be a ChainSpec, got {self.chain_template!r}"
            )
        target = self.chain_template.target_probability
        if target is not None:
            raise ValueError(f"chain_template.target_probability must be None, as each "
                             f"patient's target comes from risk_range, got {target!r}")
        pair = self.risk_range
        if not isinstance(pair, Sequence) or len(pair) != 2:
            raise ValueError(f"risk_range must be a pair of numbers, got {pair!r}")
        for x in pair:
            _check_number("risk_range", x)
        lo, hi = self.risk_range
        if not 0.0 < lo < hi < 1.0:
            raise ValueError("risk_range must satisfy 0 < lo < hi < 1")
        object.__setattr__(self, "risk_range", (float(lo), float(hi)))
        for name in ("n_patients", "n_timelines", "bootstrap_rounds", "seed"):
            object.__setattr__(self, name, int(getattr(self, name)))


@dataclass(frozen=True)
class MetricRow:
    """One tidy result row; ``ci_low <= value <= ci_high`` when CIs present."""

    task: str
    kind: str
    n: int
    statistic: str
    value: float
    ci_low: float | None = None
    ci_high: float | None = None
    seed: int = 0

    def __post_init__(self):
        if (
            self.ci_low is not None
            and self.ci_high is not None
            and math.isfinite(self.value)
            and not self.ci_low <= self.value <= self.ci_high
        ):
            raise ValueError(
                f"value {self.value} outside CI [{self.ci_low}, {self.ci_high}]"
            )


def _ci_row(task, kind, n, statistic, value, samples, seed) -> MetricRow:
    """Row with a percentile 95% CI, widened if needed to contain the value;
    without samples, a row without a CI."""
    if len(samples) == 0:
        return MetricRow(task, kind, n, statistic, value, seed=seed)
    return _widened_row(task, kind, n, statistic, value, *_ci_bounds(samples), seed)


def _ci_bounds(samples) -> tuple:
    """The 2.5th and 97.5th percentiles of ``samples`` along the last axis,
    bit for bit those of ``np.percentile(samples, [2.5, 97.5], axis=-1)``
    (method "linear") for samples without NaN, from one sort.

    The ``q``-quantile lies at the virtual index ``(n - 1) * q`` of the
    sorted samples, between the entries ``a`` and ``b`` around it, at the
    fraction ``g`` of the way; like numpy it is ``a + (b - a) * g`` below
    ``g = 0.5`` and ``b - (b - a) * (1 - g)`` from there on.
    ``np.percentile`` itself imports ``numpy.ma`` (through ``np.unique``),
    about 1 MB and 12 ms that no other step of a cohort needs.
    """
    ordered = np.sort(samples, axis=-1)
    last = ordered.shape[-1] - 1
    bounds = []
    for q in (2.5 / 100, 97.5 / 100):
        virtual = last * q
        below = math.floor(virtual)
        gamma = virtual - below
        a, b = ordered[..., below], ordered[..., min(below + 1, last)]
        diff = b - a
        bounds.append(b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma)
    return tuple(bounds)


def _widened_row(task, kind, n, statistic, value, lo, hi, seed) -> MetricRow:
    """Row with the CI ``[lo, hi]``, widened if needed to contain the value."""
    lo, hi = float(lo), float(hi)
    if math.isfinite(value):
        lo, hi = min(lo, value), max(hi, value)
    return MetricRow(task, kind, n, statistic, value, lo, hi, seed)


@dataclass(frozen=True)
class ExperimentTable:
    """Ordered collection of :class:`MetricRow` with CSV/JSON serialization.

    ``stage_seconds`` maps each stage that built the table to its wall-clock
    seconds, when the function that built it times its stages; it is not
    serialized.
    """

    rows: tuple
    stage_seconds: Mapping = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))

    def rows_where(self, *, task=None, kind=None, statistic=None, n=None) -> list:
        out = []
        for r in self.rows:
            if task is not None and r.task != task:
                continue
            if kind is not None and r.kind != kind:
                continue
            if statistic is not None and r.statistic != statistic:
                continue
            if n is not None and r.n != n:
                continue
            out.append(r)
        return out

    def single(self, **kw) -> MetricRow:
        rows = self.rows_where(**kw)
        if len(rows) != 1:
            raise ValueError(f"expected exactly one row for {kw}, found {len(rows)}")
        return rows[0]

    def to_csv_text(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for r in self.rows:
            cells = (getattr(r, c) for c in CSV_COLUMNS)
            lines.append(",".join(
                "" if v is None else repr(float(v)) if isinstance(v, float) else str(v)
                for v in cells
            ))
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv_text())

    @classmethod
    def read_csv(cls, path) -> "ExperimentTable":
        rows = []
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            if tuple(header) != CSV_COLUMNS:
                raise ValueError(f"unexpected CSV header {header}")
            for number, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                cells = line.rstrip("\n").split(",")
                if len(cells) != len(CSV_COLUMNS):
                    raise ValueError(f"line {number} has {len(cells)} cells, "
                                     f"expected {len(CSV_COLUMNS)}")
                d = dict(zip(CSV_COLUMNS, cells))
                rows.append(
                    MetricRow(
                        task=d["task"],
                        kind=d["kind"],
                        n=int(d["n"]),
                        statistic=d["statistic"],
                        value=float(d["value"]),
                        ci_low=float(d["ci_low"]) if d["ci_low"] else None,
                        ci_high=float(d["ci_high"]) if d["ci_high"] else None,
                        seed=int(d["seed"]),
                    )
                )
        return cls(tuple(rows))


# ---------------------------------------------------------------------------
# chain construction
# ---------------------------------------------------------------------------


def _assemble_chain(W, hazard_weights, theta) -> np.ndarray:
    """Chains from their parts, stacked over the leading axes of ``theta``.

    Non-outcome state ``s`` moves to the outcome (the last state) with
    ``theta * hazard_weights[s]`` and spreads the rest by ``W[s]``.
    """
    m = W.shape[-1]
    t = np.zeros(W.shape[:-2] + (m + 1, m + 1))
    haz = np.asarray(theta)[..., None] * hazard_weights
    t[..., :m, m] = haz
    t[..., :m, :m] = (1.0 - haz)[..., None] * W
    t[..., m, m] = 1.0
    return t


def _chain_parts(spec: ChainSpec, gen) -> tuple:
    """Row weights ``W`` and hazard weights of a chain, drawn from ``gen``."""
    m = spec.n_states - 1
    k = int(round(spec.spontaneity * m))
    if spec.equal_transitions:
        W = np.full((m, m), 1.0 / m)
        raw = np.ones(k)
    else:
        W = gen.dirichlet(np.ones(m), size=m)
        W /= W.sum(axis=1, keepdims=True)
        raw = gen.uniform(0.2, 1.0, size=k)
    hazard_weights = np.zeros(m)
    hazard_weights[:k] = raw
    return W, hazard_weights


def _calibrated_chains(specs, targets, keys) -> tuple:
    """``(transitions, achieved, errors)``: a transition stack with chain
    ``i`` calibrated onto ``targets[i]``, the exact outcome probability of
    every chain, and the :class:`CalibrationError` of every chain that
    failed (None for the others).

    Chain ``i`` has the shape of ``specs[i]`` (all share ``n_states`` and
    ``horizon_steps``) with parts drawn from the stream of the Philox key
    ``keys[i]`` (:func:`seqrisk.rng.stream_keys`).  Its hazard scale
    ``theta`` is bisected on ``(0, theta_max]`` until the exact outcome
    probability lies within ``min(1e-6, 1e-4 * target)`` of the target, so
    rare targets are met to a relative 1e-4, or stalls at its last midpoint
    after 200 halvings.  All chains bisect together, each on its own
    interval until it stops, so every chain follows the ``theta`` sequence
    it follows alone.  A chain whose target is None bisects nothing: it
    draws ``theta`` from its stream after its parts.  A chain's stream is
    read only where it draws: for random transitions or a free target.

    Nothing here raises :class:`CalibrationError`: an infeasible or stalled
    chain gets in ``errors`` the error it gets alone (:func:`_raise_first`
    raises it).  A stack that is not row-stochastic raises
    :class:`ModelValidationError`.
    """
    m = specs[0].n_states - 1
    steps = specs[0].horizon_steps
    # a target of None reads as NaN
    targets = np.asarray(targets, dtype=float)
    free = np.isnan(targets)
    stream = KeyedStream()
    parts, draws = [], np.empty(len(specs))
    for i, spec in enumerate(specs):
        gen = stream.at(keys[i]) if free[i] or not spec.equal_transitions else None
        parts.append(_chain_parts(spec, gen))
        if free[i]:
            # the free chain's stream stands right after its parts
            draws[i] = gen.uniform(0.05, 0.9)
    W = np.stack([w for w, _ in parts])
    weights = np.stack([h for _, h in parts])
    theta_max = 1.0 / weights.max(axis=1)
    tol = np.minimum(1e-6, 1e-4 * targets)
    # the largest outcome probability, of the chains with a target only (a
    # chain's DP does not depend on the stack it is evaluated in)
    p_max = np.full(len(specs), np.nan)
    if not free.all():
        p_max[~free] = outcome_probability_dp(
            _assemble_chain(W[~free], weights[~free], theta_max[~free]), 0, m, steps)
    infeasible = ~free & ~((0.0 < targets) & (targets <= p_max + 1e-9))
    lo, hi, theta = np.zeros_like(theta_max), theta_max, theta_max
    running = ~(free | infeasible)
    for _ in range(200):
        if not running.any():
            break
        # a chain that stopped keeps lo and hi, so it keeps its theta
        theta = 0.5 * (lo + hi)
        p_mid = outcome_probability_dp(_assemble_chain(W, weights, theta), 0, m, steps)
        running &= np.abs(p_mid - targets) > tol
        below = p_mid < targets
        lo = np.where(running & below, theta, lo)
        hi = np.where(running & ~below, theta, hi)
    theta[free] = draws[free] * theta_max[free]
    transitions = _assemble_chain(W, weights, theta)
    violations = validate(transitions)
    if violations:
        raise ModelValidationError(violations)
    achieved = outcome_probability_dp(transitions, 0, m, steps)
    errors = [None] * len(specs)
    for i in np.flatnonzero(infeasible | (~free & (np.abs(achieved - targets) > tol))):
        target, top = float(targets[i]), float(p_max[i])
        if infeasible[i]:
            message = f"target probability {target} outside achievable (0, {top:.12g}]"
        else:
            message = f"bisection stalled at {float(achieved[i])}, target {target}"
        errors[i] = CalibrationError(message, achievable=(0.0, top))
    return transitions, achieved, errors


def _raise_first(errors) -> None:
    """Raise the lowest-numbered error of :func:`_calibrated_chains`, if any."""
    for error in errors:
        if error is not None:
            raise error


def random_chain(spec: ChainSpec) -> MarkovModel:
    """Random chain with the requested spontaneity and outcome probability.

    The outcome state is the highest-numbered state and is absorbing; the
    initial state is state 0.  Exactly ``round(spontaneity * (n-1))``
    non-outcome states carry hazard mass.  Infeasible targets raise
    :class:`CalibrationError` naming the achievable interval.  Random
    parts are drawn from ``substream(spec.seed, 0, 0)``.
    """
    return _lone_chain(spec, stream_keys(spec.seed, 0, 0))[0]


def _chain_model(spec: ChainSpec, transition) -> MarkovModel:
    """The chain of ``spec`` with the given transition matrix."""
    return MarkovModel.step_mode(transition, 0, spec.n_states - 1, spec.horizon_steps)


def _lone_chain(spec: ChainSpec, keys) -> tuple:
    """``(chain, p)``: the chain ``spec`` gets calibrated alone on the stream
    of the Philox key ``keys[0]`` and its exact outcome probability; raises
    the :class:`CalibrationError` it gets."""
    (transition,), (p,), errors = _calibrated_chains([spec], [spec.target_probability], keys)
    _raise_first(errors)
    return _chain_model(spec, transition), float(p)


def spontaneity(model: MarkovModel) -> float:
    """Fraction of non-outcome states with a direct transition to the outcome."""
    o = model.outcome_state
    non = np.arange(model.n_states) != o
    return float(np.mean(model.transition[non, o] > SPONTANEITY_EPS))


# ---------------------------------------------------------------------------
# trajectory pools
# ---------------------------------------------------------------------------


def _sample_pools(chain: MarkovModel, transitions, n: int, standard_keys,
                  excluded_keys, reduce=lambda values: values) -> dict:
    """``(P, n)`` sub-values of every kind for a ``(P, S, S)`` stack of
    chains that share ``chain``'s initial state and stop rules, each passed
    through ``reduce``.

    Chain ``c`` reads the streams of the Philox keys ``standard_keys[c]``
    (MC and SCOPE share that batch) and ``excluded_keys[c]`` (REACH) alone,
    so its row is the one :func:`seqrisk.seqmodel.sample_batch` gives its
    chain on those streams.
    A mode's values are reduced before the next mode is sampled, so a
    reducing caller holds one mode's pool at a time.
    """
    source = (transitions, chain.initial_state)
    pools = {}
    for (mode, kinds), keys in zip(_BATCH_KINDS.items(), (standard_keys, excluded_keys)):
        pools.update(zip(kinds, map(reduce, _sample_stack(
            source, chain.vocabulary, chain.horizon, mode, n, keys))))
    return pools


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def variance_sweep(
    axis: str,
    grid: Sequence[float],
    base_spec: ChainSpec,
    replications: int,
) -> ExperimentTable:
    """Empirical estimator variances along one experimental axis.

    ``probability`` and ``spontaneity`` points rebuild the chain with the
    grid value substituted into ``base_spec`` and record per-trajectory
    (n = 1) statistics; ``sample_count`` keeps one chain and records the
    variance of the ``n``-sample estimator, plus ``variance * n`` to make
    the 1/n scaling inspectable.  One pool per mode serves every count:
    ``replications`` rows of ``max(grid)`` trajectories, and count ``n``
    averages the first ``n`` of each row.  So a count's values depend on the
    grid's largest count, the counts of one grid are correlated, and equal
    counts give equal rows; each variance still estimates that of the
    ``n``-sample mean without bias, since the rows are independent.  A grid
    of one count reads the pool a grid of that count always read.  Grid
    values must be numbers (a bool is
    not one), and on ``sample_count`` positive integers (``2.0`` is 2), or
    it raises ValueError.  Points whose chain
    construction fails are marked with a ``failed`` row and the sweep
    continues.  Exact (enumeration) variances are added wherever the
    instance is small enough.  Every stream derives from ``base_spec.seed``,
    which every row carries.

    One bisection calibrates every valid point of the axis
    (:func:`_calibrated_chains`), each point on its own stream, so every
    point gets the chain it gets calibrated alone on that stream.  The table's
    ``stage_seconds`` adds up, over the points, the stages ``calibrate``,
    ``sample`` and ``enumerate`` (the exact variances; not on the
    ``sample_count`` axis).
    """
    _check_choice("axis", axis, AXES)
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    for g in grid:
        _check_number(f"{axis} grid value", g)
    _check_count("replications", replications, least=2)
    clock = _StageClock()
    aid = _AXIS_ID[axis]
    seed = base_spec.seed
    rows: list[MetricRow] = []

    if axis == "sample_count":
        for g in grid:
            if not (float(g).is_integer() and g >= 1):
                raise ValueError(f"sample_count grid values must be positive integers, got {g!r}")
        counts = [int(g) for g in grid]
        chain, p = _lone_chain(base_spec, stream_keys(seed, aid, 0, 0))
        rows.append(MetricRow("sample_count", "", 0, "exact_probability", p, seed=seed))
        clock.lap("calibrate")
        width = max(counts)

        def count_variances(values):
            # replication r's n-sample estimate is the mean of row r's first n values
            runs = values[0].reshape(replications, width)
            return [float(runs[:, :n].mean(axis=1).var(ddof=1)) for n in counts]

        variances = _sample_pools(
            chain, chain.transition[None], replications * width,
            stream_keys(seed, aid, 0, 1), stream_keys(seed, aid, 0, 2),
            reduce=count_variances,
        )
        for j, n in enumerate(counts):
            task = f"sample_count={n}"
            for kind, var in variances.items():
                rows.append(MetricRow(task, kind, n, "variance", var[j], seed=seed))
                rows.append(MetricRow(task, kind, n, "variance_times_n", var[j] * n, seed=seed))
        clock.lap("sample")
        return ExperimentTable(tuple(rows), stage_seconds=clock.seconds)

    # grid index -> the point's spec; a value no spec takes is a failed point
    varied = "target_probability" if axis == "probability" else "spontaneity"
    points = {}
    for j, g in enumerate(grid):
        try:
            points[j] = replace(base_spec, **{varied: float(g)})
        except ValueError:
            pass
    errors: list = []
    if points:
        transitions, achieved, errors = _calibrated_chains(
            list(points.values()), [p.target_probability for p in points.values()],
            stream_keys(seed, aid, list(points), 0),
        )
    # grid index -> the point's chain in the stack, for every calibrated point
    calibrated = {j: i for i, j in enumerate(points) if errors[i] is None}
    clock.lap("calibrate")
    for j, g in enumerate(grid):
        task = f"{axis}={g:g}"
        if j not in calibrated:
            rows.append(MetricRow(task, "", 0, "failed", float("nan"), seed=seed))
            continue
        i = calibrated[j]
        chain = _chain_model(points[j], transitions[i])
        rows.append(MetricRow(task, "", 0, "exact_probability", float(achieved[i]), seed=seed))
        rows.append(MetricRow(task, "", 0, "spontaneity", spontaneity(chain), seed=seed))
        clock.lap("calibrate")
        pools = _sample_pools(
            chain, transitions[i:i + 1], replications,
            stream_keys(seed, aid, j, 1), stream_keys(seed, aid, j, 2),
        )
        for kind, (vals,) in pools.items():
            rows.append(MetricRow(task, kind, 1, "mean", float(vals.mean()), seed=seed))
            rows.append(MetricRow(task, kind, 1, "variance", float(vals.var(ddof=1)), seed=seed))
        clock.lap("sample")
        try:
            for kind in KINDS:
                dist = enumerate_sub_distribution(chain, kind)
                rows.append(
                    MetricRow(task, kind, 1, "exact_variance", dist.variance(), seed=seed)
                )
        except InstanceTooLargeError:
            pass
        clock.lap("enumerate")
    return ExperimentTable(tuple(rows), stage_seconds=clock.seconds)


@dataclass(frozen=True)
class DistributionResult:
    """Estimator values from repeated fixed-size estimates on one chain."""

    estimates: dict
    true_probability: float
    samples_per_estimate: int
    seed: int

    def to_csv_text(self, *, bins: int = 40) -> str:
        """Histogram of each kind's estimates over ``bins`` equal bins from 0
        to ``max(1, largest estimate)``; ValueError unless ``bins`` is a
        positive integer."""
        _check_count("bins", bins)
        hi = max(1.0, max(float(v.max()) for v in self.estimates.values()))
        lines = ["kind,bin_low,bin_high,count"]
        for kind, values in self.estimates.items():
            counts, edges = np.histogram(values, bins=bins, range=(0.0, hi))
            for c, lo_e, hi_e in zip(counts, edges, edges[1:]):
                lines.append(f"{kind},{float(lo_e)!r},{float(hi_e)!r},{int(c)}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path, *, bins: int = 40) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv_text(bins=bins))


def estimate_distribution_experiment(
    spec: ChainSpec,
    n_estimates: int,
    samples_per_estimate: int,
) -> DistributionResult:
    """Repeat every estimator ``n_estimates`` times at a fixed sample count.

    Monte Carlo estimates land on multiples of ``1/samples_per_estimate``
    by construction; the other two fill in between.  Every stream derives
    from ``spec.seed``.
    """
    _check_count("n_estimates", n_estimates)
    _check_count("samples_per_estimate", samples_per_estimate)
    seed = spec.seed
    chain, p = _lone_chain(spec, stream_keys(seed, 4, 0))
    total = n_estimates * samples_per_estimate
    pools = _sample_pools(chain, chain.transition[None], total,
                          stream_keys(seed, 4, 1), stream_keys(seed, 4, 2))
    shape = (n_estimates, samples_per_estimate)
    return DistributionResult(
        estimates={kind: v.reshape(shape).mean(axis=1) for kind, (v,) in pools.items()},
        true_probability=p,
        samples_per_estimate=samples_per_estimate,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# ranking and calibration metrics
# ---------------------------------------------------------------------------


def _check_scored(scores, labels, unit: bool) -> tuple[np.ndarray, np.ndarray]:
    """``(scores, labels)`` as float and int arrays; ValueError unless they
    are non-empty and of one shape, every label is 0 or 1 and every score
    is finite, and in [0, 1] when ``unit``."""
    scores, labels = np.asarray(scores, dtype=float), np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError(f"scores and labels must have one shape, got {scores.shape} "
                         f"and {labels.shape}")
    if scores.size == 0:
        raise ValueError("empty input")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    if unit and (np.any(scores < 0) or np.any(scores > 1)):
        raise ValueError("scores must lie in [0, 1]")
    return scores, labels.astype(int)


def auroc(scores, labels) -> float:
    """Area under the ROC curve, Mann-Whitney form; ties earn 0.5 credit.

    ValueError unless ``scores`` and ``labels`` are non-empty and of one
    length, every label is 0 or 1 and every score is finite;
    :class:`~seqrisk.errors.UndefinedMetricError` unless both labels occur.
    """
    scores, labels = _check_scored(scores, labels, unit=False)
    n_pos = int(labels.sum())
    if n_pos == 0 or n_pos == labels.size:
        raise UndefinedMetricError("AUROC needs both a positive and a negative label")
    # dense ranks keep every tie (``-0.0 == 0.0`` included) and are >= 0: the
    # exact average-rank U statistic (Hanley & McNeil, 1982) of one row of keys
    _, ranks = np.unique(scores, return_inverse=True)
    keys = ranks.astype(float).reshape(1, -1).view(np.uint64)
    return float(_key_sort_aurocs(keys, labels.astype(np.uint64), np.empty_like(keys),
                                  n_pos)[0])


def _key_sort_aurocs(keys, label_bits, mask, n_pos: int) -> np.ndarray:
    """AUROC of every row of ``keys``, from two sorts of integer keys and no
    permutation or pass over tie groups; ``keys`` and ``mask`` are
    overwritten.

    ``keys`` is the ``uint64`` view of a C-contiguous float64 array of
    nonnegative scores, one row per score column; ``label_bits`` holds the
    labels (0 or 1, ``n_pos`` of them 1) as ``uint64``, and ``mask`` is a
    ``uint64`` array of the keys' shape.

    Keys: each score becomes ``bits << 1 | label``.  The bit pattern of a
    nonnegative double read as an unsigned integer increases with its
    value and has a zero top bit, so the shift cannot overflow and the keys
    order exactly like the scores, breaking each tie by label.  The shift
    drops the sign bit of ``-0.0``, which thus ties with ``0.0``.

    Tie orders: the first sort puts the negatives first inside every tie
    group; the second, with the label bit flipped, puts the positives
    first.  A tie group at 0-based positions ``f..l`` with ``k`` positives
    thus gives them position sums ``k*l - k*(k-1)/2`` and
    ``k*f + k*(k-1)/2``, together ``k * (f + l)``: twice the sum of their
    average 1-based ranks ``(f + l)/2 + 1``, less ``2 * k``.

    Sort kinds: equal keys are equal integers, so every algorithm gives
    the same arrays.  The second sort's input is sorted except inside tie
    groups, so a stable sort (timsort, which merges presorted runs) takes
    a fraction of the first sort's time.

    Exactness: with ``ua`` and ``ub`` the positives' int64 position sums
    in the two sorts, ``U = (ua + ub - n_pos * (n_pos - 1)) / 2`` is an
    exact half-integer, so ``U / (n_pos * n_neg)`` has the bits of the
    rank-sum formula.
    """
    n = keys.shape[1]
    at = np.arange(n, dtype=np.int64)
    one = np.uint64(1)
    keys <<= one  # the top bit of a nonnegative double is 0
    keys |= label_bits
    keys.sort(axis=1)
    ua = np.bitwise_and(keys, one, out=mask).view(np.int64) @ at
    keys ^= one
    keys.sort(axis=1, kind="stable")
    # bit 0 now marks the negatives
    ub = n * (n - 1) // 2 - np.bitwise_and(keys, one, out=mask).view(np.int64) @ at
    u = (ua + ub - n_pos * (n_pos - 1)) / 2
    return u / (n_pos * (n - n_pos))


def _count_aurocs(keys, pool_n: int, n_pos: int) -> np.ndarray:
    """AUROC of the MC running means at every sample count ``1..pool_n``,
    from one histogram of count keys and no sort.

    ``keys`` is an int64 ``(pool_n, n_pat)`` array whose row ``j`` holds
    ``2 * (j * (pool_n + 1) + hits) + label`` per patient, ``hits`` being
    the patient's hit count over the first ``j + 1`` draws, and ``n_pos``
    labels are 1.  The MC means of one row share the divisor
    ``j + 1``, so they order and tie exactly like the counts.  Over the
    histogram of one row, ``2U`` is the sum over counts ``c`` of
    ``positives(c) * (2 * negatives(< c) + negatives(c))``, an exact
    integer, so ``U / (n_pos * n_neg)`` has the bits of the rank-sum
    formula, as in :func:`_key_sort_aurocs`.
    """
    width = pool_n + 1
    hist = np.bincount(keys.ravel(), minlength=2 * width * pool_n).reshape(pool_n, width, 2)
    neg, pos = hist[..., 0], hist[..., 1]
    below = np.cumsum(neg, axis=1) - neg
    u = (pos * (2 * below + neg)).sum(axis=1) / 2
    return u / (n_pos * (keys.shape[1] - n_pos))


def brier(scores, labels) -> float:
    """Mean squared difference between scores in [0, 1] and binary labels.

    ValueError unless ``scores`` and ``labels`` are non-empty and of one
    length, every label is 0 or 1 and every score is a number in [0, 1].
    """
    scores, labels = _check_scored(scores, labels, unit=True)
    return float(np.mean((scores - labels) ** 2))


def _calibration_bins(scores, labels, n_bins):
    scores, labels = _check_scored(scores, labels, unit=True)
    which = np.minimum((scores * n_bins).astype(int), n_bins - 1)
    out = []
    for b in range(n_bins):
        mask = which == b
        count = int(mask.sum())
        if count == 0:
            continue
        out.append(
            (b, float(scores[mask].mean()), float(labels[mask].mean()), count)
        )
    return out


def calibration_curve(scores, labels, n_bins: int = 10) -> list:
    """Per-bin (mean score, event rate, count) over equal-width bins on [0, 1].

    Empty bins are omitted.  ValueError on the inputs :func:`brier`
    rejects, and unless ``n_bins`` is an integer of at least 1:
    "n_bins must be an integer, got ..." or "n_bins must be >= 1, got ...".
    """
    _check_count("n_bins", n_bins)
    return [(ms, er, c) for _, ms, er, c in _calibration_bins(scores, labels, n_bins)]


# ---------------------------------------------------------------------------
# equivalence ratios
# ---------------------------------------------------------------------------


def _equivalence(ref, counts, alts, kind: str, reference_n: int, rounds: int, rng,
                 seed: int) -> tuple:
    """``(row, m_point, m_samples, not_reached)`` of :func:`equivalence_ratio`:
    ``ref`` holds the reference cell's replicates, ``counts`` the ascending
    sample counts of ``kind`` and ``alts`` one row of replicates per count.
    ``m_point`` is the point estimate's count (None if no count qualifies),
    ``m_samples`` the counts of the rounds that found one, and
    ``not_reached`` the number of rounds that did not; the row carries
    ``seed``."""

    def resampled_mean(values) -> float:
        return float(values[rng.integers(0, values.size, values.size)].mean())

    ref_mean = float(ref.mean())
    m_point = next((n for n, alt in zip(counts, alts) if float(alt.mean()) > ref_mean), None)

    m_samples = []
    not_reached = 0
    for _ in range(rounds):
        ref_b = resampled_mean(ref)
        for n, alt in zip(counts, alts):
            if resampled_mean(alt) > ref_b:
                m_samples.append(n)
                break
        else:
            not_reached += 1

    value = reference_n / m_point if m_point is not None else float("nan")
    ratios = reference_n / np.asarray(m_samples, dtype=float)
    row = _ci_row("equivalence", kind, int(reference_n), "equivalence_ratio", value, ratios,
                  seed)
    return row, m_point, tuple(m_samples), not_reached


def equivalence_ratio(
    auc_table: Mapping,
    reference_kind: str,
    reference_n: int,
    alt_kind: str,
    bootstrap_rounds: int,
    seed: int,
) -> MetricRow:
    """Smallest-equivalent-sample-count ratio with a percentile bootstrap CI.

    ``auc_table`` maps ``(kind, sample count)`` to replicate AUROCs.  Each
    bootstrap round resamples the replicates of a cell with replacement,
    takes cell means, and finds the smallest count ``m`` where the
    alternative's mean AUROC *strictly* exceeds the reference mean (ties
    never qualify); the round's ratio is ``reference_n / m``.  Rounds where
    no count qualifies are dropped from the CI and tallied in
    ``not_reached`` (see :func:`synthetic_cohort_eval` rows).  The rounds
    draw from ``substream(seed, 10, 0)``, and the row carries ``seed``.
    ``reference_n`` and ``bootstrap_rounds`` must be integers of at least 1
    ("<name> must be >= 1, got ...") and ``seed`` one of at least 0, and
    every cell read must hold at least one replicate, all finite, or it
    raises ValueError naming the cell.
    """
    _check_count("reference_n", reference_n)
    _check_count("bootstrap_rounds", bootstrap_rounds)
    _check_count("seed", seed, least=0)
    ref_key = (reference_kind, int(reference_n))
    if ref_key not in auc_table:
        raise ValueError(f"auc_table missing reference cell {ref_key}")
    counts = sorted(n for k, n in auc_table if k == alt_kind)
    if not counts:
        raise ValueError(f"auc_table has no cells for kind {alt_kind!r}")

    def replicates(key) -> np.ndarray:
        values = np.asarray(auc_table[key], dtype=float)
        if values.size == 0:
            raise ValueError(f"auc_table cell {key} holds no replicates")
        if not np.isfinite(values).all():
            raise ValueError(f"auc_table cell {key} holds a replicate that is not finite")
        return values

    alts = [replicates((alt_kind, n)) for n in counts]
    return _equivalence(replicates(ref_key), counts, alts, alt_kind, reference_n,
                        bootstrap_rounds, substream(seed, 10, 0), seed)[0]


# ---------------------------------------------------------------------------
# synthetic cohort evaluation
# ---------------------------------------------------------------------------


class _StageClock:
    """Wall-clock seconds of consecutive stages, each closed by :meth:`lap`;
    a stage lapped more than once adds up its laps."""

    def __init__(self):
        self.seconds: dict = {}
        self._last = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.seconds[stage] = self.seconds.get(stage, 0.0) + (now - self._last)
        self._last = now


def synthetic_cohort_eval(spec: CohortSpec) -> ExperimentTable:
    """Score a synthetic cohort with all three estimators and evaluate.

    Every patient gets a chain calibrated to a target risk drawn from
    ``spec.risk_range`` by the fixed Beta shape ``COHORT_RISK_BETA``, one
    label drawn from the exact outcome probability, ``n_timelines`` standard
    trajectories (shared by MC and SCOPE) and ``n_timelines``
    outcome-excluded trajectories (REACH).  AUROC is computed at every
    sample count ``1..n_timelines`` by resampling each patient's pool with
    replacement, ``bootstrap_rounds`` times; equivalence ratios compare
    SCOPE/REACH to MC at the full pool size.  Brier scores and calibration
    curves (``COHORT_CALIBRATION_BINS`` equal-width bins) are reported at
    each estimator's equivalence sample count (SCOPE scores are clipped to
    [0, 1] for those two metrics only, with the clip count reported).  A
    cohort whose labels are all one class gets ``auroc_rounds_dropped``
    rows instead of AUROC and equivalence rows, and scores every kind at
    ``n_timelines``.

    The whole cohort runs as one stack: one bisection calibrates every
    chain, and one sampler call per mode draws every pool, patient ``i``
    from its own streams ``substream(spec.seed, 6 | 7 | 8, i)``, so the
    table is the one patient-by-patient runs give.  The streams are passed
    as Philox keys (:func:`seqrisk.rng.stream_keys`) and read through one
    :class:`seqrisk.rng.KeyedStream`, only where they are read: an
    equal-transition patient with a target reads no calibration stream.
    The table's ``stage_seconds`` times the stages ``calibrate``,
    ``sample``, ``bootstrap`` (the AUROC rounds) and ``summary``
    (equivalence, Brier, calibration).
    """
    clock = _StageClock()
    seed = spec.seed
    tpl = spec.chain_template
    n_pat, pool_n = spec.n_patients, spec.n_timelines
    lo, hi = spec.risk_range

    targets = lo + (hi - lo) * substream(seed, 5, 0).beta(*COHORT_RISK_BETA, size=n_pat)
    transitions, p_exact, errors = _calibrated_chains(
        [tpl] * n_pat, targets, stream_keys(seed, 6, np.arange(n_pat)))
    _raise_first(errors)
    labels = (substream(seed, 5, 1).random(n_pat) < p_exact).astype(int)
    clock.lap("calibrate")

    pools = _sample_pools(
        _chain_model(tpl, transitions[0]), transitions, pool_n,
        stream_keys(seed, 7, np.arange(n_pat)), stream_keys(seed, 8, np.arange(n_pat)))
    clock.lap("sample")
    rows = _cohort_metrics(spec, pools, labels, clock)
    return ExperimentTable(rows, stage_seconds=clock.seconds)


def _bootstrap_aurocs(pools: dict, labels, rounds: int, seed: int) -> dict:
    """``(pool_n, rounds)`` AUROCs of every kind: entry ``[j, r]`` ranks the
    patients by the mean of ``j + 1`` timelines of their pool drawn with
    replacement in round ``r``, from ``substream(seed, 9, r)`` (read through
    one :class:`seqrisk.rng.KeyedStream`).

    A round draws one ``(n_pat, pool_n)`` index matrix for MC and SCOPE,
    which share their trajectories, and one for REACH.  The running means
    are those of ``take_along_axis`` -> ``cumsum`` -> divide by the sample
    count, computed in the ``(pool_n, n_pat)`` layout the rankings read:
    flat gathers into buffers allocated once per cohort.  MC values are
    0/1 hits, so MC ranks running hit counts by :func:`_count_aurocs`;
    SCOPE and REACH rank their means by :func:`_key_sort_aurocs`.  Labels
    must hold both classes; a negative or NaN pool value, or an MC value
    other than 0 and 1, raises ValueError.
    """
    n_pat, pool_n = pools[MC].shape
    hits = pools[MC]
    if not ((hits == 0) | (hits == 1)).all():
        raise ValueError("MC pool values must be 0 or 1")
    if not all((pools[kind] >= 0).all() for kind in (SCOPE, REACH)):
        raise ValueError("scores must be nonnegative numbers")
    # MC key of sample count j + 1: 2 * (j * (pool_n + 1) + hits) + label
    offsets = np.arange(0, 2 * (pool_n + 1) * pool_n, 2 * (pool_n + 1))[:, None]
    n_pos = int(labels.sum())
    label_bits = labels.astype(np.uint64)
    denom = np.arange(1, pool_n + 1, dtype=float)[:, None]
    row_start = np.arange(0, n_pat * pool_n, pool_n)
    flat, keys = (np.empty((pool_n, n_pat), dtype=np.int64) for _ in range(2))
    scores = np.empty((pool_n, n_pat))
    auc = {k: np.empty((pool_n, rounds)) for k in KINDS}

    def draw(rr):
        np.add(rr.integers(0, pool_n, size=(n_pat, pool_n)).T, row_start, out=flat)

    def key_sorted(kind):
        np.take(pools[kind], flat, out=scores, mode="clip")
        _running_sums(scores)
        np.divide(scores, denom, out=scores)
        return _key_sort_aurocs(scores.view(np.uint64), label_bits, keys.view(np.uint64), n_pos)

    stream = KeyedStream()
    for r, key in enumerate(stream_keys(seed, 9, np.arange(rounds))):
        rr = stream.at(key)
        draw(rr)  # MC and SCOPE read the same trajectories
        np.take(hits, flat, out=scores, mode="clip")
        np.multiply(scores, 2.0, out=keys, casting="unsafe")
        keys[0] += labels  # the running sum carries it to every row
        _running_sums(keys)
        keys += offsets
        auc[MC][:, r] = _count_aurocs(keys, pool_n, n_pos)
        auc[SCOPE][:, r] = key_sorted(SCOPE)
        draw(rr)
        auc[REACH][:, r] = key_sorted(REACH)
    return auc


def _running_sums(rows) -> None:
    """Replace row ``j`` of ``rows`` by the sum of rows ``0..j``, added in
    that order, as ``np.cumsum(rows, axis=0)`` adds them; one vectorized add
    per row is several times faster than numpy's strided accumulate."""
    for j in range(1, len(rows)):
        np.add(rows[j - 1], rows[j], out=rows[j])


def _auroc_rows(kind: str, auc, seed: int) -> list:
    """The ``auroc`` row of every sample count ``1..pool_n`` of ``kind`` from
    its ``(pool_n, rounds)`` AUROCs: the rows :func:`_ci_row` gives one by
    one, from one mean and one sort (:func:`_ci_bounds`)."""
    means = auc.mean(axis=1)
    lows, highs = _ci_bounds(auc)
    return [_widened_row("cohort", kind, j + 1, "auroc", float(means[j]), lows[j], highs[j],
                         seed) for j in range(len(auc))]


def _cohort_metrics(spec: CohortSpec, pools: dict, labels, clock) -> list:
    """Metric rows of a scored cohort: ``pools[kind]`` is patients x timelines.

    Laps ``clock`` at ``bootstrap`` after the AUROC rounds and at
    ``summary`` at the end.
    """
    seed, pool_n, rounds = spec.seed, spec.n_timelines, spec.bootstrap_rounds
    # a kind without an equivalence count scores at pool_n
    eq_count = dict.fromkeys(KINDS, pool_n)
    if labels.min() == labels.max():
        # every round shares the labels: with one class no round has an AUROC
        clock.lap("bootstrap")
        rows = [MetricRow("cohort", kind, 0, "auroc_rounds_dropped", float(rounds), seed=seed)
                for kind in KINDS]
    else:
        auc = _bootstrap_aurocs(pools, labels, rounds, seed)
        clock.lap("bootstrap")
        rows = [row for kind in KINDS for row in _auroc_rows(kind, auc[kind], seed)]
        for stage, alt in enumerate((SCOPE, REACH)):
            row, m_point, m_samples, not_reached = _equivalence(
                auc[MC][-1], range(1, pool_n + 1), auc[alt], alt, pool_n, rounds,
                substream(seed, 10, stage), seed)
            m_value = float(m_point) if m_point is not None else float("nan")
            rows += [
                row,
                _ci_row("equivalence", alt, pool_n, "equivalence_m", m_value,
                        np.asarray(m_samples, dtype=float), seed),
                MetricRow("equivalence", alt, pool_n, "equivalence_not_reached",
                          float(not_reached), seed=seed),
            ]
            if m_point is not None:
                eq_count[alt] = m_point

    for kind in KINDS:
        m = int(eq_count[kind])
        scores = pools[kind][:, :m].mean(axis=1)
        if kind == SCOPE:
            scores, n_clipped = apply_clip(scores, CLIP_TO_UNIT)
            rows.append(
                MetricRow("cohort", kind, m, "n_clipped", float(n_clipped), seed=seed)
            )
        rows.append(
            MetricRow("cohort", kind, m, "brier", brier(scores, labels), seed=seed)
        )
        for bin_id, mean_score, event_rate, count in _calibration_bins(
            scores, labels, COHORT_CALIBRATION_BINS
        ):
            task = f"calibration_bin_{bin_id}"
            rows.append(MetricRow(task, kind, m, "cal_mean_score", mean_score, seed=seed))
            rows.append(MetricRow(task, kind, m, "cal_event_rate", event_rate, seed=seed))
            rows.append(MetricRow(task, kind, m, "cal_count", float(count), seed=seed))
    clock.lap("summary")
    return rows
