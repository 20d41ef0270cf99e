"""Per-trajectory sub-estimators and their unbiased sample averages.

Three sub-estimators target the same quantity, the probability that the
outcome token appears before the end of the timeline:

* ``mc``     - indicator that the sampled timeline contained the outcome.
* ``scope``  - sum of the recorded hazards up to and including the stopping
  step.  Values are nonnegative and can exceed 1.
* ``reach``  - one minus the survival product ``prod(1 - h_t)`` over an
  outcome-excluded timeline.  Values always lie in [0, 1].

``mc`` and ``scope`` read standard-mode trajectories and can share one
pool; ``reach`` requires outcome-excluded sampling.  Averaging any of them
over independent trajectories is unbiased; the enumeration oracles in
:mod:`seqrisk.oracle` verify this exactly on small models.  The sampler
computes every sub-value as it advances a trajectory, so no trajectory is
kept.

:func:`estimate` and :func:`paired_estimates` ask about the model's own
vocabulary and horizon, and read every trajectory from the one stream
``trajectory_stream(seed)`` with the one batched sampler,
:func:`~seqrisk.seqmodel.sample_batch`, whatever the model's class: a
model whose distributions equal a chain's gives that chain's sub-values
bit for bit.  An :class:`EstimateReport` keeps the sub-values as one
float64 array, computes its statistics from them and saves as two files:
metadata JSON and the values as a little-endian float64 ``.f64`` sidecar.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .rng import trajectory_stream
from .seqmodel import (
    OUTCOME_EXCLUDED,
    STANDARD,
    _check_choice,
    _check_count,
    _check_keys,
    sample_batch,
)

MC = "mc"
SCOPE = "scope"
REACH = "reach"
KINDS = (MC, SCOPE, REACH)

CLIP_NONE = "none"
CLIP_TO_UNIT = "clip_to_unit"
CLIP_POLICIES = (CLIP_NONE, CLIP_TO_UNIT)


#: kinds of the arrays :func:`sample_batch` returns in each mode, in order
_BATCH_KINDS = {STANDARD: (MC, SCOPE), OUTCOME_EXCLUDED: (REACH,)}


def required_mode(kind: str) -> str:
    """Sampling mode each estimator kind needs its trajectories drawn in."""
    _check_choice("kind", kind, KINDS)
    return next(mode for mode, kinds in _BATCH_KINDS.items() if kind in kinds)


@dataclass(frozen=True, eq=False)
class EstimateReport:
    """``n`` sub-estimator values and the statistics computed from them.

    A report is its ``sub_values``, kept post-clipping as a read-only
    float64 array the report owns, so downstream bootstraps can reuse them.
    ``n``, ``mean``, ``sample_variance`` (divisor ``n - 1``, 0.0 when
    ``n == 1``) and ``std_error = sqrt(sample_variance / n)`` are computed
    from the values where the report is made.  Summation uses ``math.fsum``
    in index order, so the statistics do not depend on how the values were
    produced or partitioned.  ValueError naming the field unless ``kind``
    and ``clip_policy`` are known, the values are a non-empty
    one-dimensional array of finite numbers, ``seed`` is a nonnegative
    integer or None and ``n_clipped`` is 0 under ``none``; under
    ``clip_to_unit`` no value may exceed 1 and ``n_clipped`` may be at most
    the number of values equal to 1.
    """

    kind: str
    n: int = field(init=False)
    mean: float = field(init=False)
    sample_variance: float = field(init=False)
    std_error: float = field(init=False)
    sub_values: np.ndarray
    clip_policy: str = CLIP_NONE
    n_clipped: int = 0
    seed: int | None = None

    def __post_init__(self):
        _check_choice("kind", self.kind, KINDS)
        _check_choice("clip_policy", self.clip_policy, CLIP_POLICIES)
        if self.seed is not None:
            _check_count("seed", self.seed, least=0)
        values = np.array(self.sub_values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise ValueError(f"sub_values must be a non-empty 1-d array, got shape {values.shape}")
        finite = np.isfinite(values)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(f"sub_values must be finite, got {float(values[i])!r} at index {i}")
        ones = 0
        if self.clip_policy == CLIP_TO_UNIT:
            if values.max() > 1.0:
                raise ValueError(f"sub_values must be <= 1 under clip_to_unit, "
                                 f"got {float(values.max())!r}")
            ones = int(np.count_nonzero(values == 1.0))
        _check_count("n_clipped", self.n_clipped, least=0)
        if self.n_clipped > ones:
            raise ValueError(f"n_clipped must be in [0, {ones}] under clip_policy "
                             f"{self.clip_policy!r}, got {self.n_clipped}")
        n = values.size
        # a memoryview yields Python floats: fsum neither boxes each element as
        # np.float64 nor needs a list of them
        mean = math.fsum(memoryview(values)) / n
        if n > 1:
            # corrected two-pass: the residual term cancels the rounding of the
            # mean, so constant inputs give exactly zero variance; float_power
            # squares through libm pow, as ``d ** 2`` on floats does (``d * d``
            # can differ in the last bit)
            dev = values - mean
            ss = math.fsum(memoryview(np.float_power(dev, 2.0)))
            residual = math.fsum(memoryview(dev))
            var = max(0.0, (ss - residual * residual / n) / (n - 1))
        else:
            var = 0.0
        values.flags.writeable = False
        # plain ints, so that the report's JSON takes them
        own = {"sub_values": values, "n": n, "mean": mean, "sample_variance": var,
               "std_error": math.sqrt(var / n), "n_clipped": int(self.n_clipped),
               "seed": None if self.seed is None else int(self.seed)}
        for name, value in own.items():
            object.__setattr__(self, name, value)

    def files(self, path) -> dict[Path, bytes]:
        """The report's two files and their bytes: ``path`` holds the metadata
        JSON, whose ``sub_values_file`` names the sidecar ``<path>.f64``, the
        sub-values in order as little-endian float64."""
        path = Path(path)
        side = path.with_name(path.name + ".f64")
        meta = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "sub_values"}
        meta["sub_values_file"] = side.name
        return {path: json.dumps(meta).encode(),
                side: self.sub_values.astype("<f8", copy=False).tobytes()}

    def save(self, path) -> None:
        """Write the report's :meth:`files`."""
        for file, data in self.files(path).items():
            file.write_bytes(data)

    @classmethod
    def load(cls, path) -> "EstimateReport":
        """Read a report :meth:`save` wrote and rebuild it from its values;
        ValueError on metadata that is not a JSON object, on inline
        sub-values, on a missing or unknown key, unless the sidecar is a
        file in the report's directory holding exactly ``n`` float64
        values, or naming the key whose ``mean``, ``sample_variance`` or
        ``std_error`` differs from the one the values give."""
        path = Path(path)
        d = json.loads(path.read_text())
        if not isinstance(d, dict):
            raise ValueError(f"report must be a JSON object, got {d!r}")
        if "sub_values" in d:
            raise ValueError(f"{path.name} lists its sub_values inline; a report "
                             f"keeps them in the .f64 file its sub_values_file names")
        keys = ({f.name for f in fields(cls)} - {"sub_values"}) | {"sub_values_file"}
        missing = sorted(keys - set(d))
        if missing:
            raise ValueError(f"{path.name} lacks the report keys {missing}")
        _check_keys(d, keys, "report")
        name, n = d.pop("sub_values_file"), d.pop("n")
        if not isinstance(name, str) or name in ("", "..") or Path(name).name != name:
            raise ValueError(f"sub_values_file must name a file in the report's "
                             f"directory, got {name!r}")
        _check_count("n", n)
        raw = (path.parent / name).read_bytes()
        if len(raw) != 8 * n:
            raise ValueError(f"{name} holds {len(raw)} bytes, expected {n} float64 values")
        stored = {key: d.pop(key) for key in ("mean", "sample_variance", "std_error")}
        report = cls(**d, sub_values=np.frombuffer(raw, dtype="<f8"))
        for key, value in stored.items():
            if value != getattr(report, key):
                raise ValueError(f"{path.name} gives {key} {value!r}, but its "
                                 f"{n} values give {getattr(report, key)!r}")
        return report


def apply_clip(values, clip_policy: str):
    """Apply a clip policy; returns (clipped float64 values, number clipped).

    ``clip_to_unit`` caps values at 1 and never changes values <= 1.
    """
    _check_choice("clip_policy", clip_policy, CLIP_POLICIES)
    values = np.asarray(values, dtype=np.float64)
    if clip_policy == CLIP_NONE:
        return values, 0
    return np.minimum(values, 1.0), int((values > 1.0).sum())


def aggregate(kind: str, values, *, clip_policy: str = CLIP_NONE, seed=None) -> EstimateReport:
    """The :class:`EstimateReport` of raw sub-values after ``clip_policy``;
    ValueError on a field the report rejects."""
    values, n_clipped = apply_clip(values, clip_policy)
    return EstimateReport(kind, values, clip_policy, n_clipped, seed)


def _sub_values(model, kinds, n, seed) -> list[np.ndarray]:
    """One float64 array of ``n`` sub-values per kind, all from one trajectory
    pool in the mode of ``kinds[0]``, which every kind must share."""
    _check_count("n", n)
    _check_count("seed", seed, least=0)
    mode = required_mode(kinds[0])
    pool = dict(zip(_BATCH_KINDS[mode], sample_batch(model, mode, n, trajectory_stream(seed))))
    return [pool[k] for k in kinds]


def estimate(
    model, kind: str, n: int, seed: int, *, clip_policy: str = CLIP_NONE
) -> EstimateReport:
    """Sample ``n`` trajectories in the mode ``kind`` requires and average.

    The report is a function of ``(model, kind, n, seed)`` alone: the
    outcome, stop rules and bounds are the model's ``vocabulary`` and
    ``horizon``, and the trajectories are read in order from
    ``trajectory_stream(seed)``.
    """
    (values,) = _sub_values(model, (kind,), n, seed)
    return aggregate(kind, values, clip_policy=clip_policy, seed=seed)


def paired_estimates(
    model, n: int, seed: int, *, clip_policy: str = CLIP_NONE
) -> tuple[EstimateReport, EstimateReport]:
    """MC and SCOPE reports computed from one shared standard-mode pool."""
    mc_values, scope_values = _sub_values(model, (MC, SCOPE), n, seed)
    mc_report = aggregate(MC, mc_values, clip_policy=clip_policy, seed=seed)
    scope_report = aggregate(SCOPE, scope_values, clip_policy=clip_policy, seed=seed)
    return mc_report, scope_report
