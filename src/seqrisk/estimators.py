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
float64 array and saves as two files: metadata JSON and the values as a
little-endian float64 ``.f64`` sidecar.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .rng import trajectory_stream
from .seqmodel import (
    OUTCOME_EXCLUDED,
    STANDARD,
    _check_keys,
    _check_number,
    sample_batch,
)

MC = "mc"
SCOPE = "scope"
REACH = "reach"
KINDS = (MC, SCOPE, REACH)

CLIP_NONE = "none"
CLIP_TO_UNIT = "clip_to_unit"
CLIP_POLICIES = (CLIP_NONE, CLIP_TO_UNIT)


def required_mode(kind: str) -> str:
    """Sampling mode each estimator kind needs its trajectories drawn in."""
    if kind in (MC, SCOPE):
        return STANDARD
    if kind == REACH:
        return OUTCOME_EXCLUDED
    raise ValueError(f"unknown estimator kind {kind!r}; expected one of {KINDS}")


#: kinds of the arrays :func:`sample_batch` returns in each mode
_BATCH_KINDS = {STANDARD: (MC, SCOPE), OUTCOME_EXCLUDED: (REACH,)}


@dataclass(frozen=True, eq=False)
class EstimateReport:
    """Aggregate of ``n`` sub-estimator values plus variance diagnostics.

    ``sample_variance`` uses divisor ``n - 1`` (defined as 0.0 when
    ``n == 1``); ``std_error = sqrt(sample_variance / n)``.  ``sub_values``
    are retained post-clipping, as a read-only float64 array the report
    owns, so downstream bootstraps can reuse them.  A report is checked
    where it is made, by :func:`aggregate` or :meth:`load`: ValueError
    naming the field unless ``kind`` and ``clip_policy`` are known, the
    statistics are finite numbers (the variance and error ``>= 0``), ``n``
    is a positive integer, ``n_clipped`` an integer in ``[0, n]`` and
    ``seed`` an integer or None.
    """

    kind: str
    n: int
    mean: float
    sample_variance: float
    std_error: float
    sub_values: np.ndarray
    clip_policy: str = CLIP_NONE
    n_clipped: int = 0
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.clip_policy not in CLIP_POLICIES:
            raise ValueError(f"clip_policy must be one of {CLIP_POLICIES}, "
                             f"got {self.clip_policy!r}")
        for name, low in (("mean", -math.inf), ("sample_variance", 0.0), ("std_error", 0.0)):
            value = getattr(self, name)
            _check_number(name, value)
            if not (math.isfinite(value) and value >= low):
                bound = "" if low == -math.inf else " and >= 0"
                raise ValueError(f"{name} must be finite{bound}, got {value!r}")
        _check_number("n", self.n, numbers.Integral)
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n!r}")
        _check_number("n_clipped", self.n_clipped, numbers.Integral)
        if not 0 <= self.n_clipped <= self.n:
            raise ValueError(f"n_clipped must be in [0, n={self.n}], got {self.n_clipped!r}")
        if self.seed is not None:
            _check_number("seed", self.seed, numbers.Integral)
        values = np.array(self.sub_values, dtype=np.float64)
        values.flags.writeable = False
        object.__setattr__(self, "sub_values", values)

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
        """Read a report :meth:`save` wrote; ValueError on metadata that is
        not a JSON object, on inline sub-values, on a missing or unknown key,
        or unless the sidecar is a file in the report's directory holding
        exactly ``n`` float64 values."""
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
        name, n = d.pop("sub_values_file"), d["n"]
        if not isinstance(name, str) or name in ("", "..") or Path(name).name != name:
            raise ValueError(f"sub_values_file must name a file in the report's "
                             f"directory, got {name!r}")
        _check_number("n", n, numbers.Integral)
        raw = (path.parent / name).read_bytes()
        if len(raw) != 8 * n:
            raise ValueError(f"{name} holds {len(raw)} bytes, expected {n} float64 values")
        return cls(**d, sub_values=np.frombuffer(raw, dtype="<f8"))


def apply_clip(values, clip_policy: str):
    """Apply a clip policy; returns (clipped float64 values, number clipped).

    ``clip_to_unit`` caps values at 1 and never changes values <= 1.
    """
    if clip_policy not in CLIP_POLICIES:
        raise ValueError(f"unknown clip policy {clip_policy!r}")
    values = np.asarray(values, dtype=np.float64)
    if clip_policy == CLIP_NONE:
        return values, 0
    return np.minimum(values, 1.0), int((values > 1.0).sum())


def aggregate(kind: str, values, *, clip_policy: str = CLIP_NONE, seed=None) -> EstimateReport:
    """Build an :class:`EstimateReport` from raw sub-values.

    Summation uses ``math.fsum`` in index order, so the report does not
    depend on how the values were produced or partitioned.  ValueError on
    no values, a value that is not finite, or a report field
    :class:`EstimateReport` rejects.
    """
    values, n_clipped = apply_clip(values, clip_policy)
    n = values.size
    if n == 0:
        raise ValueError("cannot aggregate zero sub-values")
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"sub_values must be finite, got {float(values.flat[i])!r} at index {i}")
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
    return EstimateReport(
        kind=kind,
        n=n,
        mean=mean,
        sample_variance=var,
        std_error=math.sqrt(var / n),
        sub_values=values,
        clip_policy=clip_policy,
        n_clipped=n_clipped,
        seed=seed,
    )


def _sub_values(model, kinds, n, seed) -> list[np.ndarray]:
    """One float64 array of ``n`` sub-values per kind, all from one trajectory pool."""
    _check_number("n", n, numbers.Integral)
    if n < 1:
        raise ValueError("n must be >= 1")
    modes = {required_mode(k) for k in kinds}
    if len(modes) != 1:
        raise ValueError(f"kinds {kinds} cannot share one trajectory pool")
    mode = modes.pop()
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
