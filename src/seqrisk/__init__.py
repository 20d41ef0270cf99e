"""Unbiased outcome-probability estimators for token-sequence models.

Three estimators target the probability that a designated outcome token
appears before a timeline ends: the Monte Carlo indicator, a hazard-sum
estimator computed from the same sampled timelines (``scope``), and a
survival-product estimator over outcome-excluded timelines (``reach``).
Exact dynamic-programming and enumeration oracles, a Markov-chain
experiment suite, and a synthetic-cohort evaluation pipeline round out
the package.
"""

from .errors import (
    CalibrationError,
    InstanceTooLargeError,
    ModelValidationError,
    SeqriskError,
    UndefinedMetricError,
)
from .estimators import (
    CLIP_NONE,
    CLIP_TO_UNIT,
    KINDS,
    MC,
    REACH,
    SCOPE,
    EstimateReport,
    estimate,
    paired_estimates,
)
from .experiments import (
    ChainSpec,
    CohortSpec,
    ExperimentTable,
    MetricRow,
    auroc,
    brier,
    calibration_curve,
    equivalence_ratio,
    estimate_distribution_experiment,
    random_chain,
    spontaneity,
    synthetic_cohort_eval,
    variance_sweep,
)
from .oracle import (
    ValueDistribution,
    counterexample_model,
    dispersion_probability,
    enumerate_sub_distribution,
    exact_bijection_check,
    exact_outcome_probability,
)
from .rng import substream, trajectory_stream
from .seqmodel import (
    OUTCOME_EXCLUDED,
    STANDARD,
    HorizonPolicy,
    MarkovModel,
    SequenceModel,
    Vocabulary,
    sample_batch,
    validate,
)

__version__ = "0.1.0"
