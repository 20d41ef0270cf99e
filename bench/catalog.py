"""What the benchmark measures: workloads, metrics and trace points.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 bench/run.py --write-benchmark-json``) and the benchmark's own
test checks that the two agree.

Each per-layer metric below names the end-to-end metric it should move and
on which workload.  Where a workload is called flat, the prediction there
is no change.
"""

from __future__ import annotations

from tracer import Target

WORKLOADS = (
    ("estimate",
     "only workload on the per-trajectory path: trajectory streams, sample_trajectory, "
     "aggregate, the process pool and a 25k-value report write; 3 x 25k trajectories"),
    ("sweep",
     "the three default variance sweeps (paper panels B-D): the vectorized batch sampler "
     "in large batches, one calibration per point, 29 rejected enumerations; 1.6M trajectories"),
    ("cohort",
     "synthetic cohort of 500 patients: the batch sampler in 1,000 batches of 100, calibration "
     "DP calls, AUROC ranking and the bootstrap; no per-trajectory path; 100k trajectories"),
)

#: how long one run measures, in seconds
RUN_SECONDS = 30

# (name, unit, better, bound).  ``bound`` is the share of the parent's median
# by which a metric may worsen before a change counts as a regression.  On
# a shared 2-vCPU virtual machine the speed of the whole machine was seen to
# drift by up to ~30% over minutes, so every timing gets the largest bound
# allowed; memory does not drift.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),      # fresh interpreter until the first library call
    ("cold_s", "s", "lower", 0.25),       # sum of each command's median as a cold process
    ("wall_s", "s", "lower", 0.25),       # median warmed in-process iteration
    ("traj_per_s", "traj/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),  # ru_maxrss of the benchmark process
)
# failed_frac (failed checks / checks attempted) is printed with these but is
# not listed: it is 0 on a correct run, so no share of it can bound a change.
# The result's ``attempted`` and ``failed`` carry it.


def _calls(layer):
    return (f"{layer}.calls", "count", "lower")


def _self(layer):
    return (f"{layer}.self_s", "s", "lower")


# (name, unit, better); all come from the traced run
PER_LAYER = (
    # -> setup_s and cold_s on every workload
    ("import.seqrisk_s", "s", "lower"),
    ("import.scipy_s", "s", "lower"),
    # -> wall_s and traj_per_s on estimate; flat on sweep and cohort
    _calls("rng.trajectory_stream"), _self("rng.trajectory_stream"),
    # -> wall_s on cohort
    _calls("rng.substream"), _self("rng.substream"),
    # -> estimate
    _calls("seqmodel.sample_trajectory"), _self("seqmodel.sample_trajectory"),
    ("seqmodel.steps", "count", "lower"),
    ("seqmodel.us_per_step", "us", "lower"),
    # -> cohort (500 constructions)
    _calls("seqmodel.model_init"), _self("seqmodel.model_init"),
    # -> estimate: the loop and sub-value reduction outside sampling
    _self("estimators.estimate"),
    _calls("estimators.aggregate"), _self("estimators.aggregate"),
    # estimate wall time at one worker / at the default worker count
    ("estimators.pool_speedup", "ratio", "higher"),
    # -> cohort and sweep
    _calls("oracle.exact_outcome_probability"), _self("oracle.exact_outcome_probability"),
    # -> sweep
    _calls("oracle.enumerate"), ("oracle.enumerate.rejected", "count", "lower"),
    _self("oracle.enumerate"),
    # -> wall_s on cohort; a small share on sweep
    _calls("experiments.random_chain"), _self("experiments.random_chain"),
    _calls("experiments.reach_dp"), _self("experiments.reach_dp"),
    ("experiments.dp_per_chain", "calls/chain", "lower"),
    # -> sweep (large batches) and cohort (small batches); flat on estimate
    _calls("experiments.batch_sample"),
    ("experiments.batch_sample.traj", "count", "lower"),
    _self("experiments.batch_sample"),
    ("experiments.batch_sample.mean_batch", "traj/call", "higher"),
    # -> cohort
    _calls("experiments.auroc"), _self("experiments.auroc"),
    _self("experiments.equivalence"),
    _self("experiments.cohort"),
    # -> sweep
    _self("experiments.sweep"),
    # -> estimate and cohort: parse, serialise, hash, atomic write
    _self("cli"),
    ("cli.bytes_written", "bytes", "lower"),
    # traced over untraced wall time, minus 1; sum of self times over traced
    # wall time, which exceeds 1 where pool workers run side by side
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),
)


def _steps(args, kwargs, traj):
    return len(traj.hazards)


def _batch(args, kwargs, result):
    return int(args[2] if len(args) > 2 else kwargs["n"])


# Each function is patched under the name its caller looks up.
TARGETS = (
    Target("cli", "seqrisk.cli.main"),
    Target("rng.trajectory_stream", "seqrisk.estimators.trajectory_stream"),
    Target("rng.substream", "seqrisk.experiments.substream"),
    Target("rng.substream", "seqrisk.rng.substream"),  # via as_generator
    Target("seqmodel.sample_trajectory", "seqrisk.estimators.sample_trajectory", amount=_steps),
    Target("seqmodel.model_init", "seqrisk.seqmodel.MarkovModel.__init__"),
    Target("estimators.estimate", "seqrisk.cli.estimate"),
    # the pool's entry function; its self time is the per-chunk loop
    Target("estimators.estimate", "seqrisk.estimators._sub_values_range", ships=True),
    Target("estimators.aggregate", "seqrisk.estimators.aggregate"),
    Target("oracle.exact_outcome_probability", "seqrisk.experiments.exact_outcome_probability"),
    Target("oracle.enumerate", "seqrisk.experiments.enumerate_sub_distribution"),
    Target("experiments.random_chain", "seqrisk.experiments.random_chain"),
    Target("experiments.reach_dp", "seqrisk.experiments._reach_dp"),
    Target("experiments.batch_sample", "seqrisk.experiments._markov_sub_values", amount=_batch),
    Target("experiments.auroc", "seqrisk.experiments._auroc_columns"),
    Target("experiments.equivalence", "seqrisk.experiments._equivalence"),
    Target("experiments.cohort", "seqrisk.experiments.synthetic_cohort_eval"),
    Target("experiments.sweep", "seqrisk.experiments.variance_sweep"),
)


def benchmark_json() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }

