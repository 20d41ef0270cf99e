"""The benchmark's workloads: their CLI commands, sizes and correctness checks.

Every workload runs through the public entry point ``seqrisk.cli.main``
with the seed given to the benchmark.  Sizes are pinned on the command
line, so a later change of a default does not change the work measured.
``sweep`` runs the CLI defaults; ``estimate`` (n=25,000) and ``cohort``
(500 patients) are smaller, so that one run holds several iterations and
cold processes of each command (see ``Runner.end_to_end``).  ``smoke``
selects a tiny size that runs the same code path, for the benchmark's own
test and for warming up.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from seqrisk import EstimateReport, ExperimentTable, exact_outcome_probability, random_chain
from seqrisk.experiments import ChainSpec

KINDS = ("mc", "scope", "reach")

#: absolute slack for rounding in the 4-standard-error checks: on chains with
#: equal transitions ``reach`` is a constant, so its standard error is 0 and
#: only the last bits of two evaluations of the same number can differ
ROUNDING = 1e-12

#: random transitions: with equal ones and spontaneity 1 every state has the
#: same hazard, ``reach`` is a constant and the workload would exercise nothing
ESTIMATE_SPEC = {"n_states": 11, "spontaneity": 0.5, "horizon_steps": 20,
                 "target_probability": 0.3, "equal_transitions": False}

#: axis, grid, replications, calibration target (None: the grid value).
#: The targets are the ones ``seqrisk sweep`` uses for its default chains.
SWEEP_AXES = (
    ("probability", tuple(round(0.05 * i, 2) for i in range(1, 20)), 10_000, None),
    ("spontaneity", tuple(round(0.1 * i, 1) for i in range(1, 11)), 10_000, 0.5),
    ("sample_count", (1, 2, 4, 8, 16, 32, 64, 128), 2_000, 0.5),
)

COHORT = {"patients": 500, "timelines": 100, "rounds": 40}
COHORT_SMOKE = {"patients": 20, "timelines": 10, "rounds": 5}
COHORT_CHAIN = ["--states", "6", "--spontaneity", "1.0", "--horizon", "12",
                "--transitions", "equal"]


class Checks:
    """Correctness checks; each one is an operation that passes or fails."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def _value(table, **where):
    rows = table.rows_where(**where)
    return rows[0].value if len(rows) == 1 else None


def _within_4se(checks, what, mean, truth, variance, n):
    if mean is None or variance is None:
        return checks.check(False, f"{what}: row missing")
    se = math.sqrt(variance / n)
    return checks.check(abs(mean - truth) <= 4 * se + ROUNDING,
                        f"{what}: mean {mean!r} is {abs(mean - truth) / max(se, 1e-300):.2f} SE "
                        f"from {truth!r}")


class Estimate:
    name = "estimate"
    pooled = True  # the CLI's default worker pool applies

    def prepare(self, inputs: Path) -> None:
        """Write the inputs the commands read."""
        (inputs / "chain_spec.json").write_text(json.dumps(ESTIMATE_SPEC))

    def commands(self, inputs: Path, out: Path, seed: int, smoke: bool) -> list[list[str]]:
        """CLI argument lists of one iteration, writing under ``out``."""
        return [["estimate", "--spec", str(inputs / "chain_spec.json"), "--kind", kind,
                 "--n", str(self._n(smoke)), "--seed", str(seed),
                 "--out", str(out / f"estimate_{kind}.json")]
                for kind in KINDS]

    def trajectories(self, smoke: bool) -> int:
        """Trajectories sampled by one iteration."""
        return len(KINDS) * self._n(smoke)

    def check(self, checks: Checks, inputs: Path, out: Path, seed: int, smoke: bool) -> None:
        """Check the artifacts one iteration left under ``out``."""
        n = self._n(smoke)
        spec = ChainSpec.from_dict({**json.loads((inputs / "chain_spec.json").read_text()),
                                    "seed": seed})
        truth = exact_outcome_probability(random_chain(spec))
        for kind in KINDS:
            path = out / f"estimate_{kind}.json"
            if not checks.check(path.is_file(), f"estimate {kind}: no report"):
                continue
            report = EstimateReport.load(path)
            checks.check(report.n == n and len(report.sub_values) == n,
                         f"estimate {kind}: report holds n={report.n}, "
                         f"{len(report.sub_values)} values, expected {n}")
            _within_4se(checks, f"estimate {kind}", report.mean, truth,
                        report.sample_variance, report.n)

    @staticmethod
    def _n(smoke):
        return 200 if smoke else 25_000


class Sweep:
    name = "sweep"
    pooled = False

    def prepare(self, inputs: Path) -> None:
        pass

    def commands(self, inputs, out, seed, smoke):
        return [["sweep", "--axis", axis, "--grid", ",".join(f"{g:g}" for g in grid),
                 "--replications", str(self._reps(reps, smoke)), "--seed", str(seed),
                 "--out", str(out / f"sweep_{axis}.csv")]
                for axis, grid, reps, _ in SWEEP_AXES]

    def trajectories(self, smoke):
        # a standard and an outcome-excluded batch per point
        return sum(2 * self._reps(reps, smoke) * (sum(grid) if axis == "sample_count"
                                                  else len(grid))
                   for axis, grid, reps, _ in SWEEP_AXES)

    def check(self, checks, inputs, out, seed, smoke):
        for axis, grid, reps, target in SWEEP_AXES:
            path = out / f"sweep_{axis}.csv"
            if not checks.check(path.is_file(), f"sweep {axis}: no table"):
                continue
            table = ExperimentTable.read_csv(path)
            if axis == "sample_count":
                exact = _value(table, task="sample_count", statistic="exact_probability")
                checks.check(exact is not None and abs(exact - target) <= 1e-6,
                             f"sample_count: exact probability {exact!r}, target {target}")
                continue
            for g in grid:
                task = f"{axis}={g:g}"
                if not checks.check(not table.rows_where(task=task, statistic="failed"),
                                    f"{task}: failed row"):
                    continue
                goal = g if target is None else target
                exact = _value(table, task=task, statistic="exact_probability")
                if not checks.check(exact is not None and abs(exact - goal) <= 1e-6,
                                    f"{task}: exact probability {exact!r}, target {goal}"):
                    continue
                for kind in KINDS:
                    mean = _value(table, task=task, kind=kind, statistic="mean")
                    var = _value(table, task=task, kind=kind, statistic="variance")
                    _within_4se(checks, f"{task} {kind}", mean, exact, var,
                                self._reps(reps, smoke))

    @staticmethod
    def _reps(reps, smoke):
        # below ~1,000 the skewed scope values make a 4-SE check unreliable
        return 1000 if smoke else reps


class Cohort:
    name = "cohort"
    pooled = False

    def prepare(self, inputs: Path) -> None:
        pass

    def commands(self, inputs, out, seed, smoke):
        size = COHORT_SMOKE if smoke else COHORT
        return [["cohort", *(a for k, v in size.items() for a in (f"--{k}", str(v))),
                 *COHORT_CHAIN, "--seed", str(seed), "--out", str(out / "cohort.csv")]]

    def trajectories(self, smoke):
        size = COHORT_SMOKE if smoke else COHORT
        return 2 * size["patients"] * size["timelines"]

    def check(self, checks, inputs, out, seed, smoke):
        path = out / "cohort.csv"
        if not checks.check(path.is_file(), "cohort: no table"):
            return
        table = ExperimentTable.read_csv(path)
        timelines = (COHORT_SMOKE if smoke else COHORT)["timelines"]
        for kind in KINDS:
            for n in range(1, timelines + 1):
                auc = _value(table, task="cohort", kind=kind, n=n, statistic="auroc")
                checks.check(auc is not None and 0.0 <= auc <= 1.0,
                             f"cohort {kind} n={n}: AUROC {auc!r}")
        checks.check(not table.rows_where(statistic="auroc_rounds_dropped"),
                     "cohort: auroc_rounds_dropped row present")
        for kind in ("scope", "reach"):
            checks.check(bool(table.rows_where(task="equivalence", kind=kind,
                                               statistic="equivalence_m")),
                         f"cohort: no equivalence_m row for {kind}")


WORKLOADS = {w.name: w for w in (Estimate(), Sweep(), Cohort())}
