"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion lines are echoed immediately (visible under ``pytest -s``) and
collected into an "acceptance criteria" section of the terminal summary.
Stated runtime budgets are asserted alongside the numerical tolerances.
"""

import time

import numpy as np
import pytest
from scipy import stats

from seqrisk import (
    KINDS,
    MC,
    OUTCOME_EXCLUDED,
    REACH,
    SCOPE,
    STANDARD,
    ChainSpec,
    CohortSpec,
    auroc,
    counterexample_model,
    dispersion_probability,
    enumerate_sub_distribution,
    estimate,
    exact_outcome_probability,
    random_chain,
    sample_batch,
    synthetic_cohort_eval,
    variance_sweep,
)
from seqrisk.experiments import PROBABILITY_GRID, SAMPLE_COUNT_GRID, SPONTANEITY_GRID
from seqrisk.rng import substream

from conftest import lone_chain, record_criterion

PANEL_B_SEED = 11
PANEL_C_SEED = 12
PANEL_D_SEED = 13
MC_CONTRACT_SEED_BASE = 3000
COHORT_SEED = 20260809


def criterion(name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    record_criterion(line)
    assert passed, line


def test_counterexample_closed_forms():
    t0 = time.perf_counter()
    worst = 0.0
    for p in (0.0, 0.25, 0.5, 0.9):
        model = counterexample_model(p)
        mc = enumerate_sub_distribution(model, MC)
        sc = enumerate_sub_distribution(model, SCOPE)
        worst = max(
            worst,
            abs(sc.variance() - mc.variance() - (1.0 - p) / 16.0),
            abs(mc.second_moment() - 7.0 / 8.0 * (1.0 - p)),
            abs(sc.second_moment() - 15.0 / 16.0 * (1.0 - p)),
        )
    elapsed = time.perf_counter() - t0
    criterion(
        "counterexample closed forms (variance gap, second moments)",
        worst <= 1e-12 and elapsed < 1.0,
        f"worst dev {worst:.2e}, {elapsed:.2f}s",
    )


def test_dispersion_reference_number():
    t0 = time.perf_counter()
    value = dispersion_probability(100, 1.0 / 10_000, 1.0 / 1_000)
    elapsed = time.perf_counter() - t0
    criterion(
        "rank-dispersion probability equals 0.0943",
        abs(value - 0.0943) <= 1e-4 and elapsed < 1.0,
        f"value {value:.6f}, {elapsed:.2f}s",
    )


def test_unbiasedness_oracle_suite(model_suite):
    records, build_seconds = model_suite
    worst = max(
        abs(rec.dists[kind].mean() - rec.dp_probability)
        for rec in records
        for kind in KINDS
    )
    criterion(
        "unbiasedness on 200 seeded models (enumeration vs DP)",
        worst <= 1e-10 and build_seconds < 30.0,
        f"worst dev {worst:.2e}, enumeration build {build_seconds:.1f}s",
    )


def test_variance_ordering_suite(model_suite):
    records, build_seconds = model_suite
    worst_order = -np.inf
    worst_identity = 0.0
    for rec in records:
        v = {kind: rec.dists[kind].variance() for kind in KINDS}
        worst_order = max(worst_order, v[REACH] - v[MC], v[REACH] - v[SCOPE])
        gap = rec.dists[REACH].expect(lambda r: r * (1.0 - r))
        worst_identity = max(worst_identity, abs(v[MC] - v[REACH] - gap))
    criterion(
        "variance ordering and conditional-variance identity on 200 models",
        worst_order <= 1e-12 and worst_identity <= 1e-10 and build_seconds < 30.0,
        f"worst ordering excess {worst_order:.2e}, identity dev {worst_identity:.2e}",
    )


def test_bijection_on_suite(model_suite):
    records, _ = model_suite
    worst = max(abs(rec.p_standard - rec.p_excluded) for rec in records)
    criterion(
        "standard vs outcome-excluded probability bijection on 200 models",
        worst < 1e-10,
        f"worst gap {worst:.2e}",
    )


def test_figure_panels_qualitative():
    t0 = time.perf_counter()
    replications = 10_000

    # (b) sign flip of Var(SCOPE) - Var(MC) across the probability grid
    spec_b = ChainSpec(11, 1.0, 20, seed=PANEL_B_SEED, equal_transitions=True)
    table_b = variance_sweep("probability", PROBABILITY_GRID, spec_b,
                             replications)
    diffs = []
    for g in PROBABILITY_GRID:
        task = f"probability={g:g}"
        diffs.append(
            table_b.single(task=task, kind=SCOPE, statistic="variance").value
            - table_b.single(task=task, kind=MC, statistic="variance").value
        )
    signs = np.sign(diffs)
    crossings = [
        PROBABILITY_GRID[i + 1]
        for i in range(len(signs) - 1)
        if signs[i] != signs[i + 1]
    ]
    panel_b_ok = (
        diffs[0] < 0
        and diffs[-1] > 0
        and crossings
        and all(0.6 <= c <= 0.95 for c in crossings)
    )

    # (c) MC variance flat at 0.25, REACH variance nonincreasing
    r = replications
    mc_se = 0.25 * np.sqrt(2.0 / (r * (r - 1)))  # exact for Bernoulli(1/2)
    panel_c_mc_ok = True
    reach_vars = []
    for j, g in enumerate(SPONTANEITY_GRID):
        point = ChainSpec(11, g, 20, seed=PANEL_C_SEED, target_probability=0.5,
                          equal_transitions=True)
        chain = lone_chain(point, PANEL_C_SEED, 2, j, 0)
        mc_v, _ = sample_batch(chain, STANDARD, r, substream(PANEL_C_SEED, 2, j, 1))
        (re_v,) = sample_batch(chain, OUTCOME_EXCLUDED, r, substream(PANEL_C_SEED, 2, j, 2))
        if abs(mc_v.var(ddof=1) - 0.25) > 3.0 * mc_se:
            panel_c_mc_ok = False
        s2 = re_v.var(ddof=1)
        m4 = float(np.mean((re_v - re_v.mean()) ** 4))
        se2 = max(m4 - s2 * s2 * (r - 3) / (r - 1), 0.0) / r
        reach_vars.append((s2, np.sqrt(se2)))
    panel_c_reach_ok = all(
        b[0] <= a[0] + 2.0 * np.hypot(a[1], b[1])
        for a, b in zip(reach_vars, reach_vars[1:])
    )

    # (d) 1/n scaling of the MC estimator variance
    spec_d = ChainSpec(11, 1.0, 20, seed=PANEL_D_SEED, target_probability=0.5,
                       equal_transitions=True)
    table_d = variance_sweep("sample_count", SAMPLE_COUNT_GRID, spec_d,
                             2_000)
    ns = np.asarray(SAMPLE_COUNT_GRID, dtype=float)
    mc_var = np.array([
        table_d.single(task=f"sample_count={int(n)}", kind=MC,
                       statistic="variance").value
        for n in ns
    ])
    slope = float(np.polyfit(np.log(ns), np.log(mc_var), 1)[0])
    panel_d_ok = abs(slope + 1.0) <= 0.1

    elapsed = time.perf_counter() - t0
    criterion(
        "variance-sweep panels: crossover, flat MC / shrinking REACH, 1/n scaling",
        panel_b_ok and panel_c_mc_ok and panel_c_reach_ok and panel_d_ok
        and elapsed < 600.0,
        f"crossings {crossings}, slope {slope:.3f}, {elapsed:.1f}s",
    )


def test_mc_statistical_contract():
    t0 = time.perf_counter()
    worst_z = 0.0
    n = 100_000
    for i in range(20):
        chain = random_chain(ChainSpec(5, 0.75, 12, seed=MC_CONTRACT_SEED_BASE + i))
        p = exact_outcome_probability(chain)
        report = estimate(chain, MC, n, seed=MC_CONTRACT_SEED_BASE + i)
        # exact Bernoulli standard error: at p near 1 a sample may hold no
        # miss at all, and its sample standard error is then 0
        worst_z = max(worst_z, abs(report.mean - p) / np.sqrt(p * (1.0 - p) / n))
    elapsed = time.perf_counter() - t0
    criterion(
        "MC estimate at n=100,000 within 4 standard errors on 20 chains",
        worst_z <= 4.0,
        f"worst z {worst_z:.2f}, {elapsed:.1f}s",
    )


def test_auroc_against_pairwise_oracle():
    rng = np.random.default_rng(606)
    worst = 0.0
    for case in range(100):
        n = int(rng.integers(4, 120))
        if case % 2:
            scores = np.round(rng.random(n), 1)  # force ties
        else:
            scores = rng.random(n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = float((pos[:, None] > neg[None, :]).sum())
        ties = float((pos[:, None] == neg[None, :]).sum())
        oracle_value = (wins + 0.5 * ties) / (pos.size * neg.size)
        worst = max(worst, abs(auroc(scores, labels) - oracle_value))
    criterion(
        "AUROC equals the pairwise-comparison oracle on 100 tied/untied sets",
        worst <= 1e-12,
        f"worst dev {worst:.2e}",
    )


def test_synthetic_cohort_substitute_property():
    t0 = time.perf_counter()
    spec = CohortSpec(
        n_patients=2000,
        chain_template=ChainSpec(6, 1.0, 12, seed=0, equal_transitions=True),
        n_timelines=100,
        bootstrap_rounds=40,
        seed=COHORT_SEED,
    )
    table = synthetic_cohort_eval(spec)

    equivalence_ok = True
    detail = []
    for kind in (SCOPE, REACH):
        m_row = table.single(task="equivalence", kind=kind, statistic="equivalence_m")
        not_reached = table.single(task="equivalence", kind=kind,
                                   statistic="equivalence_not_reached").value
        ok = (
            np.isfinite(m_row.value)
            and m_row.value < 100
            and m_row.ci_high < 100
            and not_reached == 0
        )
        equivalence_ok &= ok
        detail.append(f"{kind} m={m_row.value:.0f} CI[{m_row.ci_low:.0f},{m_row.ci_high:.0f}]")

    calibration_ok = True
    for kind in (MC, SCOPE, REACH):
        for count_row in table.rows_where(kind=kind, statistic="cal_count"):
            task = count_row.task
            mean_score = table.single(task=task, kind=kind,
                                      statistic="cal_mean_score").value
            event_rate = table.single(task=task, kind=kind,
                                      statistic="cal_event_rate").value
            count = int(count_row.value)
            lo, hi = stats.binom.interval(0.95, count, mean_score)
            if not lo / count <= event_rate <= hi / count:
                calibration_ok = False
                detail.append(f"{kind} {task} rate {event_rate:.3f} outside "
                              f"[{lo / count:.3f}, {hi / count:.3f}]")

    elapsed = time.perf_counter() - t0
    criterion(
        "synthetic cohort: sub-100 equivalence with CI and calibrated bins",
        equivalence_ok and calibration_ok and elapsed < 1200.0,
        "; ".join(detail) + f"; {elapsed:.1f}s",
    )
