"""Variance behavior of the estimators across four experiment panels.

Reproduces the package's standard sweep suite at desk scale and writes one
CSV + SVG pair per panel into demos/output/:

  (a) distribution of repeated estimates at a fixed sample count,
  (b) per-trajectory variance vs outcome probability,
  (c) per-trajectory variance vs chain spontaneity at fixed probability,
  (d) estimator variance vs sample count (log-log, slope -1 for MC).
"""

from pathlib import Path

import numpy as np

from seqrisk import ChainSpec, estimate_distribution_experiment, variance_sweep
from seqrisk.experiments import (
    DEFAULT_REPLICATIONS,
    PROBABILITY_GRID,
    SAMPLE_COUNT_GRID,
    SAMPLE_COUNT_REPLICATIONS,
    SPONTANEITY_GRID,
)
from seqrisk.svgplot import line_plot, table_plot

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)
SEED = 11


def save(name, text):
    (OUT / name).write_text(text)
    print(f"  wrote {OUT / name}")


print("(a) distribution of estimates: 10 samples per estimate, p = 0.2")
spec_a = ChainSpec(11, 1.0, 20, seed=SEED, target_probability=0.2)
result = estimate_distribution_experiment(spec_a, 10_000, 10)
result.write_csv(OUT / "panel_a_histograms.csv", bins=60)
print(f"  wrote {OUT / 'panel_a_histograms.csv'}")
series = []
for kind, values in result.estimates.items():
    counts, edges = np.histogram(values, bins=60, range=(0.0, 1.2))
    mids = 0.5 * (edges[:-1] + edges[1:])
    series.append((kind, mids, counts))
save("panel_a_histograms.svg", line_plot(
    series, step=True, title="repeated 10-sample estimates (true p = 0.2)",
    xlabel="estimate", ylabel="count"))
mc_support = np.unique(np.round(result.estimates["mc"], 10))
print(f"  mc support restricted to multiples of 1/10: {mc_support[:6]}...\n")

print("(b) variance vs probability, spontaneity 1.0")
spec_b = ChainSpec(11, 1.0, 20, seed=SEED, equal_transitions=True)
table_b = variance_sweep("probability", PROBABILITY_GRID, spec_b,
                         DEFAULT_REPLICATIONS)
save("panel_b_probability.csv", table_b.to_csv_text())
save("panel_b_probability.svg", table_plot(
    table_b, task_prefix="probability=", statistic="variance",
    title="per-trajectory variance vs outcome probability",
    xlabel="outcome probability", ylabel="variance"))
crossed = [
    g for g in PROBABILITY_GRID
    if table_b.single(task=f"probability={g:g}", kind="scope", statistic="variance").value
    > table_b.single(task=f"probability={g:g}", kind="mc", statistic="variance").value
]
print(f"  scope variance first exceeds mc at p = {crossed[0]}\n")

print("(c) variance vs spontaneity at fixed probability 0.5")
spec_c = ChainSpec(11, 1.0, 20, seed=SEED + 1, target_probability=0.5,
                   equal_transitions=True)
table_c = variance_sweep("spontaneity", SPONTANEITY_GRID, spec_c,
                         DEFAULT_REPLICATIONS)
save("panel_c_spontaneity.csv", table_c.to_csv_text())
save("panel_c_spontaneity.svg", table_plot(
    table_c, task_prefix="spontaneity=", statistic="variance",
    title="per-trajectory variance vs spontaneity (p fixed at 0.5)",
    xlabel="spontaneity", ylabel="variance"))
reach_ends = [
    table_c.single(task=f"spontaneity={g:g}", kind="reach", statistic="variance").value
    for g in (SPONTANEITY_GRID[0], SPONTANEITY_GRID[-1])
]
print(f"  reach variance falls from {reach_ends[0]:.4f} to {reach_ends[1]:.6f}\n")

print("(d) estimator variance vs sample count")
spec_d = ChainSpec(11, 1.0, 20, seed=SEED + 2, target_probability=0.5,
                   equal_transitions=True)
table_d = variance_sweep("sample_count", SAMPLE_COUNT_GRID, spec_d,
                         SAMPLE_COUNT_REPLICATIONS)
save("panel_d_sample_count.csv", table_d.to_csv_text())
save("panel_d_sample_count.svg", table_plot(
    table_d, task_prefix="sample_count=", statistic="variance",
    title="estimator variance vs sample count", xlabel="samples",
    ylabel="variance", logx=True, logy=True))
ns = np.asarray(SAMPLE_COUNT_GRID, dtype=float)
mc_var = np.array([
    table_d.single(task=f"sample_count={int(n)}", kind="mc", statistic="variance").value
    for n in ns
])
slope = np.polyfit(np.log(ns), np.log(mc_var), 1)[0]
print(f"  mc log-log slope: {slope:.3f} (1/n scaling)")
