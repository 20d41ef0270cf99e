"""Tour of the three outcome-probability estimators on one small chain.

Builds a five-state chain calibrated to a 30% outcome probability, runs
the Monte Carlo indicator, the hazard-sum estimator (scope), and the
survival-product estimator (reach) at a few sample counts, and compares
every estimate to the exact dynamic-programming answer.
"""

import numpy as np

from seqrisk import (
    MC,
    REACH,
    SCOPE,
    ChainSpec,
    estimate,
    exact_outcome_probability,
    paired_estimates,
    random_chain,
)

chain = random_chain(ChainSpec(n_states=5, spontaneity=0.75, horizon_steps=10,
                               seed=101, target_probability=0.3))
truth = exact_outcome_probability(chain)
print(f"exact outcome probability (DP): {truth:.6f}")
print(f"chain spontaneity target met: {abs(truth - 0.3):.2e} from 0.3\n")

print(f"{'kind':>6} {'n':>7} {'mean':>9} {'std err':>9} {'|err|/se':>9}")
for kind in (MC, SCOPE, REACH):
    for n in (100, 1_000, 10_000):
        rep = estimate(chain, kind, n, seed=7)
        z = abs(rep.mean - truth) / max(rep.std_error, 1e-12)
        print(f"{kind:>6} {n:>7} {rep.mean:>9.5f} {rep.std_error:>9.5f} {z:>9.2f}")

print("\nvariance per single trajectory (n = 10,000 pool):")
for kind in (MC, SCOPE, REACH):
    rep = estimate(chain, kind, 10_000, seed=8)
    print(f"  {kind:>6}: {rep.sample_variance:.6f}")

# MC and scope can share one pool of sampled timelines
mc_rep, scope_rep = paired_estimates(chain, 5_000, seed=9)
print(f"\nshared-pool estimates: mc={mc_rep.mean:.5f} scope={scope_rep.mean:.5f}")
corr = np.corrcoef(mc_rep.sub_values, scope_rep.sub_values)[0, 1]
print(f"per-trajectory correlation between the two sub-estimators: {corr:.3f}")
