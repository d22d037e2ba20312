"""Generate data from known coefficients, then recover them with both models.

The parametric policy draws decisions from an explicit two-stage logistic
process, which makes it a ground-truth generator: after simulating the
full factorial we can fit the threshold model (engage vs. read, IRLS) and
the allocation model (like/repost/quote, Newton) and compare estimates to
the coefficients that actually produced the data. Desk scale here; the
acceptance suite does the same at full scale with tighter bookkeeping.
"""

import numpy as np

from socialsim import (
    ParametricLogitSpec,
    PatternCounts,
    RunConfig,
    build_design_matrix,
    build_policy,
    fit_binary_logistic,
    fit_multinomial_logistic,
    generate_population,
    generate_seed_corpus,
    run,
)
from socialsim.core import LOADS, NORMS
from socialsim.harness import cell_seed
from socialsim.stats import DESIGN_COLUMNS

names = DESIGN_COLUMNS
threshold_true = dict.fromkeys(names, 0.0)
threshold_true.update(
    intercept=-3.9, popularity=0.35,
    low_load=-0.3, medium_load=-0.55, high_load=-0.9,
    like_norm=0.25, repost_norm=-0.2,
)
allocation_true = {
    "repost_vs_like": dict.fromkeys(names, 0.0) | {"intercept": -0.4, "popularity": 0.1, "repost_norm": 1.2},
    "quote_vs_like": dict.fromkeys(names, 0.0) | {"intercept": -0.8, "popularity": -0.15, "like_norm": -0.5},
}

spec = ParametricLogitSpec(
    threshold=[threshold_true[n] for n in names],
    allocation=[[allocation_true[eq][n] for n in names] for eq in ("repost_vs_like", "quote_vs_like")],
)

profiles, graph = generate_population(200, seed=9)
corpus = generate_seed_corpus(seed=9)

# Each cell's log is folded into its pattern table: one row per distinct
# (likes + reshares, load, norm), counting the exposures of each action.
# The 12 tables merge by the same fold into one.
cells = []
for load in LOADS:
    for norm in NORMS:
        cfg = RunConfig(seed=cell_seed(71, load, norm, 0), load=load, norm=norm,
                        n_agents=200, timesteps=240, activation_p=0.02)
        policy = build_policy(spec, load, norm)
        cells.append(PatternCounts.of(run(cfg, policy, profiles, graph, corpus).exposures))
table = PatternCounts.fold(cells)

print(f"simulated {table.counts.sum()} exposure rows across 12 cells, folded into {len(table.total)} patterns")

# Each stage reads its patterns from the table: one design row per pattern
# with at least one of the stage's rows, and a count per pattern and outcome
# class that the fit takes as frequency weights.
X, terms, counts = build_design_matrix(table, "threshold")
threshold_fit = fit_binary_logistic(X, counts, terms=terms)
m = threshold_fit.metrics
print(f"\nthreshold model: n={threshold_fit.n_obs} rows in {len(X)} patterns, converged={threshold_fit.converged}, "
      f"chi2({m.df})={m.chi2:.1f}, McFadden={m.mcfadden:.3f}, AIC={m.aic:.0f}")
print(f"{'term':<24} {'true':>7} {'est':>7} {'SE':>6} {'OR':>7}")
for j, term in enumerate(terms[:7]):
    print(f"{term:<24} {threshold_true[term]:>7.2f} {threshold_fit.coef[0, j]:>7.2f} "
          f"{threshold_fit.se[0, j]:>6.3f} {np.exp(threshold_fit.coef[0, j]):>7.3f}")

Xa, terms_a, counts_a = build_design_matrix(table, "allocation")
allocation_fit = fit_multinomial_logistic(Xa, counts_a, terms=terms_a)
print(f"\nallocation model: n={allocation_fit.n_obs} engaged rows in {len(Xa)} patterns, "
      f"converged={allocation_fit.converged}")
for e, eq in enumerate(allocation_fit.equations):
    print(f"  {eq}:")
    for j, term in enumerate(terms_a[:2]):
        true = allocation_true[eq][term]
        print(f"    {term:<22} true={true:>6.2f}  est={allocation_fit.coef[e, j]:>6.2f} "
              f"(SE {allocation_fit.se[e, j]:.3f})")

n_hits = sum(
    abs(threshold_fit.coef[0, j] - threshold_true[t]) <= max(0.1, 3 * threshold_fit.se[0, j])
    for j, t in enumerate(terms)
)
print(f"\nthreshold coefficients recovered within max(0.1, 3 SE): {n_hits}/24")
