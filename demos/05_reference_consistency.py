"""Check the embedded reference coefficient tables for internal consistency.

The package embeds the previously reported estimates for both stages as
fixtures. Reproducing those coefficient values exactly would require the
original LLM and proprietary inputs, but the published numbers must agree
with themselves: every odds ratio has to equal exp(B) up to print rounding,
reported p bands must follow from B/SE, and the reported AIC, LR chi-square
and McFadden R-square must all be consequences of the same pair of
log-likelihoods. This script verifies all of it and then evaluates the
reported threshold model at a few scenario points.
"""

import math

from socialsim import LoadLevel, NormRegime
from socialsim.core import LOADS, NORMS
from socialsim.stats import (
    REFERENCE_THRESHOLD_FIT,
    REFERENCE_THRESHOLD_TABLE,
    design_matrix,
    fit_statistics,
    table_consistency_check,
)

report = table_consistency_check()
print(f"reference rows checked: {len(report.rows)}; failures: {len(report.failures)}")
worst = max(report.rows, key=lambda r: abs(r["exp_B"] - r["reported_OR"]) / max(r["reported_OR"], 1e-9))
print(f"loosest agreement: {worst['table']}/{worst['term']}: "
      f"exp(B)={worst['exp_B']:.4f} vs reported {worst['reported_OR']}")

fs = fit_statistics(
    REFERENCE_THRESHOLD_FIT["ll_full"],
    REFERENCE_THRESHOLD_FIT["ll_null"],
    REFERENCE_THRESHOLD_FIT["k"],
    REFERENCE_THRESHOLD_FIT["k_null"],
)
print(f"\nback-solved fit statistics from the two log-likelihoods:")
print(f"  AIC      = {fs.aic:.0f}   (reported {REFERENCE_THRESHOLD_FIT['aic']:.0f})")
print(f"  chi2({fs.df}) = {fs.chi2:.2f} (reported {REFERENCE_THRESHOLD_FIT['chi2']})")
print(f"  McFadden = {fs.mcfadden:.4f} (reported {REFERENCE_THRESHOLD_FIT['mcfadden']})")

coef = {t: b for t, b, _, _, _ in REFERENCE_THRESHOLD_TABLE}
beta = [coef[t] for t, *_ in REFERENCE_THRESHOLD_TABLE]


def engage_probability(composite, load, norm):
    eta = float(design_matrix([composite], LOADS.index(load), NORMS.index(norm))[0] @ beta)
    return 1.0 / (1.0 + math.exp(-eta))


print("\nreported threshold model, predicted p(engage):")
print(f"  reference cell (lowest load, no norm, composite 0): "
      f"{engage_probability(0.0, LoadLevel.LOWEST, NormRegime.NO_NORM):.4f}")
for load in (LoadLevel.LOWEST, LoadLevel.HIGH):
    for c in (0.0, 1.0, 2.0):
        p_no = engage_probability(c, load, NormRegime.NO_NORM)
        p_re = engage_probability(c, load, NormRegime.REPOST_DOMINANT)
        print(f"  load={load.value:<6} composite={c:.0f}: no_norm={p_no:.3f}  repost_dominant={p_re:.3f}")

print("\nthe crossover is visible: under the repost-dominant regime, high load")
print("suppresses engagement at weak popularity but amplifies it once the")
print("popularity composite grows.")
