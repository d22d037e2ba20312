"""Reference predictions: the per-scenario, per-stage loop that predicted_probabilities must match.

A threshold model's p is expit(x'b) with the band 1.96 p(1 - p) sqrt(x'Vx);
an allocation model's probabilities are a softmax with like as the zero
reference, and each action's band comes from a gradient built equation by
equation. A model with any non-finite coefficient gives NaN rows, flagged;
the rows of a model that did not converge are flagged too. Rows have the
keys and order of predicted_probabilities.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.special import expit

from socialsim.core import LOADS, NORMS
from socialsim.stats import ALLOCATION_ACTIONS, FittedModel, Scenario, design_matrix


def reference_predicted_probabilities(model: FittedModel, scenarios: Sequence[Scenario]) -> list[dict]:
    rows: list[dict] = []
    k = len(model.terms)
    xs = design_matrix(
        [sc.composite for sc in scenarios], [LOADS.index(sc.load) for sc in scenarios], [NORMS.index(sc.norm) for sc in scenarios]
    )[:, :k]
    for sc, x in zip(scenarios, xs):
        base = {"composite": sc.composite, "load": sc.load.value, "norm": sc.norm.value}
        if not np.all(np.isfinite(model.coef)):
            if model.stage == "threshold":
                rows.append({**base, "p": float("nan"), "lo": float("nan"), "hi": float("nan"), "flagged": True})
            else:
                for a in ALLOCATION_ACTIONS:
                    rows.append({**base, "action": a.value, "p": float("nan"), "lo": float("nan"), "hi": float("nan"), "flagged": True})
            continue
        if model.stage == "threshold":
            eta = float(x @ model.coef[0])
            se_eta = math.sqrt(max(float(x @ model.cov @ x), 0.0))
            p = float(expit(eta))
            half = 1.96 * p * (1.0 - p) * se_eta
            rows.append({**base, "p": p, "lo": max(p - half, 0.0), "hi": min(p + half, 1.0), "flagged": not model.converged})
        else:
            n_eq = model.coef.shape[0]
            eta = model.coef @ x
            full = np.concatenate([[0.0], eta])
            full -= full.max()
            e = np.exp(full)
            probs = e / e.sum()
            for a_idx, action in enumerate(ALLOCATION_ACTIONS):
                grad = np.zeros(n_eq * k)
                for c in range(1, n_eq + 1):
                    dpd_eta = probs[a_idx] * ((1.0 if a_idx == c else 0.0) - probs[c])
                    grad[(c - 1) * k : c * k] = dpd_eta * x
                var = float(grad @ model.cov @ grad)
                half = 1.96 * math.sqrt(max(var, 0.0))
                p = float(probs[a_idx])
                rows.append(
                    {**base, "action": action.value, "p": p, "lo": max(p - half, 0.0), "hi": min(p + half, 1.0), "flagged": not model.converged}
                )
    return rows
