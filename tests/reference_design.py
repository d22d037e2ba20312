"""Reference design matrix: the column-at-a-time loop that core.design_matrix must match bit for bit.

Each of the 24 columns is written into the row-major design on its own,
as the product of its term's factors over all n rows at once, left to
right (composite, load dummy, norm dummy). ``reference_patterns`` maps each
exposure row to its pattern, the design row stats.build_design_matrix gives
it, and ``expand`` turns a pattern design and its counts back into rows.
"""

from __future__ import annotations

import operator
from functools import reduce

import numpy as np

from socialsim.core import _LOAD_DUMMIES, _NORM_DUMMIES, _TERMS, ACTIONS, LOADS, N_COLUMNS, NORMS, ExposureColumns
from socialsim.stats import ALLOCATION_ACTIONS


def reference_design_matrix(
    composite: np.typing.ArrayLike, load_codes: np.typing.ArrayLike, norm_codes: np.typing.ArrayLike
) -> np.ndarray:
    c = np.asarray(composite, dtype=np.float64)
    load_codes, norm_codes = np.asarray(load_codes), np.asarray(norm_codes)
    loads = {lv: (load_codes == LOADS.index(lv)).astype(np.float64) for lv in _LOAD_DUMMIES}
    norms = {nr: (norm_codes == NORMS.index(nr)).astype(np.float64) for nr in _NORM_DUMMIES}
    X = np.empty((c.size, N_COLUMNS), dtype=np.float64)
    for j, term in enumerate(_TERMS):
        factors = [c] if term.popularity else []
        factors += [loads[term.load]] if term.load is not None else []
        factors += [norms[term.norm]] if term.norm is not None else []
        X[:, j] = reduce(operator.mul, factors) if factors else 1.0
    return X


def exposure_rows(load: np.ndarray, norm: np.ndarray, action: np.ndarray, total: np.ndarray) -> ExposureColumns:
    """Exposure rows with the given codes and likes + reshares (all of it likes); every other column 0."""
    zeros = np.zeros(len(total), dtype=np.int64)
    return ExposureColumns(
        run=zeros, t=zeros, agent=zeros, post=zeros, likes=np.asarray(total, dtype=np.int64), reshares=zeros,
        load=np.asarray(load, dtype=np.int8), norm=np.asarray(norm, dtype=np.int8), action=np.asarray(action, dtype=np.int8),
    )


def reference_patterns(rows: ExposureColumns, stage: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(kept, inverse, y) for the exposure rows of ``stage``: kept marks them (every row for threshold,
    engaged rows for allocation); per kept row, inverse numbers its (likes + reshares, load, norm) pattern
    among the distinct ones sorted in that order, by np.unique over the stacked key columns, and y is its
    outcome code (1 for engaged for threshold, an ALLOCATION_ACTIONS index for allocation).
    """
    engaged = np.array([a.is_engagement for a in ACTIONS])[rows.action]
    if stage == "allocation":
        kept = engaged
        y = np.array([ALLOCATION_ACTIONS.index(a) if a.is_engagement else -1 for a in ACTIONS])[rows.action[kept]]
    else:
        kept = np.ones(rows.action.size, dtype=bool)
        y = engaged.astype(np.int64)
    total = rows.likes + rows.reshares
    keys = np.column_stack([total[kept], rows.load[kept].astype(np.int64), rows.norm[kept].astype(np.int64)])
    inverse = np.unique(keys, axis=0, return_inverse=True)[1].reshape(-1)
    return kept, inverse, y


def expand(X: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The per-row design and outcome codes (X, counts) stand for: row i of X once per observation it
    counts, its class-0 observations first."""
    reps = counts.astype(np.int64).reshape(-1)
    pattern = np.repeat(np.repeat(np.arange(len(X)), counts.shape[1]), reps)
    codes = np.repeat(np.tile(np.arange(counts.shape[1]), len(X)), reps)
    return X[pattern], codes
