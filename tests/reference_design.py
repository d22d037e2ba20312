"""Reference design builder: the column-at-a-time loop that stats.design_matrix must match bit for bit.

Each of the 24 columns is written into the row-major design on its own,
as the product of its term's factors over all n rows at once, left to
right (composite, load dummy, norm dummy).
"""

from __future__ import annotations

import operator
from functools import reduce

import numpy as np

from socialsim.core import LOADS, NORMS
from socialsim.stats import _LOAD_DUMMIES, _NORM_DUMMIES, _TERMS, N_COLUMNS


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
