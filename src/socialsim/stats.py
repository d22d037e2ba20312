"""Two-stage inferential pipeline for exposure logs.

Stage one models the participation threshold (engage vs. read-only) with
binary logistic regression fitted by iteratively reweighted least squares.
Stage two models engagement allocation (like vs. repost vs. quote) with
multinomial logistic regression fitted by joint Newton-Raphson over both
non-reference equations. Both use the same 24-column design: intercept,
the popularity composite, dummy-coded load and norm conditions, and all
two- and three-way products.

A design row depends only on a row's (likes + reshares, load, norm), its
pattern, so logs are read as PatternCounts tables of exposures per pattern
and action. Each stage is fitted on its patterns: one design row per
pattern and a count of the stage's rows per pattern and outcome class,
taken as frequency weights. That is the likelihood of the rows themselves
(the frequency-weight identity for GLMs): the estimates, log-likelihoods,
standard errors and n_obs, the row count, are those of the per-row fit, up
to rounding. The paper plan's 552k threshold rows are a few hundred
patterns. The fits take counts alone: a per-row fit is the special case of
one-hot counts, one design row per observation.

Standard errors come from the inverse observed information at the MLE,
odds ratios are exp(B), p-values are two-tailed Wald tests, and model fit
is summarized by the likelihood-ratio chi-square against the intercept-only
model, McFadden's pseudo R-square, and AIC.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Literal, NamedTuple, Sequence

import numpy as np

from .core import (
    ACTIONS,
    DESIGN_COLUMNS,
    LOADS,
    NORMS,
    ActionKind,
    ExposureColumns,
    FormatError,
    LoadLevel,
    NormRegime,
    design_matrix,
    ranked,
    read_table,
    read_text,
    write_table,
)

# ---------------------------------------------------------------------------
# Pattern tables and stage designs (the 24 design columns are core.design_matrix's)
# ---------------------------------------------------------------------------

ALLOCATION_ACTIONS = (ActionKind.LIKE, ActionKind.REPOST, ActionKind.QUOTE)  # LIKE is the allocation baseline
ALLOCATION_EQUATIONS = ("repost_vs_like", "quote_vs_like")
# Each stage's equations, one coefficient block each; the stage's null model has one intercept per equation.
_EQUATIONS = {"threshold": ("engage",), "allocation": ALLOCATION_EQUATIONS}
# Each stage's outcome classes, the columns of its count matrix, as a (len(ACTIONS), classes) 0/1 matrix whose
# row a marks the class ACTIONS[a] counts in: threshold (read, engage), allocation (like, repost, quote), where a
# read counts in none.
_CLASS_OF = {
    "threshold": np.array([[not a.is_engagement, a.is_engagement] for a in ACTIONS], dtype=np.int64),
    "allocation": np.array([[a is b for b in ALLOCATION_ACTIONS] for a in ACTIONS], dtype=np.int64),
}


class PatternCounts(NamedTuple):
    """Exposure counts per pattern, a distinct (likes + reshares, load, norm), sorted in that order: each
    pattern's likes + reshares (int64), its int8 LOADS and NORMS codes, and its int64 count of exposures
    per action, a (patterns, len(ACTIONS)) matrix. Both stages' designs and counts are read from it."""

    total: np.ndarray
    load: np.ndarray
    norm: np.ndarray
    counts: np.ndarray

    @classmethod
    def of(cls, exposures: ExposureColumns) -> "PatternCounts":
        """The table of one log's exposure rows: each row counts once, in its pattern's column of its action."""
        pattern, total, load, norm = _patterns(exposures.likes + exposures.reshares, exposures.load, exposures.norm)
        counts = np.bincount(pattern * len(ACTIONS) + exposures.action, minlength=total.size * len(ACTIONS))
        return cls(total, load, norm, counts.reshape(total.size, len(ACTIONS)))

    @classmethod
    def fold(cls, tables: Iterable["PatternCounts"]) -> "PatternCounts":
        """One table of the rows of ``tables``, whose keys may repeat: each pattern once, its counts summed."""
        total, load, norm, counts = map(np.concatenate, zip(*tables, _NO_PATTERNS))
        pattern, *keys = _patterns(total, load, norm)
        folded = np.zeros((keys[0].size, len(ACTIONS)), dtype=np.int64)
        for column, part in zip(folded.T, counts.T):
            np.add.at(column, pattern, part)
        return cls(*keys, folded)

    def classes(self, stage: Literal["threshold", "allocation"]) -> np.ndarray:
        """The int64 (patterns, classes) count of ``stage``'s outcome classes."""
        return self.counts @ _CLASS_OF[stage]


def _patterns(total: np.ndarray, load: np.ndarray, norm: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each row's pattern, as an index into the distinct (total, load, norm) keys sorted in that order, and
    the keys' totals (int64) and LOADS and NORMS codes (int8).

    The pattern code counts from the index of the distinct total, so it cannot overflow as the total could."""
    distinct, inverse = ranked(total)
    keys, pattern = ranked((inverse * len(LOADS) + load) * len(NORMS) + norm)
    index, norm_codes = np.divmod(keys, len(NORMS))
    index, load_codes = np.divmod(index, len(LOADS))
    return pattern, distinct[index], load_codes.astype(np.int8), norm_codes.astype(np.int8)


# The table with no pattern, which every fold starts from: folding no tables gives it, with the table's dtypes.
_NO_PATTERNS = PatternCounts(np.empty(0, np.int64), np.empty(0, np.int8), np.empty(0, np.int8), np.empty((0, len(ACTIONS)), np.int64))


def build_design_matrix(
    table: PatternCounts, stage: Literal["threshold", "allocation"]
) -> tuple[np.ndarray, list[str], np.ndarray]:
    """Assemble (X, column names, counts) from a pattern table, one design row per pattern of the stage.

    The stage's patterns are those of ``table`` with at least one of its rows (every exposure for the
    threshold stage, engaged ones for the allocation stage), in the table's order, and ``counts`` is
    their (patterns, classes) float64 count per outcome class. Fitted with the counts as frequency
    weights, the patterns give the likelihood of the rows.
    """
    counts = table.classes(stage)
    present = counts.any(axis=1)
    if not present.any():
        raise ValueError(f"no usable records for stage {stage!r}")
    # popularity_composite per pattern; math.log1p, not np.log1p, whose results can differ in the last bit
    c = np.asarray([math.log1p(v) for v in table.total[present].tolist()], dtype=np.float64)
    return design_matrix(c, table.load[present], table.norm[present]), list(DESIGN_COLUMNS), counts[present].astype(np.float64)


# ---------------------------------------------------------------------------
# Special functions: scipy.special's expit, logsumexp and ndtr, bit for bit
# ---------------------------------------------------------------------------

# The fits take their link functions from here, not from scipy, so the runtime needs numpy alone and a
# fit does not depend on the installed scipy. Each function gives scipy's own bits, not just its values
# (tests/test_stats.py proves it): a recorded fit can move past 1e-8 on a one-ulp change, because Newton
# may halve its last step, or not, on a one-ulp difference between two log-likelihoods. So each exp of a
# single value is math.exp, the C library's exp that scipy calls; np.exp rounds differently on some inputs.


def _exp_or_inf(x: float) -> float:
    """C's exp: math.exp, but inf where the result overflows, where math.exp raises."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _expit(x: np.ndarray) -> np.ndarray:
    """scipy.special.expit of a float64 array: 1 / (1 + exp(-x)), with the C library's exp."""
    values = np.negative(x).ravel().tolist()
    try:
        e = np.fromiter(map(math.exp, values), dtype=np.float64, count=len(values))
    except OverflowError:
        e = np.fromiter(map(_exp_or_inf, values), dtype=np.float64, count=len(values))
    return (1.0 / (1.0 + e)).reshape(x.shape)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """scipy.special.logsumexp(a, axis=1) of a 2-D float64 array, op for op as scipy 1.17 computes it.

    The row maximum's ties are taken out of the shifted sum and counted (m), so the sum s of the
    others' exp(a - max) is small and log1p(s / m) + log(m) + max keeps its precision. Where that is
    not finite (a row holding inf, nan or only -inf), the result is log(sum(exp(a))) instead.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        a_max = np.max(a, axis=1, keepdims=True)
        ties = a == a_max
        m = np.sum(ties, axis=1, keepdims=True, dtype=np.float64)
        s = np.sum(np.exp(np.where(ties, -np.inf, a) - a_max), axis=1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = (np.log1p(s) + np.log(m) + a_max)[:, 0]
        bad = ~np.isfinite(out)
        if bad.any():
            with np.errstate(over="ignore"):
                out[bad] = np.log(np.sum(np.exp(a[bad]), axis=1))
    return out


# Cephes' ndtr, erf and erfc (Moshier), as scipy.special.ndtr computes them: coefficients of the
# rational approximations to erf on |x| < 1 (T/U) and to erfc on 1 <= x < 8 (P/Q) and x >= 8 (R/S).
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_SQRT1_2 = 0.70710678118654752440


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """coef[0] x^N + ... + coef[N], by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple[float, ...]) -> float:
    """x^N + coef[0] x^(N-1) + ... + coef[N-1]: _polevl with a leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    """Cephes' erf: the T/U rational fit for |x| <= 1, else 1 - erfc(x)."""
    if x < 0.0:
        return -_erf(-x)
    if x > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def _erfc(a: float) -> float:
    """Cephes' erfc: 1 - erf(a) for |a| < 1, else exp(-a^2) times the P/Q or R/S fit; 0 or 2 past underflow."""
    x = -a if a < 0.0 else a
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z >= -_MAXLOG:
        z = math.exp(z)
        if x < 8.0:
            y = z * _polevl(x, _ERFC_P) / _p1evl(x, _ERFC_Q)
        else:
            y = z * _polevl(x, _ERFC_R) / _p1evl(x, _ERFC_S)
        if a < 0.0:
            y = 2.0 - y
        if y != 0.0:
            return y
    return 2.0 if a < 0.0 else 0.0  # underflow


def _ndtr1(a: float) -> float:
    """The standard normal CDF at a Python float a."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < 1.0:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0.0 else y


def _ndtr(a: np.typing.ArrayLike) -> np.ndarray:
    """scipy.special.ndtr, the standard normal CDF, of each value of a."""
    a = np.asarray(a, dtype=np.float64)
    return np.array([_ndtr1(v) for v in a.ravel().tolist()], dtype=np.float64).reshape(a.shape)


# ---------------------------------------------------------------------------
# Models: each stage's log-likelihood, score and information
# ---------------------------------------------------------------------------

# A stage's model(X, counts) returns the three functions _newton takes, none of which keeps state between
# calls: loglik(theta) gives (ll, p), the log-likelihood and the fitted probabilities at theta, from one
# linear predictor; score(p) and information(p) give the gradient and the observed information at the
# point p belongs to. theta is the stage's coefficient blocks (one per equation) laid end to end.
# counts[i, c] is the number of observations of class c with design row X[i], so each row's terms are
# weighted by its counts (frequency weights); with one-hot counts, one row per observation, every weight
# is exactly 1.0 and the functions give the per-observation model's values bit for bit.


def _binary(X: np.ndarray, counts: np.ndarray):
    """The Bernoulli model of design X: p = expit(eta), eta = X @ beta; counts holds (reads, engagements) per row."""
    s = counts[:, 1]  # successes per row
    n = counts.sum(axis=1)  # trials per row

    def loglik(beta: np.ndarray) -> tuple[float, np.ndarray]:
        """sum(s eta - n log(1 + e^eta)), with a numerically stable log(1 + e^eta)."""
        eta = X @ beta
        terms = s * eta
        terms -= n * np.logaddexp(0.0, eta)
        return float(np.sum(terms)), _expit(eta)

    def score(p: np.ndarray) -> np.ndarray:
        """X'(s - n p)."""
        return X.T @ (s - n * p)

    def information(p: np.ndarray) -> np.ndarray:
        """X' diag(n p (1 - p)) X."""
        w = n * p * (1.0 - p)
        return X.T @ (w[:, None] * X)

    return loglik, score, information


def multinomial_probs(X: np.ndarray, coef: np.ndarray) -> np.ndarray:
    return _softmax(_logits(X, coef))


def _multinomial(X: np.ndarray, counts: np.ndarray):
    """The baseline-category logit of design X, class 0 the reference, whose linear predictor is fixed at zero.

    theta is the coefficients of shape (n_eq, k), flattened; class c >= 1 has eta_c = X @ theta[c-1].
    counts[i, c] observations of row i fall in class c; n_i is their sum.

    The log-likelihood is summed one of two ways, which round differently. With one observation a row
    (a per-row fit) each row's term is summed, as the per-row model always has, so per-row fits keep
    their bits. A fit on patterns sums counts * eta and n * lse apart. Newton may halve its last step,
    or not, on a one-ulp difference between two log-likelihoods, and so stop up to that step apart. Of
    the benchmark's twenty recorded allocation fits (perfbench/recorded.json), a per-pattern sum of row
    terms stops 1.7e-8 (paper seed 7) and 9.0e-8 (paper seed 10) relative from two of them; the two
    sums apart keep all twenty within 1e-8.
    """
    k = X.shape[1]
    n = counts.sum(axis=1)
    one_each = bool(np.all(n == 1.0))

    def loglik(theta: np.ndarray) -> tuple[float, np.ndarray]:
        """sum_i sum_c counts_ic eta_ic - sum_i n_i log sum_c e^eta_ic."""
        full = _logits(X, theta.reshape(-1, k))
        lse = _logsumexp(full)
        if one_each:
            ll = float(np.sum((counts * full).sum(axis=1) - lse))
        else:
            ll = float(np.sum(counts * full) - np.sum(n * lse))
        return ll, _softmax(full)

    def score(p: np.ndarray) -> np.ndarray:
        """Flattened over equations: [X'(counts_c - n p_c)] for c = 1..n_eq."""
        return np.concatenate([X.T @ (counts[:, c] - n * p[:, c]) for c in range(1, p.shape[1])])

    def information(p: np.ndarray) -> np.ndarray:
        """Block (c, d): X' diag(n p_c (1[c = d] - p_d)) X."""
        n_eq = p.shape[1] - 1
        out = np.zeros((n_eq * k, n_eq * k))
        for c in range(1, n_eq + 1):
            for d in range(1, n_eq + 1):
                w = n * p[:, c] * ((1.0 if c == d else 0.0) - p[:, d])
                out[(c - 1) * k : c * k, (d - 1) * k : d * k] = X.T @ (w[:, None] * X)
        return out

    return loglik, score, information


def _logits(X: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """(n, n_eq + 1) linear predictors, the reference class's zero first."""
    return np.concatenate([np.zeros((X.shape[0], 1)), X @ coef.T], axis=1)


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Each row's class probabilities; shifts ``logits`` by the row maximum in place."""
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Fitted model container
# ---------------------------------------------------------------------------

SEPARATION_BOUND = 15.0


@dataclass
class FitStatistics:
    chi2: float
    df: int
    mcfadden: float
    aic: float


def fit_statistics(ll_full: float, ll_null: float, k: int, k_null: int) -> FitStatistics:
    """Likelihood-ratio chi-square, its df, McFadden R-square, and AIC."""
    return FitStatistics(
        chi2=2.0 * (ll_full - ll_null),
        df=k - k_null,
        mcfadden=1.0 - ll_full / ll_null,
        aic=2.0 * k - 2.0 * ll_full,
    )


@dataclass
class FittedModel:
    """Estimates, uncertainty, and fit diagnostics for one fitted stage."""

    stage: Literal["threshold", "allocation"]
    terms: list[str]
    coef: np.ndarray                    # (n_eq, k)
    se: np.ndarray                      # (n_eq, k)
    cov: np.ndarray                     # (n_eq * k, n_eq * k)
    ll_full: float
    ll_null: float
    n_obs: int
    n_iter: int
    converged: bool
    diagnostics: list[str] = field(default_factory=list)
    composite_max: float = 0.0

    def __post_init__(self) -> None:
        if self.stage not in _EQUATIONS:
            raise ValueError(f"stage must be one of {list(_EQUATIONS)}, got {self.stage!r}")
        n_eq, k = len(self.equations), len(self.terms)
        if not self.coef.shape == self.se.shape == (n_eq, k) or self.cov.shape != (n_eq * k, n_eq * k):
            raise ValueError(f"coef, se and cov of shapes {self.coef.shape}, {self.se.shape} and {self.cov.shape} do not fit {k} terms")

    @property
    def equations(self) -> list[str]:
        """["engage"] or ["repost_vs_like", "quote_vs_like"], as the stage fixes them."""
        return list(_EQUATIONS[self.stage])

    @property
    def k_null(self) -> int:
        """The null model's parameter count: one intercept per equation."""
        return len(_EQUATIONS[self.stage])

    @property
    def k(self) -> int:
        return int(self.coef.size)

    @property
    def metrics(self) -> FitStatistics:
        return fit_statistics(self.ll_full, self.ll_null, self.k, self.k_null)

    def odds_ratios(self) -> np.ndarray:
        return np.exp(self.coef)

    def p_values(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.abs(self.coef / self.se)
        return 2.0 * _ndtr(-z)

    def coefficient_rows(self) -> list[dict]:
        """Flat per-coefficient rows: term, B, SE, OR, p, converged."""
        ors = self.odds_ratios()
        ps = self.p_values()
        rows = []
        for e, eq in enumerate(self.equations):
            prefix = "" if self.stage == "threshold" else f"{eq}:"
            for j, term in enumerate(self.terms):
                rows.append(
                    {
                        "term": f"{prefix}{term}",
                        "B": float(self.coef[e, j]),
                        "SE": float(self.se[e, j]),
                        "OR": float(ors[e, j]),
                        "p": float(ps[e, j]),
                        "converged": self.converged,
                    }
                )
        return rows

    def to_json_obj(self) -> dict:
        return {
            "stage": self.stage,
            "terms": self.terms,
            "equations": self.equations,
            "coef": self.coef.tolist(),
            "se": self.se.tolist(),
            "cov": self.cov.tolist(),
            "ll_full": self.ll_full,
            "ll_null": self.ll_null,
            "k": self.k,
            "k_null": self.k_null,
            "n_obs": self.n_obs,
            "n_iter": self.n_iter,
            "converged": self.converged,
            "diagnostics": self.diagnostics,
            "composite_max": self.composite_max,
            "metrics": asdict(self.metrics),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "FittedModel":
        """The model to_json_obj wrote; ValueError unless its equations and k_null are those its stage fixes."""
        model = cls(
            stage=obj["stage"],
            terms=list(obj["terms"]),
            coef=np.asarray(obj["coef"], dtype=np.float64),
            se=np.asarray(obj["se"], dtype=np.float64),
            cov=np.asarray(obj["cov"], dtype=np.float64),
            ll_full=float(obj["ll_full"]),
            ll_null=float(obj["ll_null"]),
            n_obs=int(obj["n_obs"]),
            n_iter=int(obj["n_iter"]),
            converged=bool(obj["converged"]),
            diagnostics=list(obj["diagnostics"]),
            composite_max=float(obj["composite_max"]),
        )
        stored = (list(obj["equations"]), int(obj["k_null"]))
        if stored != (model.equations, model.k_null):
            raise ValueError(f"stage and equations must be one of {_EQUATIONS}, k_null their count; got {model.stage!r} and {stored}")
        return model


def save_model(model: FittedModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model.to_json_obj(), indent=1), encoding="utf-8")


def load_model(path: str | Path) -> FittedModel:
    """The model `save_model` wrote to ``path``; FormatError naming the file if it is not one."""
    text = read_text(path, "model")
    try:
        return FittedModel.from_json_obj(json.loads(text))
    except KeyError as e:
        raise FormatError(f"{path}: missing key {e}") from None
    except (ValueError, TypeError) as e:
        raise FormatError(f"{path}: {e}") from None


COEFFICIENT_COLUMNS = ("term", "B", "SE", "OR", "p", "converged")


def write_coefficient_csv(model: FittedModel, path: str | Path) -> None:
    write_table(path, COEFFICIENT_COLUMNS, model.coefficient_rows())


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


# Newton stops once an iteration gains less than _TOL in log-likelihood, or
# after _MAX_ITER iterations; a singular information matrix gets _RIDGE added
# to its diagonal, both in a Newton step and for the covariance.
_MAX_ITER = 100
_TOL = 1e-8
_RIDGE = 1e-6


def _newton(loglik, score, information, theta0: np.ndarray) -> tuple[np.ndarray, float, np.ndarray, int, bool, list[str]]:
    """Newton ascent with step halving and a ridge retry on singular systems.

    For the canonical-link models here the Newton iteration coincides with
    iteratively reweighted least squares. Each iteration takes the score and
    information from the probabilities of the point it stands on, and calls
    loglik at each trial point until it accepts one. Convergence is declared
    when the log-likelihood improves by less than `_TOL` between iterations.
    Returns the estimate with its log-likelihood and probabilities, the
    iteration count, whether it converged, and the diagnostics.
    """
    theta = theta0.copy()
    diagnostics: list[str] = []
    ll, p = loglik(theta)
    converged = False
    it = 0
    for it in range(1, _MAX_ITER + 1):
        g = score(p)
        info = information(p)
        try:
            step = np.linalg.solve(info, g)
            if not np.all(np.isfinite(step)):
                raise np.linalg.LinAlgError("non-finite step")
        except np.linalg.LinAlgError:
            diagnostics.append(f"iteration {it}: singular information matrix, ridge {_RIDGE:g} added")
            step = np.linalg.solve(info + _RIDGE * np.eye(info.shape[0]), g)
        new_theta = theta + step
        new_ll, p = loglik(new_theta)
        halvings = 0
        while (not math.isfinite(new_ll) or new_ll < ll) and halvings < 30:
            step *= 0.5
            new_theta = theta + step
            new_ll, p = loglik(new_theta)
            halvings += 1
        theta = new_theta
        if abs(new_ll - ll) < _TOL:
            ll = new_ll
            converged = True
            break
        ll = new_ll
    if not converged:
        diagnostics.append(f"no convergence within {_MAX_ITER} iterations")
    return theta, ll, p, it, converged, diagnostics


def _fit(
    stage: Literal["threshold", "allocation"], X: np.ndarray, counts: np.ndarray, terms: Sequence[str] | None, model,
    n_obs: int,
) -> FittedModel:
    """Fit one stage and its intercept-only null model by _newton.

    `model(X, counts)` returns the stage's loglik, score and information on
    design X (see _binary and _multinomial). The null model is the same on a
    column of ones. ``n_obs`` is the number of observations the counts hold.
    Quasi-separation (any |B| > SEPARATION_BOUND) is reported through
    `converged=False` plus a diagnostic; estimates are still returned.
    """
    n_eq = len(_EQUATIONS[stage])
    n, k = X.shape

    def newton(X: np.ndarray):
        """_newton's result on design X, then the information at its estimate."""
        loglik, score, information = model(X, counts)
        theta, ll, p, it, converged, diags = _newton(loglik, score, information, np.zeros(n_eq * X.shape[1]))
        return theta, ll, it, converged, diags, information(p)

    theta, ll_full, it, converged, diags, info = newton(X)
    ll_null = newton(np.ones((n, 1)))[1]
    if np.any(np.abs(theta) > SEPARATION_BOUND):
        worst = int(np.argmax(np.abs(theta))) % k
        diags.append(f"possible separation: |B| > {SEPARATION_BOUND:g} at column {worst}")
        converged = False
    cov = _safe_inverse(info, diags)
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return FittedModel(
        stage=stage,
        terms=_term_names(terms, k),
        coef=theta.reshape(n_eq, k),
        se=se.reshape(n_eq, k),
        cov=cov,
        ll_full=ll_full,
        ll_null=ll_null,
        n_obs=n_obs,
        n_iter=it,
        converged=converged,
        diagnostics=diags,
        composite_max=_composite_max(X),
    )


def _term_names(terms: Sequence[str] | None, k: int) -> list[str]:
    return list(terms) if terms is not None else [f"x{j}" for j in range(k)]


def _composite_max(X: np.ndarray) -> float:
    return float(X[:, 1].max()) if X.shape[1] > 1 else 0.0


def _checked(X: np.ndarray, counts: np.ndarray, stage: Literal["threshold", "allocation"]) -> tuple[np.ndarray, np.ndarray, int]:
    """X and the (rows, classes) counts as float64, and the number of observations.

    ValueError unless X is 2-D, the counts are whole numbers >= 0, one row
    per row of X and one column per outcome class of ``stage``, and they
    count at least as many observations as X has columns.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"need at least as many rows as columns, got {X.shape}")
    shape = (X.shape[0], _CLASS_OF[stage].shape[1])
    counts = np.asarray(counts, dtype=np.float64)
    if counts.shape != shape or not np.all(np.isfinite(counts) & (counts >= 0) & (counts == np.floor(counts))):
        raise ValueError(f"outcome counts must be whole numbers >= 0 of shape {shape}, got shape {counts.shape}")
    n_obs = int(counts.sum())
    if n_obs < X.shape[1]:
        raise ValueError(f"need at least as many rows as columns, got {(n_obs, X.shape[1])}")
    return X, counts, n_obs


def fit_binary_logistic(X: np.ndarray, counts: np.ndarray, *, terms: Sequence[str] | None = None) -> FittedModel:
    """Maximum-likelihood binary logistic fit via IRLS (see _fit).

    counts is the (n, 2) matrix of (read, engage) counts per row of X, as
    build_design_matrix gives.
    """
    X, counts, n_obs = _checked(X, counts, "threshold")
    return _fit("threshold", X, counts, terms, _binary, n_obs)


def fit_multinomial_logistic(X: np.ndarray, counts: np.ndarray, *, terms: Sequence[str] | None = None) -> FittedModel:
    """Maximum-likelihood multinomial logistic fit via joint Newton-Raphson (see _fit).

    counts is the (n, 3) matrix of (like, repost, quote) counts per row of
    X, as build_design_matrix gives. Like (column 0) is the reference
    outcome; repost and quote each get their own coefficient block. An
    outcome class absent from the data makes its equation inestimable: the
    model is returned as NaN with a diagnostic.
    """
    X, counts, n_obs = _checked(X, counts, "allocation")
    missing = np.flatnonzero(counts.sum(axis=0) == 0).tolist()
    if missing:
        nan = np.full((len(ALLOCATION_EQUATIONS), X.shape[1]), np.nan)
        return FittedModel(
            stage="allocation",
            terms=_term_names(terms, X.shape[1]),
            coef=nan,
            se=nan.copy(),
            cov=np.full((nan.size, nan.size), np.nan),
            ll_full=math.nan,
            ll_null=math.nan,
            n_obs=n_obs,
            n_iter=0,
            converged=False,
            diagnostics=[f"outcome class {c} has no observations; equation inestimable" for c in missing],
            composite_max=_composite_max(X),
        )
    return _fit("allocation", X, counts, terms, _multinomial, n_obs)


def _safe_inverse(info: np.ndarray, diags: list[str]) -> np.ndarray:
    try:
        return np.linalg.inv(info)
    except np.linalg.LinAlgError:
        diags.append(f"information matrix singular at optimum; covariance from ridge {_RIDGE:g}")
        return np.linalg.inv(info + _RIDGE * np.eye(info.shape[0]))


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


@dataclass(slots=True, frozen=True)
class Scenario:
    composite: float
    load: LoadLevel
    norm: NormRegime


# The multinomial_probs column each stage reports per scenario, with the row's action key (none for p(engage)).
_REPORTED = {
    "threshold": ((1, {}),),
    "allocation": tuple((a, {"action": action.value}) for a, action in enumerate(ALLOCATION_ACTIONS)),
}


def predicted_probabilities(model: FittedModel, scenarios: Sequence[Scenario]) -> list[dict]:
    """Predicted probabilities with 95% delta-method bands per scenario, both stages in one array pass.

    A binary logit is the two-class baseline-category logit, so P = multinomial_probs serves both: a
    threshold model yields one row per scenario, p(engage) = P[:, 1]; an allocation model one row per
    scenario and action, in ALLOCATION_ACTIONS order. The band is p +- 1.96 sd clipped to [0, 1], its
    variance d'Vd with dP_a/deta_c = P_a (1[a=c] - P_c). A model with a non-finite coefficient (an
    inestimable equation) gives NaN rows through the same arithmetic. The rows of a model that did not
    converge (a separated fit's bands come from a near-singular covariance) or has a non-finite
    coefficient are flagged.
    """
    n_eq, k = model.coef.shape
    X = design_matrix(
        [sc.composite for sc in scenarios], [LOADS.index(sc.load) for sc in scenarios], [NORMS.index(sc.norm) for sc in scenarios]
    )[:, :k]
    P = multinomial_probs(X, model.coef)
    D = P[:, :, None] * (np.eye(n_eq + 1)[:, 1:] - P[:, None, 1:])  # (scenarios, classes, equations)
    # x'V_cd x per scenario and equation pair: memory O(scenarios x terms), whatever the grid size
    Q = np.einsum("sj,cjdl,sl->scd", X, model.cov.reshape(n_eq, k, n_eq, k), X)
    half = 1.96 * np.sqrt(np.maximum(np.einsum("sac,scd,sad->sa", D, Q, D), 0.0))
    p, lo, hi = P.tolist(), np.maximum(P - half, 0.0).tolist(), np.minimum(P + half, 1.0).tolist()
    flagged = not model.converged or not np.all(np.isfinite(model.coef))
    return [
        {"composite": sc.composite, "load": sc.load.value, "norm": sc.norm.value, **label,
         "p": p[s][a], "lo": lo[s][a], "hi": hi[s][a], "flagged": flagged}
        for s, sc in enumerate(scenarios)
        for a, label in _REPORTED[model.stage]
    ]


def read_scenario_csv(path: str | Path) -> list[Scenario]:
    """Scenario grid CSV, read by core.read_table: the columns composite, load and norm and no other, then
    one row per scenario: a finite composite >= 0, a LoadLevel value and a NormRegime value.

    A bad value raises FormatError as "<path>, line <n>: ...", as a bad header or row does.
    """
    rows = read_table(path, "scenario", ("composite", "load", "norm"))
    if len(rows[0][1]) != 3:
        raise FormatError(f"{path}, line 1: header must name no column but composite, load and norm, got {list(rows[0][1])}")
    scenarios = []
    for number, values in rows:
        try:
            composite = float(values["composite"])
            if not 0.0 <= composite < math.inf:
                raise ValueError(f"composite must be a finite number >= 0, got {values['composite']!r}")
            scenarios.append(Scenario(composite, LoadLevel(values["load"]), NormRegime(values["norm"])))
        except ValueError as e:
            raise FormatError(f"{path}, line {number}: {e}") from None
    return scenarios


# ---------------------------------------------------------------------------
# Reference coefficient tables (previously reported estimates, used as
# consistency fixtures: exp(B) must reproduce the reported odds ratio and
# the Wald z must land in the reported p band).
# ---------------------------------------------------------------------------

REFERENCE_THRESHOLD_TABLE: list[tuple[str, float, float, float, str]] = [
    ("intercept", -2.787, 0.041, 0.062, "<.001"),
    ("popularity", 4.624, 0.115, 101.871, "<.001"),
    ("low_load", -0.438, 0.056, 0.645, "<.001"),
    ("medium_load", -0.758, 0.051, 0.469, "<.001"),
    ("high_load", -1.297, 0.049, 0.273, "<.001"),
    ("like_norm", 0.291, 0.057, 1.338, "<.001"),
    ("repost_norm", -0.465, 0.064, 0.628, "<.001"),
    ("popularity:low_load", -0.066, 0.146, 0.936, ".653"),
    ("popularity:medium_load", -1.156, 0.123, 0.315, "<.001"),
    ("popularity:high_load", -0.808, 0.122, 0.446, "<.001"),
    ("popularity:like_norm", -0.159, 0.143, 0.853, ".268"),
    ("popularity:repost_norm", 0.525, 0.178, 1.691, ".003"),
    ("low_load:like_norm", -0.011, 0.077, 0.989, ".887"),
    ("medium_load:like_norm", -0.013, 0.070, 0.987, ".850"),
    ("high_load:like_norm", 0.472, 0.066, 1.603, "<.001"),
    ("low_load:repost_norm", -0.182, 0.090, 0.834, ".044"),
    ("medium_load:repost_norm", -0.425, 0.084, 0.654, "<.001"),
    ("high_load:repost_norm", -0.298, 0.080, 0.742, "<.001"),
    ("popularity:low_load:like_norm", -0.279, 0.180, 0.757, ".121"),
    ("popularity:medium_load:like_norm", -0.126, 0.154, 0.882, ".412"),
    ("popularity:high_load:like_norm", -0.711, 0.151, 0.491, "<.001"),
    ("popularity:low_load:repost_norm", 2.639, 0.286, 13.995, "<.001"),
    ("popularity:medium_load:repost_norm", 3.326, 0.243, 27.815, "<.001"),
    ("popularity:high_load:repost_norm", 3.649, 0.226, 38.427, "<.001"),
]

REFERENCE_ALLOCATION_TABLE: dict[str, list[tuple[str, float, float, float, str]]] = {
    "quote_vs_like": [
        ("intercept", -0.180, 0.081, 0.835, ".027"),
        ("popularity", -0.935, 0.098, 0.392, "<.001"),
        ("low_load", -0.418, 0.112, 0.658, "<.001"),
        ("medium_load", -1.522, 0.122, 0.218, "<.001"),
        ("high_load", -1.683, 0.116, 0.186, "<.001"),
        ("like_norm", -1.687, 0.141, 0.185, "<.001"),
        ("repost_norm", -0.542, 0.177, 0.582, ".002"),
        ("popularity:low_load", 0.467, 0.124, 1.596, "<.001"),
        ("popularity:medium_load", 0.731, 0.128, 2.076, "<.001"),
        ("popularity:high_load", 0.982, 0.120, 2.671, "<.001"),
        ("popularity:like_norm", 0.204, 0.154, 1.226, ".185"),
        ("popularity:repost_norm", 0.477, 0.192, 1.611, ".013"),
        ("low_load:like_norm", -0.308, 0.174, 0.735, ".076"),
        ("medium_load:like_norm", -0.237, 0.161, 0.789, ".140"),
        ("high_load:like_norm", 0.217, 0.144, 1.242, ".131"),
        ("low_load:repost_norm", 0.570, 0.214, 1.768, ".008"),
        ("medium_load:repost_norm", 1.179, 0.206, 3.252, "<.001"),
        ("high_load:repost_norm", 1.368, 0.191, 3.929, "<.001"),
        ("popularity:low_load:like_norm", 0.512, 0.218, 1.668, ".019"),
        ("popularity:medium_load:like_norm", 0.582, 0.188, 1.790, ".002"),
        ("popularity:high_load:like_norm", 0.191, 0.184, 1.211, ".300"),
        ("popularity:low_load:repost_norm", -0.858, 0.299, 0.424, ".004"),
        ("popularity:medium_load:repost_norm", -1.246, 0.270, 0.288, "<.001"),
        ("popularity:high_load:repost_norm", -1.515, 0.246, 0.220, "<.001"),
    ],
    "repost_vs_like": [
        ("intercept", -4.108, 0.380, 0.016, "<.001"),
        ("popularity", 0.141, 0.338, 1.152, ".676"),
        ("low_load", -0.084, 0.498, 0.919, ".865"),
        ("medium_load", 0.262, 0.537, 1.300, ".626"),
        ("high_load", -0.595, 0.528, 0.552, ".259"),
        ("like_norm", -1.773, 0.697, 0.170, ".011"),
        ("repost_norm", 4.490, 0.395, 89.100, "<.001"),
        ("popularity:low_load", 0.515, 0.566, 1.674, ".363"),
        ("popularity:medium_load", -1.714, 0.576, 0.180, ".003"),
        ("popularity:high_load", -2.765, 0.585, 0.063, "<.001"),
        ("popularity:like_norm", -0.135, 0.821, 0.874, ".870"),
        ("popularity:repost_norm", -1.827, 0.483, 0.161, "<.001"),
        ("low_load:like_norm", 1.232, 0.787, 3.428, ".118"),
        ("medium_load:like_norm", 0.837, 0.772, 2.309, ".278"),
        ("high_load:like_norm", 0.521, 0.751, 1.684, ".489"),
        ("low_load:repost_norm", 0.828, 0.532, 2.290, ".120"),
        ("medium_load:repost_norm", 0.598, 0.530, 1.818, ".259"),
        ("high_load:repost_norm", 1.451, 0.522, 4.267, ".006"),
        ("popularity:low_load:like_norm", -0.677, 0.990, 0.508, ".493"),
        ("popularity:medium_load:like_norm", 1.358, 0.975, 3.890, ".165"),
        ("popularity:high_load:like_norm", 2.007, 0.952, 7.440, ".035"),
        ("popularity:low_load:repost_norm", 0.697, 0.571, 2.008, ".222"),
        ("popularity:medium_load:repost_norm", 3.167, 0.580, 23.728, "<.001"),
        ("popularity:high_load:repost_norm", 4.334, 0.574, 76.282, "<.001"),
    ],
}

# Reported fit statistics for the threshold stage, used by the identity
# back-solve check: AIC and the LR chi-square/McFadden pair must all follow
# from these two log-likelihoods and parameter counts.
REFERENCE_THRESHOLD_FIT = {
    "ll_full": -72_042.0,
    "ll_null": -142_968.27,
    "k": 24,
    "k_null": 1,
    "aic": 144_132.0,
    "chi2": 141_852.5,
    "chi2_df": 23,
    "mcfadden": 0.496,
}


@dataclass
class ConsistencyReport:
    rows: list[dict]

    @property
    def failures(self) -> list[dict]:
        return [r for r in self.rows if not r["ok"]]

    @property
    def ok(self) -> bool:
        return not self.failures


def table_consistency_check(
    *,
    rel_tol: float = 0.01,
    abs_tol: float = 5e-4,
) -> ConsistencyReport:
    """Verify exp(B) against every reported odds ratio in both reference tables.

    Reported ORs carry three decimals, so the check passes when exp(B) is
    within 1% of the reported value or within half of the last printed digit
    (0.0005), whichever is looser; without the absolute floor a tiny OR such
    as 0.016 could never match its own source. Rows reported as p < .001
    must also reproduce that band from B/SE.
    """
    rows = []

    def check(table: str, eq: str | None, term: str, b: float, se: float, or_: float, p: str) -> None:
        exp_b = math.exp(b)
        or_ok = abs(exp_b - or_) <= max(rel_tol * or_, abs_tol)
        wald_ok = True
        if p == "<.001":
            wald_ok = 2.0 * _ndtr1(-abs(b / se)) < 0.001
        rows.append(
            {
                "table": table,
                "equation": eq,
                "term": term,
                "B": b,
                "exp_B": exp_b,
                "reported_OR": or_,
                "or_ok": or_ok,
                "wald_ok": wald_ok,
                "ok": or_ok and wald_ok,
            }
        )

    for term, b, se, or_, p in REFERENCE_THRESHOLD_TABLE:
        check("threshold", None, term, b, se, or_, p)
    for eq, table in REFERENCE_ALLOCATION_TABLE.items():
        for term, b, se, or_, p in table:
            check("allocation", eq, term, b, se, or_, p)
    return ConsistencyReport(rows)
