import json
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import expit

from socialsim.core import LOADS, NORMS, ActionKind, FormatError, LoadLevel, NormRegime
from socialsim.stats import _BLOCK_ROWS, _binary, _fit, _multinomial
from socialsim.stats import (
    ALLOCATION_EQUATIONS,
    DESIGN_COLUMNS,
    N_COLUMNS,
    DesignInputs,
    FittedModel,
    Scenario,
    binary_loglik,
    binary_score,
    build_design_matrix,
    design_matrix,
    fit_binary_logistic,
    fit_multinomial_logistic,
    fit_statistics,
    load_model,
    multinomial_loglik,
    multinomial_probs,
    multinomial_score,
    predicted_probabilities,
    read_scenario_csv,
    save_model,
    table_consistency_check,
    write_coefficient_csv,
    REFERENCE_THRESHOLD_TABLE,
    REFERENCE_THRESHOLD_FIT,
)

from reference_log import ExposureRecord, log_from_records
from reference_design import reference_design_matrix
from reference_fit import reference_binary, reference_multinomial
from reference_prediction import reference_predicted_probabilities


def _record(action=ActionKind.READ, likes=0, reshares=0, load=LoadLevel.LOWEST, norm=NormRegime.NO_NORM, t=0, agent=0, post=0):
    return ExposureRecord(run=1, load=load, norm=norm, t=t, agent=agent, post=post, likes=likes, reshares=reshares, action=action)


def _rows(records):
    """The design inputs of a list of ExposureRecords."""
    return DesignInputs.of(log_from_records(records).exposures)


def _design(composites, load, norm):
    """Design rows for composites in one load x norm cell."""
    return design_matrix(np.atleast_1d(composites), LOADS.index(load), NORMS.index(norm))


class TestDesignMatrix:
    def test_24_columns_23_predictors(self):
        X, names, y = build_design_matrix(_rows([_record(), _record(action=ActionKind.LIKE)]), "threshold")
        assert X.shape[1] == N_COLUMNS == 24
        assert names[0] == "intercept"
        assert len(names) - 1 == 23

    def test_reference_cell_row_is_intercept_only(self):
        X, _, _ = build_design_matrix(_rows([_record(likes=0, reshares=0)]), "threshold")
        expected = np.zeros(24)
        expected[0] = 1.0
        assert np.array_equal(X[0], expected)

    def test_three_way_product_column(self):
        r = _record(likes=3, reshares=2, load=LoadLevel.HIGH, norm=NormRegime.REPOST_DOMINANT)
        X, names, _ = build_design_matrix(_rows([r]), "threshold")
        c = math.log1p(5)
        j = names.index("popularity:high_load:repost_norm")
        assert X[0, j] == pytest.approx(c)
        assert X[0, names.index("high_load")] == 1.0
        assert X[0, names.index("repost_norm")] == 1.0
        assert X[0, names.index("high_load:repost_norm")] == 1.0
        assert X[0, names.index("popularity:high_load")] == pytest.approx(c)
        assert X[0, names.index("popularity:repost_norm")] == pytest.approx(c)
        # columns tied to the other conditions stay zero
        assert X[0, names.index("low_load")] == 0.0
        assert X[0, names.index("popularity:like_norm")] == 0.0

    @pytest.mark.parametrize("load", list(LoadLevel), ids=lambda lv: lv.value)
    @pytest.mark.parametrize("norm", list(NormRegime), ids=lambda nr: nr.value)
    def test_each_column_is_the_product_its_name_spells(self, load, norm):
        # Reordering or mislabelling a design term fails here, in every load x norm cell:
        # the order is the reported table's, and each column holds what its name spells.
        records = [_record(likes=likes, reshares=1, load=load, norm=norm) for likes in (0, 7)]
        X, names, _ = build_design_matrix(_rows(records), "threshold")
        assert names == DESIGN_COLUMNS == [term for term, *_ in REFERENCE_THRESHOLD_TABLE]
        norm_name = {NormRegime.LIKE_DOMINANT: "like_norm", NormRegime.REPOST_DOMINANT: "repost_norm"}.get(norm)
        for i, r in enumerate(records):
            assert np.allclose(X[i], _design(math.log1p(r.likes + r.reshares), load, norm)[0])
            factors = {"popularity": math.log1p(r.likes + r.reshares), f"{load.value}_load": 1.0, norm_name: 1.0}
            for j, name in enumerate(names):
                want = 1.0 if name == "intercept" else math.prod(factors.get(part, 0.0) for part in name.split(":"))
                assert X[i, j] == want, name

    def test_threshold_outcome_coding(self):
        records = [_record(), _record(action=ActionKind.LIKE), _record(action=ActionKind.QUOTE)]
        _, _, y = build_design_matrix(_rows(records), "threshold")
        assert y.tolist() == [0, 1, 1]

    def test_allocation_filters_reads(self):
        records = [_record()] * 5 + [
            _record(action=ActionKind.LIKE),
            _record(action=ActionKind.REPOST),
            _record(action=ActionKind.QUOTE),
        ]
        X, _, y = build_design_matrix(_rows(records), "allocation")
        assert X.shape[0] == 3
        assert y.tolist() == [0, 1, 2]

    def test_column_count_invariant_to_order(self):
        rng = np.random.default_rng(4)
        records = [
            _record(
                action=ActionKind.LIKE if rng.random() < 0.5 else ActionKind.READ,
                likes=int(rng.integers(0, 9)),
                load=list(LoadLevel)[rng.integers(0, 4)],
                norm=list(NormRegime)[rng.integers(0, 3)],
            )
            for _ in range(100)
        ]
        X1, n1, _ = build_design_matrix(_rows(records), "threshold")
        shuffled = list(records)
        rng.shuffle(shuffled)
        X2, n2, _ = build_design_matrix(_rows(shuffled), "threshold")
        assert n1 == n2 and X1.shape == X2.shape

    @pytest.mark.parametrize("n", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 5])
    def test_blocked_build_is_bit_equal_to_the_column_loop(self, n):
        # Block edges fall at every multiple of _BLOCK_ROWS; each case checks array codes and every scalar code pair.
        rng = np.random.default_rng(n)
        composite = np.log1p(rng.integers(0, 10**6, n).astype(np.float64)) * rng.choice([1.0, 1e-300, 1e300], n)
        cases = [(rng.integers(0, len(LOADS), n), rng.integers(0, len(NORMS), n))]
        cases += [(load, norm) for load in range(len(LOADS)) for norm in range(len(NORMS))]
        for load_codes, norm_codes in cases:
            X = design_matrix(composite, load_codes, norm_codes)
            assert X.shape == (n, N_COLUMNS) and X.dtype == np.float64
            assert X.flags.c_contiguous  # the fits' BLAS calls see the layout they always did
            assert np.array_equal(X.view(np.int64), reference_design_matrix(composite, load_codes, norm_codes).view(np.int64))

    def test_main_effect_only_roster_has_7_columns(self):
        mains = [n for n in DESIGN_COLUMNS if ":" not in n]
        assert len(mains) == 7  # dropping interactions: 24 -> 7


def _simulate_binary(n, beta, seed=0):
    rng = np.random.default_rng(seed)
    comps = rng.exponential(1.0, size=n)
    loads = rng.integers(0, 4, size=n)
    norms = rng.integers(0, 3, size=n)
    X = design_matrix(comps, loads, norms)
    p = expit(X @ beta)
    y = (rng.random(n) < p).astype(float)
    return X, y


class TestBinaryLogistic:
    def test_intercept_only_closed_form(self):
        X = np.ones((400, 1))
        y = np.array([1.0] * 100 + [0.0] * 300)
        m = fit_binary_logistic(X, y, terms=["intercept"])
        assert m.coef[0, 0] == pytest.approx(math.log(1 / 3), abs=1e-6)
        assert m.converged

    def test_null_data_slopes_near_zero(self):
        rng = np.random.default_rng(12)
        X = np.column_stack([np.ones(2000), rng.normal(size=(2000, 3))])
        y = np.array([0.0, 1.0] * 1000)  # balanced, independent of X
        m = fit_binary_logistic(X, y)
        for j in range(1, 4):
            assert abs(m.coef[0, j]) <= 3 * m.se[0, j]

    def test_generate_and_recover(self):
        beta = np.zeros(24)
        beta[[0, 1, 2, 4, 6, 9]] = [-1.5, 0.6, -0.4, -0.8, 0.3, 0.2]
        X, y = _simulate_binary(200_000, beta, seed=5)
        m = fit_binary_logistic(X, y, terms=list(DESIGN_COLUMNS))
        for j in range(24):
            assert abs(m.coef[0, j] - beta[j]) <= max(0.1, 3 * m.se[0, j]), DESIGN_COLUMNS[j]

    def test_permutation_invariance(self):
        X, y = _simulate_binary(3000, np.concatenate([[-1.0, 0.5], np.zeros(22)]), seed=8)
        m1 = fit_binary_logistic(X, y)
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(y))
        m2 = fit_binary_logistic(X[perm], y[perm])
        assert np.allclose(m1.coef, m2.coef, atol=1e-9)

    def test_agrees_with_generic_gradient_maximizer(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(500), rng.normal(size=(500, 4))])
        beta_true = np.array([-0.5, 0.8, -0.3, 0.0, 0.4])
        y = (rng.random(500) < expit(X @ beta_true)).astype(float)
        mine = fit_binary_logistic(X, y)
        res = minimize(
            lambda b: -binary_loglik(X, y, b),
            np.zeros(5),
            jac=lambda b: -binary_score(X, y, b),
            method="CG",
            options={"gtol": 1e-10, "maxiter": 5000},
        )
        assert abs(mine.ll_full - (-res.fun)) < 1e-6

    def test_separation_flagged_but_returned(self):
        x = np.linspace(-2, 2, 60)
        X = np.column_stack([np.ones(60), x])
        y = (x > 0).astype(float)  # perfectly separated
        m = fit_binary_logistic(X, y)
        assert not m.converged
        assert any("separation" in d for d in m.diagnostics)
        assert np.all(np.isfinite(m.coef))

    def test_rejects_non_binary_outcome(self):
        with pytest.raises(ValueError):
            fit_binary_logistic(np.ones((5, 1)), np.array([0, 1, 2, 0, 1]))


class TestMultinomialLogistic:
    def test_intercept_only_closed_form(self):
        X = np.ones((100, 1))
        y = np.array([0] * 60 + [1] * 30 + [2] * 10)
        m = fit_multinomial_logistic(X, y, terms=["intercept"])
        assert m.coef[0, 0] == pytest.approx(math.log(30 / 60), abs=1e-6)
        assert m.coef[1, 0] == pytest.approx(math.log(10 / 60), abs=1e-6)
        assert m.equations == ["repost_vs_like", "quote_vs_like"]

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(1)
        X = np.column_stack([np.ones(50), rng.normal(size=(50, 2))])
        coef = rng.normal(size=(2, 3))
        p = multinomial_probs(X, coef)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-10)

    def test_generate_and_recover(self):
        rng = np.random.default_rng(9)
        n = 60_000
        comps = rng.exponential(1.0, size=n)
        X = np.column_stack([np.ones(n), comps])
        B = np.array([[-0.4, 0.25], [-0.9, -0.3]])
        p = multinomial_probs(X, B)
        u = rng.random(n)
        y = (u > p[:, 0]).astype(int) + (u > p[:, 0] + p[:, 1]).astype(int)
        m = fit_multinomial_logistic(X, y, terms=["intercept", "popularity"])
        for e in range(2):
            for j in range(2):
                assert abs(m.coef[e, j] - B[e, j]) <= max(0.1, 3 * m.se[e, j])

    def test_separation_flagged_naming_the_column(self):
        x = np.linspace(-2, 2, 90)
        X = np.column_stack([np.ones(90), x])
        y = np.repeat([0, 1, 2], 30)  # perfectly ordered by x
        m = fit_multinomial_logistic(X, y)
        assert not m.converged
        assert any(d.startswith("possible separation") and d.endswith("at column 1") for d in m.diagnostics)
        assert np.all(np.isfinite(m.coef))

    def test_empty_category_flagged_inestimable(self):
        X = np.ones((50, 1))
        y = np.array([0] * 30 + [1] * 20)  # no quotes
        m = fit_multinomial_logistic(X, y)
        assert not m.converged
        assert any("inestimable" in d for d in m.diagnostics)
        assert np.isnan(m.coef).all()

    def test_agrees_with_generic_gradient_maximizer(self):
        rng = np.random.default_rng(31)
        X = np.column_stack([np.ones(500), rng.normal(size=(500, 2))])
        B_true = np.array([[-0.3, 0.5, 0.0], [-0.8, -0.2, 0.3]])
        p = multinomial_probs(X, B_true)
        u = rng.random(500)
        y = (u > p[:, 0]).astype(int) + (u > p[:, 0] + p[:, 1]).astype(int)
        mine = fit_multinomial_logistic(X, y)
        res = minimize(
            lambda t: -multinomial_loglik(X, y, t.reshape(2, 3)),
            np.zeros(6),
            jac=lambda t: -multinomial_score(X, y, t.reshape(2, 3)),
            method="CG",
            options={"gtol": 1e-10, "maxiter": 5000},
        )
        assert abs(mine.ll_full - (-res.fun)) < 1e-6


@pytest.mark.parametrize("shape", [(4,), (4, 5)], ids=["1d", "4x5"])
@pytest.mark.parametrize("fit", [fit_binary_logistic, fit_multinomial_logistic], ids=["binary", "multinomial"])
def test_fits_reject_a_design_with_fewer_rows_than_columns(fit, shape):
    X = np.random.default_rng(3).normal(size=shape)
    y = np.array([0, 1, 2, 1]) if fit is fit_multinomial_logistic else np.array([0, 1, 1, 0])
    with pytest.raises(ValueError, match=re.escape(f"need at least as many rows as columns, got {shape}")):
        fit(X, y)


class TestGradients:
    def test_binary_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        X = np.column_stack([np.ones(300), rng.normal(size=(300, 4))])
        y = (rng.random(300) < 0.35).astype(float)
        h = 1e-6
        for _ in range(10):
            beta = rng.normal(scale=0.8, size=5)
            g = binary_score(X, y, beta)
            fd = np.array(
                [
                    (binary_loglik(X, y, beta + h * e) - binary_loglik(X, y, beta - h * e)) / (2 * h)
                    for e in np.eye(5)
                ]
            )
            assert np.max(np.abs(g - fd) / np.maximum(1.0, np.abs(g))) < 1e-5

    def test_multinomial_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(43)
        X = np.column_stack([np.ones(300), rng.normal(size=(300, 3))])
        y = rng.integers(0, 3, size=300)
        h = 1e-6
        for _ in range(10):
            theta = rng.normal(scale=0.6, size=8)
            g = multinomial_score(X, y, theta.reshape(2, 4))
            fd = np.array(
                [
                    (
                        multinomial_loglik(X, y, (theta + h * e).reshape(2, 4))
                        - multinomial_loglik(X, y, (theta - h * e).reshape(2, 4))
                    )
                    / (2 * h)
                    for e in np.eye(8)
                ]
            )
            assert np.max(np.abs(g - fd) / np.maximum(1.0, np.abs(g))) < 1e-5


class TestFitsEqualReferenceModels:
    """Both stages through stats._fit give the fit of tests/reference_fit.py's textbook models bit for bit."""

    @staticmethod
    def _designs(seed: int, count: int):
        """(rng, kind, X, eta) for random small designs, eta the two linear predictors y is drawn from.

        A design is plain, has its last column duplicated (a singular information matrix), or has its
        last column scaled by 10 to 1,000.
        """
        rng = np.random.default_rng(seed)
        for i in range(count):
            n, k = int(rng.integers(15, 80)), int(rng.integers(2, 5))
            X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
            eta = X @ rng.normal(scale=0.8, size=(k, 2))
            kind = ("plain", "duplicated", "scaled")[i % 3]
            if kind == "duplicated":
                X = np.column_stack([X, X[:, -1]])
            elif kind == "scaled":
                X[:, -1] *= 10.0 ** rng.uniform(1.0, 3.0)
            yield rng, kind, X, eta

    @pytest.mark.parametrize("stage", ["threshold", "allocation"])
    def test_fits_equal_bit_for_bit(self, stage):
        reference = reference_binary if stage == "threshold" else reference_multinomial
        ridged = halved = 0
        for rng, kind, X, eta in self._designs(seed=22 if stage == "threshold" else 23, count=150):
            if stage == "threshold":
                y = (rng.random(len(X)) < expit(eta[:, 0])).astype(np.float64)
                got = fit_binary_logistic(X, y)
            else:
                # a draw from the softmax of (0, eta) by the Gumbel-max rule; every class present
                y = np.argmax(np.column_stack([np.zeros(len(X)), eta]) - np.log(-np.log(rng.random((len(X), 3)))), axis=1)
                y[:3] = [0, 1, 2]
                got = fit_multinomial_logistic(X, y)

            calls = []  # loglik calls of each model _fit builds: the full fit's first, then the null fit's

            def counted(X, y):
                loglik, score, information = reference(X, y)
                calls.append(0)

                def counting(theta):
                    calls[-1] += 1
                    return loglik(theta)

                return counting, score, information

            want = _fit(stage, X, y, None, counted)
            for name in ("coef", "se", "cov"):
                assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), (kind, name)
            assert (got.ll_full, got.ll_null, got.n_iter, got.converged, got.diagnostics) == (
                want.ll_full, want.ll_null, want.n_iter, want.converged, want.diagnostics
            ), kind
            ridged += any("singular information matrix" in d for d in want.diagnostics)
            halved += calls[0] > want.n_iter + 1  # a call beyond the first point's and one per iteration halved a step
        assert ridged and halved, (ridged, halved)  # the ridge retry and step halving each ran

    @pytest.mark.parametrize("stage, seed", [("threshold", 0), ("allocation", 72)])
    def test_newton_holds_one_point_probabilities_at_a_time(self, stage, seed):
        # Each loglik call must find every earlier point's p released: a second n-vector alive
        # beside the design's weighted copy raises the binary fit's peak memory.
        rng = np.random.default_rng(seed)  # a design on which the full fit halves steps
        X = np.column_stack([np.ones(20), np.round(rng.normal(size=20) * 4) / 4])
        y = rng.integers(0, 2 if stage == "threshold" else 3, size=20)
        points = []  # per model _fit builds, a weak reference to each p its loglik returned

        def tracked(X, y):
            loglik, score, information = (_binary if stage == "threshold" else _multinomial)(X, y)
            points.append([])

            def one_point(theta):
                assert all(point() is None for model_points in points for point in model_points)
                ll, p = loglik(theta)
                points[-1].append(weakref.ref(p))
                return ll, p

            return one_point, score, information

        model = _fit(stage, X, y.astype(np.float64) if stage == "threshold" else y, None, tracked)
        assert len(points) == 2 and len(points[0]) > model.n_iter + 1


class TestFitStatistics:
    def test_reported_identities_back_solve(self):
        fs = fit_statistics(
            REFERENCE_THRESHOLD_FIT["ll_full"],
            REFERENCE_THRESHOLD_FIT["ll_null"],
            REFERENCE_THRESHOLD_FIT["k"],
            REFERENCE_THRESHOLD_FIT["k_null"],
        )
        assert fs.aic == REFERENCE_THRESHOLD_FIT["aic"]
        assert fs.chi2 == pytest.approx(REFERENCE_THRESHOLD_FIT["chi2"], abs=0.1)
        assert fs.mcfadden == pytest.approx(REFERENCE_THRESHOLD_FIT["mcfadden"], abs=0.001)
        assert fs.df == REFERENCE_THRESHOLD_FIT["chi2_df"]

    def test_null_equals_full(self):
        fs = fit_statistics(-100.0, -100.0, 5, 1)
        assert fs.chi2 == 0.0 and fs.mcfadden == 0.0

    def test_single_parameter_aic(self):
        fs = fit_statistics(-42.0, -50.0, 1, 1)
        assert fs.aic == 2 - 2 * (-42.0)

    def test_mcfadden_in_unit_interval_when_nested(self):
        X, y = _simulate_binary(2000, np.concatenate([[-1.0, 0.7], np.zeros(22)]), seed=2)
        m = fit_binary_logistic(X, y)
        assert 0.0 <= m.metrics.mcfadden < 1.0


class TestOddsRatiosAndPValues:
    def test_or_is_exact_exp(self):
        X, y = _simulate_binary(2000, np.concatenate([[-1.0, 0.7], np.zeros(22)]), seed=3)
        m = fit_binary_logistic(X, y)
        assert np.array_equal(m.odds_ratios(), np.exp(m.coef))

    def test_zero_coefficient_gives_unit_or(self):
        assert math.exp(0.0) == 1.0

    def test_published_rows_reproduce(self):
        assert math.exp(4.624) == pytest.approx(101.871, rel=0.005)
        assert math.exp(-1.297) == pytest.approx(0.273, rel=0.005)
        assert math.exp(4.490) == pytest.approx(89.100, rel=0.005)
        assert math.exp(0.291) == pytest.approx(1.338, rel=0.005)
        assert math.exp(4.334) == pytest.approx(76.282, rel=0.005)

    def test_wald_p_two_tailed(self):
        m = FittedModel(
            stage="threshold",
            terms=["intercept"],
            equations=["engage"],
            coef=np.array([[1.96]]),
            se=np.array([[1.0]]),
            cov=np.eye(1),
            ll_full=-1.0,
            ll_null=-2.0,
            k_null=1,
            n_obs=10,
            n_iter=1,
            converged=True,
        )
        assert m.p_values()[0, 0] == pytest.approx(0.05, abs=1e-3)

    def test_p_values_equal_normal_survival_function(self):
        from scipy.stats import norm

        rng = np.random.default_rng(8)
        coef = np.concatenate([rng.standard_cauchy(5000), [0.0, 1.0, -1.0, np.inf, np.nan, 0.0]])
        se = np.concatenate([rng.uniform(0.01, 3.0, 5000), [1.0, 0.0, 0.0, 1.0, 1.0, 0.0]])
        m = FittedModel(
            stage="threshold", terms=[f"x{j}" for j in range(coef.size)], equations=["engage"],
            coef=coef.reshape(1, -1), se=se.reshape(1, -1), cov=np.eye(coef.size),
            ll_full=-1.0, ll_null=-2.0, k_null=1, n_obs=10, n_iter=1, converged=True,
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            want = 2.0 * norm.sf(np.abs(coef / se))
        assert np.array_equal(m.p_values()[0], want, equal_nan=True)

    def test_cli_import_skips_scipy_stats(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import socialsim

        src = str(Path(socialsim.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import sys, socialsim.cli; sys.exit(2 if 'scipy.stats' in sys.modules else 0)"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestTableConsistency:
    def test_all_rows_pass(self):
        report = table_consistency_check()
        assert len(report.rows) == 72
        assert report.ok, report.failures

    def test_failing_rows_are_named(self):
        # corrupt tolerance so genuine mismatches surface with their term names
        report = table_consistency_check(rel_tol=1e-6, abs_tol=1e-9)
        assert report.failures
        assert all("term" in r for r in report.failures)

    def test_sub_percent_agreement_for_large_ors(self):
        row = next(r for r in REFERENCE_THRESHOLD_TABLE if r[0] == "popularity")
        assert abs(math.exp(row[1]) - row[3]) / row[3] < 0.005


class TestPrediction:
    def _published_threshold_model(self):
        coef = np.array([[b for _, b, _, _, _ in REFERENCE_THRESHOLD_TABLE]])
        se = np.array([[s for _, _, s, _, _ in REFERENCE_THRESHOLD_TABLE]])
        return FittedModel(
            stage="threshold",
            terms=[t for t, *_ in REFERENCE_THRESHOLD_TABLE],
            equations=["engage"],
            coef=coef,
            se=se,
            cov=np.diag(se.ravel() ** 2),
            ll_full=REFERENCE_THRESHOLD_FIT["ll_full"],
            ll_null=REFERENCE_THRESHOLD_FIT["ll_null"],
            k_null=1,
            n_obs=100,
            n_iter=1,
            converged=True,
            composite_max=4.0,
        )

    def test_reference_cell_probability(self):
        model = self._published_threshold_model()
        rows = predicted_probabilities(model, [Scenario(0.0, LoadLevel.LOWEST, NormRegime.NO_NORM)])
        assert rows[0]["p"] == pytest.approx(0.0581, abs=1e-4)

    def test_all_zero_coefficients_give_half(self):
        model = self._published_threshold_model()
        model.coef = np.zeros_like(model.coef)
        rows = predicted_probabilities(
            model,
            [Scenario(c, load, norm) for c in (0.0, 1.0, 3.0) for load in LoadLevel for norm in NormRegime],
        )
        assert all(r["p"] == 0.5 for r in rows)

    def test_bands_shrink_with_sample_size(self):
        beta = np.concatenate([[-1.0, 0.6], np.zeros(22)])
        widths = {}
        for n in (1000, 100_000):
            X, y = _simulate_binary(n, beta, seed=13)
            m = fit_binary_logistic(X, y, terms=list(DESIGN_COLUMNS))
            rows = predicted_probabilities(m, [Scenario(1.0, LoadLevel.LOWEST, NormRegime.NO_NORM)])
            widths[n] = rows[0]["hi"] - rows[0]["lo"]
        assert widths[100_000] < widths[1000]

    def test_allocation_probabilities_sum_to_one(self):
        rng = np.random.default_rng(17)
        X = _design(rng.exponential(1, 400), LoadLevel.LOW, NormRegime.NO_NORM)
        y = rng.integers(0, 3, size=400)
        m = fit_multinomial_logistic(X, y, terms=list(DESIGN_COLUMNS))
        rows = predicted_probabilities(m, [Scenario(0.7, LoadLevel.LOW, NormRegime.NO_NORM)])
        assert sum(r["p"] for r in rows) == pytest.approx(1.0, abs=1e-10)

    def test_inestimable_equation_flagged(self):
        X = _design(np.linspace(0, 2, 100), LoadLevel.LOW, NormRegime.NO_NORM)
        y = np.array([0, 1] * 50)  # no quotes
        m = fit_multinomial_logistic(X, y, terms=list(DESIGN_COLUMNS))
        rows = predicted_probabilities(m, [Scenario(1.0, LoadLevel.LOW, NormRegime.NO_NORM)])
        assert all(r["flagged"] for r in rows)

    @pytest.mark.parametrize("stage", ["threshold", "allocation"])
    def test_separated_fit_flagged(self, stage):
        # Regression: a separated fit (finite B, converged=False) drew unflagged bands.
        x = np.linspace(0, 2, 90)
        X = _design(x, LoadLevel.LOW, NormRegime.NO_NORM)[:, :2]
        if stage == "threshold":
            m = fit_binary_logistic(X, (x > 1).astype(float))
        else:
            m = fit_multinomial_logistic(X, np.repeat([0, 1, 2], 30))
        assert not m.converged and np.all(np.isfinite(m.coef))
        rows = predicted_probabilities(m, [Scenario(c, LoadLevel.LOW, NormRegime.NO_NORM) for c in (0.5, 1.5)])
        assert rows and all(r["flagged"] for r in rows)
        m.converged = True
        assert not any(r["flagged"] for r in predicted_probabilities(m, [Scenario(0.5, LoadLevel.LOW, NormRegime.NO_NORM)]))


def _assert_rows_match(rows, want, tol):
    """Same keys in the same order, equal labels and flags, p/lo/hi within ``tol`` and NaN where NaN."""
    assert len(rows) == len(want)
    for got, ref in zip(rows, want):
        assert list(got) == list(ref)
        for key, value in ref.items():
            if key in ("p", "lo", "hi"):
                assert math.isnan(got[key]) == math.isnan(value), (key, got, ref)
                assert math.isnan(value) or abs(got[key] - value) <= tol, (key, got, ref)
            else:
                assert got[key] == value and type(got[key]) is type(value), (key, got, ref)


class TestPredictionMatchesPerScenarioOracle:
    """The one array pass equals the per-stage, per-scenario loop it replaced (tests/reference_prediction.py)."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, N_COLUMNS - 1),
        stage=st.sampled_from(["threshold", "allocation"]),
        absent_class=st.sampled_from([None, 0, 1, 2]),
    )
    def test_small_fitted_models(self, seed, k, stage, absent_class):
        rng = np.random.default_rng(seed)
        n = 400
        X = design_matrix(rng.exponential(1.0, n), rng.integers(0, 4, n), rng.integers(0, 3, n))[:, :k]
        terms = DESIGN_COLUMNS[:k]
        if stage == "threshold":
            model = fit_binary_logistic(X, (rng.random(n) < expit(X @ rng.normal(0, 0.3, k))).astype(float), terms=terms)
        else:
            classes = [c for c in range(3) if c != absent_class]
            model = fit_multinomial_logistic(X, rng.choice(classes, n), terms=terms)
            assert np.all(np.isnan(model.coef)) == (absent_class is not None)
        # A separated fit's covariance is rounding noise (condition numbers near 1e11), in either path.
        assume(model.converged or absent_class is not None)
        scenarios = [
            Scenario(float(c), LOADS[i], NORMS[j])
            for c, i, j in zip(rng.exponential(1.5, 30), rng.integers(0, 4, 30), rng.integers(0, 3, 30))
        ] + [Scenario(0.0, LoadLevel.LOWEST, NormRegime.NO_NORM)]
        _assert_rows_match(predicted_probabilities(model, scenarios), reference_predicted_probabilities(model, scenarios), 1e-12)

    def test_full_design_on_the_default_grid(self):
        X, y = _simulate_binary(4000, np.concatenate([[-1.0, 0.6], np.zeros(22)]), seed=5)
        rng = np.random.default_rng(6)
        models = [
            fit_binary_logistic(X, y, terms=list(DESIGN_COLUMNS)),
            fit_multinomial_logistic(X, rng.integers(0, 3, X.shape[0]), terms=list(DESIGN_COLUMNS)),
        ]
        grid = [Scenario(float(c), load, norm) for load in LOADS for norm in NORMS for c in np.linspace(0.0, 3.0, 41)]
        for model in models:
            _assert_rows_match(predicted_probabilities(model, grid), reference_predicted_probabilities(model, grid), 1e-12)

    def test_no_scenarios_no_rows(self):
        X, y = _simulate_binary(500, np.concatenate([[-1.0, 0.6], np.zeros(22)]), seed=8)
        assert predicted_probabilities(fit_binary_logistic(X, y, terms=list(DESIGN_COLUMNS)), []) == []


class TestModelIO:
    def test_json_round_trip(self, tmp_path):
        X, y = _simulate_binary(2000, np.concatenate([[-1.0, 0.5], np.zeros(22)]), seed=21)
        m = fit_binary_logistic(X, y, terms=list(DESIGN_COLUMNS))
        path = tmp_path / "model.json"
        save_model(m, path)
        loaded = load_model(path)
        assert np.allclose(loaded.coef, m.coef)
        assert np.allclose(loaded.cov, m.cov)
        assert loaded.metrics.aic == pytest.approx(m.metrics.aic)

    def test_coefficient_csv_layout(self, tmp_path):
        X, y = _simulate_binary(2000, np.concatenate([[-1.0, 0.5], np.zeros(22)]), seed=22)
        m = fit_binary_logistic(X, y, terms=list(DESIGN_COLUMNS))
        path = tmp_path / "coef.csv"
        write_coefficient_csv(m, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "term,B,SE,OR,p,converged"
        assert len(lines) == 1 + 24

    def test_shapes_must_fit_stage_and_terms(self):
        X, y = _simulate_binary(500, np.concatenate([[-1.0, 0.5], np.zeros(22)]), seed=23)
        m = fit_binary_logistic(X, y, terms=list(DESIGN_COLUMNS))
        with pytest.raises(ValueError, match="do not fit 23 terms"):
            FittedModel.from_json_obj({**m.to_json_obj(), "terms": DESIGN_COLUMNS[:23]})
        with pytest.raises(ValueError, match="stage and equations"):
            FittedModel.from_json_obj({**m.to_json_obj(), "equations": list(ALLOCATION_EQUATIONS)})

    def test_load_model_names_the_file(self, tmp_path):
        X, y = _simulate_binary(500, np.concatenate([[-1.0, 0.5], np.zeros(22)]), seed=24)
        obj = fit_binary_logistic(X, y, terms=list(DESIGN_COLUMNS)).to_json_obj()
        path = tmp_path / "model.json"
        path.write_text(json.dumps({k: v for k, v in obj.items() if k != "composite_max"}))
        with pytest.raises(FormatError, match=re.escape(f"{path}: missing key 'composite_max'")):
            load_model(path)
        with pytest.raises(FormatError, match=re.escape(f"model file not found: {tmp_path / 'void.json'}")):
            load_model(tmp_path / "void.json")

    def test_scenario_csv_any_column_order(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("norm,composite,load\n\nlike_dominant, 2.5 ,low\n")
        assert read_scenario_csv(path) == [Scenario(2.5, LoadLevel.LOW, NormRegime.LIKE_DOMINANT)]

    def test_scenario_csv_bad_row_names_file_and_line(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("composite,load,norm\n0.5,high,no_norm\n\nnan,high,no_norm\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}, line 4: composite must be a finite number >= 0, got 'nan'")):
            read_scenario_csv(path)

    def test_scenario_csv_round_trip(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("composite,load,norm\n0.5,high,repost_dominant\n1.0,lowest,no_norm\n")
        scenarios = read_scenario_csv(path)
        assert scenarios[0] == Scenario(0.5, LoadLevel.HIGH, NormRegime.REPOST_DOMINANT)
        assert len(scenarios) == 2
