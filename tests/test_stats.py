import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
import scipy
import scipy.special
from scipy.optimize import minimize
from scipy.special import expit

from socialsim.core import (
    ACTIONS,
    DESIGN_COLUMNS,
    EXPOSURE_KEYS,
    LOADS,
    N_COLUMNS,
    NORMS,
    ActionKind,
    ExposureColumns,
    FormatError,
    LoadLevel,
    NormRegime,
    design_matrix,
)
from socialsim.stats import _binary, _expit, _fit, _logsumexp, _multinomial, _ndtr
from socialsim.stats import (
    ALLOCATION_EQUATIONS,
    FittedModel,
    PatternCounts,
    Scenario,
    build_design_matrix,
    fit_binary_logistic,
    fit_multinomial_logistic,
    fit_statistics,
    load_model,
    multinomial_probs,
    predicted_probabilities,
    read_scenario_csv,
    save_model,
    table_consistency_check,
    write_coefficient_csv,
    REFERENCE_THRESHOLD_TABLE,
    REFERENCE_THRESHOLD_FIT,
)

from reference_log import ExposureRecord, log_from_records
from reference_design import expand, exposure_rows, reference_design_matrix, reference_patterns
from reference_fit import one_hot, reference_binary, reference_multinomial
from reference_prediction import reference_predicted_probabilities


def _record(action=ActionKind.READ, likes=0, reshares=0, load=LoadLevel.LOWEST, norm=NormRegime.NO_NORM, t=0, agent=0, post=0):
    return ExposureRecord(run=1, load=load, norm=norm, t=t, agent=agent, post=post, likes=likes, reshares=reshares, action=action)


def _table(records):
    """The pattern table of a list of ExposureRecords."""
    return PatternCounts.of(log_from_records(records).exposures)


def _design(composites, load, norm):
    """Design rows for composites in one load x norm cell."""
    return design_matrix(np.atleast_1d(composites), LOADS.index(load), NORMS.index(norm))


@st.composite
def random_exposures(draw, max_rows: int = 300) -> ExposureColumns:
    """Random exposure rows: load, norm and action codes, and likes + reshares drawn below 1, 5 or 500
    (few patterns, each of many rows) or below 2**63 - 1 (about one pattern per row)."""
    n = draw(st.integers(0, max_rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    high = draw(st.sampled_from([1, 5, 500, 2**63 - 1]))
    return exposure_rows(
        rng.integers(0, len(LOADS), n), rng.integers(0, len(NORMS), n), rng.integers(0, len(ACTIONS), n),
        rng.integers(0, high, n, dtype=np.int64),
    )


def _part(rows: ExposureColumns, lo: int, hi: int) -> ExposureColumns:
    """Exposure rows lo to hi."""
    return ExposureColumns(**{k: getattr(rows, k)[lo:hi] for k in EXPOSURE_KEYS})


class TestDesignMatrix:
    def test_24_columns_23_predictors(self):
        X, names, y = build_design_matrix(_table([_record(), _record(action=ActionKind.LIKE)]), "threshold")
        assert X.shape[1] == N_COLUMNS == 24
        assert names[0] == "intercept"
        assert len(names) - 1 == 23

    def test_reference_cell_row_is_intercept_only(self):
        X, _, _ = build_design_matrix(_table([_record(likes=0, reshares=0)]), "threshold")
        expected = np.zeros(24)
        expected[0] = 1.0
        assert np.array_equal(X[0], expected)

    def test_three_way_product_column(self):
        r = _record(likes=3, reshares=2, load=LoadLevel.HIGH, norm=NormRegime.REPOST_DOMINANT)
        X, names, _ = build_design_matrix(_table([r]), "threshold")
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
        X, names, _ = build_design_matrix(_table(records), "threshold")
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
        _, y = expand(*build_design_matrix(_table(records), "threshold")[::2])
        assert y.tolist() == [0, 1, 1]

    def test_allocation_filters_reads(self):
        records = [_record()] * 5 + [
            _record(action=ActionKind.LIKE),
            _record(action=ActionKind.REPOST),
            _record(action=ActionKind.QUOTE),
        ]
        X, y = expand(*build_design_matrix(_table(records), "allocation")[::2])
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
        X1, n1, _ = build_design_matrix(_table(records), "threshold")
        shuffled = list(records)
        rng.shuffle(shuffled)
        X2, n2, _ = build_design_matrix(_table(shuffled), "threshold")
        assert n1 == n2 and X1.shape == X2.shape

    @pytest.mark.parametrize("n", [0, 1, 16383, 16384, 16385, 3 * 16384 + 5])
    def test_blocked_build_is_bit_equal_to_the_column_loop(self, n):
        # Each case checks array codes and every scalar code pair.
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

    @settings(max_examples=150, deadline=None)
    @given(rows=random_exposures(), stage=st.sampled_from(["threshold", "allocation"]), data=st.data())
    def test_pattern_rows_expand_to_the_reference_design_and_counts(self, rows, stage, data):
        # The rows are cut into parts at random, each part folded into its table apart, and the tables
        # merged. X[inverse] is the per-row design bit for bit, and counts is a hand count per pattern and
        # class. Totals up to 2**63 - 2 check that the pattern code does not overflow.
        cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=4)))
        table = PatternCounts.fold(PatternCounts.of(_part(rows, lo, hi)) for lo, hi in zip([0, *cuts], [*cuts, len(rows)]))
        kept, inverse, y = reference_patterns(rows, stage)
        if not y.size:
            with pytest.raises(ValueError, match="no usable records"):
                build_design_matrix(table, stage)
            return
        X, names, counts = build_design_matrix(table, stage)
        composite = [math.log1p(v) for v in rows.likes[kept].tolist()]
        want = reference_design_matrix(composite, rows.load[kept], rows.norm[kept])
        assert names == DESIGN_COLUMNS and X.flags.c_contiguous
        assert X.shape == (inverse.max() + 1, N_COLUMNS)
        assert np.array_equal(X[inverse].view(np.int64), want.view(np.int64))
        hand = np.zeros((X.shape[0], 2 if stage == "threshold" else 3))
        np.add.at(hand, (inverse, y), 1.0)
        assert counts.dtype == np.float64 and counts.shape == hand.shape and np.array_equal(counts, hand)

    def test_fold_and_build_memory_is_bounded_by_the_rows(self):
        # Regression: the build counted each stage's rows into an array of distinct totals x 12 cells x
        # classes before it kept the patterns present, 36 int64 a row when every row has its own likes +
        # reshares. Measured peaks with every row engaged and its own total: 501 bytes a row here, most of
        # it the (100k, 24) design twice (its column buffer and the C-ordered copy), against 627 bytes a
        # row for that build.
        n = 100_000
        rng = np.random.default_rng(5)
        rows = exposure_rows(rng.integers(0, len(LOADS), n), rng.integers(0, len(NORMS), n), rng.integers(1, len(ACTIONS), n),
                             rng.permutation(n) * 7)
        tracemalloc.start()
        try:
            table = PatternCounts.of(rows)
            designs = [len(build_design_matrix(table, stage)[0]) for stage in ("threshold", "allocation")]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert designs == [n, n]
        assert peak <= 560 * n, peak / n

    def test_rows_of_one_pattern_give_one_design_row(self):
        records = [_record(likes=2, reshares=1, action=action) for action in ActionKind for _ in range(3)]
        X, _, counts = build_design_matrix(_table(records), "threshold")
        assert X.shape == (1, N_COLUMNS) and counts.tolist() == [[3.0, 9.0]]
        X, _, counts = build_design_matrix(_table(records), "allocation")
        assert X.shape == (1, N_COLUMNS) and counts.tolist() == [[3.0, 3.0, 3.0]]


class TestPatternCounts:
    def test_fold_of_no_tables_is_the_empty_table(self):
        # A run with no exposure rows still folds to a table of the table's dtypes, with no pattern.
        for table in (PatternCounts.fold([]), PatternCounts.of(exposure_rows([], [], [], []))):
            assert [a.dtype for a in table] == [np.int64, np.int8, np.int8, np.int64]
            assert [a.shape for a in table] == [(0,), (0,), (0,), (0, len(ACTIONS))]

    @settings(max_examples=60, deadline=None)
    @given(rows=random_exposures(), data=st.data())
    def test_fold_is_free_of_table_order_and_sums_repeated_keys(self, rows, data):
        # Each key once, sorted by (total, load, norm); the same table whatever the order of the parts, and
        # a table folded with itself keeps its keys and doubles its counts.
        cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=4)))
        parts = [PatternCounts.of(_part(rows, lo, hi)) for lo, hi in zip([0, *cuts], [*cuts, len(rows)])]
        table = PatternCounts.fold(parts)
        keys = list(zip(table.total.tolist(), table.load.tolist(), table.norm.tolist()))
        assert keys == sorted(set(keys))
        assert int(table.counts.sum()) == len(rows) and (table.counts.sum(axis=1) > 0).all()
        for got in (PatternCounts.fold(data.draw(st.permutations(parts))), PatternCounts.fold([table])):
            assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(got, table))
        doubled = PatternCounts.fold([table, table])
        assert all(np.array_equal(a, b) for a, b in zip(doubled[:3], table[:3]))
        assert np.array_equal(doubled.counts, 2 * table.counts)


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
        m = fit_binary_logistic(X, one_hot(y, 2), terms=["intercept"])
        assert m.coef[0, 0] == pytest.approx(math.log(1 / 3), abs=1e-6)
        assert m.converged

    def test_null_data_slopes_near_zero(self):
        rng = np.random.default_rng(12)
        X = np.column_stack([np.ones(2000), rng.normal(size=(2000, 3))])
        y = np.array([0.0, 1.0] * 1000)  # balanced, independent of X
        m = fit_binary_logistic(X, one_hot(y, 2))
        for j in range(1, 4):
            assert abs(m.coef[0, j]) <= 3 * m.se[0, j]

    def test_generate_and_recover(self):
        beta = np.zeros(24)
        beta[[0, 1, 2, 4, 6, 9]] = [-1.5, 0.6, -0.4, -0.8, 0.3, 0.2]
        X, y = _simulate_binary(200_000, beta, seed=5)
        m = fit_binary_logistic(X, one_hot(y, 2), terms=list(DESIGN_COLUMNS))
        for j in range(24):
            assert abs(m.coef[0, j] - beta[j]) <= max(0.1, 3 * m.se[0, j]), DESIGN_COLUMNS[j]

    def test_permutation_invariance(self):
        X, y = _simulate_binary(3000, np.concatenate([[-1.0, 0.5], np.zeros(22)]), seed=8)
        m1 = fit_binary_logistic(X, one_hot(y, 2))
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(y))
        m2 = fit_binary_logistic(X[perm], one_hot(y[perm], 2))
        assert np.allclose(m1.coef, m2.coef, atol=1e-9)

    def test_agrees_with_generic_gradient_maximizer(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(500), rng.normal(size=(500, 4))])
        beta_true = np.array([-0.5, 0.8, -0.3, 0.0, 0.4])
        y = (rng.random(500) < expit(X @ beta_true)).astype(float)
        mine = fit_binary_logistic(X, one_hot(y, 2))
        loglik, score, _ = _binary(X, one_hot(y, 2))
        res = minimize(
            lambda b: -loglik(b)[0],
            np.zeros(5),
            jac=lambda b: -score(loglik(b)[1]),
            method="CG",
            options={"gtol": 1e-10, "maxiter": 5000},
        )
        assert abs(mine.ll_full - (-res.fun)) < 1e-6

    def test_separation_flagged_but_returned(self):
        x = np.linspace(-2, 2, 60)
        X = np.column_stack([np.ones(60), x])
        y = (x > 0).astype(float)  # perfectly separated
        m = fit_binary_logistic(X, one_hot(y, 2))
        assert not m.converged
        assert any("separation" in d for d in m.diagnostics)
        assert np.all(np.isfinite(m.coef))

    def test_rejects_non_binary_outcome(self):
        with pytest.raises(ValueError):
            fit_binary_logistic(np.ones((5, 1)), one_hot(np.array([0, 1, 2, 0, 1]), 3))


class TestMultinomialLogistic:
    def test_intercept_only_closed_form(self):
        X = np.ones((100, 1))
        y = np.array([0] * 60 + [1] * 30 + [2] * 10)
        m = fit_multinomial_logistic(X, one_hot(y, 3), terms=["intercept"])
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
        m = fit_multinomial_logistic(X, one_hot(y, 3), terms=["intercept", "popularity"])
        for e in range(2):
            for j in range(2):
                assert abs(m.coef[e, j] - B[e, j]) <= max(0.1, 3 * m.se[e, j])

    def test_separation_flagged_naming_the_column(self):
        x = np.linspace(-2, 2, 90)
        X = np.column_stack([np.ones(90), x])
        y = np.repeat([0, 1, 2], 30)  # perfectly ordered by x
        m = fit_multinomial_logistic(X, one_hot(y, 3))
        assert not m.converged
        assert any(d.startswith("possible separation") and d.endswith("at column 1") for d in m.diagnostics)
        assert np.all(np.isfinite(m.coef))

    def test_empty_category_flagged_inestimable(self):
        X = np.ones((50, 1))
        y = np.array([0] * 30 + [1] * 20)  # no quotes
        m = fit_multinomial_logistic(X, one_hot(y, 3))
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
        mine = fit_multinomial_logistic(X, one_hot(y, 3))
        loglik, score, _ = _multinomial(X, one_hot(y, 3))
        res = minimize(
            lambda t: -loglik(t)[0],
            np.zeros(6),
            jac=lambda t: -score(loglik(t)[1]),
            method="CG",
            options={"gtol": 1e-10, "maxiter": 5000},
        )
        assert abs(mine.ll_full - (-res.fun)) < 1e-6


@pytest.mark.parametrize("shape", [(4,), (4, 5)], ids=["1d", "4x5"])
@pytest.mark.parametrize("fit", [fit_binary_logistic, fit_multinomial_logistic], ids=["binary", "multinomial"])
def test_fits_reject_a_design_with_fewer_rows_than_columns(fit, shape):
    X = np.random.default_rng(3).normal(size=shape)
    counts = one_hot([0, 1, 2, 1], 3) if fit is fit_multinomial_logistic else one_hot([0, 1, 1, 0], 2)
    with pytest.raises(ValueError, match=re.escape(f"need at least as many rows as columns, got {shape}")):
        fit(X, counts)


@pytest.mark.parametrize("fit", [fit_binary_logistic, fit_multinomial_logistic], ids=["binary", "multinomial"])
def test_fits_refuse_one_outcome_code_per_row(fit):
    # The fits take a (rows, classes) count matrix alone; a per-row fit passes one-hot counts.
    classes = 3 if fit is fit_multinomial_logistic else 2
    X = np.random.default_rng(4).normal(size=(6, 2))
    shape = f"of shape (6, {classes}), got shape (6,)"
    with pytest.raises(ValueError, match=re.escape(f"outcome counts must be whole numbers >= 0 {shape}")):
        fit(X, np.array([0, 1, 1, 0, 1, 0]))


# Values every special function is checked at: signed zeros, infinities, nan, the largest and the
# subnormal doubles, and the band where exp overflows (709.78) or its result leaves the subnormals (745.13).
_EDGES = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, np.finfo(float).max, -np.finfo(float).max,
     5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308, 1e-310, -1e-310,
     709.782712893384, np.nextafter(709.782712893384, np.inf), 745.1332191019411, 745.1332191019412, 745.2]
)


def _overflow_band(rng):
    """Values on both sides of 0 whose exp overflows or underflows to a subnormal or to 0."""
    band = np.concatenate([np.linspace(709.78, 745.2, 2001), rng.uniform(709.78, 745.2, 5000)])
    return np.concatenate([band, -band])


def _subnormals(rng):
    tiny = np.ldexp(rng.uniform(0.5, 1.0, 1000), rng.integers(-1074, -1021, 1000))
    return np.concatenate([tiny, -tiny])


# The copy of logsumexp is of scipy's algorithm since 1.15 (the row maximum's ties taken out of the sum,
# then log1p). Older scipy (1.10-1.14: a plain max-shifted sum) rounds differently and is not compared.
_LOGSUMEXP_PROVEN = tuple(int(v) for v in scipy.__version__.split(".")[:2]) >= (1, 15)


class TestSpecialFunctionsEqualScipy:
    """stats' expit, logsumexp and ndtr give scipy.special's bits: compared by np.array_equal, never a tolerance."""

    def test_expit(self):
        rng = np.random.default_rng(11)
        x = np.concatenate(
            [rng.normal(0.0, 1.0, 50_000), rng.normal(0.0, 30.0, 50_000), rng.normal(0.0, 400.0, 20_000),
             _overflow_band(rng), _subnormals(rng), _EDGES]
        )
        assert np.array_equal(_expit(x), expit(x), equal_nan=True)
        assert _expit(x).dtype == np.float64

    def test_expit_keeps_the_shape(self):
        x = np.random.default_rng(12).normal(0.0, 5.0, (40, 3))
        assert np.array_equal(_expit(x), expit(x))

    def test_expit_is_zero_where_exp_overflows(self):
        # math.exp raises there; C's exp, and so scipy, gives inf, and expit 0.0.
        x = np.array([-710.0, -1e308, -np.inf, 2.0])
        assert np.array_equal(_expit(x), expit(x)) and _expit(x)[:3].tolist() == [0.0, 0.0, 0.0]

    def test_ndtr(self):
        rng = np.random.default_rng(13)
        sqrt2 = math.sqrt(2.0)
        # The branch points: |x| / sqrt(2) = 1 (erf or erfc) and 8 (erfc's two fits), each with its neighbours.
        branches = np.array([b * s for b in (sqrt2, 8.0 * sqrt2) for s in (1.0, -1.0)])
        near = np.concatenate([branches, np.nextafter(branches, np.inf), np.nextafter(branches, -np.inf)])
        x = np.concatenate(
            [rng.normal(0.0, 3.0, 30_000), rng.uniform(-45.0, 45.0, 20_000), np.linspace(-50.0, 50.0, 20_001),
             near, rng.uniform(-1.0, 1.0, 2000) * 1e-3 + np.repeat(branches, 500),
             -rng.uniform(38.0, 40.0, 2000), _overflow_band(rng)[::20], _subnormals(rng)[::10], _EDGES]
        )
        assert np.array_equal(_ndtr(x), scipy.special.ndtr(x), equal_nan=True)

    def test_ndtr_underflows_to_zero(self):
        # Below x = -sqrt(2 log(DBL_MAX)), about -37.68, exp(-x^2 / 2) underflows and erfc takes its underflow exit.
        x = np.array([-37.5, -37.68, -37.7, -38.5, -39.0, -1e308, -np.inf])
        got = _ndtr(x)
        assert np.array_equal(got, scipy.special.ndtr(x))
        assert got[0] > 0.0 and got[2:].tolist() == [0.0] * 5

    def test_ndtr_of_a_scalar_and_of_a_matrix(self):
        assert _ndtr(-1.96) == scipy.special.ndtr(-1.96) and _ndtr(-1.96).shape == ()
        x = np.random.default_rng(14).normal(0.0, 4.0, (2, 24))
        assert np.array_equal(_ndtr(x), scipy.special.ndtr(x))

    @pytest.mark.skipif(not _LOGSUMEXP_PROVEN, reason=f"scipy {scipy.__version__}'s logsumexp predates 1.15's algorithm")
    def test_logsumexp(self):
        rng = np.random.default_rng(15)
        # Rows as _logits builds them: the reference class's 0 first, then two linear predictors.
        rows = np.column_stack([np.zeros(30_000), rng.normal(0.0, 4.0, (30_000, 2)) * rng.choice([1.0, 30.0, 400.0], (30_000, 1))])
        wide = rng.normal(0.0, 3.0, (2000, 5))
        wide[:, 1] = wide[:, 0]  # ties with the row maximum where column 0 is the largest
        assert np.array_equal(_logsumexp(rows), scipy.special.logsumexp(rows, axis=1))
        assert np.array_equal(_logsumexp(wide), scipy.special.logsumexp(wide, axis=1))

    @pytest.mark.skipif(not _LOGSUMEXP_PROVEN, reason=f"scipy {scipy.__version__}'s logsumexp predates 1.15's algorithm")
    def test_logsumexp_ties_and_non_finite_rows(self):
        inf, nan = np.inf, np.nan
        ties = [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 2.5, 2.5], [0.0, -3.0, -3.0], [1e-300, 1e-300, 0.0]]
        # What a halved Newton step can give: a predictor that overflowed to +-inf, inf - inf = nan, or
        # predictors so large that the sum of their exps overflows.
        non_finite = [
            [0.0, inf, 1.0], [0.0, inf, inf], [0.0, inf, -inf], [0.0, -inf, -inf], [0.0, nan, 1.0], [0.0, inf, nan],
            [-inf, -inf, -inf], [nan, nan, nan], [0.0, 1e308, 1e308], [0.0, 1e308, -1e308], [0.0, 800.0, 900.0],
            [0.0, 710.0, 710.0], [0.0, -800.0, -900.0], [0.0, -1e308, -1e308], [5e-324, 0.0, -5e-324],
        ]
        a = np.array(ties + non_finite)
        with np.errstate(all="ignore"):
            assert np.array_equal(_logsumexp(a), scipy.special.logsumexp(a, axis=1), equal_nan=True)

    @pytest.mark.skipif(not _LOGSUMEXP_PROVEN, reason=f"scipy {scipy.__version__}'s logsumexp predates 1.15's algorithm")
    def test_logsumexp_across_the_overflow_band(self):
        rng = np.random.default_rng(16)
        band = _overflow_band(rng)
        a = np.column_stack([np.zeros(band.size), band, rng.permutation(band)])
        with np.errstate(all="ignore"):
            assert np.array_equal(_logsumexp(a), scipy.special.logsumexp(a, axis=1), equal_nan=True)


class TestGradients:
    def test_binary_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        X = np.column_stack([np.ones(300), rng.normal(size=(300, 4))])
        y = (rng.random(300) < 0.35).astype(float)
        h = 1e-6
        loglik, score, _ = _binary(X, one_hot(y, 2))
        for _ in range(10):
            beta = rng.normal(scale=0.8, size=5)
            g = score(loglik(beta)[1])
            fd = np.array([(loglik(beta + h * e)[0] - loglik(beta - h * e)[0]) / (2 * h) for e in np.eye(5)])
            assert np.max(np.abs(g - fd) / np.maximum(1.0, np.abs(g))) < 1e-5

    def test_multinomial_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(43)
        X = np.column_stack([np.ones(300), rng.normal(size=(300, 3))])
        y = rng.integers(0, 3, size=300)
        h = 1e-6
        loglik, score, _ = _multinomial(X, one_hot(y, 3))
        for _ in range(10):
            theta = rng.normal(scale=0.6, size=8)  # the two equations' coefficients, laid end to end
            g = score(loglik(theta)[1])
            fd = np.array([(loglik(theta + h * e)[0] - loglik(theta - h * e)[0]) / (2 * h) for e in np.eye(8)])
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
                got = fit_binary_logistic(X, one_hot(y, 2))
            else:
                # a draw from the softmax of (0, eta) by the Gumbel-max rule; every class present
                y = np.argmax(np.column_stack([np.zeros(len(X)), eta]) - np.log(-np.log(rng.random((len(X), 3)))), axis=1)
                y[:3] = [0, 1, 2]
                got = fit_multinomial_logistic(X, one_hot(y, 3))

            calls = []  # loglik calls of each model _fit builds: the full fit's first, then the null fit's

            def counted(X, y):
                loglik, score, information = reference(X, y)
                calls.append(0)

                def counting(theta):
                    calls[-1] += 1
                    return loglik(theta)

                return counting, score, information

            want = _fit(stage, X, y, None, counted, len(X))
            for name in ("coef", "se", "cov"):
                assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), (kind, name)
            assert (got.ll_full, got.ll_null, got.n_iter, got.converged, got.diagnostics) == (
                want.ll_full, want.ll_null, want.n_iter, want.converged, want.diagnostics
            ), kind
            ridged += any("singular information matrix" in d for d in want.diagnostics)
            halved += calls[0] > want.n_iter + 1  # a call beyond the first point's and one per iteration halved a step
        assert ridged and halved, (ridged, halved)  # the ridge retry and step halving each ran


class TestPatternFitEqualsPerRowFit:
    """A fit on build_design_matrix's patterns and counts is the fit on its rows, one design row each."""

    @staticmethod
    def _log(seed: int, n: int, high: int) -> ExposureColumns:
        """n rows spread over all 12 cells with every outcome class in each; likes + reshares below ``high``."""
        rng = np.random.default_rng(seed)
        return exposure_rows(
            rng.integers(0, len(LOADS), n), rng.integers(0, len(NORMS), n), rng.choice(len(ACTIONS), n, p=[0.6, 0.2, 0.1, 0.1]),
            rng.integers(0, high, n, dtype=np.int64),
        )

    # Newton stops once an iteration gains less than 1e-8 in log-likelihood, so where it stops depends on
    # rounding: a last step that gains less than the sums' rounding error may be halved in one fit and taken
    # whole in the other. Coefficients are therefore compared in units of their SE; the log-likelihoods,
    # which such a step leaves unchanged to rounding, relative to themselves. Over 800 such fits the
    # largest gaps were 3.1e-7 SE, 6.7e-8 relative in an SE and 4.4e-16 in a log-likelihood.
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3000, 6000), high=st.sampled_from([4, 40, 400]))
    def test_fits_agree(self, seed, n, high):
        rows = self._log(seed, n, high)
        for stage, fit in (("threshold", fit_binary_logistic), ("allocation", fit_multinomial_logistic)):
            X, names, counts = build_design_matrix(PatternCounts.of(rows), stage)
            kept, inverse, y = reference_patterns(rows, stage)
            per_row = fit(X[inverse], one_hot(y, counts.shape[1]), terms=names)
            grouped = fit(X, counts, terms=names)
            assert (grouped.n_obs, grouped.n_iter, grouped.converged, grouped.diagnostics) == (
                per_row.n_obs, per_row.n_iter, per_row.converged, per_row.diagnostics
            ) == (int(kept.sum()), grouped.n_iter, True, [])
            assert np.all(np.abs(grouped.coef - per_row.coef) <= 1e-5 * per_row.se), stage
            assert np.allclose(grouped.se, per_row.se, rtol=1e-5, atol=0.0), stage
            for name in ("ll_full", "ll_null"):
                assert getattr(grouped, name) == pytest.approx(getattr(per_row, name), rel=1e-12, abs=0.0), (stage, name)
            assert grouped.composite_max == per_row.composite_max

    def test_counts_are_validated(self):
        X = np.ones((3, 1))
        for bad in (np.ones((3, 3)), np.full((3, 2), -1.0), np.full((3, 2), 0.5), np.full((3, 2), np.nan), np.full((3, 2), np.inf)):
            with pytest.raises(ValueError, match="outcome counts must be whole numbers >= 0 of shape"):
                fit_binary_logistic(X, bad)

    def test_rows_not_patterns_must_cover_the_columns(self):
        # Two patterns of 50 observations each can be fitted with two columns; a lone observation cannot.
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        model = fit_binary_logistic(X, np.array([[30.0, 20.0], [20.0, 30.0]]))
        assert model.n_obs == 100 and model.converged
        assert model.coef[0, 1] == pytest.approx(2 * math.log(1.5), abs=1e-9)
        with pytest.raises(ValueError, match=re.escape("need at least as many rows as columns, got (1, 2)")):
            fit_binary_logistic(X, np.array([[1.0, 0.0], [0.0, 0.0]]))


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
        m = fit_binary_logistic(X, one_hot(y, 2))
        assert 0.0 <= m.metrics.mcfadden < 1.0


class TestOddsRatiosAndPValues:
    def test_or_is_exact_exp(self):
        X, y = _simulate_binary(2000, np.concatenate([[-1.0, 0.7], np.zeros(22)]), seed=3)
        m = fit_binary_logistic(X, one_hot(y, 2))
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
            coef=np.array([[1.96]]),
            se=np.array([[1.0]]),
            cov=np.eye(1),
            ll_full=-1.0,
            ll_null=-2.0,
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
            stage="threshold", terms=[f"x{j}" for j in range(coef.size)],
            coef=coef.reshape(1, -1), se=se.reshape(1, -1), cov=np.eye(coef.size),
            ll_full=-1.0, ll_null=-2.0, n_obs=10, n_iter=1, converged=True,
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
            coef=coef,
            se=se,
            cov=np.diag(se.ravel() ** 2),
            ll_full=REFERENCE_THRESHOLD_FIT["ll_full"],
            ll_null=REFERENCE_THRESHOLD_FIT["ll_null"],
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
            m = fit_binary_logistic(X, one_hot(y, 2), terms=list(DESIGN_COLUMNS))
            rows = predicted_probabilities(m, [Scenario(1.0, LoadLevel.LOWEST, NormRegime.NO_NORM)])
            widths[n] = rows[0]["hi"] - rows[0]["lo"]
        assert widths[100_000] < widths[1000]

    def test_allocation_probabilities_sum_to_one(self):
        rng = np.random.default_rng(17)
        X = _design(rng.exponential(1, 400), LoadLevel.LOW, NormRegime.NO_NORM)
        y = rng.integers(0, 3, size=400)
        m = fit_multinomial_logistic(X, one_hot(y, 3), terms=list(DESIGN_COLUMNS))
        rows = predicted_probabilities(m, [Scenario(0.7, LoadLevel.LOW, NormRegime.NO_NORM)])
        assert sum(r["p"] for r in rows) == pytest.approx(1.0, abs=1e-10)

    def test_inestimable_equation_flagged(self):
        X = _design(np.linspace(0, 2, 100), LoadLevel.LOW, NormRegime.NO_NORM)
        y = np.array([0, 1] * 50)  # no quotes
        m = fit_multinomial_logistic(X, one_hot(y, 3), terms=list(DESIGN_COLUMNS))
        rows = predicted_probabilities(m, [Scenario(1.0, LoadLevel.LOW, NormRegime.NO_NORM)])
        assert all(r["flagged"] for r in rows)

    @pytest.mark.parametrize("stage", ["threshold", "allocation"])
    def test_separated_fit_flagged(self, stage):
        # Regression: a separated fit (finite B, converged=False) drew unflagged bands.
        x = np.linspace(0, 2, 90)
        X = _design(x, LoadLevel.LOW, NormRegime.NO_NORM)[:, :2]
        if stage == "threshold":
            m = fit_binary_logistic(X, one_hot(x > 1, 2))
        else:
            m = fit_multinomial_logistic(X, one_hot(np.repeat([0, 1, 2], 30), 3))
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
            model = fit_binary_logistic(X, one_hot(rng.random(n) < expit(X @ rng.normal(0, 0.3, k)), 2), terms=terms)
        else:
            classes = [c for c in range(3) if c != absent_class]
            model = fit_multinomial_logistic(X, one_hot(rng.choice(classes, n), 3), terms=terms)
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
            fit_binary_logistic(X, one_hot(y, 2), terms=list(DESIGN_COLUMNS)),
            fit_multinomial_logistic(X, one_hot(rng.integers(0, 3, X.shape[0]), 3), terms=list(DESIGN_COLUMNS)),
        ]
        grid = [Scenario(float(c), load, norm) for load in LOADS for norm in NORMS for c in np.linspace(0.0, 3.0, 41)]
        for model in models:
            _assert_rows_match(predicted_probabilities(model, grid), reference_predicted_probabilities(model, grid), 1e-12)

    def test_no_scenarios_no_rows(self):
        X, y = _simulate_binary(500, np.concatenate([[-1.0, 0.6], np.zeros(22)]), seed=8)
        assert predicted_probabilities(fit_binary_logistic(X, one_hot(y, 2), terms=list(DESIGN_COLUMNS)), []) == []


class TestModelIO:
    def test_json_round_trip(self, tmp_path):
        X, y = _simulate_binary(2000, np.concatenate([[-1.0, 0.5], np.zeros(22)]), seed=21)
        m = fit_binary_logistic(X, one_hot(y, 2), terms=list(DESIGN_COLUMNS))
        path = tmp_path / "model.json"
        save_model(m, path)
        loaded = load_model(path)
        assert np.allclose(loaded.coef, m.coef)
        assert np.allclose(loaded.cov, m.cov)
        assert loaded.metrics.aic == pytest.approx(m.metrics.aic)
        save_model(loaded, tmp_path / "again.json")  # the stage's equations and k_null write back the bytes read
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_coefficient_csv_layout(self, tmp_path):
        X, y = _simulate_binary(2000, np.concatenate([[-1.0, 0.5], np.zeros(22)]), seed=22)
        m = fit_binary_logistic(X, one_hot(y, 2), terms=list(DESIGN_COLUMNS))
        path = tmp_path / "coef.csv"
        write_coefficient_csv(m, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "term,B,SE,OR,p,converged"
        assert len(lines) == 1 + 24

    def test_shapes_must_fit_stage_and_terms(self):
        X, y = _simulate_binary(500, np.concatenate([[-1.0, 0.5], np.zeros(22)]), seed=23)
        m = fit_binary_logistic(X, one_hot(y, 2), terms=list(DESIGN_COLUMNS))
        with pytest.raises(ValueError, match="do not fit 23 terms"):
            FittedModel.from_json_obj({**m.to_json_obj(), "terms": DESIGN_COLUMNS[:23]})
        with pytest.raises(ValueError, match="stage and equations"):
            FittedModel.from_json_obj({**m.to_json_obj(), "equations": list(ALLOCATION_EQUATIONS)})

    def test_load_model_names_the_file(self, tmp_path):
        X, y = _simulate_binary(500, np.concatenate([[-1.0, 0.5], np.zeros(22)]), seed=24)
        obj = fit_binary_logistic(X, one_hot(y, 2), terms=list(DESIGN_COLUMNS)).to_json_obj()
        path = tmp_path / "model.json"
        path.write_text(json.dumps({k: v for k, v in obj.items() if k != "composite_max"}))
        with pytest.raises(FormatError, match=re.escape(f"{path}: missing key 'composite_max'")):
            load_model(path)
        with pytest.raises(FormatError, match=re.escape(f"model file not found: {tmp_path / 'void.json'}")):
            load_model(tmp_path / "void.json")

    @pytest.mark.parametrize("k_null", [5, 2, 0])
    def test_load_model_refuses_a_k_null_its_stage_does_not_fix(self, tmp_path, k_null):
        # The stage fixes k_null (one intercept per equation), and so the fit statistics' df.
        X, y = _simulate_binary(500, np.concatenate([[-1.0, 0.5], np.zeros(22)]), seed=25)
        obj = fit_binary_logistic(X, one_hot(y, 2), terms=list(DESIGN_COLUMNS)).to_json_obj()
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**obj, "k_null": k_null}))
        with pytest.raises(FormatError, match=re.escape(f"{path}: stage and equations")):
            load_model(path)

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
