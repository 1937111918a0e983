"""Explanation pipeline: score extraction and naive closed-form intervals."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from localexplain import sim
from localexplain.bootstrap import BootstrapConfig, bootstrap_from_problem, replicate_indices
from localexplain.data import DataError, FeatureSchema, FeatureSpec, QueryDataset, from_log_odds
from localexplain.explain import (
    DELETION,
    DOWNDATE,
    GELSY,
    ROUTES,
    ExplainConfig,
    ExplainError,
    _condition,
    _positive_definite,
    build_problem,
)
from localexplain.neighborhood import QueryPoint
from localexplain.polyfit import lstsq_min_norm

Z_95 = 1.959963985


def point_scores(dataset, query, config):
    return build_problem(dataset, query, config).point_scores()


def point_route(problem) -> str:
    """How ``solve_rows`` solved the point fit, the subset that drops no row."""
    return ROUTES[problem.solve_rows(np.arange(problem.m)[None, :])[2][0]]


def continuous_schema(d):
    return FeatureSchema(tuple(FeatureSpec(f"x{j+1}", "continuous") for j in range(d)))


def linear_dataset(rng, n, beta0, betas, noise=0.0, output_kind="raw"):
    d = len(betas)
    x = rng.uniform(-2.0, 2.0, size=(n, d))
    y = beta0 + x @ np.asarray(betas) + noise * rng.standard_normal(n)
    schema = FeatureSchema(
        tuple(FeatureSpec(f"x{j+1}", "continuous") for j in range(d)), output_kind
    )
    return QueryDataset(schema, x, np.zeros((n, 0), dtype=np.int64), y)


def mixed_dataset(rng, n=90):
    """f = 2 + 1.5*x1 - 0.5*x2 + offsets by color: b -> +1.25, c -> -0.75."""
    x = rng.uniform(-2.0, 2.0, size=(n, 2))
    codes = np.repeat(np.arange(3), n // 3 + 1)[:n].reshape(-1, 1)
    offsets = np.array([0.0, 1.25, -0.75])[codes[:, 0]]
    y = 2.0 + 1.5 * x[:, 0] - 0.5 * x[:, 1] + offsets
    schema = FeatureSchema(
        (
            FeatureSpec("x1", "continuous"),
            FeatureSpec("x2", "continuous"),
            FeatureSpec("color", "categorical", categories=("a", "b", "c"), baseline="a"),
        )
    )
    return QueryDataset(schema, x, codes, y)


def with_copies(ds, row, copies, shift=None):
    """``ds`` plus ``copies`` exact copies of ``row`` and, given ``shift``, one more with ``x1`` moved by it.

    The copies join the row's neighborhood at distance 0 (or ``shift``).
    """
    picks = [row] * (copies + (shift is not None))
    numeric = ds.numeric[picks].copy()
    if shift is not None:
        numeric[-1, 0] += shift
    return QueryDataset(
        ds.schema,
        np.vstack([ds.numeric, numeric]),
        np.vstack([ds.codes, ds.codes[picks]]),
        np.concatenate([ds.outputs, ds.outputs[picks]]),
    )


def three_copies_dataset():
    """``generate_dataset(2000, 0)`` plus three exact copies of row 1, which join its neighborhood at distance 0."""
    return with_copies(sim.generate_dataset(2000, 0), 1, 3)


def near_copy_dataset(shift):
    """``generate_dataset(2000, 0)`` plus a copy of row 1 with ``x1`` moved by ``shift``, which joins its neighborhood."""
    return with_copies(sim.generate_dataset(2000, 0), 1, 0, shift)


def long_double_min_norm(A, y):
    """Minimum-norm solution of ``A beta = y``, A of full row rank, by a Householder QR of ``A'`` in long double."""
    M = A.T.astype(np.longdouble)
    p, n = M.shape
    reflectors = []
    for j in range(n):
        x = M[j:, j]
        v = x.copy()
        v[0] += math.copysign(1.0, float(x[0])) * np.sqrt(x @ x)
        v /= np.sqrt(v @ v)
        M[j:, j:] -= 2 * np.outer(v, v @ M[j:, j:])
        reflectors.append(v)
    # A = R' Q': solve R' z = y, then beta = Q [z; 0]
    z = np.zeros(n, dtype=np.longdouble)
    for i in range(n):
        z[i] = (y[i] - M[:i, i] @ z[:i]) / M[i, i]
    beta = np.zeros(p, dtype=np.longdouble)
    beta[:n] = z
    for j in reversed(range(n)):
        v = reflectors[j]
        beta[j:] -= 2 * v * (v @ beta[j:])
    return beta


class TestGradientScores:
    def test_linear_model_recovers_coefficients(self):
        rng = np.random.default_rng(40)
        betas = [1.5, -2.25, 0.5]
        ds = linear_dataset(rng, 60, 0.7, betas)
        q = QueryPoint.from_mapping(ds.schema, {"x1": 0.1, "x2": -0.4, "x3": 1.0})
        scores = point_scores(ds, q, ExplainConfig(degree=1, m=60, kind="gradient"))
        assert [s.feature for s in scores] == ["x1", "x2", "x3"]
        np.testing.assert_allclose([s.value for s in scores], betas, atol=1e-8)


class TestFunctionDifferenceScores:
    def test_linear_model_gives_two_delta_beta(self):
        rng = np.random.default_rng(42)
        betas = [1.5, -2.25]
        deltas = {"x1": 0.3, "x2": 0.8}
        ds = linear_dataset(rng, 50, 0.7, betas)
        q = QueryPoint.from_mapping(ds.schema, {"x1": 0.0, "x2": 0.5})
        scores = point_scores(
            ds, q, ExplainConfig(degree=1, m=50, kind="function_difference", deltas=deltas)
        )
        expected = [2 * deltas["x1"] * betas[0], 2 * deltas["x2"] * betas[1]]
        np.testing.assert_allclose([s.value for s in scores], expected, atol=1e-8)

    def test_small_delta_converges_to_gradient(self):
        rng = np.random.default_rng(43)
        x = rng.uniform(-2, 2, size=(120, 1))
        y = 0.5 + 1.2 * x[:, 0] - 0.8 * x[:, 0] ** 2 + 0.3 * x[:, 0] ** 3
        ds = QueryDataset(continuous_schema(1), x, np.zeros((120, 0), dtype=np.int64), y)
        q = QueryPoint.from_mapping(ds.schema, {"x1": 0.6})
        delta = 1e-6
        grad = point_scores(ds, q, ExplainConfig(degree=3, m=120, kind="gradient"))
        diff = point_scores(
            ds, q,
            ExplainConfig(degree=3, m=120, kind="function_difference", deltas={"x1": delta}),
        )
        ratio = diff[0].value / (2 * delta * grad[0].value)
        assert ratio == pytest.approx(1.0, abs=1e-3)

    def test_schema_delta_and_default_delta(self):
        rng = np.random.default_rng(44)
        x = rng.uniform(-2, 2, size=(50, 1))
        y = 3.0 * x[:, 0]
        schema = FeatureSchema((FeatureSpec("x1", "continuous", delta=0.2),))
        ds = QueryDataset(schema, x, np.zeros((50, 0), dtype=np.int64), y)
        q = QueryPoint.from_mapping(schema, {"x1": 0.0})
        problem = build_problem(ds, q, ExplainConfig(degree=1, m=50))
        assert problem.deltas["x1"] == 0.2
        # no schema delta: defaults to half the raw sample stddev
        ds2 = linear_dataset(np.random.default_rng(45), 50, 0.0, [1.0])
        problem2 = build_problem(
            ds2, QueryPoint.from_mapping(ds2.schema, {"x1": 0.0}), ExplainConfig(degree=1, m=50)
        )
        assert problem2.deltas["x1"] == pytest.approx(0.5 * ds2.numeric[:, 0].std(ddof=1))

    @pytest.mark.parametrize("deltas, name", [
        ({"x9": 0.5}, "x9"),
        ({"color": 0.5}, "color"),
        ({"x1": math.inf}, "x1"),
        ({"x1": math.nan}, "x1"),
        ({"x2": -0.5}, "x2"),
    ], ids=["unknown", "categorical", "inf", "nan", "negative"])
    def test_bad_delta_names_the_feature(self, deltas, name):
        ds = mixed_dataset(np.random.default_rng(64))
        q = QueryPoint.from_mapping(ds.schema, {"x1": 0.0, "x2": 0.0, "color": "b"})
        with pytest.raises(ExplainError, match=repr(name)):
            build_problem(ds, q, ExplainConfig(degree=1, m=60, deltas=deltas))


class TestCategoricalScores:
    def test_baseline_query_scores_zero(self):
        ds = mixed_dataset(np.random.default_rng(46))
        q = QueryPoint.from_mapping(
            ds.schema, {"x1": 0.0, "x2": 0.0, "color": "a"}
        )
        scores = point_scores(ds, q, ExplainConfig(degree=1, m=60, balance=False))
        by_name = {s.feature: s for s in scores}
        assert by_name["color"].value == 0.0
        assert by_name["color"].kind == "baseline_difference"

    def test_recovers_categorical_offsets(self):
        ds = mixed_dataset(np.random.default_rng(47))
        q = QueryPoint.from_mapping(ds.schema, {"x1": 0.3, "x2": -0.2, "color": "b"})
        scores = point_scores(ds, q, ExplainConfig(degree=1, m=90, kind="gradient"))
        by_name = {s.feature: s for s in scores}
        assert by_name["color"].value == pytest.approx(1.25, abs=1e-8)

    def test_pairs_mode_reports_every_non_baseline_category(self):
        ds = mixed_dataset(np.random.default_rng(48))
        q = QueryPoint.from_mapping(ds.schema, {"x1": 0.3, "x2": -0.2, "color": "b"})
        scores = point_scores(
            ds, q, ExplainConfig(degree=1, m=90, kind="gradient", categorical_mode="pairs")
        )
        by_name = {s.feature: s for s in scores}
        assert by_name["color=b"].value == pytest.approx(1.25, abs=1e-8)
        assert by_name["color=c"].value == pytest.approx(-0.75, abs=1e-8)


class TestLogOddsPipeline:
    def make_probability_dataset(self, rng, n=80):
        x = rng.uniform(-1.5, 1.5, size=(n, 1))
        logit = 0.4 + 1.1 * x[:, 0]
        p = np.asarray(from_log_odds(logit))
        schema = FeatureSchema((FeatureSpec("x1", "continuous"),), output_kind="probability")
        return QueryDataset(schema, x, np.zeros((n, 0), dtype=np.int64), p)

    def test_difference_reported_in_probability_units(self):
        rng = np.random.default_rng(49)
        ds = self.make_probability_dataset(rng)
        q = QueryPoint.from_mapping(ds.schema, {"x1": 0.25})
        delta = 0.4
        scores = point_scores(
            ds, q,
            ExplainConfig(degree=1, m=80, kind="function_difference", deltas={"x1": delta}),
        )
        def p_of(x):
            return 1.0 / (1.0 + math.exp(-(0.4 + 1.1 * x)))
        expected = p_of(0.25 + delta) - p_of(0.25 - delta)
        assert scores[0].value == pytest.approx(expected, abs=1e-8)

    def test_gradient_kind_unavailable(self):
        ds = self.make_probability_dataset(np.random.default_rng(50))
        q = QueryPoint.from_mapping(ds.schema, {"x1": 0.0})
        with pytest.raises(ExplainError, match="gradient"):
            build_problem(ds, q, ExplainConfig(degree=1, m=80, kind="gradient"))

    def test_naive_interval_unavailable(self):
        ds = self.make_probability_dataset(np.random.default_rng(51))
        q = QueryPoint.from_mapping(ds.schema, {"x1": 0.0})
        problem = build_problem(ds, q, ExplainConfig(degree=1, m=80))
        with pytest.raises(ExplainError, match="log-odds"):
            problem.naive_interval("x1")


class TestNaiveInterval:
    def make_problem(self, rng, n=120, noise=0.5, degree=1, weighted=False):
        ds = linear_dataset(rng, n, 1.0, [2.0], noise=noise)
        q = QueryPoint.from_mapping(ds.schema, {"x1": 0.0})
        cfg = ExplainConfig(degree=degree, m=n, kind="gradient", weighted=weighted)
        return ds, build_problem(ds, q, cfg)

    def test_symmetric_and_z_scaled(self):
        _, problem = self.make_problem(np.random.default_rng(52))
        iv = problem.naive_interval("x1", alpha=0.05)
        mid = 0.5 * (iv.lower + iv.upper)
        assert iv.upper - mid == pytest.approx(mid - iv.lower, abs=1e-12)
        assert iv.upper - iv.lower == pytest.approx(2 * Z_95 * iv.standard_error, rel=1e-9)

    def test_matches_textbook_simple_regression(self):
        rng = np.random.default_rng(53)
        ds, problem = self.make_problem(rng)
        iv = problem.naive_interval("x1", alpha=0.05)
        x = ds.numeric[:, 0]
        y = ds.outputs
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (intercept + slope * x)
        n = len(x)
        s2 = float(resid @ resid) / (n - 2)  # m - d - 1 with d = 1
        se = math.sqrt(s2 / float(((x - x.mean()) ** 2).sum()))
        assert iv.standard_error == pytest.approx(se, rel=1e-9)
        mid = 0.5 * (iv.lower + iv.upper)
        assert mid == pytest.approx(slope, rel=1e-9)

    def test_noiseless_polynomial_gives_zero_width(self):
        _, problem = self.make_problem(np.random.default_rng(54), noise=0.0)
        iv = problem.naive_interval("x1", alpha=0.05)
        assert iv.upper - iv.lower == pytest.approx(0.0, abs=1e-10)
        assert 0.5 * (iv.lower + iv.upper) == pytest.approx(2.0, abs=1e-8)

    def test_independent_of_weighting_mode(self):
        rng = np.random.default_rng(55)
        ds = linear_dataset(rng, 100, 1.0, [2.0], noise=0.5)
        q = QueryPoint.from_mapping(ds.schema, {"x1": 0.0})
        ivs = []
        for weighted in (False, True):
            problem = build_problem(
                ds, q, ExplainConfig(degree=1, m=100, kind="gradient", weighted=weighted)
            )
            ivs.append(problem.naive_interval("x1", 0.05))
        assert ivs[0] == ivs[1]

    def test_dof_guard(self):
        rng = np.random.default_rng(56)
        ds = linear_dataset(rng, 2, 0.0, [1.0], noise=0.1)
        q = QueryPoint.from_mapping(ds.schema, {"x1": 0.0})
        # the farther member has weight 0: one weighted row for two terms
        with pytest.warns(RuntimeWarning, match="underdetermined"):
            problem = build_problem(ds, q, ExplainConfig(degree=1, m=2, kind="gradient"))
        with pytest.raises(ExplainError, match="degrees of freedom"):
            problem.naive_interval("x1")

    def test_categorical_feature_rejected(self):
        ds = mixed_dataset(np.random.default_rng(57))
        q = QueryPoint.from_mapping(ds.schema, {"x1": 0.0, "x2": 0.0, "color": "b"})
        problem = build_problem(ds, q, ExplainConfig(degree=1, m=60, kind="gradient"))
        with pytest.raises(ExplainError):
            problem.naive_interval("color")

    @staticmethod
    def collinear_problem(seed, row):
        # x2 is x1 up to 1e-15 noise: X'X is singular to working precision,
        # yet np.linalg.solve returns (garbage) without raising; on the
        # draws below it gave standard errors of ~1e7 and exactly 0.0
        # before every fit took the pseudo-inverse
        rng = np.random.default_rng(seed)
        x1 = rng.standard_normal(200)
        x2 = 3.0 * x1 + 1.0 + 1e-15 * rng.standard_normal(200)
        y = x1 + x2 + rng.standard_normal(200)
        ds = QueryDataset(
            continuous_schema(2), np.column_stack([x1, x2]),
            np.zeros((200, 0), dtype=np.int64), y,
        )
        cfg = ExplainConfig(degree=1, m=80, kind="gradient", weighted=False, balance=False)
        return build_problem(ds, QueryPoint.from_row(ds, row), cfg)

    @pytest.mark.parametrize("seed, row", [(1, 0), (4, 2)])
    def test_collinear_features_use_pseudo_inverse(self, seed, row):
        problem = self.collinear_problem(seed, row)
        iv = problem.naive_interval("x1")
        col = problem.layout.numeric_columns["x1"]
        X, v = problem.X, problem.basis.derivative_row(problem.query_enc, col)
        v = v / problem.stats.stddev("x1")
        beta = np.linalg.pinv(X) @ problem.y
        resid = problem.y - X @ beta
        sigma2 = float(resid @ resid) / (80 - 2 - 1)
        se = math.sqrt(float(v @ np.linalg.pinv(X.T @ X, hermitian=True) @ v) * sigma2)
        assert iv.standard_error == pytest.approx(se, rel=1e-6)
        assert 0.0 < iv.standard_error < 1.0

    @pytest.mark.parametrize("seed", range(6))
    def test_nearly_collinear_features_get_a_positive_standard_error(self, seed):
        # x2 = 3 x1 + 1 + eps noise: gelsy calls every fit full rank, where
        # solving X'X v directly gave standard errors of exactly 0 or ~1e6;
        # the pseudo-inverse drops the near-null direction for every eps
        for eps in (1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13):
            rng = np.random.default_rng(seed)
            x1 = rng.uniform(-2.0, 2.0, 200)
            x2 = 3.0 * x1 + 1.0 + eps * rng.standard_normal(200)
            y = 1.5 * x1 + 0.3 * rng.standard_normal(200)
            ds = QueryDataset(
                continuous_schema(2), np.column_stack([x1, x2]),
                np.zeros((200, 0), dtype=np.int64), y,
            )
            cfg = ExplainConfig(degree=1, m=80, kind="gradient", weighted=False)
            problem = build_problem(ds, QueryPoint.from_row(ds, 0), cfg)
            se = problem.naive_interval("x1").standard_error
            assert math.isfinite(se) and se > 0.0, eps
            X = problem.X
            v = problem.basis.derivative_row(problem.query_enc, problem.layout.numeric_columns["x1"])
            v = v / problem.stats.stddev("x1")
            # rss of the full-rank fit that gelsy keeps, as theta's fit does
            resid = problem.y - X @ scipy.linalg.lstsq(X, problem.y, lapack_driver="gelsy")[0]
            rss = float(resid @ resid)
            oracle = math.sqrt(float(v @ np.linalg.pinv(X.T @ X, hermitian=True) @ v) * rss / (80 - 2 - 1))
            assert se == pytest.approx(oracle, rel=1e-9), eps
            assert problem.naive_interval("x1").standard_error == se

    def test_function_difference_problem_rejected(self):
        ds = linear_dataset(np.random.default_rng(65), 60, 1.0, [2.0], noise=0.5)
        q = QueryPoint.from_mapping(ds.schema, {"x1": 0.0})
        problem = build_problem(ds, q, ExplainConfig(degree=1, m=60, kind="function_difference"))
        with pytest.raises(ExplainError, match="gradient"):
            problem.naive_interval("x1")

    @pytest.mark.parametrize("case", ["full_rank", "pseudo_inverse"])
    def test_one_least_squares_solve_per_problem(self, case, monkeypatch):
        from localexplain import explain as explain_module

        def make():
            if case == "pseudo_inverse":
                return self.collinear_problem(4, 2)
            ds = linear_dataset(np.random.default_rng(66), 120, 1.0, [2.0, -1.0], noise=0.5)
            q = QueryPoint.from_mapping(ds.schema, {"x1": 0.3, "x2": -0.2})
            return build_problem(ds, q, ExplainConfig(degree=2, m=90, kind="gradient"))

        fresh = [make().naive_interval(f, 0.1) for f in ("x1", "x2")]
        calls = []
        original = explain_module.lstsq_min_norm

        def counting(X, y):
            calls.append(X.shape)
            return original(X, y)

        monkeypatch.setattr(explain_module, "lstsq_min_norm", counting)
        problem = make()
        shared = [problem.naive_interval(f, 0.1) for f in ("x1", "x2")]
        assert len(calls) == 1
        assert shared == fresh

    def test_problem_changes_only_through_cached_properties(self):
        ds = mixed_dataset(np.random.default_rng(67))
        q = QueryPoint.from_mapping(ds.schema, {"x1": 0.2, "x2": -0.4, "color": "b"})
        problem = build_problem(ds, q, ExplainConfig(degree=2, m=60, kind="gradient"))
        before = dict(vars(problem))
        problem.point_scores()
        bootstrap_from_problem(problem, BootstrapConfig(B=20, c=0.8, seed=3))
        for feature in ("x1", "x2"):
            problem.naive_interval(feature)
        after = vars(problem)
        assert set(after) - set(before) == {"point_fit", "_row_svd", "_ols"}
        assert all(after[name] is value for name, value in before.items())

    def test_width_scales_inverse_sqrt_m(self):
        rng = np.random.default_rng(59)
        ms = [50, 100, 200, 400]
        mean_widths = []
        for m in ms:
            widths = []
            for _ in range(40):
                ds = linear_dataset(rng, m, 1.0, [2.0], noise=1.0)
                q = QueryPoint.from_mapping(ds.schema, {"x1": 0.0})
                problem = build_problem(
                    ds, q, ExplainConfig(degree=1, m=m, kind="gradient", weighted=False)
                )
                iv = problem.naive_interval("x1")
                widths.append(iv.upper - iv.lower)
            mean_widths.append(np.mean(widths))
        slope = np.polyfit(np.log(ms), np.log(mean_widths), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)


class TestScoreMatrices:
    @pytest.mark.parametrize("case", ["gradient", "log_odds", "pairs"])
    def test_batch_equals_row_by_row(self, case):
        rng = np.random.default_rng(62)
        if case == "log_odds":
            ds = TestLogOddsPipeline().make_probability_dataset(rng)
            q = QueryPoint.from_mapping(ds.schema, {"x1": 0.25})
            cfg = ExplainConfig(degree=2, m=80, kind="function_difference")
        else:
            ds = mixed_dataset(rng)
            q = QueryPoint.from_mapping(ds.schema, {"x1": 0.3, "x2": -0.2, "color": "b"})
            mode = "pairs" if case == "pairs" else "query"
            cfg = ExplainConfig(degree=2, m=90, kind="gradient", categorical_mode=mode)
        problem = build_problem(ds, q, cfg)
        beta = problem.point_fit.coefficients + rng.normal(0.0, 0.2, size=(25, problem.basis.q))
        batch = problem.scores_from_coefficients(beta)
        rows = np.array([problem.scores_from_coefficients(b) for b in beta])
        assert batch.shape == (25, len(problem.score_names))
        # matrix-matrix and matrix-vector products may sum in different orders
        np.testing.assert_allclose(batch, rows, rtol=1e-12, atol=1e-12 * np.abs(rows).max())
        if case == "pairs":
            assert problem.score_names == ("x1", "x2", "color=b", "color=c")


class TestStandardizeOncePerDataset:
    def test_two_problems_standardize_once(self, monkeypatch):
        from localexplain import data

        calls = []
        original = data.standardize

        def counting(dataset):
            calls.append(dataset)
            return original(dataset)

        monkeypatch.setattr(data, "standardize", counting)
        ds = mixed_dataset(np.random.default_rng(63))
        for row in (0, 1):
            build_problem(ds, QueryPoint.from_row(ds, row), ExplainConfig(degree=1, m=60))
        assert calls == [ds]


class TestQueryAgainstTheSchema:
    """``build_problem`` checks the query point as ``QueryDataset`` checks its rows: row 0 of ``generate_dataset(300, 1)``."""

    @staticmethod
    def build(numeric=lambda x: x, codes=lambda c: c):
        ds = sim.generate_dataset(300, 1)
        query = QueryPoint.from_row(ds, 0)
        query = QueryPoint(numeric(query.numeric), codes(query.codes))
        return build_problem(ds, query, ExplainConfig(degree=1, m=60, kind="gradient"))

    @pytest.mark.parametrize("change, message", [
        ({"codes": lambda c: np.array([-1, c[1]])}, r"invalid category code -1 \(column 'a'\)"),
        ({"codes": lambda c: np.array([c[0], 3])}, r"invalid category code 3 \(column 'b'\)"),
        ({"codes": lambda c: np.array([c[0] + 0.7, c[1]])}, r"invalid category code 1.7 \(column 'a'\)"),
        ({"numeric": lambda x: np.array([np.nan, x[1]])}, r"non-finite value nan \(column 'x1'\)"),
        ({"numeric": lambda x: np.zeros(3)}, r"numeric block has shape \(3,\), expected \(2,\) for \('x1', 'x2'\)"),
        ({"codes": lambda c: c[:1]}, r"category code block has shape \(1,\), expected \(2,\) for \('a', 'b'\)"),
    ], ids=["negative-code", "code-past-categories", "fractional-code", "nan", "numeric-length", "code-count"])
    def test_a_bad_query_is_a_data_error(self, change, message):
        with pytest.raises(DataError, match=message):
            self.build(**change)


class TestFailureModes:
    def test_rank_collapse_raises(self):
        schema = continuous_schema(1)
        x = np.full((20, 1), 3.0)
        ds = QueryDataset(schema, x, np.zeros((20, 0), dtype=np.int64), np.ones(20))
        q = QueryPoint.from_mapping(schema, {"x1": 3.0})
        with pytest.raises(ExplainError, match="rank"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                point_scores(ds, q, ExplainConfig(degree=2, m=20, balance=False))

    def test_underdetermined_fit_warns(self):
        rng = np.random.default_rng(60)
        ds = linear_dataset(rng, 4, 0.0, [1.0, 1.0])
        q = QueryPoint.from_mapping(ds.schema, {"x1": 0.0, "x2": 0.0})
        with pytest.warns(RuntimeWarning, match="underdetermined"):
            build_problem(ds, q, ExplainConfig(degree=2, m=4))

    @pytest.mark.parametrize("n, weighted, q_live, message", [
        (7, False, (8, 7), None),
        (6, False, (8, 7), "6 nonzero weighted rows \\(m=6\\) are fewer than the 7 live basis terms \\(q=8\\)"),
        # the farthest member has weight 0, so 6 members give 5 rows for 6 terms
        (6, True, (6, 6), "5 nonzero weighted rows \\(m=6\\) are fewer than the 6 live basis terms \\(q=6\\)"),
    ], ids=["7", "6", "6-weighted"])
    def test_underdetermined_counts_live_terms(self, n, weighted, q_live, message):
        if weighted:
            # two continuous features at degree 2: q=6, every term live
            x = np.random.default_rng(62).uniform(-2.0, 2.0, size=(n, 2))
            ds = QueryDataset(
                continuous_schema(2), x, np.zeros((n, 0), dtype=np.int64), x[:, 0] ** 2 - x[:, 1]
            )
        else:
            # x1 and a 3-level categorical at degree 2: q=8, one of them the
            # product of the categorical's two indicators, zero on every row
            schema = FeatureSchema((
                FeatureSpec("x1", "continuous"),
                FeatureSpec("color", "categorical", categories=("a", "b", "c"), baseline="a"),
            ))
            x = np.linspace(-1.0, 1.0, n).reshape(-1, 1)
            codes = (np.arange(n) % 3).reshape(-1, 1)
            ds = QueryDataset(schema, x, codes, x[:, 0] ** 2 + codes[:, 0])
        q = QueryPoint.from_row(ds, 0)
        config = ExplainConfig(degree=2, m=n, weighted=weighted, balance=False)
        if message is None:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                problem = build_problem(ds, q, config)
        else:
            with pytest.warns(RuntimeWarning, match=message):
                problem = build_problem(ds, q, config)
        assert (problem.basis.q, problem.live_columns.size) == q_live
        if weighted:
            # the interpolation the warning is about
            assert problem.point_fit.effective_rank == 5
            assert problem.point_fit.rss < 1e-20

    def test_surrogate_diagnostics_exposed(self):
        rng = np.random.default_rng(61)
        ds = linear_dataset(rng, 50, 0.0, [1.0], noise=0.1)
        q = QueryPoint.from_mapping(ds.schema, {"x1": 0.0})
        fit = build_problem(ds, q, ExplainConfig(degree=1, m=50)).point_fit
        assert fit.effective_rank == 2
        assert np.isfinite(fit.condition)
        assert not fit.ill_conditioned


class TestPointFit:
    """The point fit is the replicate that drops no row; a full-basis gelsy solve is its oracle."""

    @pytest.mark.parametrize("row, k, m, solve", [
        (1, 4, 66, "downdate"),  # the paper's settings
        (0, 4, 66, "downdate"),  # dependent rows: the SVD truncated at their rank
        (1, 2, 64, "deletion"),  # more nonzero rows than live terms
    ])
    def test_matches_the_full_basis_solve(self, row, k, m, solve):
        ds = sim.generate_dataset(2000, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # m < q at k=4
            problem = build_problem(ds, QueryPoint.from_row(ds, row), ExplainConfig(
                degree=k, m=m, kind="gradient",
            ))
        assert point_route(problem) == solve
        fit = problem.point_fit
        ref_coefficients, ref_rank = lstsq_min_norm(problem.Xw, problem.yw)
        assert fit.effective_rank == ref_rank
        scores = problem.scores_from_coefficients(fit.coefficients)
        ref_scores = problem.scores_from_coefficients(ref_coefficients)
        assert (np.abs(scores - ref_scores) <= 1e-7 * np.abs(ref_scores).max()).all()
        residuals = problem.yw - problem.Xw @ fit.coefficients
        assert fit.rss == float(residuals @ residuals)

        sv = scipy.linalg.svdvals(problem.Xw)
        assert fit.condition == pytest.approx(sv[0] / sv[fit.effective_rank - 1], rel=1e-10)


class TestReplicateSolve:
    """``solve_rows`` against a full-basis ``lstsq_min_norm`` loop, the solve it replaces."""

    @staticmethod
    def full_basis_loop(problem, index):
        coefficients = np.empty((index.shape[0], problem.basis.q))
        ranks = np.empty(index.shape[0], dtype=np.int64)
        for b, rows in enumerate(index):
            coefficients[b], ranks[b] = lstsq_min_norm(problem.Xw[rows], problem.yw[rows])
        return coefficients, ranks

    @pytest.mark.parametrize("row, k, m, c, B, rank_changes", [
        (0, 4, 66, 0.9, 500, 0),  # the paper's settings
        (1, 4, 66, 0.9, 500, 0),
        (2, 2, 64, 0.5, 200, 0),  # k=2 and k=3 cells of the desk grid
        (3, 2, 64, 0.5, 100, 1),  # one replicate singular only up to rounding
        (4, 3, 32, 0.3, 200, 0),
        (5, 3, 128, 0.9, 200, 0),
    ])
    def test_matches_the_full_basis_solve(self, row, k, m, c, B, rank_changes):
        """``rank_changes`` caps the replicates whose rank may differ between the two bases."""
        self.check_against_full_basis(row, k, m, c, B, rank_changes, weighted=True)

    @pytest.mark.parametrize("row, k, m, c, weighted", [
        (1, 4, 66, 0.9, False),  # the paper's settings without a zero-weight row
        (6, 4, 32, 0.3, True),  # about 22 dropped rows per replicate
        (7, 3, 32, 0.9, True),
    ])
    def test_downdate_cells_match_the_full_basis_solve(self, row, k, m, c, weighted):
        self.check_against_full_basis(row, k, m, c, 200, 0, weighted)

    def check_against_full_basis(self, row, k, m, c, B, rank_changes, weighted):
        ds = sim.generate_dataset(2000, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # m < q at k=4
            problem = build_problem(ds, QueryPoint.from_row(ds, row), ExplainConfig(
                degree=k, m=m, kind="gradient", weighted=weighted,
            ))
        # the downdate takes nonzero rows no more than the live terms, row
        # deletion more; row 0 at k=4, m=66 has dependent rows, of which the
        # downdate leaves some replicates to gelsy
        underdetermined = problem.nonzero_rows.size <= problem.live_columns.size
        route = "downdate" if underdetermined else "deletion"
        assert point_route(problem) == route
        index = replicate_indices(row, B, problem.m, int(np.floor(c * problem.m)))
        coefficients, ranks, routes = problem.solve_rows(index)
        ref_coefficients, ref_ranks = self.full_basis_loop(problem, index)
        if (row, k, m) == (0, 4, 66):
            assert set(routes.tolist()) <= {DOWNDATE, GELSY}
        elif route == "downdate":
            assert (routes == DOWNDATE).all()
        else:
            assert set(routes.tolist()) <= {DELETION, GELSY}

        dead = np.setdiff1d(np.arange(problem.basis.q), problem.live_columns)
        assert dead.size > 0 or k == 1  # every degree-1 term is live
        assert (coefficients[:, dead] == 0).all() and (ref_coefficients[:, dead] == 0).all()
        # gelsy's rank cutoff sits at float64 eps, so where a replicate is
        # singular only up to rounding the two bases may call its rank differently
        assert (ranks != ref_ranks).sum() <= rank_changes
        for b in np.flatnonzero(ranks != ref_ranks):
            sv = scipy.linalg.svdvals(problem.Xw[index[b]][:, problem.live_columns])
            assert sv[-1] < 1e-14 * sv[0]
        same = ranks == ref_ranks
        scores = problem.scores_from_coefficients(coefficients[same])
        ref_scores = problem.scores_from_coefficients(ref_coefficients[same])
        assert (np.abs(scores - ref_scores) <= 1e-7 * np.abs(ref_scores).max(axis=0)).all()
        return problem, index, routes

    @pytest.mark.parametrize("row, k, m, c", [
        (8, 1, 64, 0.95),  # at c=0.9 a subset may drop 7 nonzero rows, as many as p
        (9, 2, 64, 0.9),
        (10, 2, 128, 0.9),
        (11, 3, 128, 0.9),
        (12, 4, 128, 0.9),
        (13, 4, 256, 0.9),
    ])
    def test_deletion_cells_match_the_full_basis_solve(self, row, k, m, c):
        """Cells with more nonzero rows than live terms where row deletion takes the batch."""
        _, _, routes = self.check_against_full_basis(row, k, m, c, 200, 0, weighted=True)
        assert (routes == DELETION).sum() >= 195

    @pytest.mark.parametrize("row, k, m, c, sides, least", [
        (14, 1, 256, 0.3, {"kept"}, 200),  # 179-180 dropped against 75-76 kept
        (15, 2, 128, 0.3, {"kept"}, 180),
        (16, 3, 256, 0.7, {"dropped"}, 200),  # 76-77 dropped against 178-179 kept
        (17, 3, 256, 0.5, {"dropped", "kept"}, 200),  # 127 or 128 of 255 dropped
        (18, 4, 256, 0.5, {"dropped", "kept"}, 180),
    ])
    def test_gram_cells_match_the_full_basis_solve(self, row, k, m, c, sides, least):
        """Cells whose subsets all drop at least p rows: p x p Gram systems of their kept rows, fewer or more than the dropped ones."""
        problem, index, routes = self.check_against_full_basis(row, k, m, c, 200, 0, weighted=True)
        n_rows, n_live = problem.nonzero_rows.size, problem.live_columns.size
        _, drop_counts = problem._dropped_rows(index)
        assert (drop_counts >= n_live).all()
        assert {"kept" if n_rows - d < d else "dropped" for d in drop_counts.tolist()} == sides
        assert (routes == DELETION).sum() >= least

    @pytest.mark.parametrize("row, k, m, c, route", [
        (19, 4, 64, 0.3, DOWNDATE),  # 19 kept against 44-45 dropped, of 63 nonzero rows
        (20, 2, 256, 0.9, DELETION),  # 25-26 dropped against p = 22, and 229-230 kept
    ], ids=["downdate-4-64-0.3", "gram-2-256-0.9"])
    def test_cells_off_the_smaller_side_meet_the_contract(self, row, k, m, c, route):
        """The downdate of subsets that keep fewer rows than they drop, and Gram systems of more kept rows than dropped.

        Against the live-column gelsy loop at the property test's bound:
        where the two give a subset the same rank, its scores agree within
        max(1e-7, 10 eps kappa) of each score's largest magnitude, kappa the
        subset's own condition number.
        """
        problem = TestReplicateDowndateGate.paper_problem(sim.generate_dataset(2000, 0), row, degree=k, m=m)
        n_rows, n_live = problem.nonzero_rows.size, problem.live_columns.size
        index = replicate_indices(row, 200, problem.m, int(np.floor(c * problem.m)))
        _, drop_counts = problem._dropped_rows(index)
        if route == DOWNDATE:
            assert n_rows <= n_live and (n_rows - drop_counts < drop_counts).all()
        else:
            assert (drop_counts >= n_live).all() and (drop_counts < n_rows - drop_counts).all()
        coefficients, ranks, routes = problem.solve_rows(index)
        assert (routes == route).all()
        ref_coefficients, ref_ranks = TestReplicateDowndateGate.live_column_loop(problem, index)
        assert (ranks == ref_ranks).all()
        kappa = np.empty(index.shape[0])
        for b, rows in enumerate(index):
            sv = scipy.linalg.svdvals(problem.Xw[rows][:, problem.live_columns])
            kappa[b] = sv[0] / sv[ranks[b] - 1]
        scores = problem.scores_from_coefficients(coefficients)
        ref_scores = problem.scores_from_coefficients(ref_coefficients)
        bound = np.maximum(1e-7, 10 * np.finfo(float).eps * kappa)
        assert (np.abs(scores - ref_scores) <= bound[:, None] * np.abs(ref_scores).max(axis=0)).all()

    @pytest.mark.parametrize("make_dataset, row, relations, c", [
        (lambda: sim.generate_dataset(2000, 0), 0, 1, 0.9),
        (lambda: sim.generate_dataset(2000, 911), 584, 5, 0.9),
        (three_copies_dataset, 1, 3, 0.9),  # the copies' relations often lie among the kept rows
        (three_copies_dataset, 1, 3, 0.3),  # 19 kept members against 46 dropped
    ], ids=["seed-0-row-0", "seed-911-row-584", "three-copies", "three-copies-c0.3"])
    def test_dependent_row_cells_match_the_full_basis_solve(self, make_dataset, row, relations, c):
        """The downdate of dependent rows, against the full-basis gelsy loop and an SVD oracle.

        At the paper's k=4, m=66 with B=500.  Where the downdate and gelsy
        give a replicate the same rank their scores agree to 1e-7; every
        downdated replicate has the rank of ``np.linalg.lstsq(rcond=1e-10)``
        over the live columns and its scores to 1e-7.
        """
        problem = TestReplicateDowndateGate.paper_problem(make_dataset(), row)
        n_rows, live = problem.nonzero_rows.size, problem.live_columns
        assert n_rows <= live.size and n_rows - problem.row_rank == relations
        assert problem.row_condition > 1e8
        index = replicate_indices(row, 500, problem.m, int(np.floor(c * problem.m)))
        coefficients, ranks, routes = problem.solve_rows(index)
        assert set(routes.tolist()) <= {DOWNDATE, GELSY}
        downdated = np.flatnonzero(routes == DOWNDATE)
        assert downdated.size >= 450
        # some replicates keep every row of a relation, and lose rank to it
        kept = np.array([np.isin(problem.nonzero_rows, rows).sum() for rows in index])
        assert (ranks[downdated] < kept[downdated]).any()
        assert (ranks[downdated] == kept[downdated]).any()

        ref_coefficients, ref_ranks = self.full_basis_loop(problem, index)
        same = ranks == ref_ranks
        assert same.sum() >= 495
        scores = problem.scores_from_coefficients(coefficients[same])
        ref_scores = problem.scores_from_coefficients(ref_coefficients[same])
        assert (np.abs(scores - ref_scores) <= 1e-7 * np.abs(ref_scores).max(axis=0)).all()

        exact = np.zeros((downdated.size, problem.basis.q))
        for i, b in enumerate(downdated):
            rows = index[b]
            exact[i, live], _, rank, _ = np.linalg.lstsq(problem.Xw[rows][:, live], problem.yw[rows], rcond=1e-10)
            assert ranks[b] == rank
        scores = problem.scores_from_coefficients(coefficients[downdated])
        exact_scores = problem.scores_from_coefficients(exact)
        assert (np.abs(scores - exact_scores) <= 1e-7 * np.abs(exact_scores).max(axis=0)).all()

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        row=st.integers(0, 1999),
        k=st.integers(1, 4),
        m=st.integers(4, 256),
        c=st.sampled_from([0.3, 0.5, 0.7, 0.9]),
        copies=st.integers(0, 3),
        shift=st.none() | st.floats(-9, -4).map(lambda u: 10.0**u),
    )
    def test_solve_rows_meets_its_contract(self, seed, row, k, m, c, copies, shift):
        """``solve_rows`` against the live-column gelsy loop on drawn neighborhoods, the point fit among the subsets.

        Exact copies of the query row make the rows dependent, a near copy
        ill-conditioned.  Where the two give a subset the same rank, its
        scores agree within max(1e-7, 10 eps kappa) of each score's largest
        magnitude, kappa the subset's own condition number.
        """
        ds = with_copies(sim.generate_dataset(2000, seed), row, copies, shift)
        problem = TestReplicateDowndateGate.paper_problem(ds, row, degree=k, m=m)
        m_prime = int(np.floor(c * problem.m))
        batches = (np.arange(problem.m)[None, :], replicate_indices(seed, 50, problem.m, m_prime))
        subsets = [rows for index in batches for rows in index]
        coefficients, ranks, routes = map(np.concatenate, zip(*map(problem.solve_rows, batches)))
        ref_coefficients, ref_ranks = map(np.concatenate, zip(*(
            TestReplicateDowndateGate.live_column_loop(problem, index) for index in batches
        )))
        gelsy = routes == GELSY
        assert coefficients[gelsy].tobytes() == ref_coefficients[gelsy].tobytes()
        same = np.flatnonzero(ranks == ref_ranks)
        kappa = np.ones(same.size)
        for i, b in enumerate(same):
            if ranks[b]:
                sv = scipy.linalg.svdvals(problem.Xw[subsets[b]][:, problem.live_columns])
                kappa[i] = sv[0] / sv[ranks[b] - 1]
        scores = problem.scores_from_coefficients(coefficients[same])
        ref_scores = problem.scores_from_coefficients(ref_coefficients[same])
        bound = np.maximum(1e-7, 10 * np.finfo(float).eps * kappa)
        assert (np.abs(scores - ref_scores) <= bound[:, None] * np.abs(ref_scores).max(axis=0)).all()

    @pytest.mark.parametrize("seed, row", [(911, 93), (911, 885), (7, 1663)])
    def test_dependent_rows_between_1e8_and_1e10_take_the_downdate(self, seed, row):
        """Dependent rows whose s_1/s_r lies between 1e8 and 1e10, at the paper's k=4, m=66 with B=500.

        Most replicates are downdated, each with the rank the live-column
        gelsy loop gives it and scores within 10 eps kappa of that loop's,
        relative to each score's largest magnitude, kappa = s_1/s_r.
        """
        problem = TestReplicateDowndateGate.paper_problem(sim.generate_dataset(2000, seed), row)
        n_rows, rank = problem.nonzero_rows.size, problem.row_rank
        assert rank < n_rows <= problem.live_columns.size
        kappa = _condition(problem._row_svd[0], rank)
        assert 1e8 < kappa <= 1e10
        index = replicate_indices(row, 500, problem.m, int(np.floor(0.9 * problem.m)))
        coefficients, ranks, routes = problem.solve_rows(index)
        downdated = routes == DOWNDATE
        assert set(routes.tolist()) <= {DOWNDATE, GELSY} and downdated.sum() >= 450
        ref_coefficients, ref_ranks = TestReplicateDowndateGate.live_column_loop(problem, index)
        assert (ranks == ref_ranks).all()
        scores = problem.scores_from_coefficients(coefficients[downdated])
        ref_scores = problem.scores_from_coefficients(ref_coefficients[downdated])
        bound = 10 * np.finfo(float).eps * kappa
        assert (np.abs(scores - ref_scores) <= bound * np.abs(ref_scores).max(axis=0)).all()

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="the oracle needs an extended-precision long double")
    @pytest.mark.parametrize("seed, row", [
        (0, 13),  # condition 1.03e8
        (2, 1800),
        (7, 1181),  # condition 6.1e9
    ])
    def test_ill_conditioned_cells_match_a_long_double_solve(self, seed, row):
        """The downdate of independent rows whose condition number lies between 1e8 and 1e10.

        At the paper's k=4, m=66 with B=200, against a long-double solve of
        each replicate's nonzero kept rows: the downdate and the live-column
        gelsy loop give every replicate the rank N - d, and both keep each
        score within 10 eps kappa of that score's largest magnitude, kappa
        the replicate's own condition number (measured at most 6.5 for the
        downdate, at (2, 1800), and 4.6 for gelsy).  So does the point fit.
        """
        problem = TestReplicateDowndateGate.paper_problem(sim.generate_dataset(2000, seed), row)
        n_rows, live = problem.nonzero_rows.size, problem.live_columns
        assert problem.row_rank == n_rows <= live.size
        assert 1e8 < problem.row_condition <= 1e10
        index = replicate_indices(row, 200, problem.m, int(np.floor(0.9 * problem.m)))
        coefficients, ranks, routes = problem.solve_rows(index)
        assert (routes == DOWNDATE).all()
        ref_coefficients, ref_ranks = TestReplicateDowndateGate.live_column_loop(problem, index)

        eps = np.finfo(float).eps
        plus = problem.plus.astype(np.longdouble)
        minus = problem.minus.astype(np.longdouble)
        exact = np.zeros((index.shape[0], problem.scores_from_coefficients(coefficients[0]).size))
        bounds = np.empty(index.shape[0])
        for b, rows in enumerate(index):
            kept = rows[np.isin(rows, problem.nonzero_rows)]
            A = problem.Xw[kept][:, live]
            beta = np.zeros(problem.basis.q, dtype=np.longdouble)
            beta[live] = long_double_min_norm(A, problem.yw[kept])
            exact[b] = beta @ plus - beta @ minus
            sv = scipy.linalg.svdvals(A)
            bounds[b] = 10 * eps * sv[0] / sv[-1]
            assert ranks[b] == ref_ranks[b] == kept.size
        scale = np.abs(exact).max(axis=0)
        for fits in (coefficients, ref_coefficients):
            error = np.abs(problem.scores_from_coefficients(fits) - exact)
            assert (error <= bounds[:, None] * scale).all()

        nonzero = problem.nonzero_rows
        beta = np.zeros(problem.basis.q, dtype=np.longdouble)
        beta[live] = long_double_min_norm(problem.Xw[nonzero][:, live], problem.yw[nonzero])
        exact = beta @ plus - beta @ minus
        error = np.abs(problem.scores_from_coefficients(problem.point_fit.coefficients) - exact)
        assert (error <= 10 * eps * problem.row_condition * np.abs(exact).max()).all()

    def test_dependent_row_peak_memory(self):
        """B=500 downdates of dependent rows at the paper's settings: the chunked stacks keep the peak under 2.5 MB.

        The outputs alone take about 1.5 MB; unchunked, the dropped rows of
        ``U / S`` would add 500 x 7 x 64 floats, 1.8 MB, and their QR as much again.
        """
        problem = TestReplicateDowndateGate.paper_problem(sim.generate_dataset(2000, 0), 0)
        index = replicate_indices(0, 500, problem.m, int(np.floor(0.9 * problem.m)))
        tracemalloc.start()
        try:
            _, _, routes = problem.solve_rows(index)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert problem.row_rank < problem.nonzero_rows.size
        assert (routes == DOWNDATE).sum() >= 450
        assert peak < 2.5 * 2**20

    def test_gram_deletion_peak_memory(self):
        """B=500 subsets of 128 rows at k=4, m=256, each dropping about 127 of them: the peak stays under 3 MB.

        Unchunked, one side's rows of ``U`` alone would take 500 x 127 x 79
        floats, 40 MB, and the Gram matrices 500 x 79 x 79, 25 MB.
        """
        ds = sim.generate_dataset(2000, 0)
        problem = build_problem(ds, QueryPoint.from_row(ds, 0), ExplainConfig(degree=4, m=256, kind="gradient"))
        index = replicate_indices(0, 500, problem.m, int(np.floor(0.5 * problem.m)))
        tracemalloc.start()
        try:
            _, _, routes = problem.solve_rows(index)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (problem._dropped_rows(index)[1] >= problem.live_columns.size).all()
        assert (routes == DELETION).sum() >= 450
        assert peak < 3 * 2**20

    def test_deletion_peak_memory(self):
        """B=500 subsets of 230 rows at k=4, m=256: the chunked stacks keep the peak under 3 MB.

        Unchunked, the dropped rows of ``U`` alone would take 500 x 26 x 79
        floats, 7.8 MB.
        """
        ds = sim.generate_dataset(2000, 0)
        problem = build_problem(ds, QueryPoint.from_row(ds, 0), ExplainConfig(degree=4, m=256, kind="gradient"))
        index = replicate_indices(0, 500, problem.m, int(np.floor(0.9 * problem.m)))
        tracemalloc.start()
        try:
            _, _, routes = problem.solve_rows(index)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (routes == DELETION).all()
        assert peak < 3 * 2**20


class TestReplicateDowndateGate:
    """Which replicate solve a problem takes, and what each gives at the gate's edges."""

    @staticmethod
    def paper_problem(ds, row, **overrides):
        config = dict(degree=4, m=66, kind="gradient")
        config.update(overrides)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # m < q at k=4
            return build_problem(ds, QueryPoint.from_row(ds, row), ExplainConfig(**config))

    @staticmethod
    def live_column_loop(problem, index):
        """One gelsy call per replicate over the live columns, the solve off the fast path."""
        live = problem.live_columns
        coefficients = np.zeros((index.shape[0], problem.basis.q))
        ranks = np.empty(index.shape[0], dtype=np.int64)
        for b, rows in enumerate(index):
            coefficients[b, live], ranks[b] = lstsq_min_norm(
                problem.Xw[rows][:, live], problem.yw[rows]
            )
        return coefficients, ranks

    def assert_gelsy_loop(self, problem, seed, c=0.9):
        index = replicate_indices(seed, 100, problem.m, int(np.floor(c * problem.m)))
        coefficients, ranks, routes = problem.solve_rows(index)
        assert (routes == GELSY).all()
        ref_coefficients, ref_ranks = self.live_column_loop(problem, index)
        assert coefficients.tobytes() == ref_coefficients.tobytes()
        assert (ranks == ref_ranks).all()

    def test_dependent_rows_take_the_downdate(self):
        # three exact copies of the query row join its neighborhood at distance 0
        problem = self.paper_problem(three_copies_dataset(), 1)
        assert {2000, 2001, 2002} <= set(problem.neighborhood.member_indices.tolist())
        assert problem.row_condition > 1e8
        index = replicate_indices(1, 100, problem.m, int(np.floor(0.9 * problem.m)))
        coefficients, ranks, routes = problem.solve_rows(index)
        assert set(routes.tolist()) <= {DOWNDATE, GELSY} and (routes == DOWNDATE).any()
        ref_coefficients, ref_ranks = self.live_column_loop(problem, index)
        gelsy = routes == GELSY
        assert coefficients[gelsy].tobytes() == ref_coefficients[gelsy].tobytes()
        assert (ranks == ref_ranks).all()
        scores = problem.scores_from_coefficients(coefficients)
        ref_scores = problem.scores_from_coefficients(ref_coefficients)
        assert (np.abs(scores - ref_scores) <= 1e-7 * np.abs(ref_scores).max(axis=0)).all()

    def test_condition_just_above_the_gate_takes_the_gelsy_loop(self):
        # a copy of row 1 with x1 moved by 1.6e-6 joins its neighborhood: the
        # rows stay independent, with a condition number just above 1e10
        problem = self.paper_problem(near_copy_dataset(1.6e-6), 1)
        assert 2000 in problem.neighborhood.member_indices
        assert problem.row_rank == problem.nonzero_rows.size <= problem.live_columns.size
        assert 1e10 < problem.row_condition < 1.1e10
        assert point_route(problem) == "gelsy"
        self.assert_gelsy_loop(problem, 1)

    def test_more_rows_than_live_terms_take_the_gelsy_loop(self):
        # at c=0.3 every subset keeps 19 rows, fewer than the 22 live terms,
        # so the shape rule sends all of them to gelsy
        problem = self.paper_problem(sim.generate_dataset(2000, 0), 1, degree=2, m=64)
        assert problem.nonzero_rows.size > problem.live_columns.size == 22
        self.assert_gelsy_loop(problem, 1, c=0.3)
        assert "_row_svd" not in vars(problem)  # the replicates took no SVD
        assert 1.0 <= problem.row_condition < math.inf
        assert point_route(problem) == "deletion"  # the point fit keeps every row

    def test_a_batch_straddling_as_many_dropped_rows_as_live_terms_takes_both_forms(self):
        # k=1, m=64, c=0.9: a subset drops 6 or 7 nonzero rows against p=7, so
        # one batch holds 6 x 6 Woodbury systems and 7 x 7 Gram systems
        problem = self.paper_problem(sim.generate_dataset(2000, 0), 8, degree=1, m=64)
        assert problem.nonzero_rows.size == 63 and problem.live_columns.size == 7
        index = replicate_indices(8, 100, problem.m, int(np.floor(0.9 * problem.m)))
        coefficients, ranks, routes = problem.solve_rows(index)
        assert set(problem._dropped_rows(index)[1].tolist()) == {6, 7}
        assert (routes == DELETION).all() and (ranks == 7).all()
        ref_coefficients, ref_ranks = self.live_column_loop(problem, index)
        assert (ref_ranks == 7).all()
        scores = problem.scores_from_coefficients(coefficients)
        ref_scores = problem.scores_from_coefficients(ref_coefficients)
        assert (np.abs(scores - ref_scores) <= 1e-7 * np.abs(ref_scores).max(axis=0)).all()

    @staticmethod
    def tall_collinear_problem(noise):
        """x2 = 3 x1 + 1 up to ``noise``: 80 rows over 3 columns, condition about 8.4 / noise."""
        rng = np.random.default_rng(5)
        ds = linear_dataset(rng, 200, 0.5, [1.0, 0.0], noise=0.1)
        numeric = ds.numeric.copy()
        numeric[:, 1] = 3 * numeric[:, 0] + 1 + noise * rng.standard_normal(200)
        ds = QueryDataset(ds.schema, numeric, ds.codes, ds.outputs)
        problem = build_problem(ds, QueryPoint.from_row(ds, 0), ExplainConfig(degree=1, m=80))
        assert problem.nonzero_rows.size > problem.live_columns.size
        return problem

    def test_more_rows_than_live_terms_above_the_row_condition_gate(self):
        problem = self.tall_collinear_problem(1e-10)
        assert problem.row_condition > 1e10
        assert point_route(problem) == "gelsy"
        self.assert_gelsy_loop(problem, 2)

    def test_more_rows_than_live_terms_within_the_row_condition_gate(self):
        """Row deletion at condition 8.4e9 solves every replicate, within 10 eps kappa of gelsy."""
        problem = self.tall_collinear_problem(1e-9)
        assert 1e8 < problem.row_condition <= 1e10
        index = replicate_indices(2, 200, problem.m, int(np.floor(0.9 * problem.m)))
        coefficients, ranks, routes = problem.solve_rows(index)
        assert (routes == DELETION).all()
        ref_coefficients, ref_ranks = self.live_column_loop(problem, index)
        assert (ranks == ref_ranks).all()
        scores = problem.scores_from_coefficients(coefficients)
        ref_scores = problem.scores_from_coefficients(ref_coefficients)
        bound = 10 * np.finfo(float).eps * problem.row_condition
        assert (np.abs(scores - ref_scores) <= bound * np.abs(ref_scores).max(axis=0)).all()

    def assert_a_subset_that_loses_a_level_takes_gelsy(self, c):
        """Deletion's gate rejects a subset that drops every row of one category; returns its drop count, m' and p."""
        problem = self.paper_problem(sim.generate_dataset(2000, 0), 1, degree=2, m=128)
        live, n_live = problem.live_columns, problem.live_columns.size
        nonzero = problem.Xw[:, live] != 0
        # the rarest level's indicator: the live column nonzero on fewest rows
        level = np.argmin(nonzero.sum(axis=0))
        level_rows = np.flatnonzero(nonzero[:, level])
        assert 0 < level_rows.size < n_live
        m_prime = int(np.floor(c * problem.m))
        kept = np.setdiff1d(np.arange(problem.m), level_rows)[:m_prime]
        others = replicate_indices(3, 20, problem.m, m_prime)
        index = np.vstack([kept, others])
        coefficients, ranks, routes = problem.solve_rows(index)
        # the shape rule admits the subset; the gate sends it to gelsy
        assert routes[0] == GELSY and ranks[0] < n_live
        assert (routes[1:] == DELETION).sum() >= 15
        ref_coefficients, ref_ranks = self.live_column_loop(problem, index[:1])
        assert coefficients[0].tobytes() == ref_coefficients[0].tobytes()
        assert ranks[0] == ref_ranks[0]
        return problem.nonzero_rows.size - np.isin(problem.nonzero_rows, kept).sum(), m_prime, n_live

    def test_a_batch_inside_the_band_the_one_shape_rule_admits_takes_deletion(self):
        """k=2, m=60: subsets drop up to d = p - 1 = 21 nonzero rows and keep m' = 39, in p/2 <= d < p, 1.5 p <= m' < p + d.

        The shape rule 2 m' >= 2 p + min(2 d, p) admits the batch, where
        m' - d >= p would not; row deletion meets ``solve_rows``' contract.
        """
        problem = self.paper_problem(sim.generate_dataset(2000, 0), 1, degree=2, m=60)
        n_rows, n_live = problem.nonzero_rows.size, problem.live_columns.size
        m_prime = problem.m - (n_live - 1)
        most_dropped = min(n_rows, problem.m - m_prime)
        assert n_rows > n_live and n_live / 2 <= most_dropped < n_live and 1.5 * n_live <= m_prime < n_live + most_dropped
        index = replicate_indices(1, 200, problem.m, m_prime)
        coefficients, ranks, routes = problem.solve_rows(index)
        assert set(routes.tolist()) <= {DELETION, GELSY} and (routes == DELETION).sum() >= 180
        assert (ranks[routes == DELETION] == n_live).all()
        ref_coefficients, ref_ranks = self.live_column_loop(problem, index)
        gelsy = routes == GELSY
        assert coefficients[gelsy].tobytes() == ref_coefficients[gelsy].tobytes()
        assert (ranks == ref_ranks).all()
        scores = problem.scores_from_coefficients(coefficients)
        ref_scores = problem.scores_from_coefficients(ref_coefficients)
        assert (np.abs(scores - ref_scores) <= 1e-7 * np.abs(ref_scores).max(axis=0)).all()

    @pytest.mark.parametrize("make_dataset, relations", [
        (lambda: sim.generate_dataset(2000, 0), 0),
        (three_copies_dataset, 3),
    ], ids=["independent", "dependent"])
    def test_downdate_point_fit_is_the_interpolant_of_the_row_svd(self, make_dataset, relations):
        """The point fit takes the downdate's general loop, as an empty stack of dropped rows: ``z V_r'`` bit for bit."""
        problem = self.paper_problem(make_dataset(), 1)
        _, (s, _, _, uty, vt, null, _) = problem._row_svd
        assert null.shape[1] == relations and problem.nonzero_rows.size <= problem.live_columns.size
        assert point_route(problem) == "downdate"
        fit = problem.point_fit
        assert fit.effective_rank == s.size
        assert fit.coefficients[problem.live_columns].tobytes() == (uty / s @ vt).tobytes()
        assert (np.delete(fit.coefficients, problem.live_columns) == 0).all()

    def test_a_subset_that_loses_a_level_takes_gelsy(self):
        drops, m_prime, n_live = self.assert_a_subset_that_loses_a_level_takes_gelsy(0.9)
        assert drops < n_live <= m_prime - drops  # the Woodbury form's batch

    def test_a_subset_that_drops_many_rows_and_a_level_takes_gelsy(self):
        drops, m_prime, n_live = self.assert_a_subset_that_loses_a_level_takes_gelsy(0.5)
        assert drops >= n_live and 2 * m_prime >= 3 * n_live  # the Gram form's batch

    def test_positive_definite_matches_a_per_matrix_cholesky_loop(self):
        """Failures scattered through a stack give the mask a Cholesky of each member gives."""
        rng = np.random.default_rng(12)
        basis = rng.standard_normal((200, 30, 60))
        stack = basis @ basis.transpose(0, 2, 1) / 60 - 0.08 * np.eye(30)
        stack[[3, 17, 18, 101, 199], 5, 5] = -1.0  # besides those the shift leaves indefinite
        expected = []
        for matrix in stack:
            try:
                np.linalg.cholesky(matrix)
                expected.append(True)
            except np.linalg.LinAlgError:
                expected.append(False)
        assert 5 < expected.count(False) < 50
        assert _positive_definite(stack).tolist() == expected
        assert _positive_definite(stack[expected]).all()

    def test_the_gate_factors_each_member_once(self, monkeypatch):
        """Failures scattered through a stack cost no second factorization: one potrf call per member."""
        from localexplain import explain as explain_module

        rng = np.random.default_rng(13)
        basis = rng.standard_normal((120, 20, 40))
        stack = basis @ basis.transpose(0, 2, 1) / 40 - 0.1 * np.eye(20)
        stack[[0, 7, 8, 64, 119], 3, 3] = -1.0
        calls = []
        original = explain_module._POTRF

        def counting(a, **kwargs):
            calls.append(a.shape)
            return original(a, **kwargs)

        monkeypatch.setattr(explain_module, "_POTRF", counting)
        passed = _positive_definite(stack)
        assert 5 <= (~passed).sum() < 60 and passed.any()
        assert calls == [(20, 20)] * len(stack)

    def test_zero_weight_member_lowers_the_rank_by_one(self):
        problem = self.paper_problem(sim.generate_dataset(2000, 0), 1)
        zero_rows = np.flatnonzero(~(problem.Xw != 0).any(axis=1))
        assert zero_rows.size == 1  # the farthest member has weight 0
        m_prime = int(np.floor(0.9 * problem.m))
        index = replicate_indices(1, 500, problem.m, m_prime)
        coefficients, ranks, routes = problem.solve_rows(index)
        assert (routes == DOWNDATE).all()
        holds_zero = (index == zero_rows[0]).any(axis=1)
        assert 0 < holds_zero.sum() < index.shape[0]
        assert (ranks == np.where(holds_zero, m_prime - 1, m_prime)).all()

        ref_coefficients, ref_ranks = self.live_column_loop(problem, index)
        same = ranks == ref_ranks
        assert same[holds_zero].sum() >= holds_zero.sum() - 1
        scores = problem.scores_from_coefficients(coefficients[same])
        ref_scores = problem.scores_from_coefficients(ref_coefficients[same])
        assert (np.abs(scores - ref_scores) <= 1e-7 * np.abs(ref_scores).max(axis=0)).all()

    def test_subsets_keeping_every_nonzero_row_or_none(self):
        problem = self.paper_problem(sim.generate_dataset(2000, 0), 1)
        zero_row = np.flatnonzero(~(problem.Xw != 0).any(axis=1))[0]
        every_other = np.setdiff1d(np.arange(problem.m), [zero_row])
        coefficients, ranks, routes = problem.solve_rows(every_other[None, :])
        assert routes[0] == DOWNDATE
        ref_coefficients, ref_ranks = self.live_column_loop(problem, every_other[None, :])
        assert ranks[0] == ref_ranks[0] == problem.m - 1
        scores = problem.scores_from_coefficients(coefficients[0])
        ref_scores = problem.scores_from_coefficients(ref_coefficients[0])
        assert (np.abs(scores - ref_scores) <= 1e-7 * np.abs(ref_scores).max()).all()

        # every nonzero row dropped: the interpolant less all of itself
        coefficients, ranks, _ = problem.solve_rows(np.array([[zero_row]]))
        assert ranks[0] == 0
        assert np.abs(coefficients).max() <= 1e-12 * np.abs(problem.point_fit.coefficients).max()

    def test_subsets_dropping_only_related_rows_or_every_nonzero_row(self):
        """Downdates whose dropped rows all touch a relation, or that keep no nonzero row.

        Row 1 and its three copies lead the neighborhood, which has 65
        nonzero rows and 3 relations among them.  Dropping 1 to 3 of the
        four removes one relation per row and keeps the rank; the fourth
        takes one rank.  Dropping every nonzero row leaves rank 0, a fit of
        rounding error only, which the bootstrap counts as failed.
        """
        problem = self.paper_problem(three_copies_dataset(), 1)
        n_rows, live = problem.nonzero_rows.size, problem.live_columns
        assert (n_rows, n_rows - problem.row_rank) == (65, 3)
        assert problem.neighborhood.member_indices[problem.nonzero_rows[:4]].tolist() == [1, 2000, 2001, 2002]
        dropped = np.zeros((5, n_rows), dtype=bool)
        for copies in range(1, 5):
            dropped[copies - 1, :copies] = True
        dropped[4] = True
        solved, fits, ranks = problem._downdate(dropped, dropped.sum(axis=1))
        assert solved.all()
        assert ranks.tolist() == [62, 62, 62, 61, 0]
        for mask, fit, rank in zip(dropped[:4], fits, ranks):
            kept = np.setdiff1d(np.arange(problem.m), problem.nonzero_rows[mask])
            ref, ref_rank = lstsq_min_norm(problem.Xw[kept][:, live], problem.yw[kept])
            assert ref_rank == rank
            assert np.abs(fit - ref).max() <= 1e-9 * np.abs(ref).max()
            coefficients = np.zeros((2, problem.basis.q))
            coefficients[:, live] = fit, ref
            scores, ref_scores = problem.scores_from_coefficients(coefficients)
            assert (np.abs(scores - ref_scores) <= 1e-7 * np.abs(ref_scores).max()).all()

    def test_exact_where_a_replicate_holds_the_zero_weight_row(self):
        # gelsy's eps rank cutoff can count the exact zero row of this
        # replicate as independent (rank 9, not 8); the downdate cannot
        problem = self.paper_problem(sim.generate_dataset(2000, 3), 6, m=32)
        rows = replicate_indices(6, 152, problem.m, int(np.floor(0.3 * problem.m)))[151]
        zero_row = np.flatnonzero(~(problem.Xw != 0).any(axis=1))[0]
        assert zero_row in rows
        coefficients, ranks, routes = problem.solve_rows(rows[None, :])
        assert routes[0] == DOWNDATE and ranks[0] == rows.size - 1
        live = problem.live_columns
        exact = np.zeros(problem.basis.q)
        exact[live] = np.linalg.lstsq(problem.Xw[rows][:, live], problem.yw[rows], rcond=1e-10)[0]
        scores = problem.scores_from_coefficients(coefficients[0])
        ref_scores = problem.scores_from_coefficients(exact)
        assert (np.abs(scores - ref_scores) <= 1e-10 * np.abs(ref_scores).max()).all()
