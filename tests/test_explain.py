"""Explanation pipeline: score extraction and naive closed-form intervals."""

import math
import warnings

import numpy as np
import pytest

from localexplain.data import FeatureSchema, FeatureSpec, QueryDataset, from_log_odds
from localexplain.explain import (
    ExplainConfig,
    ExplainError,
    build_problem,
)
from localexplain.neighborhood import QueryPoint

Z_95 = 1.959963985


def point_scores(dataset, query, config):
    return build_problem(dataset, query, config).point_scores()


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


class TestGradientScores:
    def test_linear_model_recovers_coefficients(self):
        rng = np.random.default_rng(40)
        betas = [1.5, -2.25, 0.5]
        ds = linear_dataset(rng, 60, 0.7, betas)
        q = QueryPoint.from_mapping(ds.schema, {"x1": 0.1, "x2": -0.4, "x3": 1.0})
        scores = point_scores(ds, q, ExplainConfig(degree=1, m=60, kind="gradient"))
        assert [s.feature for s in scores] == ["x1", "x2", "x3"]
        np.testing.assert_allclose([s.value for s in scores], betas, atol=1e-8)

    def test_raw_and_standardized_units_consistent(self):
        rng = np.random.default_rng(41)
        ds = linear_dataset(rng, 80, 0.0, [2.0, -1.0], noise=0.3)
        q = QueryPoint.from_mapping(ds.schema, {"x1": 0.2, "x2": 0.2})
        raw = point_scores(ds, q, ExplainConfig(degree=2, m=80, kind="gradient"))
        std = point_scores(
            ds, q, ExplainConfig(degree=2, m=80, kind="gradient", standardized_units=True)
        )
        from localexplain.data import standardize
        _, stats = standardize(ds)
        for s_raw, s_std in zip(raw, std):
            sigma = stats.stddev(s_raw.feature)
            assert s_raw.value * sigma == pytest.approx(s_std.value, abs=1e-9)


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
        assert problem.notes.get("naive_pseudo_inverse") is True
        col = problem.layout.numeric_columns["x1"]
        X, v = problem.X, problem.basis.derivative_row(problem.query_enc, col)
        v = v / problem.stats.stddev("x1")
        beta = np.linalg.pinv(X) @ problem.y
        resid = problem.y - X @ beta
        sigma2 = float(resid @ resid) / (80 - 2 - 1)
        se = math.sqrt(float(v @ np.linalg.pinv(X.T @ X, hermitian=True) @ v) * sigma2)
        assert iv.standard_error == pytest.approx(se, rel=1e-6)
        assert 0.0 < iv.standard_error < 1.0

    def test_pseudo_inverse_noted_on_every_call(self):
        # the note is per problem; a caller that clears it between calls
        # still sees each call that used the pseudo-inverse
        problem = self.collinear_problem(1, 0)
        for feature in ("x1", "x2", "x1"):
            problem.notes.pop("naive_pseudo_inverse", None)
            problem.naive_interval(feature)
            assert problem.notes.get("naive_pseudo_inverse") is True

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
        assert bool(problem.notes.get("naive_pseudo_inverse")) == (case == "pseudo_inverse")

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

    def test_surrogate_diagnostics_exposed(self):
        rng = np.random.default_rng(61)
        ds = linear_dataset(rng, 50, 0.0, [1.0], noise=0.1)
        q = QueryPoint.from_mapping(ds.schema, {"x1": 0.0})
        fit = build_problem(ds, q, ExplainConfig(degree=1, m=50)).point_fit
        assert fit.effective_rank == 2
        assert np.isfinite(fit.condition)
        assert not fit.ill_conditioned
