"""Percentile bootstrap: replicate mechanics, percentiles, interval laws."""

import numpy as np
import pytest

from localexplain.bootstrap import (
    BootstrapConfig,
    BootstrapDistribution,
    BootstrapError,
    bootstrap_from_problem,
    intervals_from_distribution,
    percentile,
    replicate_indices,
)
from localexplain.data import FeatureSchema, FeatureSpec, QueryDataset
from localexplain.explain import ExplainConfig, build_problem
from localexplain.neighborhood import QueryPoint


def cubic_dataset(rng, n=60, noise=0.0):
    x = rng.uniform(-2.0, 2.0, size=(n, 1))
    y = 1.0 - 2.0 * x[:, 0] + 0.5 * x[:, 0] ** 3 + noise * rng.standard_normal(n)
    schema = FeatureSchema((FeatureSpec("x1", "continuous"),))
    return QueryDataset(schema, x, np.zeros((n, 0), dtype=np.int64), y)


def query_at(ds, x):
    return QueryPoint.from_mapping(ds.schema, {"x1": x})


class TestPercentile:
    def test_median(self):
        assert percentile(np.array([1, 2, 3, 4, 5]), 50) == 3.0

    def test_interpolated_rank(self):
        # h = (5-1)*20/100 = 0.8 -> 1 + 0.8 * (2 - 1)
        assert percentile(np.array([1, 2, 3, 4, 5]), 20) == pytest.approx(1.8)

    def test_single_value(self):
        for p in (0.0, 13.0, 50.0, 99.0, 100.0):
            assert percentile(np.array([7.0]), p) == 7.0

    def test_extremes_are_min_and_max(self):
        rng = np.random.default_rng(70)
        values = rng.normal(size=31)
        assert percentile(values, 0) == values.min()
        assert percentile(values, 100) == values.max()

    def test_unsorted_input_allowed(self):
        assert percentile(np.array([5, 1, 4, 2, 3]), 50) == 3.0

    def test_empty_rejected(self):
        with pytest.raises(BootstrapError):
            percentile(np.array([]), 50)

    def test_matrix_columns_match_vector_calls(self):
        rng = np.random.default_rng(72)
        for B in (1, 2, 7, 500):
            values = rng.normal(size=(B, 4))
            values[:, 3] = np.round(values[:, 3])  # ties
            for p in (0.0, 2.5, 13.0, 50.0, 97.5, 100.0):
                columns = percentile(values, p)
                assert columns.shape == (4,)
                for j in range(4):
                    assert columns[j] == percentile(values[:, j], p)

    def test_out_of_range_p_rejected(self):
        with pytest.raises(BootstrapError):
            percentile(np.array([1.0]), 101)


class TestReplicateIndices:
    def test_exact_size_and_distinct_members(self):
        idx = replicate_indices(seed=9, B=50, m=40, m_prime=17)
        assert idx.shape == (50, 17)
        for row in idx:
            assert len(set(row.tolist())) == 17
        assert idx.min() >= 0 and idx.max() < 40

    def test_reproducible_per_key(self):
        a = replicate_indices(123, 20, 100, 30)
        b = replicate_indices(123, 20, 100, 30)
        np.testing.assert_array_equal(a, b)
        c = replicate_indices(124, 20, 100, 30)
        assert not np.array_equal(a, c)

    def test_rows_differ_within_a_run(self):
        idx = replicate_indices(123, 20, 100, 30)
        assert len({tuple(row) for row in idx.tolist()}) == 20

    def test_prefix_stable_in_B(self):
        full = replicate_indices(7, 64, 30, 12)
        for B in (1, 2, 17, 63):
            np.testing.assert_array_equal(replicate_indices(7, B, 30, 12), full[:B])

    def test_negative_seed_accepted(self):
        idx = replicate_indices(-5, 3, 20, 5)
        assert idx.shape == (3, 5)
        np.testing.assert_array_equal(idx, replicate_indices(-5, 3, 20, 5))


class TestConfigValidation:
    def test_bad_B(self):
        with pytest.raises(BootstrapError):
            BootstrapConfig(B=1)

    def test_bad_c(self):
        for c in (0.0, 1.0, -0.2, 1.4):
            with pytest.raises(BootstrapError):
                BootstrapConfig(c=c)

    def test_bad_alpha(self):
        with pytest.raises(BootstrapError):
            BootstrapConfig(alpha=0.0)

    def test_m_prime_floor(self):
        ds = cubic_dataset(np.random.default_rng(71), n=150)
        problem = build_problem(
            ds, query_at(ds, 0.0), ExplainConfig(degree=1, m=150, kind="gradient")
        )
        _, dist = bootstrap_from_problem(problem, BootstrapConfig(B=5, c=0.667, seed=0))
        assert dist.m_prime == 100  # floor(0.667 * 150)

    def test_m_prime_too_small(self):
        ds = cubic_dataset(np.random.default_rng(72), n=10)
        problem = build_problem(
            ds, query_at(ds, 0.0), ExplainConfig(degree=1, m=10, kind="gradient")
        )
        with pytest.raises(BootstrapError, match="too small"):
            bootstrap_from_problem(problem, BootstrapConfig(B=5, c=0.15, seed=0))


class TestIntervals:
    def test_noiseless_polynomial_gives_zero_width_around_truth(self):
        ds = cubic_dataset(np.random.default_rng(73), n=60)
        cfg = ExplainConfig(degree=3, m=60, kind="gradient")
        boot = BootstrapConfig(B=64, c=0.7, alpha=0.05, seed=5)
        intervals, dist = bootstrap_from_problem(build_problem(ds, query_at(ds, 0.4), cfg), boot)
        iv = intervals[0]
        truth = -2.0 + 1.5 * 0.4**2  # derivative of 1 - 2x + 0.5x^3
        assert iv.upper - iv.lower <= 1e-8
        assert iv.lower - 1e-8 <= truth <= iv.upper + 1e-8
        assert dist.failed_replicates == 0

    def test_crafted_distribution_percentiles(self):
        dist = BootstrapDistribution(
            names=("z",), scores=np.array([[1.0], [2.0], [3.0], [4.0], [5.0]]),
            failed_replicates=0, B=5, m_prime=3, solved_by={"downdate": 0, "deletion": 0, "gelsy": 5},
            replicate_rank={"min": 3, "median": 3.0, "max": 3},
        )
        (iv,) = intervals_from_distribution(dist, alpha=0.4)
        assert iv.lower == pytest.approx(1.8)
        assert iv.upper == pytest.approx(4.2)

    def test_interval_endpoints_are_order_statistics(self):
        rng = np.random.default_rng(74)
        ds = cubic_dataset(rng, n=80, noise=0.6)
        cfg = ExplainConfig(degree=2, m=80, kind="gradient")
        boot = BootstrapConfig(B=200, c=0.5, alpha=0.1, seed=11)
        intervals, dist = bootstrap_from_problem(build_problem(ds, query_at(ds, 0.0), cfg), boot)
        col = dist.scores[:, dist.names.index("x1")]
        assert intervals[0].lower == pytest.approx(percentile(col, 5.0))
        assert intervals[0].upper == pytest.approx(percentile(col, 95.0))

    def test_nesting_across_alpha(self):
        rng = np.random.default_rng(75)
        ds = cubic_dataset(rng, n=80, noise=0.6)
        cfg = ExplainConfig(degree=2, m=80, kind="gradient")
        _, dist = bootstrap_from_problem(
            build_problem(ds, query_at(ds, 0.1), cfg), BootstrapConfig(B=150, c=0.6, seed=3)
        )
        tight = intervals_from_distribution(dist, 0.20)
        mid = intervals_from_distribution(dist, 0.05)
        wide = intervals_from_distribution(dist, 0.01)
        for t, m_, w in zip(tight, mid, wide):
            assert w.lower <= m_.lower <= t.lower
            assert t.upper <= m_.upper <= w.upper

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(76)
        ds = cubic_dataset(rng, n=70, noise=0.4)
        cfg = ExplainConfig(degree=2, m=70, kind="gradient")
        boot = BootstrapConfig(B=100, c=0.8, seed=21)
        _, d1 = bootstrap_from_problem(build_problem(ds, query_at(ds, 0.2), cfg), boot)
        _, d2 = bootstrap_from_problem(build_problem(ds, query_at(ds, 0.2), cfg), boot)
        np.testing.assert_array_equal(d1.scores, d2.scores)

    def test_seed_changes_endpoints_but_not_exact_width(self):
        ds = cubic_dataset(np.random.default_rng(77), n=60)
        cfg = ExplainConfig(degree=3, m=60, kind="gradient")
        widths = []
        for seed in (1, 2, 3):
            intervals, _ = bootstrap_from_problem(
                build_problem(ds, query_at(ds, -0.3), cfg), BootstrapConfig(B=50, c=0.7, seed=seed)
            )
            widths.append(intervals[0].upper - intervals[0].lower)
        assert max(widths) <= 1e-8

    @pytest.mark.parametrize("degree, m, c, route", [
        (2, 40, 0.95, "deletion"),  # 39 nonzero rows, 3 live terms, 1-2 dropped
        (2, 40, 0.5, "deletion"),  # 19-20 dropped, at least the live terms: the Gram form
        (4, 40, 0.1, "gelsy"),  # 4 rows kept, fewer than the 5 live terms
        (4, 5, 0.6, "downdate"),  # 4 nonzero rows, 5 live terms
    ])
    def test_solved_by_counts_every_replicate_by_route(self, degree, m, c, route):
        ds = cubic_dataset(np.random.default_rng(78), noise=0.3)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # underdetermined at m=5
            problem = build_problem(ds, query_at(ds, 0.1), ExplainConfig(degree=degree, m=m, kind="gradient"))
        boot = BootstrapConfig(B=50, c=c, seed=9)
        _, dist = bootstrap_from_problem(problem, boot)
        assert list(dist.solved_by) == ["downdate", "deletion", "gelsy"]
        assert sum(dist.solved_by.values()) == boot.B
        assert dist.solved_by[route] >= 40
        index = replicate_indices(boot.seed, boot.B, m, int(np.floor(c * m)))
        _, ranks, routes = problem.solve_rows(index)
        assert list(dist.solved_by.values()) == np.bincount(routes, minlength=3).tolist()
        assert dist.replicate_rank == {"min": ranks.min(), "median": np.median(ranks), "max": ranks.max()}

    def test_too_many_failures_raise(self):
        # every row identical: every replicate fit has rank 1 and fails
        schema = FeatureSchema((FeatureSpec("x1", "continuous"),))
        x = np.full((30, 1), 2.0)
        ds = QueryDataset(schema, x, np.zeros((30, 0), dtype=np.int64), np.full(30, 5.0))
        q = QueryPoint.from_mapping(schema, {"x1": 2.0})
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            problem = build_problem(ds, q, ExplainConfig(degree=2, m=30, kind="gradient"))
        with pytest.raises(BootstrapError, match="failed"):
            bootstrap_from_problem(problem, BootstrapConfig(B=20, c=0.5, seed=0))

    def test_minority_of_failed_replicates_dropped(self):
        # 6 of 20 rows share x = 0; a 2-member subset drawn from them has
        # rank 1 (about 8% of replicates), every other subset recovers the
        # noiseless slope exactly
        schema = FeatureSchema((FeatureSpec("x1", "continuous"),))
        x = np.concatenate([np.zeros(6), np.linspace(-2.0, 2.0, 14)]).reshape(-1, 1)
        ds = QueryDataset(schema, x, np.zeros((20, 0), dtype=np.int64), 1.0 + 2.0 * x[:, 0])
        cfg = ExplainConfig(degree=1, m=20, kind="gradient", weighted=False)
        problem = build_problem(ds, query_at(ds, 0.0), cfg)
        boot = BootstrapConfig(B=200, c=0.12, seed=4)
        _, dist = bootstrap_from_problem(problem, boot)
        tied = x[problem.neighborhood.member_indices, 0] == 0.0
        index = replicate_indices(boot.seed, boot.B, 20, 2)
        expected = int(tied[index].all(axis=1).sum())
        assert 0 < expected <= 0.2 * boot.B
        assert dist.failed_replicates == expected
        assert dist.scores.shape == (boot.B - expected, 1)
        np.testing.assert_allclose(dist.scores, 2.0, rtol=1e-9)
