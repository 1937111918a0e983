"""Ground-truth model, synthetic data, sweep harness, Pareto filtering."""

import math
import multiprocessing
import os
import warnings

import numpy as np
import pytest

from localexplain.data import QueryDataset, standardize
from localexplain.explain import ExplainError, build_problem
from localexplain.sim import (
    SweepGrid,
    SweepRecord,
    generate_dataset,
    ground_truth_gradient,
    ground_truth_value,
    pareto_frontier,
    read_baseline_csv,
    run_sweep,
    sample_query_points,
    write_sweep_csv,
)

TAN_1 = math.tan(1.0)


class TestGroundTruthValue:
    def test_zero_when_x1_is_zero(self):
        for x2 in (-4.0, 0.0, 2.5):
            for a in (1, 2, 3):
                for b in (1, 2, 3):
                    assert ground_truth_value(0.0, x2, a, b) == 0.0

    def test_diagonal_reduces_to_tan_one(self):
        for t in (-2.0, 0.5, 3.0):
            expected = math.sin(t) * math.cos(t) * TAN_1
            assert ground_truth_value(t, t, 1, 1) == pytest.approx(expected, rel=1e-12)

    def test_specific_point(self):
        expected = math.sin(3.0) * math.cos(6.0) * math.tan(0.5)
        assert ground_truth_value(1.0, 2.0, 3, 3) == pytest.approx(expected, rel=1e-12)

    def test_bounded_by_tan_one(self):
        rng = np.random.default_rng(80)
        x1 = rng.uniform(-5, 5, 2000)
        x2 = rng.uniform(-5, 5, 2000)
        a = rng.integers(1, 4, 2000)
        b = rng.integers(1, 4, 2000)
        values = ground_truth_value(x1, x2, a, b)
        assert np.abs(values).max() <= TAN_1 + 1e-12


class TestGroundTruthGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(81)
        h = 1e-6
        for _ in range(100):
            x1, x2 = rng.uniform(-4.5, 4.5, 2)
            a = int(rng.integers(1, 4))
            b = int(rng.integers(1, 4))
            d1, d2 = ground_truth_gradient(x1, x2, a, b)
            fd1 = (ground_truth_value(x1 + h, x2, a, b) - ground_truth_value(x1 - h, x2, a, b)) / (2 * h)
            fd2 = (ground_truth_value(x1, x2 + h, a, b) - ground_truth_value(x1, x2 - h, a, b)) / (2 * h)
            assert d1 == pytest.approx(fd1, rel=1e-6, abs=1e-8)
            assert d2 == pytest.approx(fd2, rel=1e-6, abs=1e-8)

    def test_x1_derivative_at_origin_in_x1(self):
        # at x1 = 0 the second product-rule term vanishes with sin(0)
        for x2 in (-3.0, 0.5, 2.0):
            for a in (1, 2, 3):
                for b in (1, 2, 3):
                    expected = a * math.cos(b * x2) * math.tan(1.0 / (1.0 + x2**2))
                    d1, _ = ground_truth_gradient(0.0, x2, a, b)
                    assert d1 == pytest.approx(expected, rel=1e-12)

    def test_vectorized_output(self):
        d1, d2 = ground_truth_gradient(
            np.array([0.0, 1.0]), np.array([1.0, 2.0]), np.array([1, 2]), np.array([3, 1])
        )
        assert d1.shape == (2,) and d2.shape == (2,)


class TestGenerateDataset:
    def test_shape_ranges_and_finiteness(self):
        ds = generate_dataset(2000, seed=4)
        assert ds.n == 2000
        assert np.isfinite(ds.outputs).all()
        assert ds.numeric.min() >= -5.0 and ds.numeric.max() <= 5.0
        assert set(np.unique(ds.codes)) <= {0, 1, 2}

    def test_deterministic(self):
        a = generate_dataset(200, seed=9)
        b = generate_dataset(200, seed=9)
        np.testing.assert_array_equal(a.numeric, b.numeric)
        np.testing.assert_array_equal(a.codes, b.codes)
        np.testing.assert_array_equal(a.outputs, b.outputs)

    def test_schema_marks_categories_with_baseline_one(self):
        ds = generate_dataset(10, seed=1)
        for name in ("a", "b"):
            spec = ds.schema.feature(name)
            assert spec.kind == "categorical"
            assert spec.categories == ("1", "2", "3")
            assert spec.baseline == "1"

    def test_passes_data_module_validation(self):
        ds = generate_dataset(50, seed=2)
        # re-validating through the constructor and the standardizer
        again = QueryDataset(ds.schema, ds.numeric, ds.codes, ds.outputs)
        standardized, _ = standardize(again)
        assert standardized.n == 50

    def test_single_row(self):
        ds = generate_dataset(1, seed=3)
        assert ds.n == 1 and np.isfinite(ds.outputs).all()


class TestSweep:
    def small_grid(self, **overrides):
        params = dict(
            k_values=(1, 2), m_values=(24,), c_values=(0.5, 0.9),
            n=300, p=3, B=24, alpha=0.05, seed=13,
        )
        params.update(overrides)
        return SweepGrid(**params)

    def test_degenerate_grid_yields_two_records(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = run_sweep(self.small_grid(k_values=(2,), c_values=(0.7,)))
        assert len(records) == 2
        assert {r.method for r in records} == {"bootstrap", "naive"}

    def test_record_cardinality_is_grid_size_per_method(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = run_sweep(self.small_grid())
        assert len(records) == 2 * 2 * 1 * 2
        assert sum(r.method == "bootstrap" for r in records) == 4

    def test_deterministic_across_runs(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            r1 = run_sweep(self.small_grid(), threads=1)
            r2 = run_sweep(self.small_grid())
            r3 = run_sweep(self.small_grid())
        assert r1 == r2 == r3

    @pytest.mark.parametrize("name, override", [
        ("k", dict(k_values=(1, 1))),
        ("m", dict(m_values=(24, 32, 24))),
        ("c", dict(c_values=(0.9, 0.5, 0.9))),
    ])
    def test_a_repeated_grid_value_is_rejected(self, name, override):
        # a repeated value would give several different records for one (method, k, m, c)
        with pytest.raises(ValueError, match=rf"sweep grid {name} list .* repeats a value"):
            self.small_grid(**override)

    @pytest.mark.parametrize("threads", [0, 2])
    def test_threads_other_than_one_raise(self, threads):
        with pytest.raises(ValueError, match="threads must be 1"):
            run_sweep(self.small_grid(), threads=threads)

    def test_records_do_not_depend_on_the_worker_count(self):
        # 2 m x 3 points x 2 k: more units than workers
        grid = self.small_grid(m_values=(24, 32))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            serial = repr(run_sweep(grid, processes=1))
            for processes in (2, 3, None):
                assert repr(run_sweep(grid, processes=processes)) == serial, processes
                assert multiprocessing.active_children() == []

    def test_an_untyped_error_in_a_worker_propagates_and_leaves_no_child(self, monkeypatch):
        def build_or_raise(dataset, point, config):
            if config.degree == 2:
                raise ValueError("a bug at k=2")
            return build_problem(dataset, point, config)

        monkeypatch.setattr("localexplain.sim.build_problem", build_or_raise)
        with warnings.catch_warnings(), pytest.raises(ValueError, match="a bug at k=2"):
            warnings.simplefilter("ignore")
            run_sweep(self.small_grid(), processes=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("action", ["always", "default"])
    def test_workers_warnings_are_shown_as_in_process(self, action):
        # at k=3, m=24 < q every problem warns that its fit is underdetermined
        shown = []
        for processes in (1, 2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                run_sweep(self.small_grid(k_values=(1, 3)), processes=processes)
            shown.append([(str(w.message), w.category, w.filename, w.lineno) for w in caught])
        assert shown[0] and shown[1] == shown[0]

    def test_zero_processes_raise(self):
        with pytest.raises(ValueError, match="at least one process, got processes=0"):
            run_sweep(self.small_grid(), processes=0)

    def test_without_fork_the_units_run_in_this_process(self, monkeypatch):
        pids = []

        def build_and_record(dataset, point, config):
            pids.append(os.getpid())
            return build_problem(dataset, point, config)

        monkeypatch.setattr("localexplain.sim.build_problem", build_and_record)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            forked = run_sweep(self.small_grid(), processes=2)
            assert pids == []  # the workers recorded into their own copies
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
            assert run_sweep(self.small_grid(), processes=2) == forked
        assert pids == [os.getpid()] * 6  # 2 k x 1 m x 3 points

    def test_the_default_count_forks_only_from_the_replicate_cutoff(self, monkeypatch):
        pids = []

        def build_and_record(dataset, point, config):
            pids.append(os.getpid())
            return build_problem(dataset, point, config)

        monkeypatch.setattr("localexplain.sim.build_problem", build_and_record)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        grid = self.small_grid()  # 6 units x 2 c x B=24: 288 replicates
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            monkeypatch.setattr("localexplain.sim.POOL_MIN_REPLICATES", 289)
            serial = run_sweep(grid)
            assert pids == [os.getpid()] * 6
            monkeypatch.setattr("localexplain.sim.POOL_MIN_REPLICATES", 288)
            assert run_sweep(grid) == serial
        assert len(pids) == 6  # the workers recorded into their own copies
        assert multiprocessing.active_children() == []

    def test_a_pool_worker_runs_its_sweep_in_process(self):
        # a daemonic multiprocessing.Pool worker may not fork workers of its own
        with multiprocessing.get_context("fork").Pool(1) as pool:
            records = pool.apply_async(run_sweep, (self.small_grid(k_values=(1,)), 1, 2)).get(timeout=120)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert records == run_sweep(self.small_grid(k_values=(1,)), processes=1)

    def test_coverage_and_widths_are_sane(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = run_sweep(self.small_grid())
        for r in records:
            assert 0.0 <= r.coverage <= 1.0
            assert r.failed_points >= 0
            if r.failed_points < r.points:
                assert np.isfinite(r.avg_width)

    def test_failed_points_are_counted_per_record(self):
        # at m=5 the naive interval has 0 degrees of freedom and the bootstrap fails too
        grid = SweepGrid(k_values=(1,), m_values=(5, 40), c_values=(0.5,), n=200, p=4, B=20, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            records = run_sweep(grid)
        assert [(r.method, r.m, r.failed_points, r.points, r.invalid) for r in records] == [
            ("bootstrap", 5, 4, 4, True), ("bootstrap", 40, 0, 4, False),
            ("naive", 5, 4, 4, True), ("naive", 40, 0, 4, False),
        ]
        assert all(math.isnan(r.avg_width) and r.coverage == 0 for r in records if r.m == 5)

    def test_a_problem_that_cannot_be_built_fails_every_method_of_its_k(self, monkeypatch):
        def build_or_fail(dataset, point, config):
            if config.degree == 2:
                raise ExplainError("no problem at k=2")
            return build_problem(dataset, point, config)

        monkeypatch.setattr("localexplain.sim.build_problem", build_or_fail)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            records = run_sweep(self.small_grid())
        assert len(records) == 8
        for r in records:
            assert r.failed_points == (r.points if r.k == 2 else 0), r
            assert r.invalid == (r.k == 2)

    def test_query_points_shared_and_interior(self):
        grid = self.small_grid(p=40)
        points, truths = sample_query_points(grid)
        assert len(points) == 40 and truths.shape == (40,)
        for pt in points:
            assert np.abs(pt.numeric).max() <= 4.5
        again, _ = sample_query_points(grid)
        np.testing.assert_array_equal(points[0].numeric, again[0].numeric)
        d1, _ = ground_truth_gradient(
            np.array([p.numeric[0] for p in points]),
            np.array([p.numeric[1] for p in points]),
            np.array([p.codes[0] for p in points]) + 1,
            np.array([p.codes[1] for p in points]) + 1,
        )
        np.testing.assert_allclose(truths, d1)  # the sweep checks dS/dx1


class TestParetoFrontier:
    def rec(self, method, width, coverage, k=1, m=8, c=0.5):
        return SweepRecord(method=method, k=k, m=m, c=c, avg_width=width,
                           coverage=coverage, failed_points=0, points=10)

    def test_dominance_filtering(self):
        records = [
            self.rec("naive", 1.0, 0.5, k=1),
            self.rec("naive", 2.0, 0.9, k=2),
            self.rec("naive", 2.0, 0.4, k=3),
        ]
        frontier = pareto_frontier(records, "naive")
        kept = {(r.avg_width, r.coverage) for r in frontier}
        assert kept == {(1.0, 0.5), (2.0, 0.9)}

    def test_single_record_is_its_own_frontier(self):
        records = [self.rec("bootstrap", 1.0, 0.5)]
        assert pareto_frontier(records, "bootstrap") == records

    def test_identical_records_all_retained(self):
        records = [self.rec("naive", 1.0, 0.5, k=k) for k in (1, 2, 3)]
        assert len(pareto_frontier(records, "naive")) == 3

    def test_mutual_nondomination(self):
        rng = np.random.default_rng(83)
        records = [
            self.rec("bootstrap", float(w), float(cv), k=i)
            for i, (w, cv) in enumerate(zip(rng.uniform(0, 5, 40), rng.uniform(0, 1, 40)))
        ]
        frontier = pareto_frontier(records, "bootstrap")
        for r in frontier:
            for o in frontier:
                if r is o:
                    continue
                assert not (
                    (o.coverage >= r.coverage and o.avg_width <= r.avg_width)
                    and (o.coverage > r.coverage or o.avg_width < r.avg_width)
                )

    def test_invalid_records_excluded(self):
        good = self.rec("bootstrap", 1.0, 0.9)
        bad = SweepRecord("bootstrap", 2, 8, 0.5, 0.5, 0.95, failed_points=5, points=10)
        assert pareto_frontier([good, bad], "bootstrap") == [good]

    def test_methods_do_not_mix(self):
        records = [self.rec("bootstrap", 1.0, 0.9), self.rec("naive", 0.5, 0.95)]
        assert pareto_frontier(records, "bootstrap") == [records[0]]


class TestSweepCsv:
    def test_roundtrip_ordering_and_merge_format(self, tmp_path):
        records = [
            SweepRecord("naive", 2, 32, 0.5, 1.25, 0.5, 0, 10),
            SweepRecord("bootstrap", 1, 32, 0.5, 0.75, 0.9, 1, 10),
            SweepRecord("bootstrap", 1, 16, 0.3, 0.5, 0.8, 0, 10),
        ]
        path = tmp_path / "sweep.csv"
        write_sweep_csv(records, str(path), header_comment="manifest: {}")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# manifest")
        assert lines[1] == "method,k,m,c,avg_width,coverage,failed_points"
        assert lines[2].startswith("bootstrap,1,16,")  # sorted by (method, k, m, c)
        back = read_baseline_csv(str(path))
        assert [r.method for r in back] == ["bootstrap", "bootstrap", "naive"]
        assert back[0].avg_width == 0.5

    def test_external_baseline_with_minimal_columns(self, tmp_path):
        path = tmp_path / "baseline.csv"
        path.write_text("method,avg_width,coverage\nbayes,0.4,0.7\n")
        (rec,) = read_baseline_csv(str(path))
        assert rec.method == "bayes"
        assert rec.k is None and rec.m is None and rec.c is None
        assert not rec.invalid

    def test_baseline_header_read_with_the_data_csv_rules(self, tmp_path):
        # a leading comment line, spaced names and cells, a duplicated column and a blank row
        path = tmp_path / "baseline.csv"
        path.write_text(
            "# manifest: {}\n method , avg_width,coverage , k,method\n"
            " bayes ,0.4, 0.7,2,other\n\nbayes,0.5,0.6, ,other\n"
        )
        first, second = read_baseline_csv(str(path))
        assert (first.method, first.avg_width, first.coverage, first.k) == ("bayes", 0.4, 0.7, 2)
        assert (second.method, second.k) == ("bayes", None)
