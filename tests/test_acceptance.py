"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines as
they complete.  The desk-scale coverage sweep (criteria 3 and 4) dominates
the runtime; everything else finishes in seconds.
"""

import json
import math
import time
import warnings
from collections import defaultdict

import numpy as np
import pytest

import localexplain as lx
from localexplain.bootstrap import BootstrapConfig, bootstrap_from_problem, percentile
from localexplain.cli import main
from localexplain.explain import ExplainConfig, build_problem
from localexplain.neighborhood import QueryPoint
from localexplain.polyfit import expand_basis, lstsq_min_norm
from localexplain.sim import (
    SweepGrid,
    ground_truth_gradient,
    ground_truth_value,
    run_sweep,
)

DESK_SEEDS = (101, 202, 303)


def report(criterion: int, detail: str) -> None:
    print(f"criterion {criterion}: PASS - {detail}")


@pytest.fixture(scope="module")
def desk_sweep():
    """The shared desk-scale sweep used by criteria 3 and 4."""
    start = time.time()
    results = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in DESK_SEEDS:
            grid = SweepGrid(
                k_values=(1, 2, 3, 4),
                m_values=(32, 64, 128, 256),
                c_values=(0.3, 0.5, 0.7, 0.9),
                n=2000,
                p=50,
                B=200,
                alpha=0.05,
                seed=seed,
            )
            results[seed] = run_sweep(grid)
    assert time.time() - start < 1800.0
    return results


# -----------------------------------------------------------------------
# 1. exact recovery on noiseless polynomial ground truths
# -----------------------------------------------------------------------


def _exact_case_1d(rng):
    n = 60
    x = rng.uniform(-2, 2, size=(n, 1))
    y = 2.0 + 3.0 * x[:, 0] - x[:, 0] ** 2
    schema = lx.FeatureSchema((lx.FeatureSpec("x1", "continuous"),))
    ds = lx.QueryDataset(schema, x, np.zeros((n, 0), dtype=np.int64), y)
    qv = 0.4
    query = {"x1": qv}
    gradient_truth = {"x1": 3.0 - 2.0 * qv}
    delta = 0.3
    diff_truth = {"x1": 6.0 * delta - 4.0 * qv * delta}
    return ds, query, gradient_truth, diff_truth, {"x1": delta}, 2, False


def _exact_case_2d(rng):
    n = 80
    x = rng.uniform(-2, 2, size=(n, 2))
    y = 1.0 + 2.0 * x[:, 0] - x[:, 1] + 0.5 * x[:, 0] * x[:, 1] + x[:, 1] ** 2
    schema = lx.FeatureSchema(
        (lx.FeatureSpec("x1", "continuous"), lx.FeatureSpec("x2", "continuous"))
    )
    ds = lx.QueryDataset(schema, x, np.zeros((n, 0), dtype=np.int64), y)
    q1, q2 = 0.5, -0.25
    query = {"x1": q1, "x2": q2}
    gradient_truth = {"x1": 2.0 + 0.5 * q2, "x2": -1.0 + 0.5 * q1 + 2.0 * q2}
    deltas = {"x1": 0.2, "x2": 0.4}
    diff_truth = {
        "x1": 2.0 * deltas["x1"] * gradient_truth["x1"],
        "x2": (-1.0 + 0.5 * q1) * 2 * deltas["x2"] + ((q2 + deltas["x2"]) ** 2 - (q2 - deltas["x2"]) ** 2),
    }
    return ds, query, gradient_truth, diff_truth, deltas, 2, False


def _exact_case_3d_with_categorical(rng):
    n = 90
    x = rng.uniform(-2, 2, size=(n, 2))
    codes = (np.arange(n) % 3).reshape(-1, 1)
    offsets = np.array([0.0, 1.5, -0.75])[codes[:, 0]]
    y = 2.0 + x[:, 0] - 0.5 * x[:, 1] + 0.25 * x[:, 0] ** 2 + offsets
    schema = lx.FeatureSchema(
        (
            lx.FeatureSpec("x1", "continuous"),
            lx.FeatureSpec("x2", "continuous"),
            lx.FeatureSpec("c", "categorical", categories=("r", "g", "b"), baseline="r"),
        )
    )
    ds = lx.QueryDataset(schema, x, codes, y)
    q1, q2 = -0.3, 0.7
    query = {"x1": q1, "x2": q2, "c": "g"}
    gradient_truth = {"x1": 1.0 + 0.5 * q1, "x2": -0.5, "c": 1.5}
    deltas = {"x1": 0.25, "x2": 0.5}
    diff_truth = {
        "x1": 2 * deltas["x1"] * gradient_truth["x1"],
        "x2": -0.5 * 2 * deltas["x2"],
        "c": 1.5,
    }
    return ds, query, gradient_truth, diff_truth, deltas, 2, True


def test_criterion_1_exact_recovery():
    start = time.time()
    rng = np.random.default_rng(1001)
    checked = 0
    for case in (_exact_case_1d, _exact_case_2d, _exact_case_3d_with_categorical):
        ds, qvals, grad_truth, diff_truth, deltas, degree, balanced = case(rng)
        query = QueryPoint.from_mapping(ds.schema, qvals)
        m = ds.n
        for kind, truth in (("gradient", grad_truth), ("function_difference", diff_truth)):
            config = ExplainConfig(
                degree=degree, m=m, kind=kind, weighted=True,
                balance=balanced, deltas=deltas,
            )
            problem = build_problem(ds, query, config)
            scores = problem.point_scores()
            for s in scores:
                assert abs(s.value - truth[s.feature]) <= 1e-6, (
                    f"{s.feature} ({kind}): {s.value} vs {truth[s.feature]}"
                )
            intervals, dist = bootstrap_from_problem(
                problem, BootstrapConfig(B=60, c=0.8, alpha=0.05, seed=7)
            )
            for iv in intervals:
                assert iv.upper - iv.lower <= 1e-6
                assert iv.lower - 1e-6 <= truth[iv.feature] <= iv.upper + 1e-6
            checked += len(scores)
        naive_problem = build_problem(
            ds, query,
            ExplainConfig(degree=degree, m=m, kind="gradient", weighted=False,
                          balance=balanced, deltas=deltas),
        )
        for spec in ds.schema.numeric_features:
            iv = naive_problem.naive_interval(spec.name, 0.05)
            assert iv.upper - iv.lower <= 1e-6
            assert abs(0.5 * (iv.lower + iv.upper) - grad_truth[spec.name]) <= 1e-6
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(1, f"exact recovery of {checked} scores across d in {{1,2,3}} in {elapsed:.1f}s")


# -----------------------------------------------------------------------
# 2. naive-interval calibration on a well-specified model
# -----------------------------------------------------------------------


def test_criterion_2_naive_calibration():
    start = time.time()
    trials = 1000
    coefs = (1.5, -2.0, 0.7, 0.4)
    schema = lx.FeatureSchema((lx.FeatureSpec("x", "continuous"),))
    covered = 0
    for t in range(trials):
        rng = np.random.default_rng((9, t))
        x = rng.uniform(-2, 2, 200)
        y = (
            coefs[0] + coefs[1] * x + coefs[2] * x**2 + coefs[3] * x**3
            + rng.standard_normal(200)
        )
        ds = lx.QueryDataset(schema, x.reshape(-1, 1), np.zeros((200, 0), dtype=np.int64), y)
        problem = build_problem(
            ds, QueryPoint.from_mapping(schema, {"x": 0.0}),
            ExplainConfig(degree=3, m=200, kind="gradient", weighted=False, balance=False),
        )
        iv = problem.naive_interval("x", 0.05)
        covered += iv.lower <= coefs[1] <= iv.upper
    coverage = covered / trials
    elapsed = time.time() - start
    assert 0.93 <= coverage <= 0.97, f"coverage {coverage}"
    assert elapsed < 120.0
    report(2, f"95% naive interval covered the true derivative in {coverage:.3f} of {trials} trials ({elapsed:.0f}s)")


# -----------------------------------------------------------------------
# 3. bootstrap weakly dominates the naive intervals at desk scale
# -----------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_3_pareto_dominance(desk_sweep):
    for seed, records in desk_sweep.items():
        boot = [r for r in records if r.method == "bootstrap" and not r.invalid]
        naive = [r for r in records if r.method == "naive" and not r.invalid]
        best_boot = max(r.coverage for r in boot)
        assert best_boot >= 0.85, f"seed {seed}: best bootstrap coverage {best_boot}"
        for nr in naive:
            if nr.coverage <= 0.85:
                continue
            comparators = [br for br in boot if br.coverage >= nr.coverage]
            assert comparators, (
                f"seed {seed}: naive k={nr.k} m={nr.m} coverage {nr.coverage} "
                "exceeds every bootstrap record"
            )
            min_width = min(br.avg_width for br in comparators)
            assert nr.avg_width >= 2.0 * min_width, (
                f"seed {seed}: naive k={nr.k} m={nr.m} width {nr.avg_width} "
                f"< 2 x bootstrap width {min_width} at coverage >= {nr.coverage}"
            )
    report(3, f"bootstrap reached coverage >= 0.85 in all {len(desk_sweep)} seeds; "
              "no naive record beat it without >= 2x the width")


# -----------------------------------------------------------------------
# 4. hyperparameter width trends
# -----------------------------------------------------------------------


def _pair_fraction(records, vary: str, higher_is_smaller: bool):
    groups = defaultdict(list)
    for r in records:
        key = tuple((f, getattr(r, f)) for f in ("k", "m", "c") if f != vary)
        groups[key].append(r)
    good = total = 0
    for rs in groups.values():
        rs = sorted(rs, key=lambda r: getattr(r, vary))
        for i in range(len(rs)):
            for j in range(i + 1, len(rs)):
                total += 1
                lo, hi = rs[i], rs[j]
                if higher_is_smaller:
                    good += hi.avg_width < lo.avg_width
                else:
                    good += hi.avg_width > lo.avg_width
    return good, total


@pytest.mark.slow
def test_criterion_4_hyperparameter_trends(desk_sweep):
    fractions = {}
    for vary, higher_is_smaller, threshold in (
        ("c", True, 0.75),
        ("k", False, 0.75),
        ("m", True, 0.70),
    ):
        good = total = 0
        for records in desk_sweep.values():
            boot = [r for r in records if r.method == "bootstrap" and not r.invalid]
            g, t = _pair_fraction(boot, vary, higher_is_smaller)
            good += g
            total += t
        fraction = good / total
        fractions[vary] = fraction
        direction = "smaller" if higher_is_smaller else "larger"
        assert fraction >= threshold, (
            f"higher {vary} gave {direction} width in only {fraction:.2f} of pairs"
        )
    report(4, "width trends held: higher c smaller {c:.0%}, higher k larger {k:.0%}, "
              "higher m smaller {m:.0%}".format(**fractions))


# -----------------------------------------------------------------------
# 5. percentile against an independent implementation
# -----------------------------------------------------------------------


def test_criterion_5_percentile_oracle():
    start = time.time()
    rng = np.random.default_rng(1005)
    for _ in range(1000):
        size = int(rng.integers(1, 51))
        values = rng.normal(scale=10.0, size=size)
        p = float(rng.uniform(0, 100))
        ours = percentile(values, p)
        # numpy's default linear interpolation implements the same
        # closest-ranks rule and serves as the independent oracle
        theirs = float(np.percentile(values, p))
        assert abs(ours - theirs) <= 1e-12 * max(1.0, abs(theirs))
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(5, f"1000 random arrays matched the independent percentile oracle ({elapsed:.2f}s)")


# -----------------------------------------------------------------------
# 6. analytic derivatives against finite differences
# -----------------------------------------------------------------------


def test_criterion_6_derivative_oracle():
    start = time.time()
    rng = np.random.default_rng(1006)
    h = 1e-5
    for _ in range(200):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        basis = expand_basis(d, k)
        coefficients = rng.normal(size=basis.q)
        rows = rng.uniform(-1.5, 1.5, size=(3 * basis.q, d))
        X = basis.design_matrix(rows)
        coef, _ = lstsq_min_norm(X, X @ coefficients)
        point = rng.uniform(-1, 1, size=d)
        col = int(rng.integers(0, d))
        hi = point.copy(); hi[col] += h
        lo = point.copy(); lo[col] -= h
        fd = (float(basis.basis_row(hi) @ coef) - float(basis.basis_row(lo) @ coef)) / (2 * h)
        pd = float(basis.derivative_row(point, col) @ coef)
        assert abs(pd - fd) <= 1e-6 * max(1.0, abs(fd)), f"{pd} vs {fd}"
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(6, f"200 random surrogates matched central differences ({elapsed:.1f}s)")


# -----------------------------------------------------------------------
# 7. CLI determinism across reruns
# -----------------------------------------------------------------------


def test_criterion_7_cli_determinism(tmp_path):
    data = tmp_path / "sim.csv"
    schema = tmp_path / "schema.json"
    assert main(["simulate", "--n", "400", "--seed", "17",
                 "--data-out", str(data), "--schema-out", str(schema)]) == 0

    explain_payloads = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        code = main([
            "explain", "--data", str(data), "--schema", str(schema), "--query", "5",
            "--k", "2", "--m", "48", "--c", "0.8", "--B", "120", "--seed", "23",
            "--out", str(out),
        ])
        assert code == 0
        explain_payloads.append(out.read_bytes())
    assert explain_payloads[0] == explain_payloads[1]

    sweep_payloads = []
    for tag in ("r1", "r2"):
        sweep_out = tmp_path / f"sweep_{tag}.csv"
        frontier_out = tmp_path / f"frontier_{tag}.csv"
        code = main([
            "sweep", "--k-list", "1,2", "--m-list", "24,48", "--c-list", "0.5,0.9",
            "--n", "400", "--p", "4", "--B", "40", "--seed", "29",
            "--sweep-out", str(sweep_out), "--frontier-out", str(frontier_out),
        ])
        assert code == 0
        sweep_payloads.append(sweep_out.read_bytes() + frontier_out.read_bytes())
    assert sweep_payloads[0] == sweep_payloads[1]

    queries = tmp_path / "queries.csv"
    queries.write_text("".join(data.read_text().splitlines(keepends=True)[:8]))  # manifest, header, 6 rows
    summarize_payloads = []
    for tag in ("r1", "r2"):
        out = tmp_path / f"summary_{tag}.csv"
        code = main([
            "summarize", "--data", str(data), "--schema", str(schema), "--queries", str(queries),
            "--k", "2", "--m", "48", "--c", "0.8", "--B", "60", "--seed", "23", "--out", str(out),
        ])
        assert code == 0
        summarize_payloads.append(out.read_bytes())
    assert summarize_payloads[0] == summarize_payloads[1]
    report(7, "explain, sweep and summarize outputs byte-identical across reruns")


# -----------------------------------------------------------------------
# 8. interval nesting across significance levels
# -----------------------------------------------------------------------


def test_criterion_8_interval_nesting():
    rng = np.random.default_rng(1008)
    runs = 0
    for run in range(50):
        n = int(rng.integers(40, 120))
        d = int(rng.integers(1, 3))
        x = rng.uniform(-2, 2, size=(n, d))
        y = x @ rng.normal(size=d) + 0.2 * rng.standard_normal(n) + rng.normal()
        schema = lx.FeatureSchema(
            tuple(lx.FeatureSpec(f"x{j+1}", "continuous") for j in range(d))
        )
        ds = lx.QueryDataset(schema, x, np.zeros((n, 0), dtype=np.int64), y)
        query = QueryPoint.from_mapping(
            ds.schema, {f"x{j+1}": float(rng.uniform(-1, 1)) for j in range(d)}
        )
        m = int(rng.integers(20, n + 1))
        k = int(rng.integers(1, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            problem = build_problem(
                ds, query, ExplainConfig(degree=k, m=m, kind="gradient")
            )
            _, dist = bootstrap_from_problem(
                problem, BootstrapConfig(B=80, c=0.7, seed=int(rng.integers(0, 2**32)))
            )
        wide = lx.intervals_from_distribution(dist, 0.20)
        mid = lx.intervals_from_distribution(dist, 0.05)
        outer = lx.intervals_from_distribution(dist, 0.01)
        for w, m_, o in zip(wide, mid, outer):
            assert o.lower <= m_.lower <= w.lower
            assert w.upper <= m_.upper <= o.upper
        runs += 1
    report(8, f"intervals properly nested at alpha 0.20/0.05/0.01 in {runs} random runs")


# -----------------------------------------------------------------------
# 9. single-instance analog of the simulated comparison figure
# -----------------------------------------------------------------------


def test_criterion_9_single_instance_coverage():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dataset = lx.generate_dataset(2000, seed=7)
        rng = np.random.default_rng(1009)
        passes = []
        for t in range(20):
            x = rng.uniform(-4.5, 4.5, 2)
            codes = rng.integers(0, 3, 2)
            a, b = int(codes[0]) + 1, int(codes[1]) + 1
            query = QueryPoint(numeric=x, codes=codes)
            config = ExplainConfig(
                degree=4, m=66, kind="gradient", weighted=True,
                balance=True, balance_fallback=True, categorical_mode="pairs",
            )
            problem = build_problem(dataset, query, config)
            intervals, dist = bootstrap_from_problem(
                problem, BootstrapConfig(B=500, c=0.9, alpha=0.05, seed=5000 + t)
            )
            assert dist.m_prime == 59
            d1, d2 = ground_truth_gradient(x[0], x[1], a, b)
            truths = {"x1": d1, "x2": d2}
            for cat in (2, 3):
                truths[f"a={cat}"] = ground_truth_value(x[0], x[1], cat, b) - ground_truth_value(x[0], x[1], 1, b)
                truths[f"b={cat}"] = ground_truth_value(x[0], x[1], a, cat) - ground_truth_value(x[0], x[1], a, 1)
            covered = sum(
                1 for iv in intervals if iv.lower <= truths[iv.feature] <= iv.upper
            )
            passes.append(covered >= len(intervals) - 1)
    pass_rate = float(np.mean(passes))
    assert pass_rate >= 0.60, f"per-point pass rate {pass_rate}"
    report(9, f"bootstrap intervals captured all-but-at-most-one truth at {pass_rate:.0%} of 20 query points")
