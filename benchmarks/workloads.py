"""The three benchmark workloads, their seeded inputs and their output checks.

Every workload is a closed loop driven by one caller in one process: the
next operation starts when the previous one has returned.  Inputs are made
from the seed before timing starts; the library only sees the generated
files and objects.  Operations call the library through module attributes
(``explain.build_problem``, ``cli.main``, ...) so that the traced run sees
the wrapped functions.

explain-paper   single explanations at the paper's settings (k=4, m=66,
                gradient, weighted, balanced, B=500, c=0.9) on the synthetic
                ground-truth data, one distinct dataset row per query.  The
                bootstrap replicate loop dominates; a batched solver's memory
                shows in peak_rss_mb here.
summarize-wide  in-process ``localexplain summarize`` calls at the CLI's
                default --threads (k=2, m=40, B=100) over a 200k-row table
                with probability outputs, 3 continuous features and
                categorical features of 3 and 4 levels; a fresh query file
                per call.  Per-query standardize and balanced selection over
                the whole table dominate, plus the CSV parse of every call.
                The only workload with the log-odds link, function-difference
                scores and the summarize thread pool.
sweep-desk      ``run_sweep`` at threads=1 on the acceptance grid (k 1..4,
                m 32..256, c .3..9, n=2000, B=200) with p=1 point per call,
                a different grid seed per call.  Many small replicate solves
                across q from 5 to 104; bypasses the thread pool.
"""

from __future__ import annotations

import csv
import importlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from localexplain import bootstrap, cli, sim
from localexplain.bootstrap import BootstrapConfig, BootstrapError
from localexplain.data import DataError
from localexplain.explain import ExplainConfig, ExplainError
from localexplain.neighborhood import BalanceError, QueryPoint
from localexplain.polyfit import FitError

# the package's ``explain`` attribute is the function, not the module
explain = importlib.import_module("localexplain.explain")

#: Typed failures of one explanation; anything else is a bug and propagates.
LIBRARY_ERRORS = (DataError, BalanceError, FitError, ExplainError, BootstrapError)

#: Bootstrap coverage bar of the acceptance suite (criterion 3): the best
#: bootstrap record of a sweep covers the truth at least this often.
SWEEP_COVERAGE_BAR = 0.85

#: Criterion 9's bar: the share of explanations whose intervals capture all
#: but at most one analytic truth.
EXPLAIN_PASS_BAR = 0.60

#: Largest relative error of summarize's mean |score| against the analytic
#: mean |score| of the credit model (the local quadratic is misspecified,
#: so agreement is close but not exact).
SUMMARIZE_TRUTH_RTOL = 0.10

#: Perturbation step the CLI uses when none is given, as a share of the
#: feature's sample standard deviation.
DEFAULT_DELTA_FRACTION = 0.5


def derived_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


@dataclass
class OpResult:
    """One closed-loop operation: its timing, its counts and what the check needs.

    ``scale`` converts the wall time ``elapsed`` to calibrated time.
    """

    elapsed: float
    scale: float
    explanations: int
    attempted: int
    failed: int
    payload: object = None


# ---------------------------------------------------------------------------
# analytic truth of the synthetic model, independent of the library's copy
# ---------------------------------------------------------------------------


def synthetic_value(x1, x2, a, b):
    return np.sin(a * x1) * np.cos(b * x2) * np.tan(1.0 / (1.0 + (x1 - x2) ** 2))


def synthetic_gradient(x1, x2, a, b):
    d = x1 - x2
    u = 1.0 / (1.0 + d * d)
    sec2 = 1.0 / np.cos(u) ** 2
    du_dx1 = -2.0 * d * u * u
    common = np.sin(a * x1) * np.cos(b * x2) * sec2
    d1 = a * np.cos(a * x1) * np.cos(b * x2) * np.tan(u) + common * du_dx1
    d2 = -b * np.sin(a * x1) * np.sin(b * x2) * np.tan(u) - common * du_dx1
    return d1, d2


# ---------------------------------------------------------------------------
# explain-paper
# ---------------------------------------------------------------------------


class ExplainPaper:
    name = "explain-paper"
    root_span = "bench.explanation"
    problem_starts_explanation = False
    # short operations, tracked by the calibration kernel (see run.py)
    calibrated = True
    n = 2000

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed = seed
        self.B = 40 if tiny else 500
        self.config = ExplainConfig(degree=4, m=66, kind="gradient", weighted=True, balance=True)
        self.dataset = sim.generate_dataset(self.n, seed)
        self.rows = np.random.default_rng([seed, 1]).permutation(self.n)
        self.queries = [QueryPoint.from_row(self.dataset, int(r)) for r in self.rows]

    def setup_code(self) -> str:
        return f"import localexplain; localexplain.generate_dataset({self.n}, {self.seed})"

    def warm_up(self) -> None:
        self.run(self.make_input(self.n - 1))

    def make_input(self, i: int):
        j = i % self.n
        return j, self.queries[j], BootstrapConfig(B=self.B, c=0.9, alpha=0.05, seed=derived_seed(self.seed, 2, i))

    def run(self, arg):
        """The call sequence of the CLI's explain report."""
        _, query, boot = arg
        try:
            problem = explain.build_problem(self.dataset, query, self.config)
            problem.point_scores()
            intervals, _ = bootstrap.bootstrap_from_problem(problem, boot)
            for feature in ("x1", "x2"):
                problem.naive_interval(feature, boot.alpha)
        except LIBRARY_ERRORS:
            return None
        return intervals

    def collect(self, arg, out, elapsed: float, scale: float) -> OpResult:
        row = int(self.rows[arg[0]])
        return OpResult(elapsed, scale, 1, 1, int(out is None), (row, out))

    def check(self, results: list[OpResult]) -> dict:
        """Criterion 9: intervals capture all but at most one analytic truth."""
        passes = []
        for res in results:
            row, intervals = res.payload
            if intervals is None:
                continue
            x1, x2 = self.dataset.numeric[row]
            a, b = (self.dataset.codes[row] + 1).astype(float)
            d1, d2 = synthetic_gradient(x1, x2, a, b)
            value = synthetic_value(x1, x2, a, b)
            truth = {
                "x1": d1,
                "x2": d2,
                "a": value - synthetic_value(x1, x2, 1.0, b),
                "b": value - synthetic_value(x1, x2, a, 1.0),
            }
            covered = sum(iv.lower <= truth[iv.feature] <= iv.upper for iv in intervals)
            passes.append(covered >= len(intervals) - 1)
        rate = float(np.mean(passes)) if passes else 0.0
        return {
            "name": "bootstrap intervals vs analytic truth",
            "value": rate,
            "bar": f">= {EXPLAIN_PASS_BAR} of explanations capture all but one truth",
            "ok": bool(passes) and rate >= EXPLAIN_PASS_BAR,
        }


# ---------------------------------------------------------------------------
# summarize-wide
# ---------------------------------------------------------------------------

CREDIT_NUMERIC = ("income", "debt", "age")
CREDIT_MEANS = np.array([52_000.0, 12_000.0, 40.0])
CREDIT_SCALES = np.array([18_000.0, 6_000.0, 10.0])
CREDIT_CATEGORIES = {
    "history": (("fair", "good", "poor"), (0.5, 0.3, 0.2), np.array([0.0, 0.9, -0.4])),
    "region": (("north", "east", "south", "west"), (0.4, 0.3, 0.2, 0.1), np.array([0.0, 0.3, -0.2, 0.6])),
}
CREDIT_SCHEMA = {
    "features": [{"name": n, "kind": "continuous"} for n in CREDIT_NUMERIC]
    + [
        {"name": n, "kind": "categorical", "categories": list(c[0]), "baseline": c[0][0]}
        for n, c in CREDIT_CATEGORIES.items()
    ],
    "output_kind": "probability",
}


def credit_probability(numeric: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """A classifier's p(approve): saturating in the numeric features, shifted by category."""
    z = (numeric - CREDIT_MEANS) / CREDIT_SCALES
    logit = 1.6 * np.tanh(0.8 * z[:, 0] - 1.1 * z[:, 1] + 0.4 * z[:, 2])
    for j, (_, _, offsets) in enumerate(CREDIT_CATEGORIES.values()):
        logit = logit + offsets[codes[:, j]]
    return 1.0 / (1.0 + np.exp(-logit))


def credit_sample(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    numeric = CREDIT_MEANS + CREDIT_SCALES * rng.standard_normal((n, 3))
    codes = np.column_stack(
        [rng.choice(len(c[0]), size=n, p=c[1]) for c in CREDIT_CATEGORIES.values()]
    )
    return numeric, codes


def write_credit_csv(path: Path, numeric: np.ndarray, codes: np.ndarray, outputs=None) -> None:
    """Write rows (and the output column ``f`` when given) with exact float text.

    Rows go out in chunks so that generating the input adds little to the
    process's peak memory.
    """
    header = [*CREDIT_NUMERIC, *CREDIT_CATEGORIES]
    if outputs is not None:
        header.append("f")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for lo in range(0, numeric.shape[0], 10_000):
            hi = lo + 10_000
            columns = [numeric[lo:hi, j].tolist() for j in range(numeric.shape[1])]
            columns += [
                np.asarray(c[0])[codes[lo:hi, j]].tolist()
                for j, c in enumerate(CREDIT_CATEGORIES.values())
            ]
            if outputs is not None:
                columns.append(outputs[lo:hi].tolist())
            writer.writerows(zip(*columns))


def read_summary(path: Path) -> dict[str, dict[str, float]]:
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    return {
        r["feature"]: {
            "mean_abs_score": float(r["mean_abs_score"]),
            "mean_interval_width": float(r["mean_interval_width"]),
            "instances_ok": int(r["instances_ok"]),
            "instances_failed": int(r["instances_failed"]),
        }
        for r in rows
    }


def credit_truth(numeric: np.ndarray, codes: np.ndarray, table_sd: np.ndarray) -> dict[str, np.ndarray]:
    """Analytic |score| per query: symmetric differences and baseline differences."""
    out = {}
    for j, name in enumerate(CREDIT_NUMERIC):
        step = np.zeros(3)
        step[j] = DEFAULT_DELTA_FRACTION * table_sd[j]
        out[name] = np.abs(credit_probability(numeric + step, codes) - credit_probability(numeric - step, codes))
    p = credit_probability(numeric, codes)
    for j, name in enumerate(CREDIT_CATEGORIES):
        base = codes.copy()
        base[:, j] = 0
        out[name] = np.abs(p - credit_probability(numeric, base))
    return out


def summarize_argv(data: Path, schema: Path, queries: Path, out: Path, B: int, seed: int) -> list[str]:
    """A summarize call at k=2, m=40, c=0.9 and the CLI's default --threads."""
    return [
        "summarize", "--data", str(data), "--schema", str(schema), "--queries", str(queries),
        "--k", "2", "--m", "40", "--c", "0.9", "--B", str(B), "--seed", str(seed), "--out", str(out),
    ]


class SummarizeWide:
    name = "summarize-wide"
    root_span = "bench.summarize_call"
    problem_starts_explanation = True
    calibrated = False

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed = seed
        self.workdir = workdir
        self.n = 60_000 if tiny else 200_000
        self.queries_per_call = 8 if tiny else 50
        rng = np.random.default_rng([seed, 1])
        numeric, codes = credit_sample(rng, self.n)
        self.table_sd = numeric.std(axis=0, ddof=1)
        self.data = workdir / "credit.csv"
        self.schema = workdir / "credit_schema.json"
        self.queries = workdir / "queries.csv"
        self.out = workdir / "summary.csv"
        write_credit_csv(self.data, numeric, codes, credit_probability(numeric, codes))
        self.schema.write_text(json.dumps(CREDIT_SCHEMA))

    def setup_code(self) -> str:
        return "import localexplain.cli"

    def warm_up(self) -> None:
        small = self.workdir / "warm.csv"
        numeric, codes = credit_sample(np.random.default_rng([self.seed, 3]), 500)
        write_credit_csv(small, numeric, codes, credit_probability(numeric, codes))
        numeric, codes = credit_sample(np.random.default_rng([self.seed, 4]), 2)
        write_credit_csv(self.queries, numeric, codes)
        cli.main(summarize_argv(small, self.schema, self.queries, self.out, B=10, seed=self.seed))

    def make_input(self, i: int):
        numeric, codes = credit_sample(np.random.default_rng([self.seed, 2, i]), self.queries_per_call)
        write_credit_csv(self.queries, numeric, codes)
        return numeric, codes

    def run(self, arg):
        return cli.main(summarize_argv(self.data, self.schema, self.queries, self.out, B=100, seed=self.seed))

    def collect(self, arg, exit_code, elapsed: float, scale: float) -> OpResult:
        q = self.queries_per_call
        if exit_code not in (cli.EXIT_OK, cli.EXIT_PARTIAL):
            return OpResult(elapsed, scale, q, q, q, None)
        summary = read_summary(self.out)
        failed = next(iter(summary.values()))["instances_failed"]
        return OpResult(elapsed, scale, q, q, failed, (arg, summary))

    def check(self, results: list[OpResult]) -> dict:
        """Mean |score| over the run's queries against the analytic model."""
        ok = bool(results) and all(res.payload is not None for res in results)
        got: dict[str, list[float]] = {}
        want: dict[str, list[np.ndarray]] = {}
        for res in results:
            if res.payload is None:
                continue
            (numeric, codes), summary = res.payload
            truth = credit_truth(numeric, codes, self.table_sd)
            for feature, row in summary.items():
                got.setdefault(feature, []).append(row["mean_abs_score"])
                want.setdefault(feature, []).append(truth[feature])
                width = row["mean_interval_width"]
                ok &= math.isfinite(width) and width > 0
        errors = {}
        for feature, values in got.items():
            # every call has the same number of queries: the mean of the
            # per-call means is the mean over all queries
            g, w = float(np.mean(values)), float(np.concatenate(want[feature]).mean())
            errors[feature] = abs(g - w) / w if w else abs(g - w)
        worst = max(errors, key=errors.get, default=None)
        ok &= worst is not None and errors[worst] <= SUMMARIZE_TRUTH_RTOL
        return {
            "name": f"summarize mean |score| vs analytic model, worst feature {worst}",
            "value": errors.get(worst),
            "bar": f"relative error <= {SUMMARIZE_TRUTH_RTOL}, widths finite and > 0",
            "ok": ok,
        }


# ---------------------------------------------------------------------------
# sweep-desk
# ---------------------------------------------------------------------------


class SweepDesk:
    name = "sweep-desk"
    root_span = "bench.sweep_call"
    problem_starts_explanation = True
    calibrated = False

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed = seed
        if tiny:
            self.grid = dict(k_values=(1, 2), m_values=(32, 64), c_values=(0.5, 0.9), B=40)
        else:
            self.grid = dict(
                k_values=(1, 2, 3, 4), m_values=(32, 64, 128, 256),
                c_values=(0.3, 0.5, 0.7, 0.9), B=200,
            )
        self.grid.update(n=2000, p=1, alpha=0.05)

    def setup_code(self) -> str:
        return "import localexplain.sim"

    def warm_up(self) -> None:
        sim.run_sweep(
            sim.SweepGrid(k_values=(1,), m_values=(32,), c_values=(0.9,), n=200, p=1, B=10,
                          seed=derived_seed(self.seed, 1)),
            threads=1,
        )

    def make_input(self, i: int):
        return sim.SweepGrid(**self.grid, seed=derived_seed(self.seed, 2, i))

    def run(self, grid):
        return sim.run_sweep(grid, threads=1)

    def collect(self, grid, records, elapsed: float, scale: float) -> OpResult:
        boot = [r for r in records if r.method == "bootstrap"]
        return OpResult(
            elapsed,
            scale,
            explanations=len(boot) * grid.p,
            attempted=len(records) * grid.p,
            failed=sum(r.failed_points for r in records),
            payload=records,
        )

    def check(self, results: list[OpResult]) -> dict:
        """Criterion 3's bar on bootstrap coverage pooled over the run's calls."""
        covered: dict[tuple, list[float]] = {}
        for res in results:
            for r in res.payload:
                if r.method == "bootstrap":
                    hits = r.coverage * r.points
                    entry = covered.setdefault((r.k, r.m, r.c), [0.0, 0])
                    entry[0] += hits
                    entry[1] += r.points
        best = max((h / n for h, n in covered.values() if n), default=0.0)
        return {
            "name": "best pooled bootstrap coverage of the analytic derivative",
            "value": best,
            "bar": f">= {SWEEP_COVERAGE_BAR}",
            "ok": best >= SWEEP_COVERAGE_BAR,
        }


WORKLOADS = {w.name: w for w in (ExplainPaper, SummarizeWide, SweepDesk)}
