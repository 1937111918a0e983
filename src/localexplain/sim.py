"""Synthetic ground truth, dataset generation, and the coverage sweep harness.

The ground-truth model is

    S(x1, x2, a, b) = sin(a*x1) * cos(b*x2) * tan(1 / (1 + (x1 - x2)^2))

with continuous x1, x2 in [-5, 5] and categorical a, b in {1, 2, 3}.  The
tangent's argument lies in (0, 1], comfortably inside (0, pi/2), so S is
finite on the whole domain and needs no singularity guard.

The sweep harness evaluates, over a grid of (k, m, c), how often the
bootstrap interval and the naive closed-form interval for x1's derivative
contain the analytic truth, and at what average width: one
(average width, coverage) record per method per parameter set, from which
Pareto frontiers are extracted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._blas import single_blas_thread
from .bootstrap import BootstrapConfig, BootstrapError, bootstrap_from_problem
from .data import DataError, FeatureSchema, FeatureSpec, QueryDataset, read_csv_rows, write_csv
from .explain import GRADIENT, ExplainConfig, ExplainError, build_problem
from .neighborhood import BalanceError, QueryPoint
from .polyfit import FitError

#: The library's typed errors: one marks a sweep's query point as failed for
#: one method, or a ``summarize`` instance as failed; anything else is a real
#: bug and propagates.
TYPED_ERRORS = (DataError, BalanceError, FitError, ExplainError, BootstrapError)

#: Coverage query points are drawn from this interior box so neighborhoods
#: stay two-sided near every query.
QUERY_BOX = 4.5

#: Parameter sets with more than this fraction of failed points are invalid.
MAX_FAILED_POINT_FRACTION = 0.1

_MASK64 = (1 << 64) - 1


def ground_truth_value(x1, x2, a, b):
    """Evaluate S at (x1, x2, a, b); broadcasts over array inputs."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    inner = 1.0 / (1.0 + (x1 - x2) ** 2)
    out = np.sin(a * x1) * np.cos(b * x2) * np.tan(inner)
    return float(out) if out.ndim == 0 else out


def ground_truth_gradient(x1, x2, a, b):
    """Analytic (dS/dx1, dS/dx2); broadcasts over array inputs."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    diff = x1 - x2
    u = 1.0 / (1.0 + diff**2)
    tan_u = np.tan(u)
    sec2_u = 1.0 + tan_u**2
    du_dx1 = -2.0 * diff * u**2  # du/dx2 = -du/dx1
    d1 = np.cos(b * x2) * (a * np.cos(a * x1) * tan_u + np.sin(a * x1) * sec2_u * du_dx1)
    d2 = np.sin(a * x1) * (-b * np.sin(b * x2) * tan_u - np.cos(b * x2) * sec2_u * du_dx1)
    if d1.ndim == 0:
        return float(d1), float(d2)
    return d1, d2


def simulation_schema() -> FeatureSchema:
    return FeatureSchema(
        features=(
            FeatureSpec(name="x1", kind="continuous"),
            FeatureSpec(name="x2", kind="continuous"),
            FeatureSpec(name="a", kind="categorical", categories=("1", "2", "3"), baseline="1"),
            FeatureSpec(name="b", kind="categorical", categories=("1", "2", "3"), baseline="1"),
        ),
        output_kind="raw",
    )


def generate_dataset(n: int, seed: int) -> QueryDataset:
    """Sample n points uniformly from the domain and record S at each.

    x1, x2 ~ Uniform[-5, 5]; a, b uniform over {1, 2, 3}.
    """
    if n < 1:
        raise ValueError("dataset size n must be >= 1")
    rng = np.random.default_rng(seed)
    numeric = rng.uniform(-5.0, 5.0, size=(n, 2))
    codes = rng.integers(0, 3, size=(n, 2))
    outputs = ground_truth_value(numeric[:, 0], numeric[:, 1], codes[:, 0] + 1, codes[:, 1] + 1)
    return QueryDataset(simulation_schema(), numeric, codes, outputs)


@dataclass(frozen=True)
class SweepGrid:
    """The (k, m, c) grid plus the Monte Carlo scale of a coverage sweep.

    Every k, m, c, B and alpha must pass :class:`ExplainConfig`'s and
    :class:`BootstrapConfig`'s checks (their errors propagate), every m
    must be at most n, and no list may repeat a value.
    """

    k_values: tuple[int, ...]
    m_values: tuple[int, ...]
    c_values: tuple[float, ...]
    n: int = 2000
    p: int = 250
    B: int = 500
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not (self.k_values and self.m_values and self.c_values):
            raise ValueError("sweep grid must have at least one k, m, and c value")
        for name, values in (("k", self.k_values), ("m", self.m_values), ("c", self.c_values)):
            if len(set(values)) < len(values):
                raise ValueError(f"sweep grid {name} list {list(values)} repeats a value")
        if self.p < 1:
            raise ValueError("query point count p must be >= 1")
        for k in self.k_values:
            for m in self.m_values:
                ExplainConfig(degree=k, m=m)
        if max(self.m_values) > self.n:
            raise ValueError(f"neighborhood size m={max(self.m_values)} exceeds n={self.n}")
        for c in self.c_values:
            BootstrapConfig(B=self.B, c=c, alpha=self.alpha)
            if int(np.floor(c * min(self.m_values))) < 2:
                raise ValueError(f"floor(c*m) < 2 for c={c}, m={min(self.m_values)}")


@dataclass(frozen=True)
class SweepRecord:
    """(average interval width, coverage rate) for one method on one parameter set."""

    method: str
    k: int | None
    m: int | None
    c: float | None
    avg_width: float
    coverage: float
    failed_points: int = 0
    points: int = 0

    @property
    def invalid(self) -> bool:
        return self.points > 0 and self.failed_points > MAX_FAILED_POINT_FRACTION * self.points


def _unit_seed(seed: int, *key: int) -> int:
    ss = np.random.SeedSequence([seed & _MASK64, *key])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def sample_query_points(grid: SweepGrid) -> tuple[list[QueryPoint], np.ndarray]:
    """The shared coverage query points and the true dS/dx1 at each."""
    rng = np.random.default_rng(np.random.SeedSequence([grid.seed & _MASK64, 1]))
    numeric = rng.uniform(-QUERY_BOX, QUERY_BOX, size=(grid.p, 2))
    codes = rng.integers(0, 3, size=(grid.p, 2))
    points = [QueryPoint(numeric=numeric[j], codes=codes[j]) for j in range(grid.p)]
    d1, _ = ground_truth_gradient(
        numeric[:, 0], numeric[:, 1], codes[:, 0] + 1, codes[:, 1] + 1
    )
    return points, np.atleast_1d(d1)


@single_blas_thread
def run_sweep(grid: SweepGrid, threads: int = 1) -> list[SweepRecord]:
    """Monte Carlo coverage/width records for both interval methods.

    For every (k, m, c) and every shared query point, computes the weighted
    bootstrap interval and the unweighted naive interval for the derivative
    of x1 and checks them against the analytic truth.  Deterministic for a fixed
    grid: every bootstrap run draws from a stream keyed by
    (seed, k-index, m-index, c-index, point-index).

    The (m, point) units run serially, with NumPy's and SciPy's bundled
    OpenBLAS at one thread: the setting is process-wide for the length of the
    call only and is restored afterwards, and an exported
    ``OPENBLAS_NUM_THREADS`` turns it off.  On two cores a thread pool made the
    sweep slower at either BLAS thread setting; for parallelism, split a large
    sweep across processes by seed.  ``threads`` is kept only for callers that
    pass ``threads=1``; any other value raises ``ValueError``.
    """
    if threads != 1:
        raise ValueError(f"run_sweep runs serially; threads must be 1, got {threads}")
    dataset = generate_dataset(grid.n, grid.seed)
    points, truths = sample_query_points(grid)
    n_k, n_c = len(grid.k_values), len(grid.c_values)

    def run_unit(mi: int, pj: int) -> np.ndarray:
        """(width, covered) per k and per c, the naive interval last; NaN marks a failure."""
        point, truth = points[pj], float(truths[pj])
        out = np.full((n_k, n_c + 1, 2), np.nan)
        for ki, k in enumerate(grid.k_values):
            try:
                problem = build_problem(
                    dataset,
                    point,
                    ExplainConfig(
                        degree=k, m=grid.m_values[mi], kind=GRADIENT, weighted=True,
                        balance=True, balance_fallback=True,
                    ),
                )
            except TYPED_ERRORS:
                continue
            try:
                iv = problem.naive_interval("x1", grid.alpha)
                out[ki, n_c] = (iv.upper - iv.lower, iv.lower <= truth <= iv.upper)
            except TYPED_ERRORS:
                pass
            for ci, c in enumerate(grid.c_values):
                seed = _unit_seed(grid.seed, 2, ki, mi, ci, pj)
                try:
                    intervals, _ = bootstrap_from_problem(
                        problem,
                        BootstrapConfig(B=grid.B, c=c, alpha=grid.alpha, seed=seed),
                    )
                    iv = next(i for i in intervals if i.feature == "x1")
                    out[ki, ci] = (iv.upper - iv.lower, iv.lower <= truth <= iv.upper)
                except TYPED_ERRORS:
                    pass
        return out

    units = [run_unit(mi, pj) for mi in range(len(grid.m_values)) for pj in range(grid.p)]
    # (m, point, k, c column, width/covered)
    results = np.stack(units).reshape(len(grid.m_values), grid.p, n_k, n_c + 1, 2)
    records: list[SweepRecord] = []
    for ki, k in enumerate(grid.k_values):
        for mi, m in enumerate(grid.m_values):
            for ci, c in enumerate(grid.c_values):
                for method, col in (("bootstrap", ci), ("naive", n_c)):
                    width, covered = results[mi, :, ki, col].T
                    ok = ~np.isnan(covered)
                    records.append(
                        SweepRecord(
                            method=method,
                            k=k,
                            m=m,
                            c=c,
                            avg_width=float(np.mean(width[ok])) if ok.any() else float("nan"),
                            coverage=int(covered[ok].sum()) / grid.p,
                            failed_points=grid.p - int(ok.sum()),
                            points=grid.p,
                        )
                    )
    records.sort(key=_record_sort_key)
    return records


def _record_sort_key(rec: SweepRecord):
    return (
        rec.method,
        rec.k if rec.k is not None else -1,
        rec.m if rec.m is not None else -1,
        rec.c if rec.c is not None else -1.0,
    )


def pareto_frontier(records: Sequence[SweepRecord], method: str) -> list[SweepRecord]:
    """Records of ``method`` not dominated by another of the same method.

    A record is dominated when another has coverage >= and width <= with at
    least one strict inequality.  Invalid records (too many failed points)
    are excluded up front.
    """
    pool = [r for r in records if r.method == method and not r.invalid and np.isfinite(r.avg_width)]
    out = []
    for r in pool:
        dominated = any(
            (o.coverage >= r.coverage and o.avg_width <= r.avg_width)
            and (o.coverage > r.coverage or o.avg_width < r.avg_width)
            for o in pool
        )
        if not dominated:
            out.append(r)
    return out


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = ("method", "k", "m", "c", "avg_width", "coverage", "failed_points")


def write_sweep_csv(records: Iterable[SweepRecord], path: str, header_comment: str | None = None) -> None:
    """Write records in the stable (method, k, m, c) order, one row each, in ``write_csv``'s format."""
    rows = (
        [r.method, r.k, r.m, None if r.c is None else float(r.c), float(r.avg_width), float(r.coverage),
         r.failed_points]
        for r in sorted(records, key=_record_sort_key)
    )
    write_csv(path, SWEEP_COLUMNS, rows, header_comment)


def read_baseline_csv(path: str) -> list[SweepRecord]:
    """Externally produced (method, avg_width, coverage) rows for overlay plots.

    Read by ``read_csv_rows``, as every input table is; optional ``k``, ``m``
    and ``c`` columns fill in the parameter set.
    """
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        columns, rows = read_csv_rows(fh, ("method", "avg_width", "coverage"), "baseline CSV")
        for _, row in rows:
            cell = {name: row[idx] for name, idx in columns.items()}
            k, m, c = (cast(cell[key]) if cell.get(key) else None
                       for key, cast in (("k", int), ("m", int), ("c", float)))
            records.append(SweepRecord(cell["method"], k, m, c, float(cell["avg_width"]), float(cell["coverage"])))
    return records
