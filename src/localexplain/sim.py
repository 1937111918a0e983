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

import itertools
import os
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._blas import single_blas_thread
from .bootstrap import _MASK64, BootstrapConfig, BootstrapError, bootstrap_from_problem
from .data import DataError, FeatureSchema, FeatureSpec, QueryDataset, read_csv_rows, write_csv
from .explain import GRADIENT, ExplainConfig, ExplainError, build_problem
from .neighborhood import BalanceError, QueryPoint
from .polyfit import FitError

#: The library's typed errors: one marks a sweep's query point as failed for
#: one method, or a ``summarize`` instance as failed; anything else is a real
#: bug and propagates.
TYPED_ERRORS = (DataError, BalanceError, FitError, ExplainError, BootstrapError)

#: A default ``run_sweep`` forks workers only for a grid of at least this many
#: bootstrap replicates (units x c values x B).  On two CPUs a pool's start-up
#: (15-30 ms) paid from about 2500 replicates at k <= 2 and from about 200 at
#: k = 3, 4 with m >= 128.
POOL_MIN_REPLICATES = 1000

#: Coverage query points are drawn from this interior box so neighborhoods
#: stay two-sided near every query.
QUERY_BOX = 4.5

#: Parameter sets with more than this fraction of failed points are invalid.
MAX_FAILED_POINT_FRACTION = 0.1


def ground_truth_value(x1, x2, a, b):
    """Evaluate S at (x1, x2, a, b); broadcasts over array inputs."""
    x1, x2, a, b = (np.asarray(v, dtype=float) for v in (x1, x2, a, b))
    inner = 1.0 / (1.0 + (x1 - x2) ** 2)
    out = np.sin(a * x1) * np.cos(b * x2) * np.tan(inner)
    return float(out) if out.ndim == 0 else out


def ground_truth_gradient(x1, x2, a, b):
    """Analytic (dS/dx1, dS/dx2); broadcasts over array inputs."""
    x1, x2, a, b = (np.asarray(v, dtype=float) for v in (x1, x2, a, b))
    diff = x1 - x2
    u = 1.0 / (1.0 + diff**2)
    tan_u = np.tan(u)
    sec2_u = 1.0 + tan_u**2
    du_dx1 = -2.0 * diff * u**2  # du/dx2 = -du/dx1
    d1 = np.cos(b * x2) * (a * np.cos(a * x1) * tan_u + np.sin(a * x1) * sec2_u * du_dx1)
    d2 = np.sin(a * x1) * (-b * np.sin(b * x2) * tan_u - np.cos(b * x2) * sec2_u * du_dx1)
    return (float(d1), float(d2)) if d1.ndim == 0 else (d1, d2)


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
    d1, _ = ground_truth_gradient(numeric[:, 0], numeric[:, 1], codes[:, 0] + 1, codes[:, 1] + 1)
    return points, np.atleast_1d(d1)


@single_blas_thread
def run_sweep(grid: SweepGrid, threads: int = 1, processes: int | None = None) -> list[SweepRecord]:
    """Monte Carlo coverage/width records for both interval methods.

    For every (k, m, c) and every shared query point, computes the weighted
    bootstrap interval and the unweighted naive interval for the derivative
    of x1 and checks them against the analytic truth.  Deterministic for a fixed
    grid: every bootstrap run draws from a stream keyed by
    (seed, k-index, m-index, c-index, point-index).

    The (m, point, k) units run heaviest first on ``processes`` workers
    forked for the call, and are put back together by key, so records do
    not depend on the count.  ``None`` means the usable CPUs, or 1 below
    ``POOL_MIN_REPLICATES``; at 1, in a daemonic process or without ``fork``
    the units run in-process.
    Workers inherit the dataset, warning filters, patched attributes and
    the call's one-thread OpenBLAS pin (off if ``OPENBLAS_NUM_THREADS`` is
    exported); their warnings are shown here, and none outlives the call.
    Any ``threads`` but 1, or a ``processes`` below 1, raises ``ValueError``.
    """
    if threads != 1:
        raise ValueError(f"run_sweep runs one thread per process; threads must be 1, got {threads}")
    if processes is not None and processes < 1:
        raise ValueError(f"run_sweep needs at least one process, got processes={processes}")
    dataset = generate_dataset(grid.n, grid.seed)
    points, truths = sample_query_points(grid)
    n_m, n_k, n_c = len(grid.m_values), len(grid.k_values), len(grid.c_values)

    def run_unit(mi: int, pj: int, ki: int) -> np.ndarray:
        """(width, covered) per c, the naive interval last; NaN marks a failure."""
        point, truth = points[pj], float(truths[pj])
        out = np.full((n_c + 1, 2), np.nan)
        try:
            config = ExplainConfig(degree=grid.k_values[ki], m=grid.m_values[mi], kind=GRADIENT, weighted=True,
                                   balance=True, balance_fallback=True)
            problem = build_problem(dataset, point, config)
        except TYPED_ERRORS:
            return out
        try:
            iv = problem.naive_interval("x1", grid.alpha)
            out[n_c] = (iv.upper - iv.lower, iv.lower <= truth <= iv.upper)
        except TYPED_ERRORS:
            pass
        for ci, c in enumerate(grid.c_values):
            seed = _unit_seed(grid.seed, 2, ki, mi, ci, pj)
            try:
                boot = BootstrapConfig(B=grid.B, c=c, alpha=grid.alpha, seed=seed)
                intervals, _ = bootstrap_from_problem(problem, boot)
                iv = next(i for i in intervals if i.feature == "x1")
                out[ci] = (iv.upper - iv.lower, iv.lower <= truth <= iv.upper)
            except TYPED_ERRORS:
                pass
        return out

    # a unit's cost grows with k, then with m
    keys = sorted(itertools.product(range(n_m), range(grid.p), range(n_k)),
                  key=lambda key: (-grid.k_values[key[2]], -grid.m_values[key[0]]))
    if processes is None:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        processes = cpus if len(keys) * n_c * grid.B >= POOL_MIN_REPLICATES else 1
    # (m, point, k, c column, width/covered)
    results = np.empty((n_m, grid.p, n_k, n_c + 1, 2))
    for key, out in zip(keys, _map_units(run_unit, keys, processes)):
        results[key] = out
    records: list[SweepRecord] = []
    for ki, k in enumerate(grid.k_values):
        for mi, m in enumerate(grid.m_values):
            for ci, c in enumerate(grid.c_values):
                for method, col in (("bootstrap", ci), ("naive", n_c)):
                    width, covered = results[mi, :, ki, col].T
                    ok = ~np.isnan(covered)
                    avg_width = float(np.mean(width[ok])) if ok.any() else float("nan")
                    records.append(SweepRecord(method=method, k=k, m=m, c=c, avg_width=avg_width,
                                               coverage=int(covered[ok].sum()) / grid.p,
                                               failed_points=grid.p - int(ok.sum()), points=grid.p))
    records.sort(key=_record_sort_key)
    return records


def _map_units(run_unit, keys: list, processes: int) -> list:
    """``run_unit(*key)`` for every key, in order, on forked workers where there are several."""
    import multiprocessing  # both imported here, so that importing sim stays cheap
    from concurrent.futures import ProcessPoolExecutor

    global _worker_unit
    processes = min(processes, len(keys))
    # a daemonic process, such as a multiprocessing.Pool worker, may not have children
    if (processes == 1 or multiprocessing.current_process().daemon
            or "fork" not in multiprocessing.get_all_start_methods()):
        return [run_unit(*key) for key in keys]
    _worker_unit = run_unit  # forked workers inherit the closure, unpickled
    try:
        with ProcessPoolExecutor(processes, mp_context=multiprocessing.get_context("fork")) as pool:
            outs, registry = [], globals().setdefault("__warningregistry__", {})
            for out, caught in pool.map(_call_unit, keys):
                # shown as an in-process run shows them: once per process under the default action
                for message, filename, lineno in caught:
                    warnings.warn_explicit(message, None, filename, lineno, __name__, registry)
                outs.append(out)
            return outs
    finally:
        _worker_unit = None


#: The unit function that forked workers run, set by their parent for the call.
_worker_unit = None


def _call_unit(key: tuple[int, ...]) -> tuple[np.ndarray, list]:
    """A worker's unit and the warnings it raised, which its parent shows."""
    with warnings.catch_warnings(record=True) as caught:
        out = _worker_unit(*key)
    return out, [(w.message, w.filename, w.lineno) for w in caught]


def _record_sort_key(rec: SweepRecord):
    return rec.method, *(-1 if value is None else value for value in (rec.k, rec.m, rec.c))


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
    and ``c`` columns fill in the parameter set.  A blank method, or a cell
    that does not cast or is not finite, is a ``DataError`` that names its
    row and column.
    """
    records = []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        columns, rows = read_csv_rows(fh, ("method", "avg_width", "coverage"), "baseline CSV")
        for row_no, row in rows:
            cell = {name: row[idx] for name, idx in columns.items()}
            if not cell["method"]:
                raise DataError("blank method", row=row_no, column="method")
            values = []
            for key, cast in (("k", int), ("m", int), ("c", float), ("avg_width", float), ("coverage", float)):
                try:
                    value = cast(cell[key]) if cell.get(key) or key in ("avg_width", "coverage") else None
                except ValueError:
                    value = np.nan  # reported below, as a non-finite cell is
                if value is not None and not np.isfinite(value):
                    expected = "an integer" if cast is int else "a finite number"
                    raise DataError(f"{cell[key]!r} is not {expected}", row=row_no, column=key)
                values.append(value)
            records.append(SweepRecord(cell["method"], *values))
    return records
