"""Span recorder for the traced benchmark run.

The library is instrumented from outside: :func:`Tracer.install` replaces
the public functions and methods listed in :data:`TARGETS` with wrappers
that record one span per call (name, start, end, parent span, thread and
explanation id), and :func:`Tracer.uninstall` puts the originals back.
Nothing under ``src/`` is edited.  A target that no longer exists is
reported as absent by name instead of failing the run.

Spans are kept in memory in flat arrays and analysed at the end:
a span's self time is its duration minus the part of that interval its
child spans cover (the union of the children's intervals, so that
children running concurrently on pool threads are not counted twice).
"""

from __future__ import annotations

import array
import functools
import importlib
import itertools
import sys
import threading
from time import perf_counter

import numpy as np

#: (span name, module, attribute path) of every wrapped call.
TARGETS = (
    ("cli.main", "localexplain.cli", "main"),
    ("sim.run_sweep", "localexplain.sim", "run_sweep"),
    ("data.load_dataset", "localexplain.data", "load_dataset"),
    ("data.standardize", "localexplain.data", "standardize"),
    ("data.encode", "localexplain.data", "OneHotLayout.encode"),
    ("neighborhood.select", "localexplain.neighborhood", "select_neighborhood"),
    ("neighborhood.weights", "localexplain.neighborhood", "compute_weights"),
    ("explain.build_problem", "localexplain.explain", "build_problem"),
    ("explain.point_scores", "localexplain.explain", "LocalProblem.point_scores"),
    ("explain.naive_interval", "localexplain.explain", "LocalProblem.naive_interval"),
    ("explain.scores", "localexplain.explain", "LocalProblem.scores_from_coefficients"),
    ("polyfit.expand_basis", "localexplain.polyfit", "expand_basis"),
    ("polyfit.design_matrix", "localexplain.polyfit", "MonomialBasis.design_matrix"),
    ("polyfit.fit", "localexplain.polyfit", "fit"),
    ("polyfit.lstsq", "localexplain.polyfit", "lstsq_min_norm"),
    ("bootstrap.run", "localexplain.bootstrap", "bootstrap_from_problem"),
    ("bootstrap.index_draw", "localexplain.bootstrap", "replicate_indices"),
    ("bootstrap.solve", "localexplain.explain", "LocalProblem.solve_rows"),
    ("bootstrap.percentile", "localexplain.bootstrap", "intervals_from_distribution"),
)

#: The span that starts a new explanation id, when an operation holds several.
PROBLEM_SPAN = "explain.build_problem"

#: Per-layer metrics and their units; times and counts are per explanation.
LAYER_UNITS = {
    "bootstrap.solve_s": "s/expl",
    "bootstrap.index_draw_s": "s/expl",
    "bootstrap.scores_s": "s/expl",
    "bootstrap.percentile_s": "s/expl",
    "bootstrap.self_s": "s/expl",
    "bootstrap.replicates": "1/expl",
    "bootstrap.replicate_success_ratio": "ratio",
    "polyfit.q": "terms",
    "polyfit.rank_deficient_share": "ratio",
    "polyfit.lstsq_calls": "1/expl",
    "polyfit.lstsq_s": "s/expl",
    "polyfit.design_matrix_s": "s/expl",
    "polyfit.expand_basis_s": "s/expl",
    "polyfit.fit_s": "s/expl",
    "polyfit.solve_flops": "flop/expl",
    "polyfit.solve_bytes": "B/expl",
    "explain.naive_pinv_share": "ratio",
    "explain.build_problem_s": "s/expl",
    "explain.build_problem_calls": "1/expl",
    "explain.point_scores_s": "s/expl",
    "explain.naive_interval_s": "s/expl",
    "data.load_dataset_s": "s/expl",
    "data.standardize_s": "s/expl",
    "data.standardize_calls": "1/expl",
    "data.encode_s": "s/expl",
    "neighborhood.select_s": "s/expl",
    "neighborhood.select_calls": "1/expl",
    "neighborhood.weights_s": "s/expl",
    "neighborhood.constrained_share": "ratio",
    "neighborhood.fallback_share": "ratio",
    "sim.problems_per_unit": "count",
    "cli.self_s": "s/expl",
    "cli.pool_threads": "count",
    "trace.overhead_s": "s/expl",
    "trace.overhead_share": "ratio",
    "trace.self_sum_over_wall": "ratio",
    "trace.spans": "1/expl",
    "trace.absent_spans": "count",
}

#: Span whose durations give each "<layer>_s" metric (inclusive time).
INCLUSIVE = {
    "bootstrap.solve_s": "bootstrap.solve",
    "bootstrap.index_draw_s": "bootstrap.index_draw",
    "bootstrap.percentile_s": "bootstrap.percentile",
    "polyfit.lstsq_s": "polyfit.lstsq",
    "polyfit.design_matrix_s": "polyfit.design_matrix",
    "polyfit.expand_basis_s": "polyfit.expand_basis",
    "polyfit.fit_s": "polyfit.fit",
    "explain.point_scores_s": "explain.point_scores",
    "explain.naive_interval_s": "explain.naive_interval",
    "data.load_dataset_s": "data.load_dataset",
    "data.standardize_s": "data.standardize",
    "data.encode_s": "data.encode",
    "neighborhood.select_s": "neighborhood.select",
    "neighborhood.weights_s": "neighborhood.weights",
}

#: Span whose self times give each self-time metric.
SELF = {
    "bootstrap.self_s": "bootstrap.run",
    "explain.build_problem_s": "explain.build_problem",
    "cli.self_s": "cli.main",
}

#: Span whose call count gives each count metric.
CALLS = {
    "polyfit.lstsq_calls": "polyfit.lstsq",
    "data.standardize_calls": "data.standardize",
    "neighborhood.select_calls": "neighborhood.select",
    "explain.build_problem_calls": "explain.build_problem",
}


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) for a dotted path, or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


def _arg(args, kwargs, index: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def solve_flops(m: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Computed flops of a Householder least-squares solve of an m x q system.

    r = min(m, q) reflectors factor the matrix (4mqr - 2(m+q)r^2 + 4r^3/3),
    are applied to the right-hand side (4mr - 2r^2) and the r x r triangle
    is solved (r^2).  Column-pivoting norm updates and the extra orthogonal
    step gelsy takes on rank-deficient systems are not counted.
    """
    m = m.astype(float)
    q = q.astype(float)
    r = np.minimum(m, q)
    return 4 * m * q * r - 2 * (m + q) * r**2 + (4.0 / 3.0) * r**3 + 4 * m * r - r**2


def solve_bytes(m: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Computed bytes of a solve: the float64 operands read once, the result written once."""
    m = m.astype(float)
    q = q.astype(float)
    return 8.0 * (m * q + m + q)


class Tracer:
    """Records spans around library calls; one instance per traced run."""

    def __init__(self, problem_starts_explanation: bool):
        self.problem_starts_explanation = problem_starts_explanation
        self.absent: list[str] = []
        self._installed: list[tuple[object, str, object]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._names: list[str] = []
        self._threads: dict[int, int] = {}
        self._root_stack: list[int] = []
        self._root = 0
        self._root_thread = threading.get_ident()
        self.sid = array.array("q")
        self.parent = array.array("q")
        self.name = array.array("i")
        self.thread = array.array("i")
        self.expl = array.array("q")
        self.t0 = array.array("d")
        self.t1 = array.array("d")
        # per-call facts recorded by hooks, each column keyed by span id
        self.solves = {k: array.array("q") for k in ("sid", "m", "q", "rank")}
        self.selects = {k: array.array("b") for k in ("constrained", "fallback")}
        self.naive_pinv = array.array("b")
        self.boot = {k: array.array("q") for k in ("B", "ok")}
        self.sweep_units = 0
        self.hook_errors = 0

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        hooks = {
            "polyfit.lstsq": self._hook_lstsq(),
            "neighborhood.select": self._hook_select(),
            "explain.naive_interval": self._hook_naive(),
            "bootstrap.run": self._hook_bootstrap(),
            "sim.run_sweep": self._hook_sweep(),
        }
        for span, module_name, path in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(span)
                continue
            owner, attr, original = found
            wrapper = self._wrap(span, original, hooks.get(span))
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
            else:
                # a function is bound in every module that imported it by name
                for module_name, module in list(sys.modules.items()):
                    if module_name.split(".")[0] == "localexplain" and (
                        getattr(module, attr, None) is original
                    ):
                        self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- recording -----------------------------------------------------------

    def _state(self):
        """This thread's open-span stack and current explanation id."""
        local = self._local
        if getattr(local, "root", None) != self._root:
            local.root = self._root
            local.stack = self._root_stack if threading.get_ident() == self._root_thread else []
            local.expl = self._root
        return local

    def _name_index(self, name: str) -> int:
        with self._lock:
            if name not in self._names:
                self._names.append(name)
            return self._names.index(name)

    def _record(self, sid, parent, name_idx, expl, t0, t1) -> None:
        ident = threading.get_ident()
        with self._lock:
            thread = self._threads.setdefault(ident, len(self._threads))
            self.sid.append(sid)
            self.parent.append(parent)
            self.name.append(name_idx)
            self.thread.append(thread)
            self.expl.append(expl)
            self.t0.append(t0)
            self.t1.append(t1)

    def _wrap(self, span: str, fn, hook):
        name_idx = self._name_index(span)
        starts_explanation = span == PROBLEM_SPAN and self.problem_starts_explanation
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._state()
            stack = local.stack
            sid = next(tracer._ids)
            if stack:
                parent = stack[-1]
            else:
                # a pool thread's first call belongs to the caller's open span
                parent = tracer._root_stack[-1] if tracer._root_stack else 0
            if starts_explanation:
                local.expl = sid
            before = hook[0](args, kwargs) if hook else None
            stack.append(sid)
            t0 = perf_counter()
            result = error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._record(sid, parent, name_idx, local.expl, t0, t1)
                if hook:
                    try:
                        hook[1](sid, args, kwargs, before, result, error)
                    except Exception:
                        # the program's signatures changed; keep tracing
                        with tracer._lock:
                            tracer.hook_errors += 1
            return result

        return traced

    def root(self, name: str):
        """Context manager for the benchmark's own span around one operation."""
        return _RootSpan(self, self._name_index(name))

    # -- hooks: (before(args, kwargs), after(sid, args, kwargs, before, result, error)) --

    def _hook_lstsq(self):
        def after(sid, args, kwargs, before, result, error):
            if error is None:
                X = _arg(args, kwargs, 0, "X")
                with self._lock:
                    self.solves["sid"].append(sid)
                    self.solves["m"].append(X.shape[0])
                    self.solves["q"].append(X.shape[1])
                    self.solves["rank"].append(int(result[1]))

        return (lambda args, kwargs: None, after)

    def _hook_select(self):
        def before(args, kwargs):
            dataset = _arg(args, kwargs, 0, "dataset")
            query = _arg(args, kwargs, 1, "query")
            balance = _arg(args, kwargs, 3, "balance")
            if balance is False:
                return False
            return any(
                int(query.codes[j]) != spec.categories.index(spec.baseline)
                for j, spec in enumerate(dataset.schema.categorical_features)
            )

        def after(sid, args, kwargs, constrained, result, error):
            fallback = bool(error is None and result.balance_fallback_used)
            with self._lock:
                self.selects["constrained"].append(bool(constrained))
                self.selects["fallback"].append(fallback)

        return (before, after)

    def _hook_naive(self):
        key = "naive_pseudo_inverse"

        def before(args, kwargs):
            # the note is sticky on the problem; clear it so this call's use
            # of the pseudo-inverse is observable, and restore it afterwards
            return args[0].notes.pop(key, None)

        def after(sid, args, kwargs, previous, result, error):
            notes = args[0].notes
            used = bool(notes.get(key))
            if previous is not None:
                notes[key] = previous or used
            if error is None:
                with self._lock:
                    self.naive_pinv.append(used)

        return (before, after)

    def _hook_bootstrap(self):
        def after(sid, args, kwargs, before, result, error):
            boot = _arg(args, kwargs, 1, "boot")
            ok = result[1].scores.shape[0] if error is None else 0
            with self._lock:
                self.boot["B"].append(boot.B)
                self.boot["ok"].append(ok)

        return (lambda args, kwargs: None, after)

    def _hook_sweep(self):
        def after(sid, args, kwargs, before, result, error):
            grid = _arg(args, kwargs, 0, "grid")
            with self._lock:
                self.sweep_units += len(grid.m_values) * grid.p

        return (lambda args, kwargs: None, after)

    # -- analysis ------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """All recorded spans as columns, in start order, with self times."""
        sid = np.array(self.sid, dtype=np.int64)
        order = np.argsort(sid, kind="stable")
        cols = {
            "sid": sid[order],
            "parent": np.array(self.parent, dtype=np.int64)[order],
            "name": np.array(self.name, dtype=np.int32)[order],
            "thread": np.array(self.thread, dtype=np.int32)[order],
            "expl": np.array(self.expl, dtype=np.int64)[order],
            "t0": np.array(self.t0, dtype=np.float64)[order],
            "t1": np.array(self.t1, dtype=np.float64)[order],
        }
        n = cols["sid"].size
        pos = np.full(int(cols["sid"].max(initial=0)) + 1, -1, dtype=np.int64)
        pos[cols["sid"]] = np.arange(n)
        prow = np.where(cols["parent"] > 0, pos[cols["parent"]], -1)
        dur = cols["t1"] - cols["t0"]
        has = prow >= 0
        covered = np.bincount(prow[has], weights=dur[has], minlength=n)
        # children on another thread than their parent may overlap each other
        cross = np.unique(prow[has & (cols["thread"] != cols["thread"][np.maximum(prow, 0)])])
        for p in cross:
            kids = np.flatnonzero(prow == p)
            covered[p] = _union_length(cols["t0"][kids], cols["t1"][kids])
        cols["pos"] = pos
        cols["prow"] = prow
        cols["dur"] = dur
        cols["self"] = dur - covered
        return cols

    def layer_metrics(self, explanations: int, overhead_s: float, untraced_s: float,
                      units: int, time_scale: float) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and hook facts.

        Counts are per explanation; span times are also multiplied by
        ``time_scale`` (the run's calibration scale).  ``units`` is the
        number of operation units when no sweep reported its own.
        """
        cols = self.spans()
        names = self._names
        index = {n: i for i, n in enumerate(names)}
        name = cols["name"]
        per = 1.0 / max(explanations, 1)
        per_time = per * time_scale

        def mask(span: str) -> np.ndarray:
            return name == index.get(span, -1)

        def below(span: str) -> np.ndarray:
            """Spans with an ancestor named ``span``."""
            target = mask(span)
            prow = cols["prow"]
            flag = np.zeros(name.size, dtype=bool)
            for _ in range(32):
                nxt = np.where(prow >= 0, target[np.maximum(prow, 0)] | flag[np.maximum(prow, 0)], False)
                if np.array_equal(nxt, flag):
                    break
                flag = nxt
            return flag

        out: dict[str, float] = {}
        for metric, span in INCLUSIVE.items():
            out[metric] = float(cols["dur"][mask(span)].sum()) * per_time
        for metric, span in SELF.items():
            out[metric] = float(cols["self"][mask(span)].sum()) * per_time
        for metric, span in CALLS.items():
            out[metric] = float(mask(span).sum()) * per
        out["bootstrap.scores_s"] = float(
            cols["dur"][mask("explain.scores") & below("bootstrap.run")].sum()
        ) * per_time

        B = np.array(self.boot["B"], dtype=np.int64)
        ok = np.array(self.boot["ok"], dtype=np.int64)
        out["bootstrap.replicates"] = float(B.sum()) * per
        out["bootstrap.replicate_success_ratio"] = float(ok.sum() / B.sum()) if B.sum() else 0.0

        s_sid = np.array(self.solves["sid"], dtype=np.int64)
        s_m = np.array(self.solves["m"], dtype=np.int64)
        s_q = np.array(self.solves["q"], dtype=np.int64)
        s_rank = np.array(self.solves["rank"], dtype=np.int64)
        out["polyfit.q"] = float(s_q.mean()) if s_q.size else 0.0
        out["polyfit.rank_deficient_share"] = float((s_rank < s_q).mean()) if s_q.size else 0.0
        replicate = below("bootstrap.solve")[cols["pos"][s_sid]]
        out["polyfit.solve_flops"] = float(solve_flops(s_m[replicate], s_q[replicate]).sum()) * per
        out["polyfit.solve_bytes"] = float(solve_bytes(s_m[replicate], s_q[replicate]).sum()) * per

        pinv = np.array(self.naive_pinv, dtype=np.int8)
        out["explain.naive_pinv_share"] = float(pinv.mean()) if pinv.size else 0.0
        constrained = np.array(self.selects["constrained"], dtype=np.int8)
        fallback = np.array(self.selects["fallback"], dtype=np.int8)
        out["neighborhood.constrained_share"] = float(constrained.mean()) if constrained.size else 0.0
        out["neighborhood.fallback_share"] = float(fallback.mean()) if fallback.size else 0.0

        problems = float(mask(PROBLEM_SPAN).sum())
        out["sim.problems_per_unit"] = problems / max(self.sweep_units or units, 1)

        roots = cols["prow"] < 0
        out["cli.pool_threads"] = _threads_per_root(cols, mask(PROBLEM_SPAN))

        out["trace.overhead_s"] = overhead_s * per
        out["trace.overhead_share"] = overhead_s / untraced_s if untraced_s > 0 else 0.0
        out["trace.self_sum_over_wall"] = float(cols["self"].sum() / cols["dur"][roots].sum())
        out["trace.spans"] = float(name.size) * per
        out["trace.absent_spans"] = float(len(self.absent))
        return out

    def save(self, path, **extra) -> None:
        """Write every span (start order) and the name table to an .npz file."""
        cols = self.spans()
        np.savez(path, names=np.array(self._names), absent=np.array(self.absent, dtype=str),
                 **{k: v for k, v in cols.items() if k not in ("pos", "prow")}, **extra)


class _RootSpan:
    def __init__(self, tracer: Tracer, name_idx: int):
        self.tracer = tracer
        self.name_idx = name_idx

    def __enter__(self):
        tracer = self.tracer
        self.sid = next(tracer._ids)
        tracer._root = self.sid
        tracer._root_thread = threading.get_ident()
        tracer._root_stack = [self.sid]
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = perf_counter()
        tracer = self.tracer
        tracer._record(self.sid, 0, self.name_idx, self.sid, self.t0, t1)
        tracer._root = 0
        tracer._root_stack = []
        return False


def _union_length(t0: np.ndarray, t1: np.ndarray) -> float:
    order = np.argsort(t0)
    total = 0.0
    end = -np.inf
    for a, b in zip(t0[order], t1[order]):
        if a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def _threads_per_root(cols, problem_rows: np.ndarray) -> float:
    """Mean number of threads that built local problems, per operation."""
    prow = cols["prow"]
    root_of = np.where(prow < 0, np.arange(prow.size), -1)
    for _ in range(32):
        unresolved = root_of < 0
        if not unresolved.any():
            break
        root_of[unresolved] = root_of[prow[unresolved]]
    counts = [
        np.unique(cols["thread"][problem_rows & (root_of == r)]).size
        for r in np.flatnonzero(prow < 0)
    ]
    counts = [c for c in counts if c]
    return float(np.mean(counts)) if counts else 0.0
