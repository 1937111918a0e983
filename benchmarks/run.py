"""Benchmark of localexplain: closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root, with nothing installed beyond numpy and scipy:

    python3 benchmarks/run.py --workload explain-paper --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` of the same checkout.  Workloads are
described in ``workloads.py``.  Inputs come from ``--seed``; generated files
live under ``.bench_work/`` and are removed at the end, except the span
file of a traced run.

With ``--trace 0`` the run is untraced and reports the end-to-end metrics:

  setup_s             median over several fresh interpreters of the time to
                      import localexplain and prepare the workload's dataset
                      outside the loop (explain-paper: generate_dataset)
  explanations_per_s  explanations completed per second of operation time;
                      an explanation is one query report (explain-paper), one
                      query instance (summarize-wide) or one bootstrap
                      interval for a (k, m, c, point) (sweep-desk)
  latency_p50_ms      median latency of one closed-loop operation: an
                      explanation, a summarize call or a run_sweep call
  latency_tail_ms     the highest percentile with at least ten samples beyond
                      it (the maximum when there are ten samples or fewer)
  peak_rss_mb         peak resident memory of this process up to the end of
                      its first timed operation (imports, inputs, warm-up
                      and one full-size operation); later operations can
                      raise it further by allocator fragmentation at random
                      points, so the end-of-run peak is only printed

Failed operations over attempted ones (failed_fraction) are printed and
carried by the result's ``attempted`` and ``failed`` fields.

The speed of a small shared machine drifts by tens of percent over
seconds.  explain-paper's operations are calibrated: a fixed kernel that
never calls localexplain but runs that workload's inner step (a 59 x 104
gelsy solve and a Philox subset draw) is timed between operations, and
each operation's wall time is multiplied by CALIBRATION_REFERENCE_S over
the median kernel time just before and just after it, so its times read
as wall times on a machine where the kernel takes CALIBRATION_REFERENCE_S
(the wall-clock figures are printed next to them).  Over 10 seeds this cut
explain-paper's spread of latency_p50_ms from 17% to 3%.  The other
workloads' operations last seconds, long enough to average the drift
themselves; calibrating them from kernel samples at their ends raised
their spreads, so they, and every setup_s, report plain wall-clock time.

With ``--trace 1`` every operation runs twice, untraced and then traced
with spans recorded around the library's public functions (``tracer.py``);
the run reports the per-layer metrics of the traced operations and the
tracing overhead (traced minus untraced wall time of the same operations).

Every run checks its outputs (``workloads.py`` and ``reference.py``).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOAD_NAMES = ("explain-paper", "summarize-wide", "sweep-desk")

#: Fresh interpreters timed for setup_s, after one discarded warm-up.
SETUP_REPEATS = 5

#: Reference wall time of the calibration kernel (its typical time on the
#: 2-core machine where the benchmark was written).  A calibrated time is a
#: wall time scaled by this over the kernel's time measured next to it.
CALIBRATION_REFERENCE_S = 0.006

END_TO_END_UNITS = {
    "setup_s": "s",
    "explanations_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time of the loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own smoke test")
    return parser.parse_args(argv)


def import_library():
    """Import localexplain from this checkout's src/, never from elsewhere."""
    if not (SRC / "localexplain" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no localexplain sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import localexplain

    if not Path(localexplain.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"benchmark: imported localexplain from {localexplain.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info['name']} {info['version']}"
        except (TypeError, KeyError):
            return "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        **{k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "LOCALEXPLAIN_THREADS")},
    }


def calibration() -> float:
    """Wall time of a fixed mix of interpreter, LAPACK, RNG and sort work.

    The kernel never calls localexplain, so a change to the program leaves
    it alone; it stays small enough for LAPACK to run single-threaded.
    """
    import numpy as np
    import scipy.linalg

    rng = np.random.default_rng(0)
    A = rng.standard_normal((59, 104))
    y = rng.standard_normal(59)
    v = rng.standard_normal(50_000)
    t0 = time.perf_counter()
    s = 0
    for i in range(20_000):
        s += i * i
    for b in range(10):
        scipy.linalg.lstsq(A, y, lapack_driver="gelsy", check_finite=False)
        key = np.array([1, b], dtype=np.uint64)
        np.random.Generator(np.random.Philox(key=key)).choice(66, size=59, replace=False)
    np.sort(v)
    return time.perf_counter() - t0


class Clock:
    """Calibration samples taken between the timed intervals of a run.

    After each interval the kernel runs about once per half second of the
    interval's length.  An interval's scale is CALIBRATION_REFERENCE_S over
    the median of the samples taken just before and just after it, which
    cancels the machine's speed drift common to the kernel and the program.
    """

    def __init__(self):
        self.previous = [calibration()]

    def scale(self, elapsed: float) -> float:
        """Sample after an interval of ``elapsed`` seconds; return its scale."""
        after = [calibration() for _ in range(max(1, round(elapsed / 0.5)))]
        around, self.previous = self.previous + after, after
        return CALIBRATION_REFERENCE_S / statistics.median(around)


def measure_setup(body: str) -> list[float]:
    """Wall times of ``body`` (imports and dataset preparation) in fresh interpreters.

    The first interpreter warms the file cache and is discarded.
    """
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); t = time.perf_counter(); "
        f"{body}; print(repr(time.perf_counter() - t))"
    )
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times[1:]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def closed_loop(workload, seconds: float, tracer=None) -> tuple[list, list, float]:
    """Run operations back to back for ``seconds``.

    Every result carries its wall time and its calibration scale (1 unless
    the workload is calibrated).  With a tracer, each operation runs twice,
    first untraced and then traced with the same input, so that drift over
    the run cancels out of the tracing overhead.  Returns the untraced results, the traced
    results and the peak resident memory at the end of the first operation.
    """
    clock = Clock() if workload.calibrated else None

    def scale(elapsed: float) -> float:
        return clock.scale(elapsed) if clock else 1.0

    plain, traced = [], []
    first_peak = 0.0
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        arg = workload.make_input(i)
        t0 = time.perf_counter()
        out = workload.run(arg)
        elapsed = time.perf_counter() - t0
        plain.append(workload.collect(arg, out, elapsed, scale(elapsed)))
        first_peak = first_peak or peak_rss_mb()
        if tracer is not None:
            tracer.install()
            try:
                t0 = time.perf_counter()
                with tracer.root(workload.root_span):
                    out = workload.run(arg)
                elapsed = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            traced.append(workload.collect(arg, out, elapsed, scale(elapsed)))
        i += 1
    return plain, traced, first_peak


def tail(sorted_values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    n = len(sorted_values)
    if n > 10:
        return sorted_values[n - 11], 100.0 * (n - 10) / n
    return sorted_values[-1], 100.0


def end_to_end(results, setup_times: list[float], first_peak: float) -> tuple[dict, list[str]]:
    def summary(latencies: list[float]) -> tuple[dict, float]:
        latencies = sorted(latencies)
        tail_value, tail_pct = tail(latencies)
        return {
            "explanations_per_s": sum(r.explanations for r in results) / sum(latencies),
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_tail_ms": 1e3 * tail_value,
        }, tail_pct

    values, tail_pct = summary([r.elapsed * r.scale for r in results])
    values = {"setup_s": statistics.median(setup_times), **values, "peak_rss_mb": first_peak}
    notes = [
        f"setup_s is the median of {len(setup_times)} interpreters: "
        + ", ".join(f"{t:.4f}" for t in setup_times),
        f"latency_tail_ms is p{tail_pct:.1f} of {len(results)} samples",
        f"peak resident memory at the end of the run {peak_rss_mb():.1f} MB",
    ]
    scales = [r.scale for r in results]
    if any(x != 1.0 for x in scales):
        wall, _ = summary([r.elapsed for r in results])
        notes += [
            f"calibration scale median {statistics.median(scales):.4f}, "
            f"range {min(scales):.4f}..{max(scales):.4f}",
            "wall clock: " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()),
        ]
    return values, notes


def traced_run(workload, seconds: float, trace_path: Path, env: dict):
    """Each operation untraced and then traced; per-layer metrics from the traced ones."""
    from tracer import Tracer

    tracer = Tracer(workload.problem_starts_explanation)
    untraced, traced, _ = closed_loop(workload, seconds, tracer)
    untraced_s = sum(r.elapsed * r.scale for r in untraced)
    overhead_s = sum(r.elapsed * r.scale for r in traced) - untraced_s
    explanations = sum(r.explanations for r in traced)
    scale = statistics.median(r.scale for r in traced)
    values = tracer.layer_metrics(explanations, overhead_s, untraced_s, explanations, scale)
    tracer.save(trace_path, env=json.dumps(env))
    notes = [
        f"traced {len(traced)} operations, {explanations} explanations, "
        f"{values['trace.spans'] * explanations:.0f} spans -> {trace_path.relative_to(ROOT)}",
        f"span times are wall times x the traced operations' median calibration scale {scale:.4f}",
        f"tracing overhead {overhead_s:+.4f} s over {untraced_s:.4f} s untraced",
        "polyfit.solve_flops and polyfit.solve_bytes are computed from the (m', q) shapes "
        "of the replicate solves, not measured",
        f"self times sum to {values['trace.self_sum_over_wall']:.4f} x the operations' wall time",
        "absent spans: " + (", ".join(tracer.absent) or "none"),
    ]
    if tracer.hook_errors:
        notes.append(f"{tracer.hook_errors} hook calls failed; their counts are incomplete")
    return untraced + traced, values, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import reference
    from tracer import LAYER_UNITS
    from workloads import WORKLOADS

    env = environment()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, args.tiny)
        workload.warm_up()
        if args.trace:
            results, values, notes = traced_run(
                workload, args.seconds, WORK / f"trace-{args.workload}.npz", env
            )
            units = LAYER_UNITS
        else:
            setup_times = measure_setup(workload.setup_code())
            results, _, first_peak = closed_loop(workload, args.seconds)
            values, notes = end_to_end(results, setup_times, first_peak)
            units = END_TO_END_UNITS
        checks = [workload.check(results)]
        for group in reference.compare(reference.compute(workdir)):
            checks.append({
                "name": f"reference {group['group']}",
                "value": group["max_abs"],
                "bar": f"max_abs <= {reference.RTOL} x largest |reference|; max_rel {group['max_rel']}",
                "ok": group["ok"],
            })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(results)} operations, {sum(r.explanations for r in results)} explanations")
    print("env " + json.dumps(env, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:36s} {values[name]:.6g} {unit}")
    print(f"  {'failed_fraction':36s} {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for note in notes:
        print("  " + note)
    for check in checks:
        print(f"check {'ok  ' if check['ok'] else 'FAIL'} {check['name']}: {check['value']} ({check['bar']})")
    result = {
        "correct": all(c["ok"] for c in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
