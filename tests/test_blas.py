"""The one-BLAS-thread pin around ``cli.main`` and ``sim.run_sweep``.

The test suite exports ``OPENBLAS_NUM_THREADS`` (conftest), which turns
the pin off, so each case runs in a fresh interpreter with the variable
removed or set as the case needs.
"""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import localexplain
from localexplain import _blas

SRC = os.path.dirname(os.path.dirname(localexplain.__file__))

# unless the variable is exported, every case starts from 2 threads in each
# runtime, so the pin shows; it records the counts seen inside the solves
PRELUDE = """
import json, os
from localexplain import _blas, cli, explain, sim

def counts():
    return [get() for _, get, _ in _blas.runtimes()]

if "OPENBLAS_NUM_THREADS" not in os.environ:
    for _, _, set_ in _blas.runtimes():
        set_(2)
inside = []
solve_rows = explain.LocalProblem.solve_rows

def probe(self, *args, **kwargs):
    inside.append(counts())
    return solve_rows(self, *args, **kwargs)

explain.LocalProblem.solve_rows = probe
TINY = sim.SweepGrid(k_values=(1,), m_values=(32,), c_values=(0.9,), n=200, p=1, B=10, seed=1)
"""


def run_case(code, blas_threads=None, prelude=PRELUDE):
    """The JSON object the last line of ``code`` prints, run after ``prelude`` in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    done = subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(code)],
        env=env, check=True, capture_output=True, text=True, timeout=300,
    )
    return json.loads(done.stdout.splitlines()[-1])


def bundled_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas.get("name", "")


needs_runtimes = pytest.mark.skipif(
    not _blas.runtimes(), reason="no OpenBLAS runtime whose thread count can be set"
)
ONE, TWO = ([count] * len(_blas.runtimes()) for count in (1, 2))


@pytest.mark.skipif(not bundled_openblas(), reason="NumPy is not built on OpenBLAS")
def test_finds_the_numpy_and_scipy_runtimes():
    paths = [os.path.basename(os.path.dirname(path)) for path, _, _ in _blas.runtimes()]
    assert sorted(paths) in (["numpy.libs", "scipy.libs"], [".dylibs", ".dylibs"])


@needs_runtimes
def test_run_sweep_runs_at_one_thread_and_restores_the_count():
    out = run_case("""
        before = counts()
        sim.run_sweep(TINY)
        print(json.dumps({"before": before, "inside": inside, "after": counts()}))
    """)
    assert out["before"] == TWO and out["after"] == TWO
    assert out["inside"] and all(seen == ONE for seen in out["inside"])


@needs_runtimes
def test_nested_entry_and_a_raised_exception_restore_the_count(tmp_path):
    out = run_case(f"""
        code = cli.main(["sweep", "--k-list", "1", "--m-list", "32", "--c-list", "0.9", "--n", "200",
                         "--p", "1", "--B", "10", "--sweep-out", {str(tmp_path / "s.csv")!r},
                         "--frontier-out", {str(tmp_path / "f.csv")!r}])
        nested = counts()
        try:
            sim.run_sweep(TINY, threads=2)
        except ValueError:
            pass
        print(json.dumps({{"code": code, "nested": nested, "raised": counts(), "inside": inside,
                           "depth": _blas._depth}}))
    """)
    assert out["code"] == 0 and out["depth"] == 0
    assert out["nested"] == TWO and out["raised"] == TWO
    assert out["inside"] and all(seen == ONE for seen in out["inside"])


@needs_runtimes
def test_summarize_runs_inside_the_pin(tmp_path):
    data, schema = str(tmp_path / "sim.csv"), str(tmp_path / "schema.json")
    out = run_case(f"""
        cli.main(["simulate", "--n", "300", "--seed", "2", "--data-out", {data!r}, "--schema-out", {schema!r}])
        code = cli.main(["summarize", "--data", {data!r}, "--schema", {schema!r}, "--queries", {data!r},
                         "--k", "1", "--m", "40", "--B", "10",
                         "--out", {str(tmp_path / "out.csv")!r}])
        print(json.dumps({{"code": code, "after": counts(), "inside": inside}}))
    """)
    assert out["code"] == 0 and out["after"] == TWO
    assert out["inside"] and all(seen == ONE for seen in out["inside"])


@needs_runtimes
def test_concurrent_entries_restore_the_count_once():
    # more threads than cores enter and leave at a short switch interval; a
    # lost update to the depth would restore the count inside a call, or not at all
    out = run_case("""
        import sys, threading
        seen = []
        pinned = _blas.single_blas_thread(lambda: seen.append(counts()))

        def worker():
            for _ in range(200):
                pinned()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        print(json.dumps({"alive": sum(t.is_alive() for t in threads), "calls": len(seen),
                          "pinned": sum(c == [1] * len(c) for c in seen), "after": counts(),
                          "depth": _blas._depth}))
    """)
    assert out["alive"] == 0 and out["depth"] == 0
    assert out["calls"] == out["pinned"] == 1600
    assert out["after"] == TWO


@needs_runtimes
def test_an_exported_thread_count_turns_the_pin_off():
    # the runtimes read 2 from the variable as they load
    out = run_case("""
        sim.run_sweep(TINY)
        print(json.dumps({"after": counts(), "inside": inside}))
    """, blas_threads="2")
    assert out["after"] == TWO
    assert out["inside"] and all(seen == TWO for seen in out["inside"])


@needs_runtimes
def test_without_a_runtime_the_pin_does_nothing():
    # the real runtimes are read directly; the pin's lookup knows no symbol
    out = run_case("""
        real = _blas.runtimes.__wrapped__()
        _blas._SYMBOLS = ()
        assert _blas.runtimes() == ()
        records = sim.run_sweep(TINY)
        seen = []
        probe_main = _blas.single_blas_thread(lambda: seen.append([get() for _, get, _ in real]))
        probe_main()
        print(json.dumps({"found": len(_blas.runtimes()), "seen": seen, "records": len(records),
                          "after": [get() for _, get, _ in real]}))
    """, prelude="""
import json
from localexplain import _blas, sim
TINY = sim.SweepGrid(k_values=(1,), m_values=(32,), c_values=(0.9,), n=200, p=1, B=10, seed=1)
for _, _, set_ in _blas.runtimes.__wrapped__():
    set_(2)
""")
    assert out["found"] == 0 and out["records"] == 2
    assert out["seen"] == [TWO] and out["after"] == TWO


@needs_runtimes
def test_desk_sweep_matches_an_exported_single_thread():
    code = """
        before = counts()
        grid = sim.SweepGrid(k_values=(1, 2, 3, 4), m_values=(32, 64, 128, 256),
                             c_values=(0.3, 0.5, 0.7, 0.9), n=2000, p=1, B=200, seed=911)
        records = [repr(r) for r in sim.run_sweep(grid)]
        print(json.dumps({"before": before, "after": counts(), "records": records}))
    """
    pinned, exported = run_case(code), run_case(code, blas_threads="1")
    assert pinned["records"] == exported["records"] and len(pinned["records"]) == 128
    assert pinned["before"] == pinned["after"] == TWO
