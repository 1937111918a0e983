"""What the benchmark's tracer needs of the library, checked by an in-process traced run."""

import importlib.util
import sys
import warnings
from pathlib import Path

from localexplain import bootstrap, cli, explain, sim
from localexplain.data import write_dataset_csv
from localexplain.neighborhood import QueryPoint

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer(monkeypatch):
    """``benchmarks/tracer.py`` as a module of its own, leaving no bytecode beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_runs_of_every_workload_keep_the_tracer_whole(tmp_path, monkeypatch):
    """Every wrap target but one resolves, and no hook fails, across the three workloads' entry points.

    The tracer's hooks read library attributes, such as
    ``LocalProblem.notes``, where their failures are not caught, so a change
    that drops one would crash a traced benchmark run while every other test
    passes.  ``polyfit.fit`` is the one target already gone; the benchmark
    repair that drops it from ``tracer.TARGETS`` empties the expected list.
    """
    dataset = sim.generate_dataset(300, 1)
    data, schema, queries = tmp_path / "data.csv", tmp_path / "schema.json", tmp_path / "queries.csv"
    write_dataset_csv(dataset, data)
    schema.write_text(dataset.schema.to_json())
    queries.write_text("x1,x2,a,b\n0.5,-1.0,2,3\n-2.0,1.5,1,1\n")

    tracer = load_tracer(monkeypatch).Tracer(False)
    tracer.install()
    try:
        with tracer.root("test.explain"):
            problem = explain.build_problem(
                dataset, QueryPoint.from_row(dataset, 0), explain.ExplainConfig(degree=2, m=60, kind="gradient")
            )
            problem.point_scores()
            bootstrap.bootstrap_from_problem(problem, bootstrap.BootstrapConfig(B=20, c=0.9, seed=1))
            problem.naive_interval("x1")
        with tracer.root("test.sweep"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # m=32 < q at k=2
            sim.run_sweep(
                sim.SweepGrid(k_values=(1, 2), m_values=(32,), c_values=(0.9,), n=200, p=1, B=10, seed=1),
                threads=1,
            )
        with tracer.root("test.summarize"):
            code = cli.main([
                "summarize", "--data", str(data), "--schema", str(schema), "--queries", str(queries),
                "--k", "1", "--m", "40", "--B", "20", "--out", str(tmp_path / "summary.csv"),
            ])
            assert code == cli.EXIT_OK
    finally:
        tracer.uninstall()

    assert tracer.hook_errors == 0
    assert tracer.absent == ["polyfit.fit"]
    # every hook ran: the naive interval's in the explanation and the sweep
    assert len(tracer.naive_pinv) == 3 and tracer.sweep_units == 1
    assert len(tracer.boot["B"]) == 1 + 2 + 2
    assert not hasattr(explain.build_problem, "__wrapped__")  # the originals are back
