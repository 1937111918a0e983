"""Outputs that use no random numbers, checked against a stored reference.

The reference inputs are fixed (they do not depend on the run's seed):
point scores and naive intervals of eight explanations at the paper's
settings on the synthetic data, and the mean |score| column of one
``summarize`` call over a small credit table.  Every run recomputes them
and compares with ``reference.json``; a group passes when its largest
absolute difference is at most RTOL times the group's largest reference
magnitude.

Regenerate the stored file only when an output is meant to change, and
say so:  python3 benchmarks/reference.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
STORED = HERE / "reference.json"

#: Relative tolerance, against the largest reference magnitude of a group.
RTOL = 1e-6

REF_SEED = 20230113
REF_ROWS = range(8)


def compute(workdir: Path) -> dict[str, list[float]]:
    from localexplain import cli, sim
    from localexplain.explain import ExplainConfig
    from localexplain.neighborhood import QueryPoint

    import workloads
    from workloads import explain

    dataset = sim.generate_dataset(2000, REF_SEED)
    config = ExplainConfig(degree=4, m=66, kind="gradient", weighted=True, balance=True)
    scores: list[float] = []
    naive: list[float] = []
    for row in REF_ROWS:
        problem = explain.build_problem(dataset, QueryPoint.from_row(dataset, row), config)
        scores += [s.value for s in problem.point_scores()]
        for feature in ("x1", "x2"):
            iv = problem.naive_interval(feature, 0.05)
            naive += [iv.lower, iv.upper]

    data, schema = workdir / "ref_credit.csv", workdir / "ref_schema.json"
    queries, out = workdir / "ref_queries.csv", workdir / "ref_summary.csv"
    numeric, codes = workloads.credit_sample(np.random.default_rng([REF_SEED, 1]), 4000)
    workloads.write_credit_csv(data, numeric, codes, workloads.credit_probability(numeric, codes))
    schema.write_text(json.dumps(workloads.CREDIT_SCHEMA))
    numeric, codes = workloads.credit_sample(np.random.default_rng([REF_SEED, 2]), 8)
    workloads.write_credit_csv(queries, numeric, codes)
    code = cli.main(workloads.summarize_argv(data, schema, queries, out, B=20, seed=REF_SEED))
    if code != cli.EXIT_OK:
        raise RuntimeError(f"reference summarize call exited with {code}")
    means = [row["mean_abs_score"] for row in workloads.read_summary(out).values()]
    return {"point_scores": scores, "naive_intervals": naive, "summarize_mean_abs_score": means}


def compare(current: dict[str, list[float]]) -> list[dict]:
    stored = json.loads(STORED.read_text())
    report = []
    for group, want in stored.items():
        want = np.asarray(want, dtype=float)
        got = np.asarray(current.get(group, []), dtype=float)
        if got.shape != want.shape:
            report.append({"group": group, "ok": False, "max_abs": None, "max_rel": None,
                           "note": f"{got.size} values, reference has {want.size}"})
            continue
        diff = np.abs(got - want)
        nonzero = want != 0
        max_rel = float((diff[nonzero] / np.abs(want[nonzero])).max(initial=0.0))
        scale = float(np.abs(want).max(initial=0.0))
        report.append({
            "group": group,
            "ok": bool(np.all(np.isfinite(got)) and diff.max(initial=0.0) <= RTOL * scale),
            "max_abs": float(diff.max(initial=0.0)),
            "max_rel": max_rel,
        })
    return report


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    workdir = HERE.parent / ".bench_work" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        values = compute(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    STORED.write_text(json.dumps(values, indent=1) + "\n")
    print(f"wrote {STORED} ({sum(len(v) for v in values.values())} values)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
