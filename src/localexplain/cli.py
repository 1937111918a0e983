"""Command-line front end.

Subcommands
-----------
explain    JSON explanation report (scores + bootstrap intervals, optional
           naive intervals) for a single query instance.
summarize  Per-feature mean |score| and mean interval width over a file of
           query instances, as a CSV ready for scatter plotting.
simulate   Write the synthetic ground-truth dataset and its schema.
sweep      Coverage/width sweep over a (k, m, c) grid plus Pareto frontiers.

Every output embeds the run manifest (command, hyperparameters, input file
digests, tool version): JSON reports carry a ``manifest`` key, and every CSV
output, the ``--dump-scores`` replicate scores included, is written by
``data.write_csv`` with a leading ``# manifest: ...`` line.  Outputs are
deterministic for a fixed seed.  A large enough ``sweep`` runs on forked
worker processes, one per usable CPU; the other subcommands run serially.

:func:`main` runs with NumPy's and SciPy's bundled OpenBLAS at one thread
(``_blas.single_blas_thread``): the setting is process-wide for the length of
the call only, and is restored afterwards.  An exported
``OPENBLAS_NUM_THREADS`` turns the pin off.

Exit codes: 0 success, 1 error (machine-readable JSON on stderr), 3 success
with partial per-instance/parameter-set failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._blas import single_blas_thread
from .bootstrap import _MASK64, BootstrapConfig, bootstrap_from_problem
from .data import DataError, FeatureSchema, load_dataset, open_output, read_csv_rows, write_csv, write_dataset_csv
from .explain import ExplainConfig, ExplainError, LocalProblem, build_problem
from .neighborhood import QueryPoint
from .sim import (
    TYPED_ERRORS,
    SweepGrid,
    generate_dataset,
    pareto_frontier,
    read_baseline_csv,
    run_sweep,
    write_sweep_csv,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARTIAL = 3

SUMMARY_COLUMNS = (
    "feature", "mean_abs_score", "mean_interval_width", "instances_ok", "instances_failed", "low_success"
)

# the typed errors fail one summarize instance; main turns any of these into exit 1
_CLI_ERRORS = (*TYPED_ERRORS, ValueError, OSError)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest(command: str, parameters: dict, inputs: dict[str, str | None]) -> dict:
    """Everything needed to reproduce a run byte-for-byte."""
    digests = {name: _sha256(path) for name, path in inputs.items() if path}
    return {"command": command, "parameters": parameters, "input_digests": digests, "version": __version__}


def _comment_line(manifest: dict) -> str:
    """The manifest as the ``# manifest: ...`` line that heads every CSV output."""
    return "manifest: " + json.dumps(manifest, sort_keys=True)


def _parse_deltas(pairs: list[str]) -> dict[str, float]:
    out = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        try:
            out[name] = float(value)  # no "=" leaves value empty, which float rejects
        except ValueError:
            raise DataError(f"--delta expects name=value with a numeric value, got {pair!r}") from None
    return out


def _parse_query(text: str, dataset) -> QueryPoint:
    if text.strip().removeprefix("-").isdecimal():
        return QueryPoint.from_row(dataset, int(text))
    try:
        values = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"--query must be a row index or a JSON object: {exc}") from exc
    if not isinstance(values, dict):
        raise DataError("--query must be a row index or a JSON object of feature values")
    return QueryPoint.from_mapping(dataset.schema, values)


def _parse_list(text: str, cast):
    return tuple(cast(part) for part in text.split(",") if part.strip())


def _explain_config(args, deltas) -> ExplainConfig:
    return ExplainConfig(
        degree=args.k,
        m=args.m,
        kind=args.kind,
        weighted=args.weighted,
        balance=args.balance,
        balance_fallback=args.balance_fallback,
        deltas=deltas,
    )


def _explain_parameters(args, deltas) -> dict:
    """The manifest parameters that ``explain`` and ``summarize`` share."""
    return {
        "k": args.k, "m": args.m, "c": args.c, "B": args.B, "alpha": args.alpha,
        "seed": args.seed, "weighted": args.weighted, "kind": args.kind,
        "balance": args.balance, "balance_fallback": args.balance_fallback,
        "deltas": deltas, "output_column": args.output_column,
    }


def _interval_payload(interval) -> dict:
    return {"lower": interval.lower, "upper": interval.upper, "alpha": interval.alpha}


# ---------------------------------------------------------------------------
# explain
# ---------------------------------------------------------------------------


def _report_for_problem(problem: LocalProblem, boot: BootstrapConfig, naive_ci: bool):
    scores = problem.point_scores()
    intervals, dist = bootstrap_from_problem(problem, boot)
    by_name = {iv.feature: iv for iv in intervals}
    naive = {}
    naive_skipped = None
    if naive_ci:
        try:
            for spec in problem.schema.numeric_features:
                naive[spec.name] = problem.naive_interval(spec.name, boot.alpha)
        except ExplainError as exc:
            naive, naive_skipped = {}, str(exc)
    features = []
    for score in scores:
        entry: dict = {"name": score.feature, "kind": score.kind, "score": score.value}
        entry["bootstrap_interval"] = _interval_payload(by_name[score.feature])
        if score.feature in naive:
            iv = naive[score.feature]
            entry["naive_interval"] = dict(
                _interval_payload(iv), standard_error=iv.standard_error
            )
        features.append(entry)
    fit = problem.point_fit
    diagnostics = {
        "m": problem.m,
        "q": problem.basis.q,
        "live_terms": int(problem.live_columns.size),
        "effective_rank": fit.effective_rank,
        "condition": fit.condition,
        "ill_conditioned": fit.ill_conditioned,
        "rss": fit.rss,
        "failed_replicates": dist.failed_replicates,
        "balance_fallback_used": problem.neighborhood.balance_fallback_used,
        "replicates_solved_by": dist.solved_by,
        "replicate_rank": dist.replicate_rank,
        "row_condition": problem.row_condition,
        "row_rank": problem.row_rank,
    }
    if naive_skipped:
        diagnostics["naive_ci_skipped"] = naive_skipped
    metadata = {
        "k": problem.config.degree,
        "m": problem.config.m,
        "c": boot.c,
        "B": boot.B,
        "alpha": boot.alpha,
        "seed": boot.seed,
        "weighted": problem.config.weighted,
        "kind": problem.config.kind,
        "diagnostics": diagnostics,
    }
    return {"features": features, "metadata": metadata}, dist


def cmd_explain(args) -> int:
    schema = FeatureSchema.from_json(Path(args.schema).read_text(encoding="utf-8-sig"))
    dataset = load_dataset(args.data, schema, output_column=args.output_column)
    deltas = _parse_deltas(args.delta)
    query = _parse_query(args.query, dataset)
    config = _explain_config(args, deltas)
    boot = BootstrapConfig(B=args.B, c=args.c, alpha=args.alpha, seed=args.seed)
    problem = build_problem(dataset, query, config)
    report, dist = _report_for_problem(problem, boot, args.naive_ci)
    report["query"] = query.as_mapping(dataset.schema)
    manifest = _manifest(
        "explain",
        {**_explain_parameters(args, deltas), "naive_ci": args.naive_ci, "query": args.query},
        {"data": args.data, "schema": args.schema},
    )
    report["manifest"] = manifest
    with open_output(args.out) as fh:
        fh.write(json.dumps(report, indent=2) + "\n")
    if args.dump_scores:
        write_csv(args.dump_scores, dist.names, dist.scores.tolist(), _comment_line(manifest))
    return EXIT_OK


# ---------------------------------------------------------------------------
# summarize
# ---------------------------------------------------------------------------


def cmd_summarize(args) -> int:
    schema = FeatureSchema.from_json(Path(args.schema).read_text(encoding="utf-8-sig"))
    dataset = load_dataset(args.data, schema, output_column=args.output_column)
    deltas = _parse_deltas(args.delta)
    config = _explain_config(args, deltas)
    with open(args.queries, "r", encoding="utf-8-sig", newline="") as fh:
        columns, cells = read_csv_rows(fh, schema.names, "queries CSV")
        rows = [{name: row[columns[name]] for name in schema.names} for _, row in cells]
    if not rows:
        raise DataError("queries CSV contains no instances")

    successes, failures = [], []
    for idx, row in enumerate(rows):
        seed = int(np.random.SeedSequence([args.seed & _MASK64, 3, idx]).generate_state(1)[0])
        try:
            query = QueryPoint.from_mapping(schema, row)
            problem = build_problem(dataset, query, config)
            scores = problem.point_scores()
            intervals, _ = bootstrap_from_problem(
                problem, BootstrapConfig(B=args.B, c=args.c, alpha=args.alpha, seed=seed)
            )
        except TYPED_ERRORS as exc:
            failures.append(f"instance {idx}: {type(exc).__name__}: {exc}")
            continue
        widths = {iv.feature: iv.upper - iv.lower for iv in intervals}
        successes.append({s.feature: (abs(s.value), widths[s.feature]) for s in scores})

    for err in failures:
        print(f"warning: {err}", file=sys.stderr)
    if not successes:
        raise ExplainError("every query instance failed")
    names = list(successes[0].keys())
    total = len(rows)
    manifest = _manifest(
        "summarize",
        _explain_parameters(args, deltas),
        {"data": args.data, "schema": args.schema, "queries": args.queries},
    )
    ok = len(successes)
    table = [
        [name, float(np.mean([res[name][0] for res in successes])),
         float(np.mean([res[name][1] for res in successes])), ok, total - ok, int(ok < 0.8 * total)]
        for name in names
    ]
    write_csv(args.out, SUMMARY_COLUMNS, table, _comment_line(manifest))
    return EXIT_PARTIAL if failures else EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    dataset = generate_dataset(args.n, args.seed)
    manifest = _manifest("simulate", {"n": args.n, "seed": args.seed}, {})
    write_dataset_csv(dataset, args.data_out, comment=_comment_line(manifest))
    Path(args.schema_out).write_text(dataset.schema.to_json() + "\n", encoding="utf-8")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def cmd_sweep(args) -> int:
    grid = SweepGrid(
        k_values=_parse_list(args.k_list, int),
        m_values=_parse_list(args.m_list, int),
        c_values=_parse_list(args.c_list, float),
        n=args.n,
        p=args.p,
        B=args.B,
        alpha=args.alpha,
        seed=args.seed,
    )
    baseline = read_baseline_csv(args.merge) if args.merge else []
    records = run_sweep(grid)
    manifest = _manifest(
        "sweep",
        {
            "k_list": list(grid.k_values), "m_list": list(grid.m_values),
            "c_list": list(grid.c_values), "n": grid.n, "p": grid.p, "B": grid.B,
            "alpha": grid.alpha, "seed": grid.seed,
        },
        {"merge": args.merge},
    )
    write_sweep_csv(records, args.sweep_out, header_comment=_comment_line(manifest))
    merged = list(records) + baseline
    frontier = []
    for method in sorted({r.method for r in merged}):
        frontier.extend(pareto_frontier(merged, method))
    write_sweep_csv(frontier, args.frontier_out, header_comment=_comment_line(manifest))
    invalid = sum(1 for r in records if r.invalid)
    if invalid:
        print(f"warning: {invalid} parameter set(s) invalid (>10% failed points)", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common_explain_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="input CSV of model inputs/outputs")
    p.add_argument("--schema", required=True, help="feature schema JSON")
    p.add_argument("--k", type=int, required=True, help="polynomial degree")
    p.add_argument("--m", type=int, required=True, help="neighborhood size")
    p.add_argument("--c", type=float, default=0.9, help="bootstrap sub-neighborhood fraction")
    p.add_argument("--B", type=int, default=1000, help="bootstrap replicate count")
    p.add_argument("--alpha", type=float, default=0.05, help="significance level")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument(
        "--kind",
        choices=["gradient", "function_difference"],
        default="function_difference",
        help="importance proxy for continuous features",
    )
    p.add_argument("--weighted", action=argparse.BooleanOptionalAction, default=True,
                   help="distance-weighted regression")
    p.add_argument("--balance", action=argparse.BooleanOptionalAction, default=True,
                   help="class-balanced neighborhood selection")
    p.add_argument("--balance-fallback", action="store_true",
                   help="fill the neighborhood best-effort when balancing is infeasible")
    p.add_argument("--delta", action="append", default=[], metavar="NAME=VALUE",
                   help="override the perturbation step for one feature (repeatable)")
    p.add_argument("--output-column", default="f", help="name of the output column in the CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localexplain",
        description="Local feature-importance explanations with bootstrap uncertainty intervals "
                    "from a static dataset of model inputs and outputs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explain", help="explain a single query instance")
    _add_common_explain_flags(p)
    p.add_argument("--query", required=True,
                   help="row index into the data CSV, or a JSON object of feature values")
    p.add_argument("--naive-ci", action="store_true",
                   help="include closed-form intervals where applicable")
    p.add_argument("--dump-scores", default=None, metavar="PATH",
                   help="write the bootstrap replicate score matrix to CSV")
    p.add_argument("--out", default=None, help="report path (default: stdout)")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("summarize", help="summarize scores/widths over a set of instances")
    _add_common_explain_flags(p)
    p.add_argument("--queries", required=True, help="CSV of query instances")
    p.add_argument("--out", default=None, help="summary CSV path (default: stdout)")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("simulate", help="write the synthetic ground-truth dataset")
    p.add_argument("--n", type=int, required=True, help="dataset size")
    p.add_argument("--seed", type=int, required=True, help="RNG seed")
    p.add_argument("--data-out", required=True, help="dataset CSV path")
    p.add_argument("--schema-out", required=True, help="schema JSON path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="coverage/width sweep and Pareto frontiers")
    p.add_argument("--k-list", required=True, help="comma-separated polynomial degrees")
    p.add_argument("--m-list", required=True, help="comma-separated neighborhood sizes")
    p.add_argument("--c-list", required=True, help="comma-separated sub-neighborhood fractions")
    p.add_argument("--n", type=int, default=2000, help="synthetic dataset size")
    p.add_argument("--p", type=int, default=250, help="coverage query point count")
    p.add_argument("--B", type=int, default=500, help="bootstrap replicate count")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--merge", default=None,
                   help="CSV of external (method,avg_width,coverage) rows to overlay")
    p.add_argument("--sweep-out", required=True, help="sweep records CSV path")
    p.add_argument("--frontier-out", required=True, help="Pareto frontier CSV path")
    p.set_defaults(func=cmd_sweep)
    return parser


@single_blas_thread
def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CLI_ERRORS as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(payload), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
