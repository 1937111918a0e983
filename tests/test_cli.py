"""End-to-end command-line behavior on small synthetic inputs."""

import codecs
import csv
import gc
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import localexplain
from localexplain.cli import EXIT_ERROR, EXIT_OK, EXIT_PARTIAL, build_parser, main
from localexplain.data import FeatureSchema, FeatureSpec, load_dataset
from localexplain.explain import ExplainConfig, build_problem
from localexplain.neighborhood import QueryPoint


def write_quadratic_inputs(tmp_path, n=60, seed=1):
    """y = x^2 exactly, one continuous feature."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, n)
    data = tmp_path / "data.csv"
    lines = ["x,f"] + [f"{float(xi)!r},{float(xi * xi)!r}" for xi in x]
    data.write_text("\n".join(lines) + "\n")
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({
        "features": [{"name": "x", "kind": "continuous"}],
        "output_kind": "raw",
    }))
    return str(data), str(schema)


def write_mixed_inputs(tmp_path, n=90, seed=2):
    """y = 1 + 2*x1 + 0*x2 + (color==g)*0.5 - (color==b)*0.25, exact."""
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(-2, 2, n)
    x2 = rng.uniform(-2, 2, n)
    colors = np.array(["r", "g", "b"])[np.arange(n) % 3]
    offset = {"r": 0.0, "g": 0.5, "b": -0.25}
    y = 1 + 2 * x1 + np.array([offset[c] for c in colors])
    data = tmp_path / "mixed.csv"
    rows = ["x1,x2,color,f"] + [
        f"{float(a)!r},{float(b)!r},{c},{float(d)!r}" for a, b, c, d in zip(x1, x2, colors, y)
    ]
    data.write_text("\n".join(rows) + "\n")
    schema = tmp_path / "mixed_schema.json"
    schema.write_text(json.dumps({
        "features": [
            {"name": "x1", "kind": "continuous"},
            {"name": "x2", "kind": "continuous"},
            {"name": "color", "kind": "categorical",
             "categories": ["r", "g", "b"], "baseline": "r"},
        ],
        "output_kind": "raw",
    }))
    return str(data), str(schema)


def write_probability_inputs(tmp_path, n=160, seed=3):
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(-2, 2, n)
    x2 = rng.uniform(-2, 2, n)
    p = 1.0 / (1.0 + np.exp(-(0.3 + 0.9 * x1 - 0.4 * x2)))
    data = tmp_path / "prob.csv"
    rows = ["x1,x2,f"] + [f"{float(a)!r},{float(b)!r},{float(c)!r}" for a, b, c in zip(x1, x2, p)]
    data.write_text("\n".join(rows) + "\n")
    schema = tmp_path / "prob_schema.json"
    schema.write_text(json.dumps({
        "features": [
            {"name": "x1", "kind": "continuous"},
            {"name": "x2", "kind": "continuous"},
        ],
        "output_kind": "probability",
    }))
    return str(data), str(schema)


class TestSimulate:
    def test_writes_reproducible_dataset_and_schema(self, tmp_path):
        out1 = tmp_path / "sim1.csv"
        out2 = tmp_path / "sim2.csv"
        schema_out = tmp_path / "schema.json"
        for out in (out1, out2):
            code = main([
                "simulate", "--n", "50", "--seed", "7",
                "--data-out", str(out), "--schema-out", str(schema_out),
            ])
            assert code == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        schema = json.loads(schema_out.read_text())
        names = [f["name"] for f in schema["features"]]
        assert names == ["x1", "x2", "a", "b"]
        assert schema["features"][2]["categories"] == ["1", "2", "3"]
        assert schema["features"][2]["baseline"] == "1"

    def test_output_loads_back(self, tmp_path):
        data = tmp_path / "sim.csv"
        schema = tmp_path / "schema.json"
        main(["simulate", "--n", "30", "--seed", "1",
              "--data-out", str(data), "--schema-out", str(schema)])
        from localexplain.data import FeatureSchema, load_dataset
        ds = load_dataset(str(data), FeatureSchema.from_json(schema.read_text()))
        assert ds.n == 30

    def test_single_row(self, tmp_path):
        data = tmp_path / "one.csv"
        schema = tmp_path / "one_schema.json"
        code = main(["simulate", "--n", "1", "--seed", "2",
                     "--data-out", str(data), "--schema-out", str(schema)])
        assert code == EXIT_OK
        body = [ln for ln in data.read_text().splitlines() if not ln.startswith("#")]
        assert len(body) == 2  # header + one row
        assert math.isfinite(float(body[1].split(",")[-1]))


class TestExplain:
    def test_row_query_report_shape(self, tmp_path):
        data, schema = write_mixed_inputs(tmp_path)
        out = tmp_path / "report.json"
        code = main([
            "explain", "--data", data, "--schema", schema, "--query", "0",
            "--k", "1", "--m", "45", "--B", "60", "--seed", "5", "--out", str(out),
        ])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert [f["name"] for f in report["features"]] == ["x1", "x2", "color"]
        for entry in report["features"]:
            assert set(entry) >= {"name", "kind", "score", "bootstrap_interval"}
            iv = entry["bootstrap_interval"]
            assert iv["lower"] <= iv["upper"]
        meta = report["metadata"]
        assert set(meta) >= {"k", "m", "c", "B", "alpha", "seed", "weighted", "diagnostics"}
        # k=1 over x1, x2 and two color indicators: no term is zero on every row
        assert meta["diagnostics"]["live_terms"] == meta["diagnostics"]["q"] == 5
        # 44 nonzero weighted rows against 5 live terms: row deletion, for
        # the subsets that drop fewer rows than there are live terms
        solved_by = meta["diagnostics"]["replicates_solved_by"]
        assert list(solved_by) == ["downdate", "deletion", "gelsy"]
        assert sum(solved_by.values()) == 60 and solved_by["downdate"] == 0
        assert solved_by["deletion"] > 0
        assert 1.0 <= meta["diagnostics"]["row_condition"] < math.inf
        assert meta["diagnostics"]["row_rank"] == 5
        assert meta["diagnostics"]["replicate_rank"] == {"min": 5, "median": 5.0, "max": 5}
        assert set(report["manifest"]) == {"command", "parameters", "input_digests", "version"}

        # 11 nonzero weighted rows against 22 live terms at k=3
        with pytest.warns(RuntimeWarning, match="underdetermined"):
            code = main([
                "explain", "--data", data, "--schema", schema, "--query", "0",
                "--k", "3", "--m", "12", "--B", "60", "--seed", "5", "--out", str(out),
            ])
        assert code == EXIT_OK
        diagnostics = json.loads(out.read_text())["metadata"]["diagnostics"]
        assert diagnostics["replicates_solved_by"] == {"downdate": 60, "deletion": 0, "gelsy": 0}
        assert 1.0 <= diagnostics["row_condition"] <= 1e8
        assert diagnostics["row_rank"] == 11
        # m' = 10 of 12 members: most replicates hold the zero-weight
        # farthest member and have rank 9, the others rank 10
        assert diagnostics["replicate_rank"] == {"min": 9, "median": 9.0, "max": 10}

    def test_inline_json_query_and_exact_scores(self, tmp_path):
        data, schema = write_mixed_inputs(tmp_path)
        out = tmp_path / "report.json"
        code = main([
            "explain", "--data", data, "--schema", schema,
            "--query", json.dumps({"x1": 0.2, "x2": -0.3, "color": "g"}),
            "--k", "1", "--m", "60", "--B", "50", "--kind", "gradient",
            "--naive-ci", "--out", str(out),
        ])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        by_name = {f["name"]: f for f in report["features"]}
        assert by_name["x1"]["score"] == pytest.approx(2.0, abs=1e-7)
        assert by_name["x2"]["score"] == pytest.approx(0.0, abs=1e-7)
        assert by_name["color"]["score"] == pytest.approx(0.5, abs=1e-7)
        assert "naive_interval" in by_name["x1"]
        assert "naive_interval" not in by_name["color"]

    @pytest.mark.parametrize("kind, m, reason", [
        ("function_difference", "45", "gradient-kind"),
        ("gradient", "4", "degrees of freedom"),  # dof = m - 3 features - 1 = 0
    ], ids=["difference_kind", "no_dof"])
    def test_naive_ci_skipped_where_not_applicable(self, tmp_path, kind, m, reason):
        data, schema = write_mixed_inputs(tmp_path)
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main([
                "explain", "--data", data, "--schema", schema, "--query", "0",
                "--k", "1", "--m", m, "--B", "40", "--kind", kind, "--naive-ci",
                "--out", str(out),
            ])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert reason in report["metadata"]["diagnostics"]["naive_ci_skipped"]
        for entry in report["features"]:
            assert "bootstrap_interval" in entry and "naive_interval" not in entry

    def test_byte_identical_reruns(self, tmp_path):
        data, schema = write_mixed_inputs(tmp_path)
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main([
                "explain", "--data", data, "--schema", schema, "--query", "3",
                "--k", "2", "--m", "60", "--B", "80", "--seed", "11", "--out", str(out),
            ])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_probability_data_defaults(self, tmp_path):
        # German-Credit-style hyperparameters on probability outputs
        data, schema = write_probability_inputs(tmp_path)
        out = tmp_path / "report.json"
        code = main([
            "explain", "--data", data, "--schema", schema, "--query", "0",
            "--k", "2", "--m", "40", "--c", "0.9", "--B", "100",
            "--naive-ci", "--out", str(out),
        ])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["metadata"]["kind"] == "function_difference"
        assert "naive_ci_skipped" in report["metadata"]["diagnostics"]
        for entry in report["features"]:
            assert "naive_interval" not in entry

    def test_probabilities_of_exactly_zero_and_one(self, tmp_path):
        # a saturated classifier: p is exactly 0 or 1 once |x1| > 5/6
        rng = np.random.default_rng(4)
        x1 = rng.uniform(-2, 2, 120)
        x2 = rng.uniform(-2, 2, 120)
        p = np.clip(0.5 + 0.6 * x1, 0.0, 1.0)
        data = tmp_path / "saturated.csv"
        rows = ["x1,x2,f"] + [f"{float(a)!r},{float(b)!r},{float(c)!r}" for a, b, c in zip(x1, x2, p)]
        data.write_text("\n".join(rows) + "\n")
        schema = FeatureSchema(
            (FeatureSpec("x1", "continuous"), FeatureSpec("x2", "continuous")), "probability"
        )
        (tmp_path / "schema.json").write_text(schema.to_json())
        row = int(np.argmin(np.abs(x1)))
        dataset = load_dataset(str(data), schema)
        problem = build_problem(dataset, QueryPoint.from_row(dataset, row), ExplainConfig(2, 80))
        assert {0.0, 1.0} <= set(dataset.outputs[problem.neighborhood.member_indices].tolist())

        out = tmp_path / "report.json"
        code = main([
            "explain", "--data", str(data), "--schema", str(tmp_path / "schema.json"),
            "--query", str(row), "--k", "2", "--m", "80", "--B", "100", "--out", str(out),
        ])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["metadata"]["kind"] == "function_difference"
        for entry in report["features"]:
            iv = entry["bootstrap_interval"]
            assert all(math.isfinite(v) for v in (entry["score"], iv["lower"], iv["upper"]))
            assert -1.0 <= entry["score"] <= 1.0
            assert -1.0 <= iv["lower"] <= iv["upper"] <= 1.0

    def test_compas_style_fraction(self, tmp_path):
        data, schema = write_probability_inputs(tmp_path)
        out = tmp_path / "report.json"
        code = main([
            "explain", "--data", data, "--schema", schema, "--query", "1",
            "--k", "2", "--m", "150", "--c", "0.667", "--B", "60", "--out", str(out),
        ])
        assert code == EXIT_OK

    def test_dump_scores_matrix(self, tmp_path):
        data, schema = write_quadratic_inputs(tmp_path)
        out = tmp_path / "report.json"
        dump = tmp_path / "scores.csv"
        main([
            "explain", "--data", data, "--schema", schema, "--query", "0",
            "--k", "2", "--m", "40", "--B", "30", "--out", str(out),
            "--dump-scores", str(dump),
        ])
        lines = dump.read_text().splitlines()
        assert lines[0].startswith("# manifest: ")
        assert lines[1] == "x"
        assert len(lines) == 32  # manifest + header + B successful replicates

    def test_replicate_scores_ignore_the_blas_thread_setting(self, tmp_path):
        data, schema = tmp_path / "sim.csv", tmp_path / "schema.json"
        assert main(["simulate", "--n", "400", "--seed", "4",
                     "--data-out", str(data), "--schema-out", str(schema)]) == EXIT_OK
        src = os.path.dirname(os.path.dirname(localexplain.__file__))
        # m=256 at k=4: each replicate is 76 (c=0.3), 128 (c=0.5) or 230
        # (c=0.9) rows by ~79 live columns, large enough that a multi-threaded
        # OpenBLAS splits gelsy's level-2 calls and the batched products of
        # row deletion.  At c=0.3 each keeps fewer rows than there are live
        # terms and takes gelsy; at c=0.5 each drops more rows than there are
        # live terms and takes row deletion's Gram form, at c=0.9 its
        # Woodbury form.  m=66 at k=4 is the paper's setting, where the
        # replicates are downdates of the neighborhood's interpolant; query
        # 310 has dependent rows (rank 62 of 65), downdated from the SVD
        # truncated at that rank, but for the few replicates it leaves to gelsy.
        for query, m, c, solve, least in (
            ("3", "256", "0.3", "gelsy", 100), ("3", "256", "0.5", "deletion", 90),
            ("3", "256", "0.9", "deletion", 90), ("3", "66", "0.9", "downdate", 90),
            ("310", "66", "0.9", "downdate", 80),
        ):
            dumps = []
            # unset, the variable would mean main's pin to one thread, so both
            # counts are exported, which the pin leaves as they are
            for blas_threads in ("1", "2"):
                env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads)
                env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
                dump = tmp_path / f"scores_{query}_{m}_{c}_{blas_threads}.csv"
                report = tmp_path / "report.json"
                subprocess.run([
                    sys.executable, "-m", "localexplain.cli", "explain",
                    "--data", str(data), "--schema", str(schema), "--query", query,
                    "--k", "4", "--m", m, "--c", c, "--B", "100", "--seed", "8",
                    "--out", str(report), "--dump-scores", str(dump),
                ], env=env, check=True, capture_output=True, timeout=120)
                diagnostics = json.loads(report.read_text())["metadata"]["diagnostics"]
                assert diagnostics["replicates_solved_by"][solve] >= least
                assert (diagnostics["row_rank"] < 65) == (query == "310")
                dumps.append(dump.read_bytes())
            assert len(dumps[0].splitlines()) > 80
            assert dumps[0] == dumps[1]

    def test_closes_every_file_it_opens(self, tmp_path, monkeypatch):
        # a file left open warns when it is garbage-collected, outside any
        # frame, so the error the warning turns into reaches unraisablehook
        data, schema = write_mixed_inputs(tmp_path)
        baseline = tmp_path / "baseline.csv"
        baseline.write_text("method,avg_width,coverage\nbayes,0.4,0.7\n")
        common = ["--data", data, "--schema", schema, "--k", "1", "--m", "45",
                  "--B", "20", "--out", str(tmp_path / "out")]
        unclosed = []
        monkeypatch.setattr(sys, "unraisablehook", lambda u: unclosed.append(u.exc_value))
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            for argv in (
                ["explain", "--query", "0", "--dump-scores", str(tmp_path / "d.csv"), *common],
                ["summarize", "--queries", data, *common],
                ["simulate", "--n", "50", "--seed", "1", "--data-out", str(tmp_path / "sim.csv"),
                 "--schema-out", str(tmp_path / "sim.json")],
                ["sweep", "--k-list", "1", "--m-list", "24", "--c-list", "0.7", "--n", "300",
                 "--p", "1", "--B", "16", "--merge", str(baseline),
                 "--sweep-out", str(tmp_path / "s.csv"), "--frontier-out", str(tmp_path / "f.csv")],
            ):
                code = main(argv)
                gc.collect()
                assert code == EXIT_OK
        assert unclosed == []

    @pytest.mark.parametrize("pair, named", [
        ("x9=0.5", "'x9'"),
        ("color=0.5", "'color'"),
        ("x1=inf", "'x1'"),
        ("x1=abc", "--delta"),
        ("x1", "--delta"),
    ], ids=["unknown", "categorical", "inf", "not_a_number", "no_value"])
    def test_bad_delta_is_a_json_error(self, tmp_path, capsys, pair, named):
        data, schema = write_mixed_inputs(tmp_path)
        code = main([
            "explain", "--data", data, "--schema", schema, "--query", "0",
            "--k", "1", "--m", "45", "--B", "20", "--delta", pair,
        ])
        assert code == EXIT_ERROR
        err = json.loads(capsys.readouterr().err)["error"]
        assert named in err["message"]

    @pytest.mark.parametrize("query, says", [
        ("\u00b2", "--query must be a row index or a JSON object"),
        ("-1", "row index -1 out of range for dataset of 90 rows"),
        ("90", "row index 90 out of range for dataset of 90 rows"),
    ], ids=["superscript_digit", "negative_row", "row_past_the_end"])
    def test_bad_query_is_a_data_error(self, tmp_path, capsys, query, says):
        data, schema = write_mixed_inputs(tmp_path)
        code = main([
            "explain", "--data", data, "--schema", schema, "--query", query,
            "--k", "1", "--m", "45", "--B", "20",
        ])
        assert code == EXIT_ERROR
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "DataError"
        assert says in err["message"]

    def test_malformed_schema_is_a_json_error(self, tmp_path, capsys):
        data, schema = write_mixed_inputs(tmp_path)
        with open(schema, "w", encoding="utf-8") as fh:
            fh.write('{"features": ["x1", "x2", "color"]}')
        code = main([
            "explain", "--data", data, "--schema", schema, "--query", "0",
            "--k", "1", "--m", "45", "--B", "20",
        ])
        assert code == EXIT_ERROR
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "DataError"

    def test_missing_file_gives_json_error(self, tmp_path, capsys):
        _, schema = write_quadratic_inputs(tmp_path)
        code = main([
            "explain", "--data", str(tmp_path / "nope.csv"), "--schema", schema,
            "--query", "0", "--k", "1", "--m", "5",
        ])
        assert code == EXIT_ERROR
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and err["error"]["type"]

    def test_output_column_naming_a_feature_is_a_json_error(self, tmp_path, capsys):
        data, schema = write_mixed_inputs(tmp_path)
        code = main([
            "explain", "--data", data, "--schema", schema, "--query", "0",
            "--k", "1", "--m", "45", "--B", "20", "--output-column", "x2",
        ])
        assert code == EXIT_ERROR
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "DataError"
        assert "'x2'" in err["message"]


class TestSummarize:
    def test_single_instance_summary_matches_explain(self, tmp_path):
        data, schema = write_quadratic_inputs(tmp_path)
        queries = tmp_path / "queries.csv"
        queries.write_text("x\n0.5\n")
        out = tmp_path / "summary.csv"
        report_out = tmp_path / "report.json"
        args = ["--data", data, "--schema", schema, "--k", "2", "--m", "40",
                "--B", "40", "--kind", "gradient", "--seed", "3"]
        code = main(["summarize", *args, "--queries", str(queries), "--out", str(out)])
        assert code == EXIT_OK
        rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        header, row = rows[0].split(","), rows[1].split(",")
        entry = dict(zip(header, row))
        assert entry["feature"] == "x"
        # the single instance's |score| (y = x^2 at 0.5 -> derivative 1.0)
        assert float(entry["mean_abs_score"]) == pytest.approx(1.0, abs=1e-7)
        assert entry["instances_ok"] == "1"
        assert entry["low_success"] == "0"

    def test_two_instance_mean_abs(self, tmp_path):
        # gradients of x^2 at 0.5 and -1.5 are {1, -3}: mean |score| = 2
        data, schema = write_quadratic_inputs(tmp_path)
        queries = tmp_path / "queries.csv"
        queries.write_text("x\n0.5\n-1.5\n")
        out = tmp_path / "summary.csv"
        code = main([
            "summarize", "--data", data, "--schema", schema, "--queries", str(queries),
            "--k", "2", "--m", "40", "--B", "40", "--kind", "gradient", "--out", str(out),
        ])
        assert code == EXIT_OK
        rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        entry = dict(zip(rows[0].split(","), rows[1].split(",")))
        assert float(entry["mean_abs_score"]) == pytest.approx(2.0, abs=1e-7)

    def test_null_feature_has_zero_mean_score(self, tmp_path):
        data, schema = write_mixed_inputs(tmp_path)
        queries = tmp_path / "queries.csv"
        queries.write_text("x1,x2,color\n0.1,0.9,g\n-0.4,-1.0,r\n")
        out = tmp_path / "summary.csv"
        code = main([
            "summarize", "--data", data, "--schema", schema, "--queries", str(queries),
            "--k", "1", "--m", "60", "--B", "40", "--kind", "gradient", "--out", str(out),
        ])
        assert code == EXIT_OK
        rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        by_feature = {}
        for line in rows[1:]:
            cells = line.split(",")
            by_feature[cells[0]] = dict(zip(rows[0].split(","), cells))
        assert float(by_feature["x2"]["mean_abs_score"]) <= 1e-8

    def test_partial_failure_flags_and_exit_code(self, tmp_path, capsys):
        data, schema = write_quadratic_inputs(tmp_path)
        queries = tmp_path / "queries.csv"
        queries.write_text("x\n0.5\nnot_a_number\n")
        out = tmp_path / "summary.csv"
        code = main([
            "summarize", "--data", data, "--schema", schema, "--queries", str(queries),
            "--k", "2", "--m", "40", "--B", "20", "--out", str(out),
        ])
        assert code == EXIT_PARTIAL
        assert "warning" in capsys.readouterr().err
        rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
        entry = dict(zip(rows[0].split(","), rows[1].split(",")))
        assert entry["instances_failed"] == "1"
        assert entry["low_success"] == "1"  # 1 of 2 < 80%

    def test_an_untyped_error_is_a_json_error_not_a_failed_instance(self, tmp_path, capsys, monkeypatch):
        # only the library's typed errors fail one instance; a plain ValueError is a bug
        def broken(*args):
            raise ValueError("a bug inside the fit")

        monkeypatch.setattr("localexplain.cli.build_problem", broken)
        data, schema = write_quadratic_inputs(tmp_path)
        queries = tmp_path / "queries.csv"
        queries.write_text("x\n0.5\n-1.5\n")
        out = tmp_path / "summary.csv"
        code = main([
            "summarize", "--data", data, "--schema", schema, "--queries", str(queries),
            "--k", "2", "--m", "40", "--B", "20", "--out", str(out),
        ])
        assert code == EXIT_ERROR
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "ValueError", "message": "a bug inside the fit"}
        assert not out.exists()

    def test_queries_csv_read_with_the_data_csv_rules(self, tmp_path):
        # spaced header names and cells, a leading comment line, a blank row
        # and a row of blank cells
        data, schema = write_mixed_inputs(tmp_path)
        plain = tmp_path / "plain.csv"
        plain.write_text("x1,x2,color\n0.1,0.9,g\n-0.4,-1.0,r\n")
        spaced = tmp_path / "spaced.csv"
        spaced.write_text("# manifest\nx1, x2 , color\n 0.1 , 0.9, g\n\n , , \n-0.4 ,-1.0 , r \n")
        summaries = []
        for queries in (plain, spaced):
            out = tmp_path / f"summary_{queries.name}"
            code = main([
                "summarize", "--data", data, "--schema", schema, "--queries", str(queries),
                "--k", "1", "--m", "60", "--B", "30", "--seed", "9", "--out", str(out),
            ])
            assert code == EXIT_OK
            summaries.append([ln for ln in out.read_text().splitlines() if not ln.startswith("#")])
        assert summaries[0] == summaries[1]
        assert summaries[0][1].endswith(",2,0,0")  # both instances explained

    def test_short_query_row_is_a_json_error(self, tmp_path, capsys):
        data, schema = write_mixed_inputs(tmp_path)
        queries = tmp_path / "queries.csv"
        queries.write_text("x1,x2,color\n0.1,0.9,g\n\n-0.4,-1.0\n")
        out = tmp_path / "summary.csv"
        code = main([
            "summarize", "--data", data, "--schema", schema, "--queries", str(queries),
            "--k", "1", "--m", "60", "--B", "20", "--out", str(out),
        ])
        assert code == EXIT_ERROR
        err = json.loads(capsys.readouterr().err)["error"]
        # the blank row is not counted: the short row is the second instance
        assert err == {"type": "DataError", "message": "row has fewer cells than the header (row 2)"}
        assert not out.exists()

    def test_a_header_only_queries_csv_is_a_json_error(self, tmp_path, capsys):
        data, schema = write_mixed_inputs(tmp_path)
        queries = tmp_path / "queries.csv"
        queries.write_text("x1,x2,color\n")
        out = tmp_path / "summary.csv"
        code = main([
            "summarize", "--data", data, "--schema", schema, "--queries", str(queries),
            "--k", "1", "--m", "60", "--B", "20", "--out", str(out),
        ])
        assert code == EXIT_ERROR
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "DataError", "message": "queries CSV contains no instances"}
        assert not out.exists()

    def test_every_instance_failing_is_a_json_error(self, tmp_path, capsys):
        data, schema = write_mixed_inputs(tmp_path)
        queries = tmp_path / "queries.csv"
        queries.write_text("x1,x2,color\n0.1,0.9,purple\n-0.4,-1.0,teal\n")
        out = tmp_path / "summary.csv"
        code = main([
            "summarize", "--data", data, "--schema", schema, "--queries", str(queries),
            "--k", "1", "--m", "60", "--B", "20", "--out", str(out),
        ])
        assert code == EXIT_ERROR
        *warned, error = capsys.readouterr().err.splitlines()
        # one warning per instance, then the error
        assert len(warned) == 2
        assert warned[0].startswith("warning: instance 0: DataError: ") and "purple" in warned[0]
        assert warned[1].startswith("warning: instance 1: DataError: ") and "teal" in warned[1]
        assert json.loads(error)["error"] == {"type": "ExplainError", "message": "every query instance failed"}
        assert not out.exists()

    def test_feature_names_that_need_quoting(self, tmp_path):
        names = ["income, usd", 'say "hi"']
        x = np.random.default_rng(5).uniform(-2, 2, (90, 2))
        data, queries = tmp_path / "quoted.csv", tmp_path / "queries.csv"
        with open(data, "w", newline="") as fh:
            csv.writer(fh).writerows([[*names, "f"], *([a, b, 1 + 2 * a - b] for a, b in x.tolist())])
        with open(queries, "w", newline="") as fh:
            csv.writer(fh).writerows([names, [0.1, 0.2], [-0.3, 0.4]])
        schema = tmp_path / "quoted_schema.json"
        schema.write_text(json.dumps({"features": [{"name": n, "kind": "continuous"} for n in names]}))
        out = tmp_path / "summary.csv"
        code = main([
            "summarize", "--data", str(data), "--schema", str(schema), "--queries", str(queries),
            "--k", "1", "--m", "45", "--B", "20", "--out", str(out),
        ])
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            rows = [row for row in csv.reader(fh) if not row[0].startswith("#")]
        assert [len(row) for row in rows] == [6, 6, 6]
        assert [row[0] for row in rows[1:]] == names


class TestByteOrderMark:
    """Every input file may begin with a UTF-8 byte-order mark, as Excel's "CSV UTF-8" writes; no output does."""

    #: each command's own flags; ``{out}`` is the CSV output compared
    COMMANDS = {
        "explain": ["--query", "0", "--out", "{tmp}/report.json", "--dump-scores", "{out}"],
        "summarize": ["--queries", "{queries}", "--out", "{out}"],
        "sweep": ["--k-list", "1", "--m-list", "24", "--c-list", "0.7", "--n", "300", "--p", "1", "--B", "16",
                  "--seed", "3", "--merge", "{merge}", "--sweep-out", "{tmp}/sweep.csv", "--frontier-out", "{out}"],
    }

    @pytest.mark.parametrize("command, marked", [
        ("explain", "data"),
        ("explain", "schema"),
        ("summarize", "schema"),
        ("summarize", "queries"),
        ("sweep", "merge"),
    ])
    def test_a_marked_input_reads_as_the_unmarked_one(self, tmp_path, command, marked):
        data, schema = write_mixed_inputs(tmp_path)
        queries = tmp_path / "queries.csv"
        queries.write_text("x1,x2,color\n0.1,0.9,g\n-0.4,-1.0,r\n")
        merge = tmp_path / "baseline.csv"
        merge.write_text("method,avg_width,coverage\nexternal,0.001,0.99\n")
        plain = {"data": data, "schema": schema, "queries": str(queries), "merge": str(merge)}
        source = tmp_path / os.path.basename(plain[marked])
        bom = source.with_name(f"marked_{source.name}")
        bom.write_bytes(codecs.BOM_UTF8 + source.read_bytes())
        outputs = []
        for paths in (plain, {**plain, marked: str(bom)}):
            out = tmp_path / f"out_{len(outputs)}.csv"
            fields = {**paths, "tmp": str(tmp_path), "out": str(out)}
            common = [] if command == "sweep" else [
                "--data", paths["data"], "--schema", paths["schema"], "--k", "1", "--m", "45", "--B", "20",
            ]
            argv = [command, *common, *(arg.format(**fields) for arg in self.COMMANDS[command])]
            assert main(argv) == EXIT_OK
            text = out.read_bytes()
            assert text.startswith(b"# manifest: ")
            outputs.append([line for line in text.splitlines() if not line.startswith(b"#")])
        assert outputs[0] == outputs[1] and len(outputs[0]) > 1
        if command == "sweep":
            assert any(line.startswith(b"external,") for line in outputs[1])


@pytest.fixture(scope="module")
def csv_outputs(tmp_path_factory):
    """The directory holding every CSV the command line writes, one small run of each subcommand."""
    tmp = tmp_path_factory.mktemp("outputs")
    data, schema = write_mixed_inputs(tmp)
    baseline = tmp / "baseline.csv"
    baseline.write_text("method,avg_width,coverage\nbayes,0.4,0.7\n")
    common = ["--data", data, "--schema", schema, "--k", "1", "--m", "45", "--B", "20"]
    for argv in (
        ["simulate", "--n", "50", "--seed", "1", "--data-out", str(tmp / "simulate.csv"),
         "--schema-out", str(tmp / "simulate.json")],
        ["summarize", *common, "--queries", data, "--out", str(tmp / "summary.csv")],
        ["sweep", "--k-list", "1", "--m-list", "24", "--c-list", "0.7", "--n", "300", "--p", "1",
         "--B", "16", "--merge", str(baseline),
         "--sweep-out", str(tmp / "sweep.csv"), "--frontier-out", str(tmp / "frontier.csv")],
        ["explain", *common, "--query", "0", "--out", str(tmp / "report.json"),
         "--dump-scores", str(tmp / "scores.csv")],
    ):
        assert main(argv) == EXIT_OK
    return tmp


CSV_OUTPUTS = ("simulate.csv", "summary.csv", "sweep.csv", "frontier.csv", "scores.csv")


class TestCsvOutputs:
    @pytest.mark.parametrize("name", CSV_OUTPUTS)
    def test_lines_end_in_a_bare_lf(self, csv_outputs, name):
        assert b"\r" not in (csv_outputs / name).read_bytes()

    @pytest.mark.parametrize("name", CSV_OUTPUTS)
    def test_starts_with_the_manifest(self, csv_outputs, name):
        assert (csv_outputs / name).read_bytes().startswith(b"# manifest: ")


class TestThreadsFlag:
    def test_defaults(self):
        # every subcommand runs serially: neither summarize nor sweep takes --threads
        parser = build_parser()
        for argv in (
            ["summarize", "--k", "1", "--m", "45", "--data", "d.csv", "--schema", "s.json", "--queries", "q.csv"],
            ["sweep", "--k-list", "1", "--m-list", "24", "--c-list", "0.5",
             "--sweep-out", "s.csv", "--frontier-out", "f.csv"],
        ):
            assert not hasattr(parser.parse_args(argv), "threads")
            with pytest.raises(SystemExit):
                parser.parse_args(argv + ["--threads", "1"])


class TestSweepCommand:
    def test_smoke_grid(self, tmp_path):
        sweep_out = tmp_path / "sweep.csv"
        frontier_out = tmp_path / "frontier.csv"
        code = main([
            "sweep", "--k-list", "1,2", "--m-list", "24", "--c-list", "0.5,0.9",
            "--n", "300", "--p", "1", "--B", "16", "--seed", "3",
            "--sweep-out", str(sweep_out), "--frontier-out", str(frontier_out),
        ])
        assert code == EXIT_OK
        lines = sweep_out.read_text().splitlines()
        assert lines[0].startswith("# manifest")
        assert lines[1] == "method,k,m,c,avg_width,coverage,failed_points"
        assert len(lines) == 2 + 8  # 2 k * 1 m * 2 c * 2 methods

    def test_merge_appears_in_frontier(self, tmp_path):
        baseline = tmp_path / "baseline.csv"
        baseline.write_text("method,avg_width,coverage\nexternal,0.001,0.99\n")
        sweep_out = tmp_path / "sweep.csv"
        frontier_out = tmp_path / "frontier.csv"
        code = main([
            "sweep", "--k-list", "1", "--m-list", "24", "--c-list", "0.7",
            "--n", "300", "--p", "1", "--B", "16", "--seed", "3",
            "--merge", str(baseline),
            "--sweep-out", str(sweep_out), "--frontier-out", str(frontier_out),
        ])
        assert code == EXIT_OK
        text = frontier_out.read_text()
        assert "external" in text

    def test_merge_short_row_is_a_json_error(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.csv"
        baseline.write_text("method,avg_width,coverage\nexternal,0.001,0.99\nbayes,0.5\n")
        sweep_out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--k-list", "1", "--m-list", "24", "--c-list", "0.7",
            "--n", "300", "--p", "1", "--B", "16", "--seed", "3",
            "--merge", str(baseline),
            "--sweep-out", str(sweep_out), "--frontier-out", str(tmp_path / "frontier.csv"),
        ])
        assert code == EXIT_ERROR
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "DataError"
        assert "row 2" in err["message"]
        assert not sweep_out.exists()

    def test_invalid_parameter_sets_exit_partial(self, tmp_path, capsys):
        # at m=5 every point fails both methods: those two sets are invalid and left off the frontier
        frontier_out = tmp_path / "frontier.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main([
                "sweep", "--k-list", "1", "--m-list", "5,40", "--c-list", "0.5",
                "--n", "200", "--p", "4", "--B", "20", "--seed", "3",
                "--sweep-out", str(tmp_path / "sweep.csv"), "--frontier-out", str(frontier_out),
            ])
        assert code == EXIT_PARTIAL
        assert capsys.readouterr().err == "warning: 2 parameter set(s) invalid (>10% failed points)\n"
        frontier = list(csv.DictReader(ln for ln in frontier_out.read_text().splitlines() if not ln.startswith("#")))
        assert [(r["method"], r["m"]) for r in frontier] == [("bootstrap", "40"), ("naive", "40")]

    @pytest.mark.parametrize("override", [
        {"--c-list": "0.1"},
        {"--k-list": "0"},
        {"--B": "1"},
        {"--m-list": "500", "--n": "300"},
        {"--alpha": "1.5"},
        {"--k-list": "1,1"},
    ], ids=["c", "k", "B", "m_over_n", "alpha", "repeated_k"])
    def test_invalid_grid_rejected(self, tmp_path, capsys, override):
        flags = {"--k-list": "1", "--m-list": "8", "--c-list": "0.5", "--n": "100",
                 "--p": "1", "--B": "8", **override}
        code = main([
            "sweep", *[part for item in flags.items() for part in item],
            "--sweep-out", str(tmp_path / "s.csv"),
            "--frontier-out", str(tmp_path / "f.csv"),
        ])
        assert code == EXIT_ERROR
        assert "error" in json.loads(capsys.readouterr().err)
        assert not (tmp_path / "s.csv").exists()
