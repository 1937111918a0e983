"""Ingestion, schema validation, and preprocessing transforms."""

import codecs
import io
import json
import math
import warnings

import numpy as np
import pytest

from localexplain import data
from localexplain.data import (
    DataError,
    FeatureSchema,
    FeatureSpec,
    OneHotLayout,
    QueryDataset,
    from_log_odds,
    load_dataset,
    read_csv_rows,
    standardize,
    to_log_odds,
    write_dataset_csv,
)
from localexplain.neighborhood import QueryPoint


def two_feature_schema(output_kind="raw"):
    return FeatureSchema(
        features=(
            FeatureSpec(name="x1", kind="continuous"),
            FeatureSpec(name="x2", kind="continuous"),
        ),
        output_kind=output_kind,
    )


def interleaved_schema(output_kind="raw"):
    """Categorical and numeric features alternate, so block positions differ from schema positions."""
    return FeatureSchema(
        features=(
            FeatureSpec(name="color", kind="categorical", categories=("a", "b", "c"), baseline="a"),
            FeatureSpec(name="x1", kind="continuous"),
            FeatureSpec(name="size", kind="categorical", categories=("s", "m", "l"), baseline="m"),
            FeatureSpec(name="x2", kind="continuous"),
        ),
        output_kind=output_kind,
    )


INTERLEAVED_CSV = "color,x1,size,x2,f\nc,1.5,s,-0.25,0.5\na,-2.0,l,3.0,0.25\nb,0.1,m,7.5,1.0\n"


def load_text(tmp_path, text, schema, **kwargs):
    """``load_dataset`` of ``text`` written to a file: the C parse, and the row parser where it declines."""
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    return load_dataset(path, schema, **kwargs)


def mixed_schema():
    return FeatureSchema(
        features=(
            FeatureSpec(name="x1", kind="continuous"),
            FeatureSpec(name="x2", kind="continuous"),
            FeatureSpec(
                name="color", kind="categorical", categories=("a", "b", "c"), baseline="a"
            ),
        )
    )


class TestSchemaValidation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError):
            FeatureSchema(
                (FeatureSpec("x", "continuous"), FeatureSpec("x", "ordinal")),
            )

    def test_categorical_needs_two_categories(self):
        with pytest.raises(DataError):
            FeatureSpec("c", "categorical", categories=("only",), baseline="only")

    def test_baseline_must_be_declared(self):
        with pytest.raises(DataError):
            FeatureSpec("c", "categorical", categories=("a", "b"), baseline="z")

    def test_delta_forbidden_on_categorical(self):
        with pytest.raises(DataError):
            FeatureSpec("c", "categorical", delta=1.0, categories=("a", "b"), baseline="a")

    def test_delta_must_be_positive(self):
        with pytest.raises(DataError):
            FeatureSpec("x", "continuous", delta=0.0)

    @pytest.mark.parametrize("delta", [math.inf, math.nan, True, "0.5"])
    def test_delta_must_be_a_finite_number(self, delta):
        with pytest.raises(DataError, match="delta"):
            FeatureSpec("x", "continuous", delta=delta)

    @pytest.mark.parametrize("text", [
        '["x1"]',
        '{"features": 5}',
        '{"features": ["x1"]}',
        '{"features": [{"name": 5, "kind": "continuous"}]}',
        '{"features": [{"name": "x1", "kind": ["continuous"]}]}',
        '{"features": [{"name": "x1", "kind": "continuous", "delta": "0.5"}]}',
        '{"features": [{"name": "x1", "kind": "continuous", "delta": true}]}',
        '{"features": [{"name": "x1", "kind": "continuous", "delta": Infinity}]}',
        '{"features": [{"name": "c", "kind": "categorical", "categories": "ab"}]}',
        '{"features": [{"name": "c", "kind": "categorical", "categories": [1, 2]}]}',
        '{"features": [{"name": "c", "kind": "categorical", "categories": [["a"], ["b"]]}]}',
        '{"features": [{"name": "c", "kind": "categorical", "categories": ["a", "b"], "baseline": 1}]}',
    ], ids=[
        "not_an_object", "features_not_a_list", "entry_not_an_object", "name_not_a_string",
        "kind_not_a_string", "delta_string", "delta_bool", "delta_inf", "categories_string",
        "categories_not_strings", "categories_unhashable", "baseline_not_a_string",
    ])
    def test_malformed_schema_json_is_a_data_error(self, text):
        with pytest.raises(DataError):
            FeatureSchema.from_json(text)

    def test_json_roundtrip_uses_exact_keys(self):
        schema = FeatureSchema(
            features=(
                FeatureSpec(name="x1", kind="continuous", delta=0.25),
                FeatureSpec(
                    name="color", kind="categorical", categories=("a", "b"), baseline="b"
                ),
            ),
            output_kind="probability",
        )
        raw = json.loads(schema.to_json())
        assert set(raw) == {"features", "output_kind"}
        assert raw["features"][0] == {"name": "x1", "kind": "continuous", "delta": 0.25}
        assert raw["features"][1] == {
            "name": "color", "kind": "categorical", "categories": ["a", "b"], "baseline": "b",
        }
        assert FeatureSchema.from_json(schema.to_json()) == schema


class TestLoadDataset:
    def test_three_row_csv(self, tmp_path):
        csv_text = "x1,x2,f\n1,2,0.5\n3,4,1.5\n5,6,2.5\n"
        ds = load_text(tmp_path, csv_text, two_feature_schema())
        assert ds.n == 3
        np.testing.assert_allclose(ds.numeric, [[1, 2], [3, 4], [5, 6]])
        np.testing.assert_allclose(ds.outputs, [0.5, 1.5, 2.5])

    def test_unknown_category_names_row_and_column(self, tmp_path):
        csv_text = "x1,x2,color,f\n1,2,a,0\n3,4,blue,1\n"
        with pytest.raises(DataError) as err:
            load_text(tmp_path, csv_text, mixed_schema())
        assert err.value.row == 2
        assert err.value.column == "color"
        assert "blue" in str(err.value)

    def test_probability_outputs_accepted(self, tmp_path):
        csv_text = "x1,x2,f\n1,2,0.2\n3,4,0.7\n"
        ds = load_text(tmp_path, csv_text, two_feature_schema("probability"))
        np.testing.assert_allclose(ds.outputs, [0.2, 0.7])

    def test_probability_out_of_range_rejected(self, tmp_path):
        csv_text = "x1,x2,f\n1,2,0.2\n3,4,1.7\n"
        with pytest.raises(DataError) as err:
            load_text(tmp_path, csv_text, two_feature_schema("probability"))
        assert err.value.row == 2
        assert "1.7" in str(err.value)

    def test_non_finite_cell_rejected_with_row_and_column(self, tmp_path):
        with pytest.raises(DataError) as err:
            load_text(tmp_path, "x1,x2,f\n1,2,0\n3,nan,1\n", two_feature_schema())
        assert (err.value.row, err.value.column) == (2, "x2")

    def test_missing_column(self, tmp_path):
        with pytest.raises(DataError, match="x2"):
            load_text(tmp_path, "x1,f\n1,0\n", two_feature_schema())

    def test_missing_output_column(self, tmp_path):
        with pytest.raises(DataError, match="'f'"):
            load_text(tmp_path, "x1,x2\n1,2\n", two_feature_schema())

    def test_non_numeric_continuous_value(self, tmp_path):
        with pytest.raises(DataError) as err:
            load_text(tmp_path, "x1,x2,f\n1,2,0\nbad,4,1\n", two_feature_schema())
        assert err.value.row == 2
        assert err.value.column == "x1"

    def test_empty_dataset(self, tmp_path):
        with pytest.raises(DataError):
            load_text(tmp_path, "x1,x2,f\n", two_feature_schema())

    def test_output_column_override(self, tmp_path):
        ds = load_text(tmp_path, "x1,x2,score\n1,2,9\n", two_feature_schema(), output_column="score")
        assert ds.outputs[0] == 9

    @pytest.mark.parametrize("text, schema, output_column", [
        ("x1,x2,f\n1,2,3\n", two_feature_schema(), "x2"),
        ("x1,f\n1,2\n", FeatureSchema((FeatureSpec("x1", "continuous"), FeatureSpec("f", "continuous"))), "f"),
    ], ids=["override", "default"])
    @pytest.mark.parametrize("source", ["path", "pathlike"])
    def test_output_column_naming_a_feature_is_rejected(self, tmp_path, text, schema, output_column, source):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(DataError, match="output column") as err:
            load_dataset(str(path) if source == "path" else path, schema, output_column=output_column)
        assert err.value.column == output_column

    def test_comment_lines_before_header_are_skipped(self, tmp_path):
        ds = load_text(tmp_path, "# manifest: {}\nx1,x2,f\n1,2,3\n", two_feature_schema())
        assert ds.n == 1

    def test_missing_baseline_defaults_to_most_frequent(self, tmp_path):
        schema = FeatureSchema(
            (FeatureSpec("c", "categorical", categories=("a", "b")),)
        )
        ds = load_text(tmp_path, "c,f\na,0\nb,1\nb,2\n", schema)
        assert ds.schema.feature("c").baseline == "b"

    def test_names_beginning_with_a_hash_are_rejected(self, tmp_path):
        # such a name as the header's first cell would read back as a comment line
        path = tmp_path / "data.csv"
        path.write_text("#id,x,f\n1,2,0.5\n")
        features = [{"name": "#id", "kind": "continuous"}, {"name": "x", "kind": "ordinal"}]
        with pytest.raises(DataError, match="'#'") as err:
            load_dataset(path, FeatureSchema.from_json(json.dumps({"features": features})))
        assert err.value.column == "#id"
        path.write_text("#f,x\n0.5,2\n")
        with pytest.raises(DataError, match="'#'") as err:
            load_dataset(path, FeatureSchema((FeatureSpec("x", "ordinal"),)), output_column="#f")
        assert err.value.column == "#f"


    @pytest.mark.parametrize("name", [" x1", "x1 ", "\tx1"])
    def test_names_with_surrounding_whitespace_are_rejected(self, tmp_path, name):
        # cells are stripped, so such a name or category label could never be read back
        with pytest.raises(DataError, match="whitespace") as err:
            FeatureSpec(name, "continuous")
        assert err.value.column == name
        with pytest.raises(DataError, match="whitespace") as err:
            FeatureSpec("c", "categorical", categories=(name, "b"))
        assert err.value.column == "c" and repr(name) in str(err.value)
        path = tmp_path / "data.csv"
        path.write_text(f"x,{name}\n2,0.5\n")
        with pytest.raises(DataError, match="whitespace") as err:
            load_dataset(path, FeatureSchema((FeatureSpec("x", "ordinal"),)), output_column=name)
        assert err.value.column == name

    def test_names_with_inner_whitespace_survive_a_write_and_reload(self, tmp_path):
        schema = FeatureSchema((
            FeatureSpec("x 1", "continuous"),
            FeatureSpec("sh ape", "categorical", categories=("a b", "#hash", 'say "hi"', "c"), baseline="c"),
        ))
        written = QueryDataset(schema, [[0.5], [-1.25], [2.0], [0.0]], [[0], [1], [2], [3]], [1.0, 2.0, 3.0, 4.0])
        path = tmp_path / "data.csv"
        write_dataset_csv(written, path, output_column="model f")
        read = load_dataset(path, schema, output_column="model f")
        for name in ("numeric", "codes", "outputs"):
            np.testing.assert_array_equal(getattr(read, name), getattr(written, name))
        assert read.schema == written.schema


def parity_schema():
    return FeatureSchema(
        features=(
            FeatureSpec(name="x1", kind="continuous"),
            FeatureSpec(
                name="tag", kind="categorical",
                categories=("plain", "#hash", "a#b", "with space", "q,c", 'say "hi"'), baseline="plain",
            ),
            FeatureSpec(name="x2", kind="ordinal"),
        )
    )


PARITY_CASES = {
    # name: (CSV text, whether the C parse alone reads it)
    "manifest_lines": (
        '# {"command": "summarize", "note": "a,b"}\n# "quoted\nx1,tag,x2,f\n1.5,plain,2,0.5\n-1,a#b,3,1.5\n',
        True,
    ),
    "hash_in_label": ("tag,x1,x2,f\n#hash,1,2,0.5\na#b,2,3,1\n", True),
    "spaces": ("x1 , tag , x2 , f\n 1.5 , with space ,\t2 , 0.5 \n-2, plain ,3,1\n", True),
    "crlf": ("x1,tag,x2,f\r\n1.5,plain,2,0.5\r\n2,#hash,3,1\r\n", True),
    "quoted_cells": (
        'note,x1,tag,x2,f\n"a,b",1,"q,c",2,0.5\n"x",2,"say ""hi""","3",1\n"multi\nline",3,plain,4,2\n',
        True,
    ),
    "blank_lines": ("x1,tag,x2,f\n\n1,plain,2,0.5\n\n\n2,a#b,3,1\n\n", True),
    "all_blank_cells_row": ("x1,tag,x2,f\n1,plain,2,0.5\n , ,, \n2,a#b,3,1\n", False),
    "extra_and_duplicated_columns": (
        "x1,extra,tag,x2,f,x1,f\n1,zz,plain,2,0.5,9,9\n2,,a#b,3,1,8,8,longer\n", True,
    ),
    "underscore_numbers": ("x1,tag,x2,f\n1_000,plain,2,0.5\n2,a#b,3_0,1\n", False),
    "unused_last_text_column": ("x1,tag,x2,f,note\n1,plain,2,0.5,free text\n2,a#b,3,1,more\n", True),
}


@pytest.fixture
def row_parser_calls(monkeypatch):
    """Counts the calls of the cell-by-cell row parser."""
    calls = []
    parse_rows = data._parse_rows

    def counted(*args):
        calls.append(args)
        return parse_rows(*args)

    monkeypatch.setattr(data, "_parse_rows", counted)
    return calls


def row_parser_dataset(path, schema):
    """The dataset the row parser alone reads from the file at ``path``: the C parse's oracle."""
    with open(path, encoding="utf-8", newline="") as stream:
        return QueryDataset(schema, *data._parse_rows(stream, schema, "f"))


def load_and_parse_rows(tmp_path, text, schema):
    """``load_dataset`` of ``text`` written to a file, and the row parser's dataset of that file."""
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    results = []
    for load in (load_dataset, row_parser_dataset):
        try:
            results.append(load(path, schema))
        except DataError as exc:
            results.append(exc)
    return results


class TestCParseParity:
    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_path_matches_row_parser(self, tmp_path, row_parser_calls, case):
        text, c_only = PARITY_CASES[case]
        loaded, oracle = load_and_parse_rows(tmp_path, text, parity_schema())
        # the oracle always runs the row parser; the load only when the C parse declines
        assert len(row_parser_calls) == (1 if c_only else 2)
        for name in ("numeric", "codes", "outputs"):
            a, b = getattr(loaded, name), getattr(oracle, name)
            assert a.dtype == b.dtype and a.flags.c_contiguous
            np.testing.assert_array_equal(a, b)
        assert loaded.schema == oracle.schema
        assert loaded.n >= 2

    @pytest.mark.parametrize("text, message, row, column", [
        # the short row holds every used column; only the ignored last one is missing
        ("x1,tag,x2,f,note\n1,plain,2,0.5,n\n1,plain,2,0.5\n", "row has fewer cells than the header (row 2)",
         2, None),
        ("x1,tag,x2,f\n1,plain,abc,0.5\n", "non-numeric value 'abc' for ordinal feature (row 1, column 'x2')",
         1, "x2"),
        ("x1,tag,x2,f\n1,plain,2,0.5\n1, nope ,2,0.5\n", "unknown category 'nope' (row 2, column 'tag')",
         2, "tag"),
        ("x1,tag,x2,f\n1,plain,2,0.5\n1,plain,2,\n", "non-numeric output value '' (row 2, column 'f')",
         2, "f"),
    ], ids=["short_row", "non_numeric", "unknown_label", "empty_output"])
    def test_errors_name_row_and_column(self, tmp_path, text, message, row, column):
        for err in load_and_parse_rows(tmp_path, text, parity_schema()):
            assert isinstance(err, DataError)
            assert (str(err), err.row, err.column) == (message, row, column)

    @pytest.mark.parametrize("cell, message, c_parse", [
        # the C parse reads nan and the dataset rejects it; the row parser rejects bad
        ("nan", "non-finite value nan (row 2, column 'x2')", True),
        ("bad", "non-numeric value 'bad' for continuous feature (row 2, column 'x2')", False),
    ], ids=["c_parse", "row_parser"])
    def test_both_parses_number_rows_without_blank_ones(self, tmp_path, row_parser_calls, cell, message, c_parse):
        with pytest.raises(DataError) as err:
            load_text(tmp_path, f"x1,x2,f\n\n1,2,0\n\n\n1,{cell},0\n", two_feature_schema())
        assert len(row_parser_calls) == (0 if c_parse else 1)
        assert (str(err.value), err.value.row, err.value.column) == (message, 2, "x2")

    @pytest.mark.parametrize("case", ["manifest_lines", "all_blank_cells_row"])
    def test_a_byte_order_mark_is_skipped_by_either_parse(self, tmp_path, row_parser_calls, case):
        """A file that begins with a UTF-8 byte-order mark, as Excel's "CSV UTF-8" writes, loads as one without.

        The row of blank cells makes the C parse decline, so the row parser
        reads the file again after a ``seek(0)``, which must skip the mark too.
        """
        text, c_only = PARITY_CASES[case]
        plain = load_text(tmp_path, text, parity_schema())
        path = tmp_path / "marked.csv"
        path.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        marked = load_dataset(path, parity_schema())
        assert len(row_parser_calls) == (0 if c_only else 2)
        for name in ("numeric", "codes", "outputs"):
            np.testing.assert_array_equal(getattr(marked, name), getattr(plain, name))
        assert marked.schema == plain.schema

    def test_path_object_loads_like_its_string(self, tmp_path):
        text = PARITY_CASES["manifest_lines"][0]
        path = tmp_path / "data.csv"
        path.write_text(text)
        from_str, from_path = (load_dataset(source, parity_schema()) for source in (str(path), path))
        for name in ("numeric", "codes", "outputs"):
            np.testing.assert_array_equal(getattr(from_path, name), getattr(from_str, name))

    def test_a_mixed_file_takes_one_loadtxt_pass(self, tmp_path, monkeypatch):
        calls = []
        loadtxt = np.loadtxt

        def counted(*args, **kwargs):
            calls.append(args)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(data.np, "loadtxt", counted)
        ds = load_text(tmp_path, INTERLEAVED_CSV, interleaved_schema())
        assert len(calls) == 1
        np.testing.assert_array_equal(ds.codes, [[2, 0], [0, 2], [1, 1]])

    def test_header_only_file_is_empty_without_warning(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("# manifest\nx1,tag,x2,f\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^dataset is empty$"):
                load_dataset(str(path), parity_schema())


class TestReadCsvRows:
    """The one row reader of the data, queries and baseline CSVs."""

    def test_numbered_stripped_rows_without_blank_ones(self):
        stream = io.StringIO("# manifest\n a , b ,c\n 1 ,2,3\n\n , ,\t\n4, x ,6,extra\n")
        columns, rows = read_csv_rows(stream, ("a", "b"))
        assert columns == {"a": 0, "b": 1, "c": 2}
        # blank and whitespace-only rows are skipped and not counted
        assert list(rows) == [(1, ["1", "2", "3"]), (2, ["4", "x", "6", "extra"])]

    def test_short_row_is_a_data_error_naming_it(self):
        _, rows = read_csv_rows(io.StringIO("a,b,c\n1,2,3\n\n4,5\n"), ("a",))
        assert next(rows) == (1, ["1", "2", "3"])
        with pytest.raises(DataError, match=r"^row has fewer cells than the header \(row 2\)$") as err:
            next(rows)
        assert (err.value.row, err.value.column) == (2, None)


class TestStandardize:
    def test_one_two_three(self, tmp_path):
        # sample (n-1) convention: mean 2, stddev sqrt((1+0+1)/2) = 1
        ds = load_text(tmp_path, "x1,x2,f\n1,0,0\n2,0,0\n3,0,0\n", two_feature_schema())
        out, stats = standardize(ds)
        np.testing.assert_allclose(out.numeric[:, 0], [-1.0, 0.0, 1.0], atol=1e-12)
        assert stats.mean("x1") == pytest.approx(2.0)
        assert stats.stddev("x1") == pytest.approx(1.0)

    def test_constant_column_guard(self, tmp_path):
        ds = load_text(tmp_path, "x1,x2,f\n5,0,0\n5,1,0\n5,2,0\n", two_feature_schema())
        out, stats = standardize(ds)
        np.testing.assert_allclose(out.numeric[:, 0], [0.0, 0.0, 0.0])
        assert stats.stddev("x1") == 1.0

    def test_categorical_untouched(self, tmp_path):
        ds = load_text(tmp_path, "x1,x2,color,f\n1,2,b,0\n3,4,c,1\n", mixed_schema())
        out, _ = standardize(ds)
        np.testing.assert_array_equal(out.codes, ds.codes)

    def test_idempotent(self, tmp_path):
        rng = np.random.default_rng(3)
        csv_text = "x1,x2,f\n" + "\n".join(
            f"{rng.normal()},{rng.normal()},{rng.normal()}" for _ in range(20)
        )
        ds = load_text(tmp_path, csv_text, two_feature_schema())
        once, _ = standardize(ds)
        twice, _ = standardize(once)
        np.testing.assert_allclose(twice.numeric, once.numeric, atol=1e-12)

    def test_pipeline_preserves_rows_and_outputs(self, tmp_path):
        csv_text = "x1,x2,color,f\n1,2,a,0.1\n3,4,b,0.9\n5,6,c,0.4\n"
        ds = load_text(tmp_path, csv_text, mixed_schema())
        std, _ = standardize(ds)
        table = OneHotLayout(std.schema).encode(std.numeric, std.codes)
        assert table.shape[0] == ds.n
        np.testing.assert_array_equal(std.outputs, ds.outputs)


class TestOneHot:
    def test_non_baseline_category(self):
        layout = OneHotLayout(mixed_schema())
        row = layout.encode(np.array([[0.0, 0.0]]), np.array([[1]]))[0]  # "b"
        np.testing.assert_array_equal(row[2:], [1.0, 0.0])

    def test_baseline_is_zero_vector(self):
        layout = OneHotLayout(mixed_schema())
        row = layout.encode(np.array([[0.0, 0.0]]), np.array([[0]]))[0]  # "a"
        np.testing.assert_array_equal(row[2:], [0.0, 0.0])

    def test_width_two_continuous_plus_three_categories(self):
        assert OneHotLayout(mixed_schema()).width == 4

    def test_at_most_one_indicator_per_block(self, tmp_path):
        ds = load_text(
            tmp_path, "x1,x2,color,f\n1,2,a,0\n3,4,b,0\n5,6,c,0\n", mixed_schema()
        )
        table = OneHotLayout(ds.schema).encode(ds.numeric, ds.codes)
        block = table[:, 2:]
        assert (block.sum(axis=1) <= 1).all()
        assert set(np.unique(block)) <= {0.0, 1.0}

    def test_column_order_deterministic(self):
        layout = OneHotLayout(mixed_schema())
        assert layout.column_names == ("x1", "x2", "color=b", "color=c")


class TestLogOdds:
    def test_half_maps_to_zero(self):
        assert to_log_odds(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_one_maps_to_clamped_value(self):
        expected = math.log((1 - 1e-6) / 1e-6)
        assert to_log_odds(1.0) == pytest.approx(expected, rel=1e-9)
        assert to_log_odds(1.0) == pytest.approx(13.8155, abs=1e-4)

    def test_inverse_of_zero_is_half(self):
        assert from_log_odds(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_roundtrip_on_clamped_range(self):
        p = np.linspace(1e-6, 1 - 1e-6, 1001)
        back = from_log_odds(to_log_odds(p))
        np.testing.assert_allclose(back, p, atol=1e-12)

    def test_strictly_monotone(self):
        p = np.linspace(2e-6, 1 - 2e-6, 533)
        z = to_log_odds(p)
        assert (np.diff(z) > 0).all()


class TestQueryDataset:
    def test_non_finite_output_rejected(self):
        schema = two_feature_schema()
        with pytest.raises(DataError):
            QueryDataset(schema, np.zeros((2, 2)), np.zeros((2, 0), dtype=np.int64),
                         np.array([1.0, np.nan]))

    @staticmethod
    def interleaved_arrays():
        numeric = np.array([[1.5, -0.25], [-2.0, 3.0], [0.1, 7.5]])
        codes = np.array([[2, 0], [0, 2], [1, 1]])
        return numeric, codes, np.array([0.5, 0.25, 1.0])

    def test_non_finite_numeric_names_row_and_feature(self):
        numeric, codes, outputs = self.interleaved_arrays()
        numeric[2, 1] = np.nan
        with pytest.raises(DataError, match="non-finite value nan") as err:
            QueryDataset(interleaved_schema(), numeric, codes, outputs)
        assert (err.value.row, err.value.column) == (3, "x2")

    def test_invalid_code_names_row_and_feature(self):
        numeric, codes, outputs = self.interleaved_arrays()
        codes[1, 1] = 3
        with pytest.raises(DataError, match="invalid category code 3") as err:
            QueryDataset(interleaved_schema(), numeric, codes, outputs)
        assert (err.value.row, err.value.column) == (2, "size")

    def test_non_finite_output_names_row(self):
        numeric, codes, outputs = self.interleaved_arrays()
        outputs[1] = -np.inf
        with pytest.raises(DataError, match="non-finite output -inf") as err:
            QueryDataset(interleaved_schema(), numeric, codes, outputs)
        assert (err.value.row, err.value.column) == (2, None)

    def test_probability_out_of_range_names_row(self):
        numeric, codes, outputs = self.interleaved_arrays()
        outputs[2] = 1.5
        with pytest.raises(DataError, match=r"probability output 1.5 outside \[0, 1\]") as err:
            QueryDataset(interleaved_schema("probability"), numeric, codes, outputs)
        assert (err.value.row, err.value.column) == (3, None)

    def test_row_mapping_roundtrip(self, tmp_path):
        ds = load_text(tmp_path, "x1,x2,color,f\n1.5,2,c,0\n", mixed_schema())
        assert ds.row_mapping(0) == {"x1": 1.5, "x2": 2.0, "color": "c"}


class TestInterleavedCodec:
    """The row codec on a schema whose numeric and categorical features alternate."""

    def test_mapping_roundtrip(self):
        schema = interleaved_schema()
        values = {"color": "c", "x1": 1.5, "size": "s", "x2": -0.25}
        point = QueryPoint.from_mapping(schema, values)
        np.testing.assert_array_equal(point.numeric, [1.5, -0.25])
        np.testing.assert_array_equal(point.codes, [2, 0])
        mapping = point.as_mapping(schema)
        assert mapping == values
        assert list(mapping) == list(schema.names)

    def test_from_row_matches_row_mapping(self, tmp_path):
        ds = load_text(tmp_path, INTERLEAVED_CSV, interleaved_schema())
        assert ds.row_mapping(1) == {"color": "a", "x1": -2.0, "size": "l", "x2": 3.0}
        for i in range(ds.n):
            assert QueryPoint.from_row(ds, i).as_mapping(ds.schema) == ds.row_mapping(i)

    def test_csv_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        n = 25
        ds = QueryDataset(
            interleaved_schema(), rng.normal(size=(n, 2)), rng.integers(0, 3, size=(n, 2)),
            rng.normal(size=n),
        )
        path = tmp_path / "data.csv"
        write_dataset_csv(ds, path)
        assert path.read_text().splitlines()[0] == "color,x1,size,x2,f"
        back = load_dataset(path, interleaved_schema())
        np.testing.assert_array_equal(back.numeric, ds.numeric)
        np.testing.assert_array_equal(back.codes, ds.codes)
        np.testing.assert_array_equal(back.outputs, ds.outputs)

    def test_one_hot_indicators_at_their_named_columns(self, tmp_path):
        ds = load_text(tmp_path, INTERLEAVED_CSV, interleaved_schema())
        layout = OneHotLayout(ds.schema)
        assert layout.column_names == ("color=b", "color=c", "x1", "size=s", "size=l", "x2")
        table = layout.encode(ds.numeric, ds.codes)
        for i in range(ds.n):
            row = ds.row_mapping(i)
            expected = [
                float(row[name.split("=")[0]] == name.split("=")[1]) if "=" in name else row[name]
                for name in layout.column_names
            ]
            np.testing.assert_array_equal(table[i], expected)

    @pytest.mark.parametrize("i", [-1, 3])
    def test_from_row_out_of_range(self, i, tmp_path):
        ds = load_text(tmp_path, INTERLEAVED_CSV, interleaved_schema())
        with pytest.raises(DataError, match="out of range"):
            QueryPoint.from_row(ds, i)
