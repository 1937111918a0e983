"""Ingestion, schema validation, and preprocessing transforms."""

import io
import json
import math

import numpy as np
import pytest

from localexplain.data import (
    DataError,
    FeatureSchema,
    FeatureSpec,
    OneHotLayout,
    QueryDataset,
    from_log_odds,
    load_dataset,
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


INTERLEAVED_CSV = b"color,x1,size,x2,f\nc,1.5,s,-0.25,0.5\na,-2.0,l,3.0,0.25\nb,0.1,m,7.5,1.0\n"


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
    def test_three_row_csv(self):
        csv_text = "x1,x2,f\n1,2,0.5\n3,4,1.5\n5,6,2.5\n"
        ds = load_dataset(csv_text.encode(), two_feature_schema())
        assert ds.n == 3
        np.testing.assert_allclose(ds.numeric, [[1, 2], [3, 4], [5, 6]])
        np.testing.assert_allclose(ds.outputs, [0.5, 1.5, 2.5])

    def test_unknown_category_names_row_and_column(self):
        csv_text = "x1,x2,color,f\n1,2,a,0\n3,4,blue,1\n"
        with pytest.raises(DataError) as err:
            load_dataset(csv_text.encode(), mixed_schema())
        assert err.value.row == 2
        assert err.value.column == "color"
        assert "blue" in str(err.value)

    def test_probability_outputs_accepted(self):
        csv_text = "x1,x2,f\n1,2,0.2\n3,4,0.7\n"
        ds = load_dataset(csv_text.encode(), two_feature_schema("probability"))
        np.testing.assert_allclose(ds.outputs, [0.2, 0.7])

    def test_probability_out_of_range_rejected(self):
        csv_text = "x1,x2,f\n1,2,0.2\n3,4,1.7\n"
        with pytest.raises(DataError) as err:
            load_dataset(csv_text.encode(), two_feature_schema("probability"))
        assert err.value.row == 2
        assert "1.7" in str(err.value)

    def test_non_finite_cell_rejected_with_row_and_column(self):
        with pytest.raises(DataError) as err:
            load_dataset(b"x1,x2,f\n1,2,0\n3,nan,1\n", two_feature_schema())
        assert (err.value.row, err.value.column) == (2, "x2")

    def test_missing_column(self):
        with pytest.raises(DataError, match="x2"):
            load_dataset(b"x1,f\n1,0\n", two_feature_schema())

    def test_missing_output_column(self):
        with pytest.raises(DataError, match="'f'"):
            load_dataset(b"x1,x2\n1,2\n", two_feature_schema())

    def test_non_numeric_continuous_value(self):
        with pytest.raises(DataError) as err:
            load_dataset(b"x1,x2,f\n1,2,0\nbad,4,1\n", two_feature_schema())
        assert err.value.row == 2
        assert err.value.column == "x1"

    def test_empty_dataset(self):
        with pytest.raises(DataError):
            load_dataset(b"x1,x2,f\n", two_feature_schema())

    def test_output_column_override(self):
        ds = load_dataset(b"x1,x2,score\n1,2,9\n", two_feature_schema(), output_column="score")
        assert ds.outputs[0] == 9

    def test_comment_lines_before_header_are_skipped(self):
        ds = load_dataset(b"# manifest: {}\nx1,x2,f\n1,2,3\n", two_feature_schema())
        assert ds.n == 1

    def test_missing_baseline_defaults_to_most_frequent(self):
        schema = FeatureSchema(
            (FeatureSpec("c", "categorical", categories=("a", "b")),)
        )
        ds = load_dataset(b"c,f\na,0\nb,1\nb,2\n", schema)
        assert ds.schema.feature("c").baseline == "b"


class TestStandardize:
    def test_one_two_three(self):
        # sample (n-1) convention: mean 2, stddev sqrt((1+0+1)/2) = 1
        ds = load_dataset(b"x1,x2,f\n1,0,0\n2,0,0\n3,0,0\n", two_feature_schema())
        out, stats = standardize(ds)
        np.testing.assert_allclose(out.numeric[:, 0], [-1.0, 0.0, 1.0], atol=1e-12)
        assert stats.mean("x1") == pytest.approx(2.0)
        assert stats.stddev("x1") == pytest.approx(1.0)

    def test_constant_column_guard(self):
        ds = load_dataset(b"x1,x2,f\n5,0,0\n5,1,0\n5,2,0\n", two_feature_schema())
        out, stats = standardize(ds)
        np.testing.assert_allclose(out.numeric[:, 0], [0.0, 0.0, 0.0])
        assert stats.stddev("x1") == 1.0

    def test_categorical_untouched(self):
        ds = load_dataset(b"x1,x2,color,f\n1,2,b,0\n3,4,c,1\n", mixed_schema())
        out, _ = standardize(ds)
        np.testing.assert_array_equal(out.codes, ds.codes)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        csv_text = "x1,x2,f\n" + "\n".join(
            f"{rng.normal()},{rng.normal()},{rng.normal()}" for _ in range(20)
        )
        ds = load_dataset(csv_text.encode(), two_feature_schema())
        once, _ = standardize(ds)
        twice, _ = standardize(once)
        np.testing.assert_allclose(twice.numeric, once.numeric, atol=1e-12)

    def test_pipeline_preserves_rows_and_outputs(self):
        csv_text = "x1,x2,color,f\n1,2,a,0.1\n3,4,b,0.9\n5,6,c,0.4\n"
        ds = load_dataset(csv_text.encode(), mixed_schema())
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

    def test_at_most_one_indicator_per_block(self):
        ds = load_dataset(
            b"x1,x2,color,f\n1,2,a,0\n3,4,b,0\n5,6,c,0\n", mixed_schema()
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

    def test_row_mapping_roundtrip(self):
        ds = load_dataset(b"x1,x2,color,f\n1.5,2,c,0\n", mixed_schema())
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

    def test_from_row_matches_row_mapping(self):
        ds = load_dataset(INTERLEAVED_CSV, interleaved_schema())
        assert ds.row_mapping(1) == {"color": "a", "x1": -2.0, "size": "l", "x2": 3.0}
        for i in range(ds.n):
            assert QueryPoint.from_row(ds, i).as_mapping(ds.schema) == ds.row_mapping(i)

    def test_csv_roundtrip_is_exact(self):
        rng = np.random.default_rng(8)
        n = 25
        ds = QueryDataset(
            interleaved_schema(), rng.normal(size=(n, 2)), rng.integers(0, 3, size=(n, 2)),
            rng.normal(size=n),
        )
        stream = io.StringIO()
        write_dataset_csv(ds, stream)
        assert stream.getvalue().splitlines()[0] == "color,x1,size,x2,f"
        back = load_dataset(stream.getvalue().encode(), interleaved_schema())
        np.testing.assert_array_equal(back.numeric, ds.numeric)
        np.testing.assert_array_equal(back.codes, ds.codes)
        np.testing.assert_array_equal(back.outputs, ds.outputs)

    def test_one_hot_indicators_at_their_named_columns(self):
        ds = load_dataset(INTERLEAVED_CSV, interleaved_schema())
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
    def test_from_row_out_of_range(self, i):
        ds = load_dataset(INTERLEAVED_CSV, interleaved_schema())
        with pytest.raises(DataError, match="out of range"):
            QueryPoint.from_row(ds, i)
