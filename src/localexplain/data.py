"""Dataset ingestion, feature schema, and preprocessing transforms.

A :class:`QueryDataset` is a static table of model inputs together with the
model's recorded outputs.  Everything downstream (neighborhood selection,
local regression, bootstrap intervals) consumes this immutable structure, so
all validation happens here, at the boundary.

Preprocessing mirrors the usual tabular pipeline: continuous/ordinal columns
are standardized, categorical columns are one-hot encoded against a declared
baseline category, and probability outputs can be mapped to log-odds and
back.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import dataclass
from typing import IO, Iterable, Mapping

import numpy as np

#: Probabilities are clamped to [EPS, 1-EPS] before the log-odds transform so
#: that hard 0/1 outputs stay finite.
LOG_ODDS_EPS = 1e-6

#: Sample standard deviations below this are treated as zero (constant
#: column) and replaced by 1 so standardization is a no-op for them.
STDDEV_GUARD = 1e-12

NUMERIC_KINDS = ("continuous", "ordinal")
VALID_KINDS = NUMERIC_KINDS + ("categorical",)
VALID_OUTPUT_KINDS = ("raw", "probability")


class DataError(ValueError):
    """Raised for schema violations and malformed input tables.

    ``row`` is the 1-based data-row number (header excluded) and ``column``
    the offending column name, when known.
    """

    def __init__(self, message: str, *, row: int | None = None, column: str | None = None):
        loc = []
        if row is not None:
            loc.append(f"row {row}")
        if column is not None:
            loc.append(f"column {column!r}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.row = row
        self.column = column


@dataclass(frozen=True)
class FeatureSpec:
    """Declared type of a single input feature.

    Continuous/ordinal features may carry an explicit perturbation step
    ``delta`` (> 0); when absent it is defaulted downstream from the sample
    standard deviation.  Categorical features declare their category labels
    and exactly one baseline category; a missing baseline is resolved to the
    most frequent category when a dataset is loaded.
    """

    name: str
    kind: str
    delta: float | None = None
    categories: tuple[str, ...] | None = None
    baseline: str | None = None

    def __post_init__(self):
        if not self.name:
            raise DataError("feature name must be nonempty")
        if self.kind not in VALID_KINDS:
            raise DataError(f"feature {self.name!r}: unknown kind {self.kind!r}")
        if self.is_categorical:
            if self.delta is not None:
                raise DataError(f"feature {self.name!r}: delta is not allowed for categorical features")
            if self.categories is None or len(self.categories) < 2:
                raise DataError(f"feature {self.name!r}: categorical features need >= 2 categories")
            if len(set(self.categories)) != len(self.categories):
                raise DataError(f"feature {self.name!r}: duplicate categories")
            if self.baseline is not None and self.baseline not in self.categories:
                raise DataError(
                    f"feature {self.name!r}: baseline {self.baseline!r} not among declared categories"
                )
        else:
            if self.categories is not None or self.baseline is not None:
                raise DataError(f"feature {self.name!r}: categories/baseline only apply to categorical features")
            if self.delta is not None and not self.delta > 0:
                raise DataError(f"feature {self.name!r}: delta must be positive")

    @property
    def is_categorical(self) -> bool:
        return self.kind == "categorical"

    @property
    def is_numeric(self) -> bool:
        return self.kind in NUMERIC_KINDS


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature declarations plus the kind of recorded model output."""

    features: tuple[FeatureSpec, ...]
    output_kind: str = "raw"

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        if not self.features:
            raise DataError("schema declares no features")
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise DataError("feature names must be unique")
        if self.output_kind not in VALID_OUTPUT_KINDS:
            raise DataError(f"unknown output_kind {self.output_kind!r}")

    # -- lookups ---------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    @property
    def numeric_features(self) -> tuple[FeatureSpec, ...]:
        return tuple(f for f in self.features if f.is_numeric)

    @property
    def categorical_features(self) -> tuple[FeatureSpec, ...]:
        return tuple(f for f in self.features if f.is_categorical)

    def feature(self, name: str) -> FeatureSpec:
        for f in self.features:
            if f.name == name:
                return f
        raise DataError(f"unknown feature {name!r}")

    def numeric_index(self, name: str) -> int:
        """Position of ``name`` within the numeric feature block."""
        for i, f in enumerate(self.numeric_features):
            if f.name == name:
                return i
        raise DataError(f"{name!r} is not a numeric feature")

    def categorical_index(self, name: str) -> int:
        for i, f in enumerate(self.categorical_features):
            if f.name == name:
                return i
        raise DataError(f"{name!r} is not a categorical feature")

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        features = []
        for f in self.features:
            entry: dict = {"name": f.name, "kind": f.kind}
            if f.delta is not None:
                entry["delta"] = f.delta
            if f.categories is not None:
                entry["categories"] = list(f.categories)
            if f.baseline is not None:
                entry["baseline"] = f.baseline
            features.append(entry)
        return json.dumps({"features": features, "output_kind": self.output_kind}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FeatureSchema":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"schema is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict) or "features" not in raw:
            raise DataError("schema JSON must be an object with a 'features' list")
        features = []
        for entry in raw["features"]:
            categories = entry.get("categories")
            features.append(
                FeatureSpec(
                    name=entry.get("name", ""),
                    kind=entry.get("kind", ""),
                    delta=entry.get("delta"),
                    categories=tuple(categories) if categories is not None else None,
                    baseline=entry.get("baseline"),
                )
            )
        return cls(features=tuple(features), output_kind=raw.get("output_kind", "raw"))


@dataclass(frozen=True)
class StandardizationStats:
    """Per numeric feature mean and sample stddev, kept for unit conversions.

    ``stddevs`` holds the guard value 1 wherever the sample stddev fell below
    :data:`STDDEV_GUARD`, so dividing by it is always safe.
    """

    names: tuple[str, ...]
    means: np.ndarray
    stddevs: np.ndarray

    def mean(self, name: str) -> float:
        return float(self.means[self.names.index(name)])

    def stddev(self, name: str) -> float:
        return float(self.stddevs[self.names.index(name)])

    def transform(self, numeric: np.ndarray) -> np.ndarray:
        """Map raw numeric values (rows or a single row) to standardized units."""
        return (np.asarray(numeric, dtype=float) - self.means) / self.stddevs


class QueryDataset:
    """Immutable table of ``n`` input rows plus recorded model outputs.

    Numeric features are stored as a dense float matrix (schema order of the
    numeric features), categorical features as integer codes into each
    feature's declared category tuple.  Instances are safe to share across
    threads; no method mutates them, and the one cached value,
    :attr:`standardized`, is computed on first use.
    """

    def __init__(
        self,
        schema: FeatureSchema,
        numeric: np.ndarray,
        codes: np.ndarray,
        outputs: np.ndarray,
    ):
        outputs = np.asarray(outputs, dtype=float)
        n = outputs.shape[0]
        if n == 0:
            raise DataError("dataset is empty")
        n_num = len(schema.numeric_features)
        n_cat = len(schema.categorical_features)
        numeric = np.asarray(numeric, dtype=float).reshape(n, n_num) if n_num else np.zeros((n, 0))
        codes = (
            np.asarray(codes, dtype=np.int64).reshape(n, n_cat) if n_cat else np.zeros((n, 0), dtype=np.int64)
        )
        if n_num and not np.all(np.isfinite(numeric)):
            raise DataError("numeric features contain non-finite values")
        if not np.all(np.isfinite(outputs)):
            raise DataError("outputs contain non-finite values")
        for j, spec in enumerate(schema.categorical_features):
            col = codes[:, j]
            if (col < 0).any() or (col >= len(spec.categories)).any():
                raise DataError(f"invalid category code for feature {spec.name!r}")
        if schema.output_kind == "probability" and ((outputs < 0).any() or (outputs > 1).any()):
            bad = int(np.argmax((outputs < 0) | (outputs > 1)))
            raise DataError("probability output outside [0, 1]", row=bad + 1)
        schema = _resolve_baselines(schema, codes)
        self.schema = schema
        self.numeric = numeric
        self.codes = codes
        self.outputs = outputs
        for arr in (self.numeric, self.codes, self.outputs):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.outputs.shape[0]

    def row_mapping(self, i: int) -> dict[str, float | str]:
        """Row ``i`` as a feature-name -> value mapping (labels for categoricals)."""
        if not 0 <= i < self.n:
            raise DataError(f"row index {i} out of range for dataset of {self.n} rows")
        out: dict[str, float | str] = {}
        for spec in self.schema.features:
            if spec.is_numeric:
                out[spec.name] = float(self.numeric[i, self.schema.numeric_index(spec.name)])
            else:
                code = int(self.codes[i, self.schema.categorical_index(spec.name)])
                out[spec.name] = spec.categories[code]
        return out

    @functools.cached_property
    def standardized(self) -> tuple[QueryDataset, StandardizationStats]:
        """:func:`standardize` of this dataset, computed once per dataset."""
        return standardize(self)


def _resolve_baselines(schema: FeatureSchema, codes: np.ndarray) -> FeatureSchema:
    """Fill in missing categorical baselines with the modal category."""
    if all(f.baseline is not None for f in schema.categorical_features):
        return schema
    features = []
    for spec in schema.features:
        if spec.is_categorical and spec.baseline is None:
            j = schema.categorical_index(spec.name)
            counts = np.bincount(codes[:, j], minlength=len(spec.categories))
            # ties broken by declaration order via argmax
            baseline = spec.categories[int(np.argmax(counts))]
            spec = FeatureSpec(spec.name, spec.kind, categories=spec.categories, baseline=baseline)
        features.append(spec)
    return FeatureSchema(tuple(features), schema.output_kind)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def load_dataset(
    source: str | bytes | IO, schema: FeatureSchema, output_column: str = "f"
) -> QueryDataset:
    """Parse a UTF-8, comma-delimited CSV with a header row into a dataset.

    The header must contain one column per schema feature plus the output
    column (``f`` by default); extra columns are ignored.  Errors name the
    offending 1-based data row and column.
    """
    if isinstance(source, (str, bytes)):
        if isinstance(source, bytes):
            stream: IO = io.StringIO(source.decode("utf-8"))
        else:
            stream = open(source, "r", encoding="utf-8", newline="")
    elif isinstance(source, io.RawIOBase) or isinstance(source, io.BufferedIOBase):
        stream = io.TextIOWrapper(source, encoding="utf-8", newline="")
    else:
        stream = source
    try:
        reader = csv.reader(stream)
        header = None
        for row in reader:
            # tolerate leading comment lines (e.g. an embedded run manifest)
            if row and row[0].startswith("#"):
                continue
            header = row
            break
        if header is None:
            raise DataError("CSV has no header row")
        col_index: dict[str, int] = {}
        for idx, name in enumerate(header):
            col_index.setdefault(name.strip(), idx)
        for name in (*schema.names, output_column):
            if name not in col_index:
                raise DataError(f"missing column {name!r} in CSV header")

        numeric_specs = schema.numeric_features
        categorical_specs = schema.categorical_features
        cat_lookup = [
            {label: code for code, label in enumerate(spec.categories)} for spec in categorical_specs
        ]
        numeric_rows: list[list[float]] = []
        code_rows: list[list[int]] = []
        outputs: list[float] = []
        for row_no, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < len(header):
                raise DataError("row has fewer cells than the header", row=row_no)
            num_row = []
            for spec in numeric_specs:
                cell = row[col_index[spec.name]].strip()
                try:
                    num_row.append(float(cell))
                except ValueError:
                    raise DataError(
                        f"non-numeric value {cell!r} for {spec.kind} feature",
                        row=row_no,
                        column=spec.name,
                    ) from None
            code_row = []
            for spec, lookup in zip(categorical_specs, cat_lookup):
                cell = row[col_index[spec.name]].strip()
                if cell not in lookup:
                    raise DataError(
                        f"unknown category {cell!r}", row=row_no, column=spec.name
                    )
                code_row.append(lookup[cell])
            cell = row[col_index[output_column]].strip()
            try:
                outputs.append(float(cell))
            except ValueError:
                raise DataError(
                    f"non-numeric output value {cell!r}", row=row_no, column=output_column
                ) from None
            numeric_rows.append(num_row)
            code_rows.append(code_row)
        if not outputs:
            raise DataError("CSV contains no data rows")
        n = len(outputs)
        numeric = np.array(numeric_rows, dtype=float).reshape(n, len(numeric_specs))
        codes = np.array(code_rows, dtype=np.int64).reshape(n, len(categorical_specs))
        if schema.output_kind == "probability":
            out_arr = np.asarray(outputs)
            bad = (out_arr < 0) | (out_arr > 1)
            if bad.any():
                raise DataError(
                    f"probability output {out_arr[bad][0]!r} outside [0, 1]",
                    row=int(np.argmax(bad)) + 1,
                    column=output_column,
                )
        return QueryDataset(schema, numeric, codes, np.asarray(outputs))
    finally:
        if isinstance(source, (str, bytes)) and hasattr(stream, "close"):
            stream.close()


def write_dataset_csv(dataset: QueryDataset, path: str, output_column: str = "f") -> None:
    """Write a dataset back out in the CSV layout accepted by load_dataset."""
    schema = dataset.schema
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*schema.names, output_column])
        for i in range(dataset.n):
            row = []
            for spec in schema.features:
                if spec.is_numeric:
                    row.append(repr(float(dataset.numeric[i, schema.numeric_index(spec.name)])))
                else:
                    code = int(dataset.codes[i, schema.categorical_index(spec.name)])
                    row.append(spec.categories[code])
            row.append(repr(float(dataset.outputs[i])))
            writer.writerow(row)


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------


def standardize(dataset: QueryDataset) -> tuple[QueryDataset, StandardizationStats]:
    """Center and scale the numeric columns to sample mean 0, sample stddev 1.

    Uses the n-1 (sample) stddev convention.  Constant columns are left
    centered with a guard stddev of 1.  Categorical columns and outputs pass
    through unchanged; the returned stats map raw query values and deltas
    into standardized units.
    """
    numeric = dataset.numeric
    names = tuple(f.name for f in dataset.schema.numeric_features)
    if numeric.shape[1] == 0:
        stats = StandardizationStats(names, np.zeros(0), np.ones(0))
        return dataset, stats
    means = numeric.mean(axis=0)
    if dataset.n > 1:
        stddevs = numeric.std(axis=0, ddof=1)
    else:
        stddevs = np.zeros(numeric.shape[1])
    stddevs = np.where(stddevs < STDDEV_GUARD, 1.0, stddevs)
    stats = StandardizationStats(names, means, stddevs)
    transformed = QueryDataset(
        dataset.schema, (numeric - means) / stddevs, dataset.codes, dataset.outputs
    )
    return transformed, stats


class OneHotLayout:
    """Column layout of the numeric design table derived from a schema.

    Numeric features map to single columns; a categorical feature with L
    categories maps to L-1 indicator columns (baseline encoded as all
    zeros), in schema order then declared category order.
    """

    def __init__(self, schema: FeatureSchema):
        self.schema = schema
        names: list[str] = []
        binary: list[bool] = []
        self.numeric_columns: dict[str, int] = {}
        self.categorical_columns: dict[str, dict[str, int]] = {}
        for spec in schema.features:
            if spec.is_numeric:
                self.numeric_columns[spec.name] = len(names)
                names.append(spec.name)
                binary.append(False)
            else:
                cols: dict[str, int] = {}
                for cat in spec.categories:
                    if cat == spec.baseline:
                        continue
                    cols[cat] = len(names)
                    names.append(f"{spec.name}={cat}")
                    binary.append(True)
                self.categorical_columns[spec.name] = cols
        self.column_names = tuple(names)
        self.binary_mask = np.array(binary, dtype=bool)
        self.width = len(names)

    def encode(self, numeric: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Encode rows of (numeric block, categorical codes) into the table."""
        numeric = np.atleast_2d(numeric)
        codes = np.atleast_2d(codes)
        n = max(numeric.shape[0], codes.shape[0])
        out = np.zeros((n, self.width))
        for name, col in self.numeric_columns.items():
            out[:, col] = numeric[:, self.schema.numeric_index(name)]
        for name, cols in self.categorical_columns.items():
            spec = self.schema.feature(name)
            j = self.schema.categorical_index(name)
            for cat, col in cols.items():
                out[:, col] = codes[:, j] == spec.categories.index(cat)
        return out


def encode_one_hot(dataset: QueryDataset) -> np.ndarray:
    """One-hot encode a dataset into its numeric design table (n x width)."""
    return OneHotLayout(dataset.schema).encode(dataset.numeric, dataset.codes)


def to_log_odds(p: np.ndarray | float) -> np.ndarray | float:
    """Map probabilities to log-odds, clamping into [eps, 1-eps] first."""
    p = np.clip(np.asarray(p, dtype=float), LOG_ODDS_EPS, 1.0 - LOG_ODDS_EPS)
    out = np.log(p / (1.0 - p))
    return out if out.ndim else float(out)


def from_log_odds(z: np.ndarray | float) -> np.ndarray | float:
    """Inverse of :func:`to_log_odds` on the clamped range (plain sigmoid)."""
    arr = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ez = np.exp(arr[~pos])
    out[~pos] = ez / (1.0 + ez)
    if np.ndim(z) == 0:
        return float(out[0])
    return out.reshape(np.shape(z))
