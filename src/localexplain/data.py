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

import contextlib
import csv
import functools
import itertools
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, replace
from typing import IO, Iterator, Mapping

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

    ``row`` is the 1-based data-row number (header and blank rows excluded)
    and ``column`` the offending column name, when known.
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


def _check_csv_text(text: str, what: str, column: str, header: bool = True) -> None:
    """Reject a name or label that no CSV read could match: every cell is stripped,
    and a ``header`` name beginning with ``#`` would read as a comment line."""
    if header and text.startswith("#"):
        raise DataError(f"{what} may not begin with '#', as a comment line does", column=column)
    if text != text.strip():
        raise DataError(f"{what} may not begin or end with whitespace, as CSV cells are stripped", column=column)


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
        if not (isinstance(self.name, str) and self.name):
            raise DataError(f"feature name must be a nonempty string, got {self.name!r}")
        _check_csv_text(self.name, "a feature name", self.name)
        for key in ("kind", "baseline"):
            value = getattr(self, key)
            if value is not None and not isinstance(value, str):
                raise DataError(f"feature {self.name!r}: {key} must be a string, got {value!r}")
        if self.kind not in VALID_KINDS:
            raise DataError(f"feature {self.name!r}: unknown kind {self.kind!r}")
        if self.is_categorical:
            if self.delta is not None:
                raise DataError(f"feature {self.name!r}: delta is not allowed for categorical features")
            if self.categories is None or len(self.categories) < 2:
                raise DataError(f"feature {self.name!r}: categorical features need >= 2 categories")
            if not all(isinstance(c, str) for c in self.categories):
                raise DataError(f"feature {self.name!r}: categories must be strings")
            for label in self.categories:
                _check_csv_text(label, f"category label {label!r}", self.name, header=False)
            if len(set(self.categories)) != len(self.categories):
                raise DataError(f"feature {self.name!r}: duplicate categories")
            if self.baseline is not None and self.baseline not in self.categories:
                raise DataError(
                    f"feature {self.name!r}: baseline {self.baseline!r} not among declared categories"
                )
        else:
            if self.categories is not None or self.baseline is not None:
                raise DataError(f"feature {self.name!r}: categories/baseline only apply to categorical features")
            if self.delta is not None and not (
                isinstance(self.delta, numbers.Real) and not isinstance(self.delta, bool)
                and math.isfinite(self.delta) and self.delta > 0
            ):
                raise DataError(f"feature {self.name!r}: delta must be a positive finite number, got {self.delta!r}")

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

    # -- row codec --------------------------------------------------------

    def decode_row(self, numeric: np.ndarray, codes: np.ndarray) -> dict[str, float | str]:
        """One (numeric block, category codes) row as a name -> value mapping.

        Keys follow schema order; numeric features map to floats and
        categorical features to their category labels.
        """
        numeric_values = iter(np.asarray(numeric, dtype=float).tolist())
        code_values = iter(np.asarray(codes).tolist())
        return {
            spec.name: spec.categories[next(code_values)] if spec.is_categorical else next(numeric_values)
            for spec in self.features
        }

    def encode_row(self, values: Mapping[str, float | str]) -> tuple[np.ndarray, np.ndarray]:
        """Parse a name -> value mapping into its (numeric block, category codes) row.

        The inverse of :meth:`decode_row`.  Numeric values must convert to
        finite floats; categorical values are matched as labels (``str(value)``).
        """
        for name in self.names:
            if name not in values:
                raise DataError(f"query is missing feature {name!r}")
        numeric = np.zeros(len(self.numeric_features))
        for j, spec in enumerate(self.numeric_features):
            value = values[spec.name]
            try:
                numeric[j] = float(value)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                raise DataError(f"non-numeric query value {value!r}", column=spec.name) from None
            if not math.isfinite(numeric[j]):
                raise DataError("query value is not finite", column=spec.name)
        codes = np.zeros(len(self.categorical_features), dtype=np.int64)
        for j, spec in enumerate(self.categorical_features):
            label = str(values[spec.name])
            if label not in spec.categories:
                raise DataError(f"unknown category {label!r}", column=spec.name)
            codes[j] = spec.categories.index(label)
        return numeric, codes

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
        if not isinstance(raw, dict) or not isinstance(raw.get("features"), list):
            raise DataError("schema JSON must be an object with a 'features' list")
        features = []
        for entry in raw["features"]:
            if not isinstance(entry, dict):
                raise DataError(f"schema feature entries must be objects, got {entry!r}")
            categories = entry.get("categories")
            if categories is not None and not isinstance(categories, list):
                raise DataError(f"feature {entry.get('name')!r}: categories must be a list, got {categories!r}")
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

    The constructor checks every value, by :func:`_check_rows` for the
    numeric block and codes (the routine that checks a query point against
    the schema) and here for the outputs (a 1-D array, finite, and in
    [0, 1] for probabilities); each error names the offending value, its
    1-based row and, where there is one, the feature.
    """

    def __init__(
        self,
        schema: FeatureSchema,
        numeric: np.ndarray,
        codes: np.ndarray,
        outputs: np.ndarray,
    ):
        outputs = np.asarray(outputs, dtype=float)
        if outputs.ndim != 1:
            raise DataError(f"outputs have shape {outputs.shape}, expected (n,): one value per row")
        n = outputs.shape[0]
        if n == 0:
            raise DataError("dataset is empty")
        numeric, codes = _check_rows(schema, numeric, codes, n)
        if not np.isfinite(outputs).all():
            r = int(np.argmax(~np.isfinite(outputs)))
            raise DataError(f"non-finite output {float(outputs[r])!r}", row=r + 1)
        if schema.output_kind == "probability":
            outside = (outputs < 0) | (outputs > 1)
            if outside.any():
                r = int(np.argmax(outside))
                raise DataError(f"probability output {float(outputs[r])!r} outside [0, 1]", row=r + 1)
        schema = _resolve_baselines(schema, codes)
        self.schema = schema
        # views, so that the caller's own arrays stay writable
        self.numeric, self.codes, self.outputs = numeric.view(), codes.view(), outputs.view()
        for arr in (self.numeric, self.codes, self.outputs):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.outputs.shape[0]

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Row ``i`` as its (numeric block, category codes) pair (read-only views)."""
        if not 0 <= i < self.n:
            raise DataError(f"row index {i} out of range for dataset of {self.n} rows")
        return self.numeric[i], self.codes[i]

    def row_mapping(self, i: int) -> dict[str, float | str]:
        """Row ``i`` as a feature-name -> value mapping (labels for categoricals)."""
        return self.schema.decode_row(*self.row(i))

    @functools.cached_property
    def standardized(self) -> tuple[QueryDataset, StandardizationStats]:
        """:func:`standardize` of this dataset, computed once per dataset."""
        return standardize(self)


def _check_rows(schema: FeatureSchema, numeric, codes, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The numeric block and category codes of ``n`` rows, or of one point when ``n`` is None, as float and int64 arrays.

    A block not shaped (n, features of its kind), or (features,) for a point, a non-finite value or a code that is
    not the index of one of its feature's categories is a ``DataError`` naming the feature and, for rows, the row.
    """
    lead = () if n is None else (n,)
    numeric, codes = np.asarray(numeric, dtype=float), np.asarray(codes)
    for what, block, specs in (("numeric", numeric, schema.numeric_features),
                               ("category code", codes, schema.categorical_features)):
        if block.shape != (*lead, len(specs)):
            names = tuple(spec.name for spec in specs)
            raise DataError(f"{what} block has shape {block.shape}, expected {(*lead, len(specs))} for {names}")
    rows, code_rows = np.atleast_2d(numeric), np.atleast_2d(codes)
    finite = np.isfinite(rows)
    if not finite.all():
        r, j = np.argwhere(~finite)[0]
        message = f"non-finite value {float(rows[r, j])!r}"
        raise DataError(message, row=None if n is None else int(r) + 1, column=schema.numeric_features[j].name)
    for j, spec in enumerate(schema.categorical_features):
        column = code_rows[:, j]
        invalid = ~((column >= 0) & (column < len(spec.categories)) & (column == np.round(column)))
        if invalid.any():
            r = int(np.argmax(invalid))
            raise DataError(f"invalid category code {column[r].item()}", row=None if n is None else r + 1, column=spec.name)
    return numeric, codes.astype(np.int64, copy=False)


def _resolve_baselines(schema: FeatureSchema, codes: np.ndarray) -> FeatureSchema:
    """Fill in missing categorical baselines with the modal category."""
    resolved: dict[str, FeatureSpec] = {}
    for j, spec in enumerate(schema.categorical_features):
        if spec.baseline is None:
            counts = np.bincount(codes[:, j], minlength=len(spec.categories))
            # ties broken by declaration order via argmax
            resolved[spec.name] = replace(spec, baseline=spec.categories[int(np.argmax(counts))])
    if not resolved:
        return schema
    return FeatureSchema(tuple(resolved.get(f.name, f) for f in schema.features), schema.output_kind)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def load_dataset(path: str | os.PathLike, schema: FeatureSchema, output_column: str = "f") -> QueryDataset:
    """Parse the UTF-8, comma-delimited CSV file at ``path``, with a header row, into a dataset.

    The header must contain one column per schema feature plus the output
    column (``f`` by default); extra columns are ignored.  This only parses
    cells into numbers and category codes; :class:`QueryDataset` checks the
    values.  The file is parsed in C by one ``np.loadtxt`` pass; a file the C
    parse declines goes through the row parser, whose errors name the offending
    1-based data row and column.  An output column that is also a schema
    feature, that begins with ``#`` or that begins or ends with whitespace
    is an error.
    """
    if output_column in schema.names:
        raise DataError("the output column is also a schema feature", column=output_column)
    _check_csv_text(output_column, "the output column", output_column)
    with open(path, "r", encoding="utf-8-sig", newline="") as stream:
        parsed = _parse_in_c(stream, schema, output_column)
        if parsed is None:
            stream.seek(0)
            parsed = _parse_rows(stream, schema, output_column)
    return QueryDataset(schema, *parsed)


def read_csv_header(reader, names, source: str = "CSV") -> tuple[list[str], dict[str, int]]:
    """The header row after any leading ``#`` lines, and the first column of each stripped name.

    Every name in ``names`` must be present; ``source`` names the file in errors.
    """
    # tolerate leading comment lines (e.g. an embedded run manifest)
    header = next((row for row in reader if not (row and row[0].startswith("#"))), None)
    if header is None:
        raise DataError(f"{source} has no header row")
    col_index: dict[str, int] = {}
    for idx, name in enumerate(header):
        col_index.setdefault(name.strip(), idx)
    for name in names:
        if name not in col_index:
            raise DataError(f"missing column {name!r} in {source} header")
    return header, col_index


def read_csv_rows(stream: IO, names, source: str = "CSV") -> tuple[dict[str, int], Iterator[tuple[int, list[str]]]]:
    """The column index of :func:`read_csv_header` and the data rows after it, by one rule for every input CSV.

    Yields ``(number, cells)`` for each row with a nonblank cell, ``number``
    its 1-based position among those rows (blank rows are not counted, as
    the C parse of a data CSV does not count them) and ``cells`` stripped.  A
    row with fewer cells than the header is a DataError naming it.
    """
    reader = csv.reader(stream)
    header, col_index = read_csv_header(reader, names, source)

    def rows():
        number = 0
        for row in reader:
            cells = [cell.strip() for cell in row]
            if not any(cells):
                continue
            number += 1
            if len(cells) < len(header):
                raise DataError("row has fewer cells than the header", row=number)
            yield number, cells

    return col_index, rows()


def _parse_in_c(stream: IO, schema: FeatureSchema, output_column: str):
    """(numeric, codes, outputs) from one ``np.loadtxt`` pass, or None if the row parser must decide.

    The output and numeric columns are read as floats; a converter per
    categorical column maps each stripped cell to its code, or to -1 for an
    unknown label, which leaves the file to the row parser.  The header's last
    column is always read, as 0 when unused, so a short row fails.
    """
    reader = csv.reader(stream)
    header, col_index = read_csv_header(reader, (*schema.names, output_column))
    skiprows = reader.line_num
    if not any(any(cell.strip() for cell in row) for row in reader):
        return None  # no data row: the row parser reports the empty dataset
    n_num = len(schema.numeric_features)
    usecols = [col_index[name] for name in (output_column, *(s.name for s in schema.numeric_features))]
    converters = {}
    for spec in schema.categorical_features:
        lookup = {label: float(code) for code, label in enumerate(spec.categories)}
        usecols.append(col_index[spec.name])
        converters[usecols[-1]] = lambda cell, lookup=lookup: lookup.get(cell.strip(), -1.0)
    if len(header) - 1 not in usecols:
        usecols.append(len(header) - 1)
        converters[usecols[-1]] = lambda cell: 0.0
    # reading the open stream keeps a CR inside quotes, as csv does; a row of blank cells, such as a
    # spreadsheet's trailing ",,,,", is dropped, but inside a quoted cell a line is the cell's text
    try:
        stream.seek(0)
        lines = _lines_with_cells(itertools.islice(stream, skiprows, None))
        values = np.loadtxt(lines, dtype=float, usecols=usecols, converters=converters, delimiter=",",
                            comments=None, quotechar='"', ndmin=2)
    except ValueError:
        return None
    codes = values[:, 1 + n_num:1 + len(schema.features)].astype(np.int64)
    if (codes < 0).any():
        return None
    return np.ascontiguousarray(values[:, 1:1 + n_num]), codes, np.ascontiguousarray(values[:, 0])


def _lines_with_cells(lines: Iterator[str]) -> Iterator[str]:
    """The lines but those of only commas and whitespace outside quotes, which the row parser skips."""
    quoted = False
    for line in lines:
        if quoted or line.strip(" \t\r\n,"):
            if '"' in line:
                quoted ^= line.count('"') % 2 == 1
            yield line


def _parse_rows(stream: IO, schema: FeatureSchema, output_column: str):
    """(numeric, codes, outputs) parsed cell by cell; errors name the row and column."""
    col_index, rows = read_csv_rows(stream, (*schema.names, output_column))
    numeric_specs = schema.numeric_features
    categorical_specs = schema.categorical_features
    cat_lookup = [{label: code for code, label in enumerate(spec.categories)} for spec in categorical_specs]
    numeric_rows: list[list[float]] = []
    code_rows: list[list[int]] = []
    outputs: list[float] = []
    for row_no, row in rows:
        num_row = []
        for spec in numeric_specs:
            cell = row[col_index[spec.name]]
            try:
                num_row.append(float(cell))
            except ValueError:
                message = f"non-numeric value {cell!r} for {spec.kind} feature"
                raise DataError(message, row=row_no, column=spec.name) from None
        code_row = []
        for spec, lookup in zip(categorical_specs, cat_lookup):
            cell = row[col_index[spec.name]]
            if cell not in lookup:
                raise DataError(f"unknown category {cell!r}", row=row_no, column=spec.name)
            code_row.append(lookup[cell])
        cell = row[col_index[output_column]]
        try:
            outputs.append(float(cell))
        except ValueError:
            raise DataError(f"non-numeric output value {cell!r}", row=row_no, column=output_column) from None
        numeric_rows.append(num_row)
        code_rows.append(code_row)
    n = len(outputs)
    numeric = np.array(numeric_rows, dtype=float).reshape(n, len(numeric_specs))
    codes = np.array(code_rows, dtype=np.int64).reshape(n, len(categorical_specs))
    return numeric, codes, np.asarray(outputs)


def write_dataset_csv(
    dataset: QueryDataset, path: str | os.PathLike | None, output_column: str = "f", comment: str | None = None
) -> None:
    """Write a dataset with :func:`write_csv`, in the layout accepted by load_dataset."""
    rows = ([*dataset.row_mapping(i).values(), output] for i, output in enumerate(dataset.outputs.tolist()))
    write_csv(path, [*dataset.schema.names, output_column], rows, comment)


def open_output(path: str | os.PathLike | None):
    """The text stream to write an output to: stdout for None or ``"-"``, else the UTF-8 file at ``path``."""
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def write_csv(path: str | os.PathLike | None, header, rows, comment: str | None = None) -> None:
    """Write one CSV output to :func:`open_output`; every table the command line writes comes here.

    Rows end in a bare LF, the ``csv`` module quotes only the cells that need
    it, floats are written with ``repr`` and None as an empty cell.
    ``comment`` (the run manifest) is a leading ``# `` line.
    """
    with open_output(path) as stream:
        if comment is not None:
            stream.write(f"# {comment}\n")
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            ["" if cell is None else repr(float(cell)) if isinstance(cell, float) else cell for cell in row]
            for row in rows
        )


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
        out[:, list(self.numeric_columns.values())] = numeric
        for j, spec in enumerate(self.schema.categorical_features):
            cols = self.categorical_columns[spec.name]
            levels = [spec.categories.index(cat) for cat in cols]
            out[:, list(cols.values())] = codes[:, j, None] == levels
        return out


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
