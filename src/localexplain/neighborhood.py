"""Neighborhood selection around a query point, with categorical balancing.

Rows are ranked by Euclidean distance between their numeric features and the
query's (distances are meaningful when both sides are in standardized units;
the explanation pipeline takes care of that).  When balancing is enabled,
a single greedy pass over the distance ordering keeps, for every categorical
feature whose query category differs from its baseline, the counts of the
baseline class and the query class within one of each other by capping both
classes at ceil(m/2) selections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import DataError, FeatureSchema, QueryDataset, StandardizationStats


class BalanceError(RuntimeError):
    """Balanced selection could not fill the neighborhood.

    Carries the categorical feature and class label that ran out of
    candidates.
    """

    def __init__(self, feature: str, label: str, have: int, need: int):
        super().__init__(
            f"balanced selection infeasible: class {label!r} of feature {feature!r} "
            f"has {have} candidates, needs {need}"
        )
        self.feature = feature
        self.label = label


@dataclass(frozen=True)
class QueryPoint:
    """A single point in schema space: numeric values plus category codes."""

    numeric: np.ndarray
    codes: np.ndarray

    @classmethod
    def from_mapping(cls, schema: FeatureSchema, values: Mapping[str, float | str]) -> "QueryPoint":
        numeric = np.zeros(len(schema.numeric_features))
        codes = np.zeros(len(schema.categorical_features), dtype=np.int64)
        for spec in schema.features:
            if spec.name not in values:
                raise DataError(f"query is missing feature {spec.name!r}")
            value = values[spec.name]
            if spec.is_numeric:
                try:
                    v = float(value)  # type: ignore[arg-type]
                except (TypeError, ValueError):
                    raise DataError(f"non-numeric query value {value!r}", column=spec.name) from None
                if not math.isfinite(v):
                    raise DataError("query value is not finite", column=spec.name)
                numeric[schema.numeric_index(spec.name)] = v
            else:
                label = str(value)
                if label not in spec.categories:
                    raise DataError(f"unknown category {label!r}", column=spec.name)
                codes[schema.categorical_index(spec.name)] = spec.categories.index(label)
        return cls(numeric=numeric, codes=codes)

    @classmethod
    def from_row(cls, dataset: QueryDataset, i: int) -> "QueryPoint":
        return cls.from_mapping(dataset.schema, dataset.row_mapping(i))

    def standardized(self, stats: StandardizationStats) -> "QueryPoint":
        return QueryPoint(numeric=stats.transform(self.numeric), codes=self.codes)

    def as_mapping(self, schema: FeatureSchema) -> dict[str, float | str]:
        out: dict[str, float | str] = {}
        for spec in schema.features:
            if spec.is_numeric:
                out[spec.name] = float(self.numeric[schema.numeric_index(spec.name)])
            else:
                code = int(self.codes[schema.categorical_index(spec.name)])
                out[spec.name] = spec.categories[code]
        return out


@dataclass(frozen=True)
class Neighborhood:
    """The selected rows: dataset indices and their distances.

    Distances are nondecreasing in selection order.
    """

    member_indices: np.ndarray
    distances: np.ndarray
    balance_fallback_used: bool = False

    @property
    def m(self) -> int:
        return len(self.member_indices)


def select_neighborhood(
    dataset: QueryDataset,
    query: QueryPoint,
    m: int,
    balance: bool = True,
    fallback: bool = False,
) -> Neighborhood:
    """Pick the ``m`` rows nearest the query, optionally class-balanced.

    Distance ties are broken by ascending row index.  With ``balance`` on,
    the greedy scan enforces per categorical feature (query category !=
    baseline only) a cap of ceil(m/2) on both the baseline class and the
    query class; once either cap is reached, only points of the lagging
    class are accepted.  If the scan cannot fill ``m`` slots, a
    :class:`BalanceError` is raised unless ``fallback`` is set, in which
    case the nearest skipped rows complete the neighborhood.
    """
    n = dataset.n
    if m < 1:
        raise DataError("neighborhood size m must be >= 1")
    if m > n:
        raise DataError(f"neighborhood size m={m} exceeds dataset size n={n}")
    diffs = dataset.numeric - query.numeric
    distances = np.sqrt(np.einsum("ij,ij->i", diffs, diffs)) if diffs.shape[1] else np.zeros(n)
    order = np.lexsort((np.arange(n), distances))

    constrained: list[tuple[str, int, int, int]] = []  # (name, cat col, base code, query code)
    if balance:
        schema = dataset.schema
        for j, spec in enumerate(schema.categorical_features):
            base_code = spec.categories.index(spec.baseline)
            query_code = int(query.codes[j])
            if query_code != base_code:
                constrained.append((spec.name, j, base_code, query_code))

    if not constrained:
        chosen = order[:m]
        return Neighborhood(member_indices=chosen, distances=distances[chosen])

    quota = math.ceil(m / 2)
    counts = np.zeros((len(constrained), 2), dtype=int)  # [:, 0] baseline, [:, 1] query class
    selected: list[int] = []
    skipped: list[int] = []
    for idx in order:
        if len(selected) == m:
            break
        ok = True
        marks = []
        for ci, (_, j, base_code, query_code) in enumerate(constrained):
            code = dataset.codes[idx, j]
            if code == base_code:
                if counts[ci, 0] >= quota:
                    ok = False
                    break
                marks.append((ci, 0))
            elif code == query_code:
                if counts[ci, 1] >= quota:
                    ok = False
                    break
                marks.append((ci, 1))
            else:
                # neither class: only admissible while both caps are open, so
                # remaining slots can still even the two classes out
                if counts[ci, 0] >= quota or counts[ci, 1] >= quota:
                    ok = False
                    break
        if ok:
            selected.append(int(idx))
            for ci, side in marks:
                counts[ci, side] += 1
        else:
            skipped.append(int(idx))

    fallback_used = False
    if len(selected) < m:
        if not fallback:
            for ci, (name, _, base_code, query_code) in enumerate(constrained):
                for side, code in ((0, base_code), (1, query_code)):
                    if counts[ci, side] < quota:
                        spec = dataset.schema.feature(name)
                        raise BalanceError(
                            feature=name,
                            label=spec.categories[code],
                            have=int(counts[ci, side]),
                            need=quota,
                        )
            raise BalanceError(constrained[0][0], "?", len(selected), m)
        fallback_used = True
        for idx in skipped:
            selected.append(idx)
            if len(selected) == m:
                break
        kept = set(selected)
        selected = [int(i) for i in order if i in kept][:m]  # restore distance order

    chosen = np.asarray(selected)
    return Neighborhood(
        member_indices=chosen, distances=distances[chosen], balance_fallback_used=fallback_used
    )


def compute_weights(distances: np.ndarray) -> np.ndarray:
    """Min-max regression weights: nearest member 1, farthest 0.

    ``w_i = 1 - (phi_i - min phi) / (max phi - min phi)``.  When all
    distances coincide the weights fall back to all ones.
    """
    phi = np.asarray(distances, dtype=float)
    if phi.size == 0:
        raise DataError("cannot compute weights for an empty neighborhood")
    lo, hi = float(phi.min()), float(phi.max())
    if hi - lo <= 0.0:
        return np.ones_like(phi)
    return 1.0 - (phi - lo) / (hi - lo)
