"""Neighborhood selection around a query point, with categorical balancing.

Rows are ranked by Euclidean distance between their numeric features and the
query's (distances are meaningful when both sides are in standardized units;
the explanation pipeline takes care of that).  When balancing is enabled,
a single greedy pass over the distance ordering keeps, for every categorical
feature whose query category differs from its baseline, the counts of the
baseline class and the query class within one of each other by capping both
classes at ceil(m/2) selections.

The ordering is never sorted in full.  ``np.partition`` finds the distance of
the s-th nearest row (s a small multiple of m), and only the rows at or below
it, ties included, are stable-sorted: an exact prefix of the full ordering
with ties broken by row index.  A balanced scan that runs past the prefix
grows it geometrically, up to the whole table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import DataError, FeatureSchema, QueryDataset, StandardizationStats


#: The nearest PREFIX_FACTOR * m rows are sorted first; a balanced scan that
#: runs past them sorts PREFIX_FACTOR times as many, up to the whole table.
PREFIX_FACTOR = 8


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
        numeric, codes = schema.encode_row(values)
        return cls(numeric=numeric, codes=codes)

    @classmethod
    def from_row(cls, dataset: QueryDataset, i: int) -> "QueryPoint":
        numeric, codes = dataset.row(i)
        return cls(numeric=numeric.copy(), codes=codes.copy())

    def standardized(self, stats: StandardizationStats) -> "QueryPoint":
        return QueryPoint(numeric=stats.transform(self.numeric), codes=self.codes)

    def as_mapping(self, schema: FeatureSchema) -> dict[str, float | str]:
        return schema.decode_row(self.numeric, self.codes)


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
    order = _nearest_first(distances, min(n, PREFIX_FACTOR * m))

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
    counts = [[0, 0] for _ in constrained]  # per constraint: baseline, query class
    selected: list[int] = []  # positions in ``order``, so ascending distance
    skipped: list[int] = []
    pos = 0
    while len(selected) < m and pos < n:
        if pos == len(order):
            order = _nearest_first(distances, min(n, PREFIX_FACTOR * pos))
        row = dataset.codes[order[pos]].tolist()
        marks = []
        for ci, (_, j, base_code, query_code) in enumerate(constrained):
            side = 0 if row[j] == base_code else 1 if row[j] == query_code else None
            # a row of neither class is only admissible while both caps are
            # open, so the remaining slots can still even the two classes out
            if (max(counts[ci]) if side is None else counts[ci][side]) >= quota:
                skipped.append(pos)
                break
            if side is not None:
                marks.append((ci, side))
        else:
            selected.append(pos)
            for ci, side in marks:
                counts[ci][side] += 1
        pos += 1

    fallback_used = False
    if len(selected) < m:
        if not fallback:
            # each member counts on at most one side of a constraint, so with
            # fewer than m <= 2 * quota members some side is short of its quota
            ci, side = np.argwhere(np.array(counts) < quota)[0]
            name, _, base_code, query_code = constrained[ci]
            label = dataset.schema.feature(name).categories[(base_code, query_code)[side]]
            raise BalanceError(feature=name, label=label, have=counts[ci][side], need=quota)
        fallback_used = True
        selected = sorted(selected + skipped[: m - len(selected)])

    chosen = order[selected]
    return Neighborhood(
        member_indices=chosen, distances=distances[chosen], balance_fallback_used=fallback_used
    )


def _nearest_first(distances: np.ndarray, size: int) -> np.ndarray:
    """The first ``size`` or more entries of ``np.argsort(distances, kind="stable")``.

    Partitions at the ``size``-th smallest distance and stable-sorts only the
    rows at or below it.  Ties with that distance are all kept, so the result
    is an exact prefix of the full stable order.
    """
    if size < len(distances):
        threshold = np.partition(distances, size - 1)[size - 1]
        prefix = np.flatnonzero(distances <= threshold)
        if len(prefix) >= size:  # fewer only if NaN distances reached the partition point
            return prefix[np.argsort(distances[prefix], kind="stable")]
    return np.argsort(distances, kind="stable")


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
