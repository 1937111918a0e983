"""Neighborhood selection, balancing, and regression weights."""

import math

import numpy as np
import pytest

from localexplain import neighborhood
from localexplain.data import DataError, FeatureSchema, FeatureSpec, QueryDataset
from localexplain.neighborhood import (
    BalanceError,
    Neighborhood,
    QueryPoint,
    compute_weights,
    select_neighborhood,
)


def numeric_dataset(values):
    values = np.asarray(values, dtype=float)
    schema = FeatureSchema((FeatureSpec("x", "continuous"),))
    return QueryDataset(
        schema, values.reshape(-1, 1), np.zeros((len(values), 0), dtype=np.int64),
        np.zeros(len(values)),
    )


def categorical_dataset(values, labels, baseline="base"):
    values = np.asarray(values, dtype=float)
    cats = tuple(dict.fromkeys([baseline, *labels]))
    schema = FeatureSchema(
        (
            FeatureSpec("x", "continuous"),
            FeatureSpec("cls", "categorical", categories=cats, baseline=baseline),
        )
    )
    codes = np.array([[cats.index(lb)] for lb in labels], dtype=np.int64)
    return QueryDataset(schema, values.reshape(-1, 1), codes, np.zeros(len(values)))


def query(dataset, x, **cat):
    values = {"x": x, **cat}
    return QueryPoint.from_mapping(dataset.schema, values)


class TestSelection:
    def test_nearest_two(self):
        ds = numeric_dataset([0.0, 1.0, 2.0, 10.0])
        nb = select_neighborhood(ds, query(ds, 0.4), m=2, balance=False)
        assert sorted(nb.member_indices.tolist()) == [0, 1]

    def test_balance_degenerates_when_query_is_baseline(self):
        ds = categorical_dataset([0, 1, 2, 3], ["base", "other", "base", "other"])
        q = query(ds, 0.0, cls="base")
        balanced = select_neighborhood(ds, q, m=3, balance=True)
        plain = select_neighborhood(ds, q, m=3, balance=False)
        np.testing.assert_array_equal(balanced.member_indices, plain.member_indices)

    def test_greedy_balanced_scan(self):
        # baseline rows at distances 1,2,3 and query-class rows at 4,5,6;
        # with m=4 the class caps are 2, so the scan keeps {1,2,4,5}
        ds = categorical_dataset(
            [1, 2, 3, 4, 5, 6], ["base", "base", "base", "qc", "qc", "qc"]
        )
        nb = select_neighborhood(ds, query(ds, 0.0, cls="qc"), m=4, balance=True)
        np.testing.assert_allclose(sorted(nb.distances.tolist()), [1.0, 2.0, 4.0, 5.0])

    def test_matches_brute_force_without_balance(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=200)
        ds = numeric_dataset(values)
        q = query(ds, 0.3)
        nb = select_neighborhood(ds, q, m=17, balance=False)
        brute = np.argsort(np.abs(values - 0.3), kind="stable")[:17]
        np.testing.assert_array_equal(np.sort(nb.member_indices), np.sort(brute))
        assert (np.diff(nb.distances) >= 0).all()

    def test_far_point_does_not_change_selection(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=50)
        ds = numeric_dataset(values)
        nb = select_neighborhood(ds, query(ds, 0.0), m=10, balance=False)
        ds2 = numeric_dataset(np.append(values, 1e6))
        nb2 = select_neighborhood(ds2, query(ds2, 0.0), m=10, balance=False)
        np.testing.assert_array_equal(nb.member_indices, nb2.member_indices)

    def test_distance_ties_broken_by_row_index(self):
        ds = numeric_dataset([1.0, -1.0, 1.0, -1.0])
        nb = select_neighborhood(ds, query(ds, 0.0), m=2, balance=False)
        np.testing.assert_array_equal(nb.member_indices, [0, 1])

    def test_m_larger_than_n_rejected(self):
        ds = numeric_dataset([0.0, 1.0])
        with pytest.raises(DataError):
            select_neighborhood(ds, query(ds, 0.0), m=3)

    def test_infeasible_balance_names_feature_and_class(self):
        ds = categorical_dataset([1, 2, 3, 4, 5], ["base", "base", "base", "base", "qc"])
        with pytest.raises(BalanceError) as err:
            select_neighborhood(ds, query(ds, 0.0, cls="qc"), m=4, balance=True)
        assert err.value.feature == "cls"
        assert err.value.label == "qc"

    def test_fallback_fills_from_nearest_skipped(self):
        ds = categorical_dataset([1, 2, 3, 4, 5], ["base", "base", "base", "base", "qc"])
        nb = select_neighborhood(ds, query(ds, 0.0, cls="qc"), m=4, balance=True, fallback=True)
        assert nb.balance_fallback_used
        assert nb.m == 4
        # caps admit base rows 1,2 and the sole qc row; nearest skipped base row fills slot 4
        np.testing.assert_array_equal(nb.member_indices, [0, 1, 2, 4])
        np.testing.assert_allclose(nb.distances, [1.0, 2.0, 3.0, 5.0])
        assert (np.diff(nb.distances) >= 0).all()


def full_sort_selection(dataset, query, m, balance=True, fallback=False):
    """Reference selection: the balanced scan over the full stable argsort of all n distances."""
    diffs = dataset.numeric - query.numeric
    distances = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
    order = np.argsort(distances, kind="stable")
    constrained = []
    for j, spec in enumerate(dataset.schema.categorical_features):
        base_code, query_code = spec.categories.index(spec.baseline), int(query.codes[j])
        if balance and query_code != base_code:
            constrained.append((spec.name, j, base_code, query_code))
    if not constrained:
        return Neighborhood(order[:m], distances[order[:m]])
    quota = math.ceil(m / 2)
    counts = np.zeros((len(constrained), 2), dtype=int)
    selected, skipped = [], []
    for pos, idx in enumerate(order):
        if len(selected) == m:
            break
        marks = []
        for ci, (_, j, base_code, query_code) in enumerate(constrained):
            code = dataset.codes[idx, j]
            side = 0 if code == base_code else 1 if code == query_code else None
            if (counts[ci, side] >= quota) if side is not None else (counts[ci] >= quota).any():
                skipped.append(pos)
                break
            if side is not None:
                marks.append((ci, side))
        else:
            selected.append(pos)
            for ci, side in marks:
                counts[ci, side] += 1
    if len(selected) < m:
        if not fallback:
            for ci, (name, _, base_code, query_code) in enumerate(constrained):
                for side, code in ((0, base_code), (1, query_code)):
                    if counts[ci, side] < quota:
                        label = dataset.schema.feature(name).categories[code]
                        raise BalanceError(name, label, int(counts[ci, side]), quota)
        selected = sorted(selected + skipped[: m - len(selected)])
        return Neighborhood(order[selected], distances[order[selected]], True)
    return Neighborhood(order[selected], distances[order[selected]])


def random_case(rng):
    """A table with integer-valued features (many distance ties) and one rare class."""
    n = int(rng.integers(20, 3000))
    schema = FeatureSchema((
        FeatureSpec("x1", "continuous"),
        FeatureSpec("x2", "ordinal"),
        FeatureSpec("a", "categorical", categories=("p", "q", "r"), baseline="p"),
        FeatureSpec("b", "categorical", categories=("s", "t", "u", "v"), baseline="s"),
    ))
    numeric = rng.integers(0, 4, size=(n, 2)).astype(float)
    codes = np.column_stack([
        rng.choice(3, size=n, p=[0.6, 0.3, 0.1]),
        rng.choice(4, size=n, p=[0.9, 0.05, 0.03, 0.02]),
    ])
    dataset = QueryDataset(schema, numeric, codes, np.zeros(n))
    query = QueryPoint(numeric=rng.integers(0, 4, size=2).astype(float),
                       codes=np.array([rng.integers(3), rng.choice(4, p=[0.2, 0.2, 0.2, 0.4])]))
    m = int(rng.integers(1, min(n, 80) + 1))
    return dataset, query, m


class TestPrefixParity:
    def test_matches_full_sort_selection(self, monkeypatch):
        prefixes = []
        nearest_first = neighborhood._nearest_first

        def counted(distances, size):
            prefixes.append(size)
            return nearest_first(distances, size)

        monkeypatch.setattr(neighborhood, "_nearest_first", counted)
        rng = np.random.default_rng(2024)
        outcomes = {"grown": 0, "error": 0, "fallback": 0}
        for _ in range(400):
            dataset, query, m = random_case(rng)
            balance, fallback = bool(rng.integers(2)), bool(rng.integers(2))
            prefixes.clear()
            try:
                expected = full_sort_selection(dataset, query, m, balance, fallback)
            except BalanceError as exc:
                with pytest.raises(BalanceError) as err:
                    select_neighborhood(dataset, query, m, balance, fallback)
                assert str(err.value) == str(exc)
                assert (err.value.feature, err.value.label) == (exc.feature, exc.label)
                outcomes["error"] += 1
                continue
            got = select_neighborhood(dataset, query, m, balance, fallback)
            np.testing.assert_array_equal(got.member_indices, expected.member_indices)
            np.testing.assert_array_equal(got.distances, expected.distances)
            assert got.balance_fallback_used == expected.balance_fallback_used
            outcomes["grown"] += len(prefixes) > 1
            outcomes["fallback"] += got.balance_fallback_used
        # the random cases reach every branch: a grown prefix, an error and a fallback
        assert min(outcomes.values()) >= 10, outcomes


class TestWeights:
    def test_evenly_spaced(self):
        np.testing.assert_allclose(compute_weights(np.array([0.0, 1.0, 2.0])), [1.0, 0.5, 0.0])

    def test_all_equal_fall_back_to_uniform(self):
        np.testing.assert_allclose(compute_weights(np.array([3.0, 3.0, 3.0])), [1.0, 1.0, 1.0])

    def test_endpoints(self):
        np.testing.assert_allclose(compute_weights(np.array([0.25, 4.0])), [1.0, 0.0])

    def test_monotone_nonincreasing_in_distance(self):
        rng = np.random.default_rng(9)
        phi = np.sort(rng.uniform(0, 10, size=40))
        w = compute_weights(phi)
        assert (np.diff(w) <= 1e-15).all()
        assert w.min() >= 0.0 and w.max() == 1.0
