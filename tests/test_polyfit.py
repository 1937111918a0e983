"""Basis expansion, least-squares fitting, and analytic derivatives."""

from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from localexplain.polyfit import (
    FitError,
    MonomialBasis,
    expand_basis,
    lstsq_min_norm,
)


def weighted_fit(rows, targets, basis, weights=None):
    """The weighted least-squares fit of the basis to (rows, targets): coefficients, rss, rank."""
    sw = np.ones(len(targets)) if weights is None else np.sqrt(weights)
    Xw, yw = basis.design_matrix(rows) * sw[:, None], targets * sw
    coefficients, rank = lstsq_min_norm(Xw, yw)
    residuals = yw - Xw @ coefficients
    return SimpleNamespace(
        coefficients=coefficients, rss=float(residuals @ residuals), effective_rank=rank
    )


def random_fit(rng, num_columns, degree):
    """A basis and the coefficients fitted to exact values of a random polynomial in it."""
    basis = expand_basis(num_columns, degree)
    rows = rng.uniform(-1.5, 1.5, size=(basis.q * 3, num_columns))
    targets = basis.design_matrix(rows) @ rng.normal(size=basis.q)
    return basis, weighted_fit(rows, targets, basis).coefficients


class TestExpandBasis:
    def test_two_columns_degree_two(self):
        basis = expand_basis(2, 2)
        assert basis.q == 6
        expected = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        assert [tuple(t) for t in basis.exponents] == expected

    def test_binary_powers_deduplicated(self):
        basis = expand_basis(2, 2, binary_mask=np.array([False, True]))
        # {1, x, b, x^2, xb}: b^2 collapses into b
        assert basis.q == 5
        assert [tuple(t) for t in basis.exponents] == [
            (0, 0), (1, 0), (0, 1), (2, 0), (1, 1),
        ]

    def test_linear_case_q_is_d_plus_one(self):
        for d in (1, 2, 5, 9):
            assert expand_basis(d, 1).q == d + 1

    def test_term_count_matches_combinatorics(self):
        # no binary caps: q = C(d + k, k)
        from math import comb
        for d, k in [(1, 3), (2, 4), (3, 2), (6, 4)]:
            assert expand_basis(d, k).q == comb(d + k, k)

    def test_degree_zero_rejected(self):
        with pytest.raises(FitError):
            expand_basis(2, 0)

    def test_built_once_per_width_degree_and_mask(self):
        mask = np.array([False, True, True])
        basis = expand_basis(3, 2, mask)
        assert expand_basis(3, 2, mask.copy()) is basis
        assert expand_basis(3, 2) is not basis and expand_basis(3, 3, mask) is not basis
        with pytest.raises(ValueError, match="read-only"):
            basis.exponents[0, 0] = 1
        exponents = np.zeros((1, 2), dtype=np.int64)
        MonomialBasis(exponents)
        exponents[0, 0] = 1  # the caller's array stays writable

    def test_matches_bruteforce_enumeration(self):
        # every exponent vector, capped on indicator columns, sorted graded-lex
        rng = np.random.default_rng(25)
        for _ in range(40):
            d, k = int(rng.integers(1, 8)), int(rng.integers(1, 5))
            binary = rng.random(d) < 0.4
            terms = [
                e for e in product(range(k + 1), repeat=d)
                if sum(e) <= k and all(x <= 1 for x, b in zip(e, binary) if b)
            ]
            terms.sort(key=lambda e: (sum(e), tuple(-x for x in e)))
            basis = expand_basis(d, k, binary)
            assert [tuple(t) for t in basis.exponents] == terms


class TestDesignMatrix:
    def test_bit_identical_to_per_term_product(self):
        # per term, multiply the repeated-multiplication powers in column order
        rng = np.random.default_rng(26)
        for _ in range(60):
            d, k = int(rng.integers(1, 8)), int(rng.integers(1, 5))
            binary = rng.random(d) < 0.4
            basis = expand_basis(d, k, binary)
            rows = rng.uniform(-3, 3, size=(int(rng.integers(1, 71)), d))
            rows[:, binary] = rng.integers(0, 2, size=(rows.shape[0], int(binary.sum())))
            powers = [[np.ones(len(rows))] for _ in range(d)]
            for c in range(d):
                for _ in range(k):
                    powers[c].append(powers[c][-1] * rows[:, c])
            oracle = np.ones((len(rows), basis.q))
            for t, term in enumerate(basis.exponents):
                for c, e in enumerate(term):
                    if e:
                        oracle[:, t] *= powers[c][e]
            assert np.array_equal(basis.design_matrix(rows), oracle)

    def test_wrong_width_rejected(self):
        basis = expand_basis(2, 2)
        with pytest.raises(FitError):
            basis.design_matrix(np.zeros((3, 3)))
        with pytest.raises(FitError):
            basis.derivative_row(np.zeros(3), 0)
        for column in (-1, 2):
            with pytest.raises(FitError):
                basis.derivative_row(np.zeros(2), column)


class TestFit:
    def test_exact_line(self):
        rows = np.array([[0.0], [1.0], [2.0]])
        targets = np.array([1.0, 3.0, 5.0])
        s = weighted_fit(rows, targets, expand_basis(1, 1))
        np.testing.assert_allclose(s.coefficients, [1.0, 2.0], atol=1e-12)
        assert s.rss == pytest.approx(0.0, abs=1e-20)

    def test_recovers_exact_polynomial(self):
        rng = np.random.default_rng(21)
        for d, k in [(1, 3), (2, 2), (3, 4)]:
            basis = expand_basis(d, k)
            truth = rng.normal(size=basis.q)
            rows = rng.uniform(-2, 2, size=(basis.q + 10, d))
            targets = basis.design_matrix(rows) @ truth
            s = weighted_fit(rows, targets, basis)
            np.testing.assert_allclose(s.coefficients, truth, rtol=1e-8, atol=1e-10)

    def test_zero_weight_drops_point(self):
        rows = np.array([[0.0], [1.0], [2.0]])
        targets = np.array([0.0, 1.0, 9.0])
        s = weighted_fit(rows, targets, expand_basis(1, 1), weights=np.array([1.0, 1.0, 0.0]))
        np.testing.assert_allclose(s.coefficients, [0.0, 1.0], atol=1e-12)

    def test_residuals_orthogonal_to_weighted_columns(self):
        rng = np.random.default_rng(22)
        basis = expand_basis(2, 2)
        rows = rng.normal(size=(40, 2))
        targets = rng.normal(size=40)
        weights = rng.uniform(0.1, 2.0, size=40)
        s = weighted_fit(rows, targets, basis, weights=weights)
        X = basis.design_matrix(rows)
        r = targets - X @ s.coefficients
        gram = X.T @ (weights * r)
        assert np.abs(gram).max() <= 1e-8 * np.linalg.norm(targets)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(23)
        basis = expand_basis(2, 3)
        rows = rng.normal(size=(30, 2))
        targets = rng.normal(size=30)
        s1 = weighted_fit(rows, targets, basis)
        perm = rng.permutation(30)
        s2 = weighted_fit(rows[perm], targets[perm], basis)
        np.testing.assert_allclose(s1.coefficients, s2.coefficients, rtol=1e-10, atol=1e-12)

    def test_minimum_norm_on_rank_deficient_rows(self):
        basis = expand_basis(1, 3)
        rows = np.array([[1.0], [2.0]])
        targets = np.array([1.0, 4.0])
        s = weighted_fit(rows, targets, basis)
        assert s.effective_rank == 2
        # interpolates despite the rank deficiency
        np.testing.assert_allclose(basis.design_matrix(rows) @ s.coefficients, targets, atol=1e-9)

    def test_fitted_values_match_rss(self):
        rng = np.random.default_rng(24)
        basis = expand_basis(2, 2)
        rows = rng.normal(size=(25, 2))
        targets = rng.normal(size=25)
        s = weighted_fit(rows, targets, basis)
        X = basis.design_matrix(rows)
        resid = targets - X @ s.coefficients
        assert s.rss == pytest.approx(float(resid @ resid), rel=1e-9)


class TestEvaluate:
    def test_zero_polynomial(self):
        basis = expand_basis(2, 2)
        assert basis.basis_row(np.array([0.7, -2.0])) @ np.zeros(basis.q) == 0.0

    def test_line_value(self):
        basis = expand_basis(1, 1)
        coef = weighted_fit(np.array([[0.0], [1.0]]), np.array([1.0, 3.0]), basis).coefficients
        assert basis.basis_row(np.array([3.0])) @ coef == pytest.approx(7.0, abs=1e-12)

    def test_matches_bruteforce_term_sum(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            k = int(rng.integers(1, 5))
            basis, coef = random_fit(rng, d, k)
            point = rng.uniform(-1, 1, size=d)
            brute = sum(
                c * np.prod([point[j] ** e for j, e in enumerate(term)])
                for c, term in zip(coef, basis.exponents)
            )
            assert basis.basis_row(point) @ coef == pytest.approx(float(brute), rel=1e-10, abs=1e-12)


class TestDerivatives:
    def test_linear_derivative_constant(self):
        basis = expand_basis(1, 1)
        coef = weighted_fit(np.array([[0.0], [1.0]]), np.array([1.0, 3.0]), basis).coefficients
        for x in (-3.0, 0.0, 11.0):
            assert basis.derivative_row(np.array([x]), 0) @ coef == pytest.approx(2.0, abs=1e-12)

    def test_power_rule(self):
        basis = expand_basis(1, 2)
        rows = np.array([[0.0], [1.0], [2.0]])
        coef = weighted_fit(rows, rows[:, 0] ** 2, basis).coefficients
        assert basis.derivative_row(np.array([3.0]), 0) @ coef == pytest.approx(6.0, abs=1e-9)

    def test_matches_central_finite_difference(self):
        rng = np.random.default_rng(31)
        h = 1e-5
        for _ in range(40):
            d = int(rng.integers(1, 4))
            k = int(rng.integers(1, 5))
            basis, coef = random_fit(rng, d, k)
            point = rng.uniform(-1, 1, size=d)
            col = int(rng.integers(0, d))
            hi = point.copy(); hi[col] += h
            lo = point.copy(); lo[col] -= h
            fd = (basis.basis_row(hi) @ coef - basis.basis_row(lo) @ coef) / (2 * h)
            pd = basis.derivative_row(point, col) @ coef
            assert pd == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_loading_vector_univariate(self):
        basis = expand_basis(1, 2)  # {1, x, x^2}
        v = basis.derivative_row(np.array([2.0]), 0)
        np.testing.assert_allclose(v, [0.0, 1.0, 4.0])

    def test_loading_vector_linear(self):
        basis = expand_basis(1, 1)
        for x in (-1.0, 0.0, 5.0):
            np.testing.assert_allclose(basis.derivative_row(np.array([x]), 0), [0.0, 1.0])

    def test_loading_zero_for_absent_column(self):
        basis = expand_basis(2, 1)  # {1, x1, x2}; x2 never interacts with x1 terms
        v_mixed = basis.derivative_row(np.array([0.3, 0.4]), 1)
        np.testing.assert_allclose(v_mixed, [0.0, 0.0, 1.0])
        # terms without the column are +0.0, also where their other factors are negative
        v = expand_basis(2, 2).derivative_row(np.array([-0.3, 0.4]), 1)
        assert not np.signbit(v[[0, 1, 3]]).any() and (v[[0, 1, 3]] == 0).all()


class TestMinNormSolver:
    def test_agrees_with_numpy_on_full_rank(self):
        rng = np.random.default_rng(33)
        X = rng.normal(size=(50, 8))
        y = rng.normal(size=50)
        ours, rank = lstsq_min_norm(X, y)
        ref = np.linalg.lstsq(X, y, rcond=None)[0]
        assert rank == 8
        np.testing.assert_allclose(ours, ref, rtol=1e-9, atol=1e-12)

    def test_minimum_norm_under_rank_deficiency(self):
        rng = np.random.default_rng(34)
        X = rng.normal(size=(10, 4))
        X = np.hstack([X, X[:, :2]])  # duplicated columns -> rank 4
        y = rng.normal(size=10)
        ours, rank = lstsq_min_norm(X, y)
        ref = np.linalg.lstsq(X, y, rcond=None)[0]  # gelsd minimum-norm
        assert rank == 4
        np.testing.assert_allclose(ours, ref, rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize(
        "shape, dependent",
        [
            ((50, 8), False),  # overdetermined
            ((12, 12), False),  # square
            ((59, 104), False),  # underdetermined, the paper's replicate size
            ((40, 10), True),  # rank-deficient, overdetermined
            ((8, 20), True),  # rank-deficient, underdetermined
            ((1, 6), False),  # single row
            ((1, 1), False),
        ],
    )
    def test_bit_identical_to_scipy_gelsy(self, shape, dependent):
        rng = np.random.default_rng(35)
        # several draws of one shape: the cached workspace and a fresh
        # pivot vector must give the same answer on every call
        for _ in range(5):
            if dependent:
                X = rng.normal(size=(shape[0], 4)) @ rng.normal(size=(4, shape[1]))
            else:
                X = rng.normal(size=shape)
            y = rng.normal(size=shape[0])
            ours, rank = lstsq_min_norm(X, y)
            ref, _, ref_rank, _ = scipy.linalg.lstsq(
                X, y, lapack_driver="gelsy", check_finite=False
            )
            np.testing.assert_array_equal(ours, ref)
            assert rank == ref_rank
            assert (rank < min(shape)) if dependent else (rank == min(shape))
            assert ours.shape == (shape[1],)

    def test_inputs_left_untouched(self):
        rng = np.random.default_rng(36)
        X = rng.normal(size=(6, 9))
        y = rng.normal(size=6)
        X0, y0 = X.copy(), y.copy()
        lstsq_min_norm(X, y)
        np.testing.assert_array_equal(X, X0)
        np.testing.assert_array_equal(y, y0)

    def test_target_shape_mismatch_rejected(self):
        with pytest.raises(FitError):
            lstsq_min_norm(np.ones((4, 2)), np.ones(3))
