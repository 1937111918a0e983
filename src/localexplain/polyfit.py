"""Multivariate polynomial bases and (weighted) least-squares surrogates.

The basis enumerates every monomial of total degree <= k over the encoded
numeric columns, including all interaction terms, in graded-lexicographic
order.  Exponents on indicator (one-hot) columns are capped at 1 since
b^2 = b would only duplicate columns and guarantee a singular normal matrix.

Fitting goes through a rank-revealing orthogonal solve (LAPACK gelsy,
called directly) rather than a literal (X^T X)^{-1} X^T y: small local
neighborhoods with one-hot columns are frequently rank-deficient, and the
minimum-norm solution keeps those fits well-defined.  The effective rank and condition
number are surfaced in the fit diagnostics instead of failing the fit.

Every weighted fit is :func:`weighted_system` followed by
:func:`solve_system`; :func:`fit` applies both to a fresh design matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import get_lapack_funcs

#: Condition numbers above this are flagged in diagnostics so callers can
#: detect unstable explanations without the fit failing.
CONDITION_WARN = 1e10

_GELSY, _GELSY_LWORK = get_lapack_funcs(("gelsy", "gelsy_lwork"), (np.empty((1, 1)),))

#: gelsy's rank cutoff, the default ``cond`` of ``scipy.linalg.lstsq``.
_RCOND = float(np.finfo(np.float64).eps)


class FitError(ValueError):
    """Raised for unusable fit inputs (no rows, bad weights, shape mismatch)."""


@dataclass(frozen=True)
class MonomialBasis:
    """Ordered monomial terms over ``num_columns`` encoded columns.

    ``exponents`` has one row per term (the constant term first); row t of a
    design matrix holds prod_c x_c ** exponents[t, c].
    """

    exponents: np.ndarray
    binary_mask: np.ndarray
    degree: int

    @property
    def q(self) -> int:
        return self.exponents.shape[0]

    @property
    def num_columns(self) -> int:
        return self.exponents.shape[1]

    def design_matrix(self, rows: np.ndarray) -> np.ndarray:
        """Expand rows (n x num_columns) into the design matrix (n x q)."""
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.shape[1] != self.num_columns:
            raise FitError(
                f"rows have {rows.shape[1]} columns, basis expects {self.num_columns}"
            )
        n = rows.shape[0]
        # powers[c][e] = column c raised to e, shared across terms
        max_exp = self.exponents.max(axis=0) if self.q else np.zeros(0, dtype=int)
        powers = []
        for c in range(self.num_columns):
            col = rows[:, c]
            pows = [np.ones(n)]
            for _ in range(int(max_exp[c])):
                pows.append(pows[-1] * col)
            powers.append(pows)
        out = np.ones((n, self.q))
        for t, term in enumerate(self.exponents):
            for c, e in enumerate(term):
                if e:
                    out[:, t] *= powers[c][e]
        return out

    def basis_row(self, point: np.ndarray) -> np.ndarray:
        """Monomial values at a single point (the phi vector, length q)."""
        return self.design_matrix(np.asarray(point, dtype=float).reshape(1, -1))[0]

    def derivative_row(self, point: np.ndarray, column: int) -> np.ndarray:
        """Loading vector v with d/dx_column (beta . phi) = beta . v.

        Entry t is ``e * x_column**(e-1) * (other factors)`` for terms that
        contain the column, 0 otherwise.
        """
        point = np.asarray(point, dtype=float).reshape(-1)
        if point.shape[0] != self.num_columns:
            raise FitError("point dimension does not match basis")
        if not 0 <= column < self.num_columns:
            raise FitError(f"column {column} out of range")
        v = np.zeros(self.q)
        for t, term in enumerate(self.exponents):
            e = int(term[column])
            if e == 0:
                continue
            val = e * point[column] ** (e - 1)
            for c, ec in enumerate(term):
                if c != column and ec:
                    val *= point[c] ** int(ec)
            v[t] = val
        return v


def expand_basis(
    num_columns: int, degree: int, binary_mask: np.ndarray | None = None
) -> MonomialBasis:
    """All multi-indices of total degree <= ``degree`` with interaction terms.

    ``binary_mask`` marks indicator columns whose exponents are capped at 1
    (duplicates from b^e = b are dropped).  Terms come out in graded-lex
    order: by total degree, then earlier columns carry higher powers first.
    """
    if degree < 1:
        raise FitError("polynomial degree must be >= 1")
    if binary_mask is None:
        binary_mask = np.zeros(num_columns, dtype=bool)
    binary_mask = np.asarray(binary_mask, dtype=bool)
    if binary_mask.shape != (num_columns,):
        raise FitError("binary_mask length must equal num_columns")
    seen: set[tuple[int, ...]] = set()
    terms: list[tuple[int, ...]] = []
    for total in range(degree + 1):
        for combo in combinations_with_replacement(range(num_columns), total):
            exp = [0] * num_columns
            for c in combo:
                exp[c] += 1
            capped = tuple(min(e, 1) if binary_mask[c] else e for c, e in enumerate(exp))
            if capped != tuple(exp):
                continue  # a capped duplicate of a lower-degree term
            if capped not in seen:
                seen.add(capped)
                terms.append(capped)
    terms.sort(key=lambda e: (sum(e), tuple(-x for x in e)))
    exponents = np.array(terms, dtype=np.int64).reshape(len(terms), num_columns)
    return MonomialBasis(exponents=exponents, binary_mask=binary_mask, degree=degree)


@dataclass(frozen=True)
class FitDiagnostics:
    """Residual sum of squares and rank information for a fitted surrogate.

    ``rss`` is the minimized objective (weighted when weights were used).
    ``condition`` is the 2-norm condition number of the (weighted) design
    matrix; ``ill_conditioned`` flags values above 1e10.
    """

    rss: float
    effective_rank: int
    condition: float
    n_rows: int
    n_terms: int

    @property
    def ill_conditioned(self) -> bool:
        return not np.isfinite(self.condition) or self.condition > CONDITION_WARN


@dataclass(frozen=True)
class PolynomialSurrogate:
    """A fitted local polynomial: basis, coefficient vector, diagnostics."""

    basis: MonomialBasis
    coefficients: np.ndarray
    degree: int
    diagnostics: FitDiagnostics

    def evaluate(self, point: np.ndarray) -> float:
        """Value of the polynomial at ``point`` (encoded-column space)."""
        return float(self.basis.basis_row(point) @ self.coefficients)

    def partial_derivative(self, column: int, point: np.ndarray) -> float:
        """Analytic partial derivative with respect to an encoded column."""
        return float(self.basis.derivative_row(point, column) @ self.coefficients)


@functools.lru_cache(maxsize=None)
def _gelsy_lwork(m: int, n: int) -> int:
    """Optimal gelsy workspace for an m x n system with one right-hand side."""
    work, info = _GELSY_LWORK(m, n, 1, _RCOND)
    if info != 0:
        raise FitError(f"gelsy workspace query failed (info={info})")
    return int(work)


def lstsq_min_norm(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, int]:
    """Minimum-norm least-squares solution and effective rank.

    Calls LAPACK dgelsy (column-pivoted complete orthogonal factorization)
    directly: it is considerably faster than the SVD driver at the sizes seen
    in bootstrap replicates, and the direct call skips the per-call input
    validation and workspace query of ``scipy.linalg.lstsq``.  The workspace
    size is cached per shape; ``b`` is padded to max(m, n) and the rank
    cutoff is float64 eps, as in ``scipy.linalg.lstsq(...,
    lapack_driver="gelsy")``, so coefficients and rank are bit-identical to
    that call.
    """
    m, n = X.shape
    if np.shape(y) != (m,):
        raise FitError(f"targets have shape {np.shape(y)}, expected ({m},)")
    b = np.zeros(max(m, n))
    b[:m] = y
    # jpvt is in/out: a nonzero entry pins that column first, so it must
    # start zeroed on every call
    jpvt = np.zeros(n, dtype=np.int32)
    _, x, _, rank, info = _GELSY(X, b, jpvt, _RCOND, _gelsy_lwork(m, n), False, True)
    if info < 0:
        raise FitError(f"illegal value in argument {-info} of gelsy")
    return x[:n], int(rank)


def weighted_system(
    X: np.ndarray, targets: np.ndarray, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Design matrix and targets scaled row-wise by sqrt-weights.

    Ordinary least squares on the result minimizes
    ``sum_i w_i (y_i - X_i . beta)^2``.  ``weights=None`` means unit
    weights and returns the inputs unchanged.
    """
    if weights is None:
        return X, targets
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if weights.shape[0] != X.shape[0]:
        raise FitError("weight count does not match row count")
    if (weights < 0).any():
        raise FitError("weights must be nonnegative")
    if not (weights > 0).any():
        raise FitError("all weights are zero")
    sw = np.sqrt(weights)
    return X * sw[:, None], targets * sw


def solve_system(Xw: np.ndarray, yw: np.ndarray, basis: MonomialBasis) -> PolynomialSurrogate:
    """The minimum-norm fit of an already weighted design matrix, with diagnostics."""
    coef, rank = lstsq_min_norm(Xw, yw)
    residuals = yw - Xw @ coef
    # condition of the subproblem actually solved: largest over rank-th
    # singular value, so interpolating rank-deficient fits are not flagged
    # merely for having a null space
    sv = scipy.linalg.svdvals(Xw)
    condition = float(sv[0] / sv[rank - 1]) if rank >= 1 and sv[rank - 1] > 0 else np.inf
    diagnostics = FitDiagnostics(
        rss=float(residuals @ residuals),
        effective_rank=rank,
        condition=condition,
        n_rows=Xw.shape[0],
        n_terms=basis.q,
    )
    return PolynomialSurrogate(
        basis=basis, coefficients=coef, degree=basis.degree, diagnostics=diagnostics
    )


def fit(
    rows: np.ndarray,
    targets: np.ndarray,
    basis: MonomialBasis,
    weights: np.ndarray | None = None,
) -> PolynomialSurrogate:
    """Weighted least-squares fit of the basis to (rows, targets).

    Minimizes ``sum_i w_i (y_i - g(x_i))^2`` (w_i = 1 when unweighted).
    Rank-deficient systems get the minimum-norm solution; see
    :class:`FitDiagnostics` for the effective rank and conditioning.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    targets = np.asarray(targets, dtype=float).reshape(-1)
    if rows.shape[0] == 0:
        raise FitError("no rows to fit")
    if rows.shape[0] != targets.shape[0]:
        raise FitError("row count does not match target count")
    if not (np.all(np.isfinite(rows)) and np.all(np.isfinite(targets))):
        raise FitError("fit inputs contain non-finite values")
    Xw, yw = weighted_system(basis.design_matrix(rows), targets, weights)
    return solve_system(Xw, yw, basis)
