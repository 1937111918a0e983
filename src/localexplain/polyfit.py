"""Multivariate polynomial bases and (weighted) least-squares fits.

The basis enumerates every monomial of total degree <= k over the encoded
numeric columns, including all interaction terms, in graded-lexicographic
order.  Exponents on indicator (one-hot) columns are capped at 1 since
b^2 = b would only duplicate columns and guarantee a singular normal matrix.

Every local fit is the minimum-norm least-squares solution, never a literal
(X^T X)^{-1} X^T y: small local neighborhoods with one-hot columns are
frequently rank-deficient, and the minimum norm keeps those fits defined; a
:class:`PointFit` reports their rank and condition number rather than failing.
A weighted fit solves rows and targets scaled by square-root weights.

``LocalProblem.solve_rows`` solves a problem's point fit and bootstrap
replicates, mostly from one SVD of its rows; :func:`lstsq_min_norm`, one
direct LAPACK gelsy call, solves the subsets it leaves over and the naive
interval's unweighted fit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

#: Condition numbers above this are flagged in diagnostics so callers can
#: detect unstable explanations without the fit failing.
CONDITION_WARN = 1e10

_GELSY, _GELSY_LWORK = get_lapack_funcs(("gelsy", "gelsy_lwork"), (np.empty((1, 1)),))

#: gelsy's rank cutoff, the default ``cond`` of ``scipy.linalg.lstsq``.
_RCOND = float(np.finfo(np.float64).eps)


class FitError(ValueError):
    """Raised for unusable fit inputs (shape mismatch, bad basis spec)."""


@dataclass(frozen=True)
class MonomialBasis:
    """Ordered monomial terms over ``num_columns`` encoded columns.

    ``exponents`` has one row per term (the constant term first); row t of a
    design matrix holds prod_c x_c ** exponents[t, c].  The basis holds a
    read-only view of it, so one basis can be shared by every problem.
    """

    exponents: np.ndarray

    def __post_init__(self):
        exponents = np.asarray(self.exponents).view()
        exponents.flags.writeable = False
        object.__setattr__(self, "exponents", exponents)

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
        # powers by repeated multiplication, factors in column order (x**0 is an exact 1.0)
        out = np.ones((rows.shape[0], self.q))
        for c, top in enumerate(self.exponents.max(axis=0, initial=0)):
            powers = [np.ones(rows.shape[0])]
            for _ in range(top):
                powers.append(powers[-1] * rows[:, c])
            out *= np.column_stack(powers)[:, self.exponents[:, c]]
        return out

    def basis_row(self, point: np.ndarray) -> np.ndarray:
        """Monomial values at a single point (the phi vector, length q)."""
        return self.design_matrix(np.asarray(point, dtype=float).reshape(1, -1))[0]

    def derivative_row(self, point: np.ndarray, column: int) -> np.ndarray:
        """Loading vector v with d/dx_column (beta . phi) = beta . v.

        Entry t is ``e * x_column**(e-1) * (other factors)`` for terms that
        contain the column (the basis with that exponent lowered), 0 otherwise.
        """
        if not 0 <= column < self.num_columns:
            raise FitError(f"column {column} out of range")
        e = self.exponents[:, column]
        lowered = self.exponents.copy()
        lowered[:, column] = np.maximum(e - 1, 0)
        return np.where(e > 0, e * MonomialBasis(lowered).basis_row(point), 0.0)


def expand_basis(
    num_columns: int, degree: int, binary_mask: np.ndarray | None = None
) -> MonomialBasis:
    """All multi-indices of total degree <= ``degree`` with interaction terms.

    ``binary_mask`` marks indicator columns whose exponents are capped at 1
    (b^e = b would duplicate b).  ``combinations_with_replacement`` yields
    the terms in graded-lex order: by total degree, then earlier columns
    carry higher powers first.  A basis is built once per (columns, degree,
    mask) and shared, the 64 most recently used being kept; its exponents
    are read-only.
    """
    if degree < 1:
        raise FitError("polynomial degree must be >= 1")
    if binary_mask is None:
        binary_mask = np.zeros(num_columns, dtype=bool)
    binary_mask = np.asarray(binary_mask, dtype=bool)
    if binary_mask.shape != (num_columns,):
        raise FitError("binary_mask length must equal num_columns")
    return _expand_basis(num_columns, degree, tuple(np.flatnonzero(binary_mask).tolist()))


@functools.lru_cache(maxsize=64)
def _expand_basis(num_columns: int, degree: int, binary: tuple[int, ...]) -> MonomialBasis:
    terms: list[list[int]] = []
    for total in range(degree + 1):
        for combo in combinations_with_replacement(range(num_columns), total):
            exp = [0] * num_columns
            for c in combo:
                exp[c] += 1
            if all(exp[c] <= 1 for c in binary):
                terms.append(exp)
    return MonomialBasis(np.array(terms, dtype=np.int64).reshape(len(terms), num_columns))


@dataclass(frozen=True)
class PointFit:
    """Minimum-norm coefficients of one least-squares fit, with diagnostics.

    ``rss`` is the minimized objective (weighted when weights were used).
    ``condition`` is the (weighted) design matrix's largest singular value
    over its ``effective_rank``-th, taken on the nonzero rows and columns,
    which have the same nonzero singular values; ``ill_conditioned`` flags
    values above 1e10.
    """

    coefficients: np.ndarray
    rss: float
    effective_rank: int
    condition: float

    @property
    def ill_conditioned(self) -> bool:
        return not np.isfinite(self.condition) or self.condition > CONDITION_WARN


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

