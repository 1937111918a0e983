"""Local explanation pipeline: neighborhood, surrogate fit, importance scores.

Given a dataset of recorded model inputs/outputs and a query point, the
pipeline standardizes the numeric features, one-hot encodes the categorical
ones, selects the m nearest rows (optionally class-balanced), fits a
degree-k polynomial surrogate with interaction terms, and reads per-feature
importance scores off the surrogate:

* continuous/ordinal features: the partial derivative at the query point
  (reported in raw feature units), or the symmetric function difference
  ``g(x+delta) - g(x-delta)``;
* categorical features: the baseline difference ``g(x) - g(x_base)`` with
  the feature switched to its baseline category.

When the recorded outputs are probabilities, targets are fit on the
log-odds scale and differences are mapped back through the inverse
transform before reporting; gradients are unavailable in that mode.

Every score is ``link(beta . plus) - link(beta . minus)`` for two fixed
basis-space vectors, so a problem's scores are two (q, n_scores) matrices
applied to the coefficient vector.  That is what makes bootstrap replicates
cheap: refit the coefficients on a sub-neighborhood and re-apply the same
matrices.  :meth:`LocalProblem.solve_rows` describes how the refits are
solved.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Mapping

import numpy as np

from .data import OneHotLayout, QueryDataset, from_log_odds, to_log_odds
from .neighborhood import Neighborhood, QueryPoint, compute_weights, select_neighborhood
from .polyfit import (
    MonomialBasis,
    PointFit,
    expand_basis,
    lstsq_min_norm,
    weighted_system,
)

GRADIENT = "gradient"
FUNCTION_DIFFERENCE = "function_difference"
BASELINE_DIFFERENCE = "baseline_difference"

#: Default perturbation step, as a fraction of a feature's raw sample
#: stddev, used when neither the schema nor the config supplies a delta.
DEFAULT_DELTA_FRACTION = 0.5

#: Replicates are solved by downdating the neighborhood's interpolant only
#: when its nonzero weighted rows have at most this condition number.  By
#: singular-value interlacing no replicate's rows are worse conditioned,
#: which keeps them 8 digits clear of gelsy's float64-eps rank cutoff.
ROW_CONDITION_MAX = 1e8

#: Upper bound on the bytes of one stack of columns that the downdate
#: factors in a single batched QR.  Larger stacks raise peak memory (the QR
#: holds several copies) and run no faster.
_DOWNDATE_CHUNK_BYTES = 1 << 17


def _condition(s: np.ndarray, rank: int) -> float:
    """Largest over ``rank``-th singular value; inf when that one is 0 or missing."""
    return float(s[0] / s[rank - 1]) if rank <= s.size and s[rank - 1] > 0 else math.inf


class ExplainError(RuntimeError):
    """Raised when an explanation cannot be produced (degenerate fit, bad config)."""


@dataclass(frozen=True)
class ExplainConfig:
    """Hyperparameters of a single explanation.

    ``kind`` picks the importance proxy for continuous/ordinal features;
    categorical features always use the baseline difference.  ``deltas``
    overrides perturbation steps per feature name.  ``categorical_mode="pairs"``
    reports one baseline difference per non-baseline category instead of
    only the query's own category.
    """

    degree: int
    m: int
    kind: str = FUNCTION_DIFFERENCE
    weighted: bool = True
    balance: bool = True
    balance_fallback: bool = False
    deltas: Mapping[str, float] = field(default_factory=dict)
    categorical_mode: str = "query"

    def __post_init__(self):
        if self.kind not in (GRADIENT, FUNCTION_DIFFERENCE):
            raise ExplainError(f"unknown importance kind {self.kind!r}")
        if self.degree < 1:
            raise ExplainError("polynomial degree must be >= 1")
        if self.m < 1:
            raise ExplainError("neighborhood size m must be >= 1")
        if self.categorical_mode not in ("query", "pairs"):
            raise ExplainError(f"unknown categorical_mode {self.categorical_mode!r}")


@dataclass(frozen=True)
class ImportanceScore:
    """One feature's local importance in model-output units."""

    feature: str
    value: float
    kind: str


@dataclass(frozen=True)
class NaiveInterval:
    """Closed-form z-interval for a derivative estimate, symmetric about it."""

    feature: str
    lower: float
    upper: float
    alpha: float
    standard_error: float


class LocalProblem:
    """All precomputed state for explaining one query point.

    Shared by the point estimate, the naive interval, and bootstrap
    replicates so that they agree on the neighborhood, basis, targets and
    score matrices.  Only the cached fits and ``notes`` (where
    :meth:`naive_interval` records a pseudo-inverse fallback) change after
    construction, deterministically, so instances are safe to share across threads.
    """

    def __init__(self, dataset: QueryDataset, query: QueryPoint, config: ExplainConfig):
        schema = dataset.schema
        self.config = config
        self.schema = schema
        self.log_odds = schema.output_kind == "probability"
        if self.log_odds and config.kind == GRADIENT:
            raise ExplainError(
                "gradient scores are unavailable with probability outputs; "
                "use function_difference"
            )
        std_dataset, stats = dataset.standardized
        self.stats = stats
        self.query = query
        self.query_std = query.standardized(stats)
        self.layout = OneHotLayout(schema)
        self.neighborhood: Neighborhood = select_neighborhood(
            std_dataset, self.query_std, config.m, balance=config.balance,
            fallback=config.balance_fallback,
        )
        members = self.neighborhood.member_indices
        rows = self.layout.encode(std_dataset.numeric[members], std_dataset.codes[members])
        targets = dataset.outputs[members]
        if self.log_odds:
            targets = np.asarray(to_log_odds(targets))
        self.basis: MonomialBasis = expand_basis(
            self.layout.width, config.degree, self.layout.binary_mask
        )
        self.X = self.basis.design_matrix(rows)
        self.y = targets
        weights = compute_weights(self.neighborhood.distances) if config.weighted else None
        self.Xw, self.yw = weighted_system(self.X, self.y, weights)
        nonzero = self.Xw != 0
        self.live_columns = np.flatnonzero(nonzero.any(axis=0))
        self.nonzero_rows = np.flatnonzero(nonzero.any(axis=1))
        self.query_enc = self.layout.encode(
            self.query_std.numeric.reshape(1, -1), self.query_std.codes.reshape(1, -1)
        )[0]
        self.deltas = self._resolve_deltas()
        self.score_names, self.score_kinds, self.plus, self.minus = self._score_matrices()
        self.notes: dict[str, object] = {}
        if self.nonzero_rows.size < self.live_columns.size:
            warnings.warn(
                f"{self.nonzero_rows.size} nonzero weighted rows (m={config.m}) are fewer than "
                f"the {self.live_columns.size} live basis terms (q={self.basis.q}); the local "
                "fit is underdetermined",
                RuntimeWarning,
                stacklevel=3,
            )

    # -- construction helpers ---------------------------------------------

    def _resolve_deltas(self) -> dict[str, float]:
        numeric = self.schema.numeric_features
        unknown = sorted(set(self.config.deltas) - {spec.name for spec in numeric})
        if unknown:
            raise ExplainError(f"delta given for {unknown[0]!r}, which is not a continuous/ordinal feature")
        deltas: dict[str, float] = {}
        for spec in numeric:
            if spec.name in self.config.deltas:
                delta = float(self.config.deltas[spec.name])
            elif spec.delta is not None:
                delta = spec.delta
            else:
                delta = DEFAULT_DELTA_FRACTION * self.stats.stddev(spec.name)
            if not (delta > 0 and math.isfinite(delta)):
                raise ExplainError(f"delta for feature {spec.name!r} must be positive and finite, got {delta!r}")
            deltas[spec.name] = delta
        return deltas

    def _score_matrices(self) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray, np.ndarray]:
        """Score names, kinds, and the (q, n_scores) ``plus``/``minus`` matrices.

        A gradient score is a derivative loading in ``plus`` against a zero
        column in ``minus``; a difference score holds the two basis rows.
        """
        config = self.config
        scores: list[tuple[str, str, np.ndarray, np.ndarray]] = []
        basis_row = self.basis.basis_row
        for spec in self.schema.features:
            if spec.is_numeric:
                col = self.layout.numeric_columns[spec.name]
                sigma = self.stats.stddev(spec.name)
                if config.kind == GRADIENT:
                    v = self.basis.derivative_row(self.query_enc, col) / sigma  # raw units
                    scores.append((spec.name, GRADIENT, v, np.zeros(self.basis.q)))
                else:
                    step = self.deltas[spec.name] / sigma  # delta in standardized units
                    hi = self.query_enc.copy()
                    hi[col] += step
                    lo = self.query_enc.copy()
                    lo[col] -= step
                    scores.append((spec.name, FUNCTION_DIFFERENCE, basis_row(hi), basis_row(lo)))
            else:
                cols = self.layout.categorical_columns[spec.name]
                base_row = self.query_enc.copy()
                for c in cols.values():
                    base_row[c] = 0.0  # baseline encodes as all zeros
                phi_base = basis_row(base_row)
                if config.categorical_mode == "pairs":
                    for cat, c in cols.items():
                        cat_row = base_row.copy()
                        cat_row[c] = 1.0
                        phi_cat = basis_row(cat_row)
                        scores.append((f"{spec.name}={cat}", BASELINE_DIFFERENCE, phi_cat, phi_base))
                else:
                    phi_query = basis_row(self.query_enc)
                    scores.append((spec.name, BASELINE_DIFFERENCE, phi_query, phi_base))
        names, kinds, plus, minus = zip(*scores)
        return names, kinds, np.column_stack(plus), np.column_stack(minus)

    # -- fitting and scoring ----------------------------------------------

    @property
    def m(self) -> int:
        return self.neighborhood.m

    @functools.cached_property
    def point_fit(self) -> PointFit:
        """The whole-neighborhood fit: the replicate of :meth:`solve_rows` that drops no row."""
        coefficients, ranks = self.solve_rows(np.arange(self.m)[None, :])
        beta, rank = coefficients[0], int(ranks[0])
        if rank < 2:
            raise ExplainError(
                f"surrogate rank collapse: effective rank {rank} < 2 "
                f"(m={self.m}, q={self.basis.q})"
            )
        residuals = self.yw - self.Xw @ beta
        return PointFit(beta, float(residuals @ residuals), rank, _condition(self._row_svd[0], rank))

    def scores_from_coefficients(self, beta: np.ndarray) -> np.ndarray:
        """Every importance score, ``link(beta @ plus) - link(beta @ minus)``.

        ``beta`` may be a single (q,) vector or a (B, q) batch; returns
        (n_scores,) or (B, n_scores) accordingly.  The link is the inverse
        log-odds transform for probability outputs and the identity otherwise.
        """
        beta = np.asarray(beta, dtype=float)
        hi = beta @ self.plus
        lo = beta @ self.minus
        if self.log_odds:
            hi, lo = from_log_odds(hi), from_log_odds(lo)
        return hi - lo

    def point_scores(self) -> list[ImportanceScore]:
        values = self.scores_from_coefficients(self.point_fit.coefficients)
        if not np.all(np.isfinite(values)):
            raise ExplainError("non-finite importance score in point estimate")
        return [
            ImportanceScore(feature=name, value=float(v), kind=kind)
            for name, kind, v in zip(self.score_names, self.score_kinds, values)
        ]

    @functools.cached_property
    def _row_svd(self) -> tuple[np.ndarray, tuple[np.ndarray, ...] | None]:
        """The one SVD ``U S V'`` of the nonzero weighted rows over the live columns.

        Returns ``S`` and the downdate's factors ``(U / S, z, V')``.  In the
        coordinates of ``V``, row i of ``U / S`` is the pseudo-inverse's
        column for nonzero row i, and ``V z`` is the minimum-norm interpolant.
        The factors are None when the rows outnumber the live columns (``U``
        and ``V`` are then not computed) or their condition is above
        ``ROW_CONDITION_MAX``.
        """
        rows = self.Xw[np.ix_(self.nonzero_rows, self.live_columns)]
        if self.nonzero_rows.size > self.live_columns.size:
            return np.linalg.svd(rows, compute_uv=False), None
        u, s, vt = np.linalg.svd(rows, full_matrices=False)
        if not _condition(s, s.size) <= ROW_CONDITION_MAX:
            return s, None
        return s, (u / s, (self.yw[self.nonzero_rows] @ u) / s, vt)

    @property
    def row_condition(self) -> float:
        """Condition number of the nonzero weighted rows, over the live columns."""
        return _condition(self._row_svd[0], self._row_svd[0].size)

    @property
    def replicate_solve(self) -> str:
        """``"downdate"`` or ``"gelsy"``: how :meth:`solve_rows` solves (row count before any SVD)."""
        fits = self.nonzero_rows.size <= self.live_columns.size
        return "downdate" if fits and self._row_svd[1] is not None else "gelsy"

    def solve_rows(self, row_indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Minimum-norm LS coefficients on row subsets of the neighborhood.

        ``row_indices`` is a (B, m') matrix with one subset per row; returns
        the (B, q) coefficient matrix and the (B,) effective ranks.  Rows are
        pre-scaled by sqrt-weights when the problem is weighted; the point
        estimate is the subset of every row (:attr:`point_fit`).  A column
        zero on every row (``live_columns`` are the others) gets the exact
        minimum-norm 0 without entering the solve.

        When the nonzero weighted rows are no more than the live columns and
        their condition is at most ``ROW_CONDITION_MAX`` (1e8; see
        :attr:`replicate_solve`), the subsets are solved together by
        :meth:`_downdate`.  Otherwise each subset is one gelsy call, one at
        a time: stacking them would hold B copies of the design matrix.
        Where both routes give a subset the same rank, its scores agree to
        1e-7 of each score's largest magnitude.
        """
        live = self.live_columns
        coefficients = np.zeros((row_indices.shape[0], self.basis.q))
        if self.replicate_solve == "downdate":
            coefficients[:, live], ranks = self._downdate(row_indices)
            return coefficients, ranks
        Xw = self.Xw[:, live]
        ranks = np.empty(row_indices.shape[0], dtype=np.int64)
        for b, rows in enumerate(row_indices):
            coefficients[b, live], ranks[b] = lstsq_min_norm(Xw[rows], self.yw[rows])
        return coefficients, ranks

    def _downdate(self, row_indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Replicate fits over the live columns as downdates of the interpolant.

        The nonzero rows have full row rank, so the full fit ``beta = V z``
        interpolates them, and a subset's minimum-norm fit is ``beta`` less
        its projection onto the pseudo-inverse columns of the nonzero rows
        it drops (those columns span the part of the row space that the kept
        rows lose).  Both lie in the span of ``V``, so the projection is
        taken on ``z``, in coordinates with one entry per nonzero row instead
        of one per live term.  It goes through a batched QR of the columns,
        never their Gram matrix, which would square their condition.
        Subsets are grouped by drop count and stacked in chunks of at most
        ``_DOWNDATE_CHUNK_BYTES``.  A subset's rank is the number of nonzero
        rows it keeps.
        """
        nonzero = self.nonzero_rows
        pinv_rows, z, vt = self._row_svd[1]
        n_subsets = row_indices.shape[0]
        member = np.zeros((n_subsets, self.m), dtype=bool)
        np.put_along_axis(member, row_indices, True, axis=1)
        dropped = ~member[:, nonzero]
        drop_counts = dropped.sum(axis=1)
        out = np.empty((n_subsets, z.size))
        for count in np.unique(drop_counts):
            subsets = np.flatnonzero(drop_counts == count)
            if count == 0:
                out[subsets] = z
                continue
            positions = np.nonzero(dropped[subsets])[1].reshape(subsets.size, count)
            chunk = max(1, _DOWNDATE_CHUNK_BYTES // (8 * z.size * count))
            for start in range(0, subsets.size, chunk):
                # `chunk` stacks of the dropped rows' columns, each (nonzero rows, count)
                q = np.linalg.qr(pinv_rows[positions[start:start + chunk]].transpose(0, 2, 1)).Q
                out[subsets[start:start + chunk]] = z - (q @ (z @ q)[:, :, None])[:, :, 0]
        return out @ vt, nonzero.size - drop_counts

    # -- naive closed-form interval -----------------------------------------

    @functools.cached_property
    def _ols(self) -> tuple[np.ndarray, float, int, np.ndarray]:
        """Unweighted least-squares fit of the neighborhood: beta, RSS, rank, X'X."""
        beta, rank = lstsq_min_norm(self.X, self.y)
        resid = self.y - self.X @ beta
        return beta, float(resid @ resid), rank, self.X.T @ self.X

    @functools.cached_property
    def _ols_pinv(self) -> np.ndarray:
        return np.linalg.pinv(self._ols[3], hermitian=True)

    def naive_interval(self, feature: str, alpha: float = 0.05) -> NaiveInterval:
        """Closed-form z-interval for the derivative of ``feature`` at the query.

        Always computed from an ordinary (unweighted) least-squares fit on
        the neighborhood, per the classical derivation: theta = beta . v,
        Var(theta) = v' (X'X)^{-1} v * sigma2 with sigma2 = RSS / dof and
        dof = m - d - 1 (d = number of raw features).  The loading v is the
        feature's gradient score column, so the problem must be gradient-kind
        with raw (non-probability) outputs, and the feature numeric.  The
        fit, X'X and its pseudo-inverse are computed once per problem.
        """
        if self.log_odds:
            raise ExplainError("naive intervals are not defined for log-odds targets")
        spec = self.schema.feature(feature)
        if not spec.is_numeric:
            raise ExplainError("naive intervals apply to continuous/ordinal features only")
        if self.config.kind != GRADIENT:
            raise ExplainError("naive intervals cover gradient-kind scores only")
        if not 0 < alpha < 1:
            raise ExplainError("alpha must be in (0, 1)")
        dof = self.m - len(self.schema.features) - 1
        if dof <= 0:
            raise ExplainError(
                f"nonpositive degrees of freedom ({dof}) for the naive interval"
            )
        beta, rss, rank, XtX = self._ols
        sigma2 = rss / dof
        v = np.ascontiguousarray(self.plus[:, self.score_names.index(feature)])
        theta = float(beta @ v)
        # a rank-deficient X'X can still "solve" to garbage, so trust solve
        # only when the least-squares fit found full column rank
        solved = np.full_like(v, np.nan)
        if rank == self.basis.q:
            try:
                solved = np.linalg.solve(XtX, v)
            except np.linalg.LinAlgError:
                pass
        if not np.all(np.isfinite(solved)):
            solved = self._ols_pinv @ v
            self.notes["naive_pseudo_inverse"] = True
        var = float(v @ solved) * sigma2
        se = math.sqrt(max(var, 0.0))
        z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
        return NaiveInterval(
            feature=feature,
            lower=theta - z * se,
            upper=theta + z * se,
            alpha=alpha,
            standard_error=se,
        )


def build_problem(
    dataset: QueryDataset, query: QueryPoint, config: ExplainConfig
) -> LocalProblem:
    """Prepare the full local-regression problem for one query point."""
    return LocalProblem(dataset, query, config)
