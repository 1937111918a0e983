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
matrices.
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
    solve_system,
    weighted_system,
)

GRADIENT = "gradient"
FUNCTION_DIFFERENCE = "function_difference"
BASELINE_DIFFERENCE = "baseline_difference"

#: Default perturbation step, as a fraction of a feature's raw sample
#: stddev, used when neither the schema nor the config supplies a delta.
DEFAULT_DELTA_FRACTION = 0.5


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
    standardized_units: bool = False
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
    score matrices.  Instances are immutable in practice and safe to
    share across threads.
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
        self.query_enc = self.layout.encode(
            self.query_std.numeric.reshape(1, -1), self.query_std.codes.reshape(1, -1)
        )[0]
        self.deltas = self._resolve_deltas()
        self.score_names, self.score_kinds, self.plus, self.minus = self._score_matrices()
        self.notes: dict[str, object] = {}
        if config.m < self.basis.q:
            warnings.warn(
                f"neighborhood size m={config.m} is below the basis size q={self.basis.q}; "
                "the local fit is underdetermined",
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
                    v = self.basis.derivative_row(self.query_enc, col)
                    if not config.standardized_units:
                        v = v / sigma
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
        """The full-neighborhood fit of the weighted system, with diagnostics."""
        fit = solve_system(self.Xw, self.yw)
        if fit.effective_rank < 2:
            raise ExplainError(
                f"surrogate rank collapse: effective rank {fit.effective_rank} < 2 "
                f"(m={self.m}, q={self.basis.q})"
            )
        return fit

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

    def solve_rows(self, row_indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Minimum-norm LS coefficients on row subsets of the neighborhood.

        ``row_indices`` is a (B, m') matrix with one subset per row; returns
        the (B, q) coefficient matrix and the (B,) effective ranks.  Rows are
        pre-scaled by sqrt-weights when the problem is weighted, so a subset
        fit uses the same weighting mode as the point estimate.  Subsets are
        solved one at a time: stacking them would hold B copies of the
        design matrix in memory.
        """
        coefficients = np.empty((row_indices.shape[0], self.basis.q))
        ranks = np.empty(row_indices.shape[0], dtype=np.int64)
        for b, rows in enumerate(row_indices):
            coefficients[b], ranks[b] = lstsq_min_norm(self.Xw[rows], self.yw[rows])
        return coefficients, ranks

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
