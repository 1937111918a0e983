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
from scipy.linalg.lapack import get_lapack_funcs

from .data import OneHotLayout, QueryDataset, _check_rows, from_log_odds, to_log_odds
from .neighborhood import Neighborhood, QueryPoint, compute_weights, select_neighborhood
from .polyfit import MonomialBasis, PointFit, expand_basis, lstsq_min_norm

GRADIENT = "gradient"
FUNCTION_DIFFERENCE = "function_difference"
BASELINE_DIFFERENCE = "baseline_difference"

#: Default perturbation step, as a fraction of a feature's raw sample
#: stddev, used when neither the schema nor the config supplies a delta.
DEFAULT_DELTA_FRACTION = 0.5

#: Replicates are solved from the one SVD of the neighborhood's nonzero
#: weighted rows (by the downdate or by row deletion) only when their largest
#: over r-th singular value is at most this, r their numerical rank.  By
#: singular-value interlacing no replicate of independent rows is worse
#: conditioned, which keeps them 6 digits clear of gelsy's float64-eps rank
#: cutoff.  On measured neighborhoods a replicate's scores carried the
#: rounding error of its own condition number kappa, as gelsy's do: against a
#: long-double solve, the downdate's stayed within 6.5 eps kappa of each
#: score's largest magnitude and gelsy's within 4.6.  One that drops a row of
#: a near copy carries the rows' error instead, up to about 0.2 eps s_1/s_r.
ROW_CONDITION_MAX = 1e10

#: Row deletion accepts a replicate only when the smallest eigenvalue of its
#: Gram matrix ``U_K' U_K`` (the squared smallest singular value of the kept
#: rows of ``U``) is at least this.  With ``ROW_CONDITION_MAX`` it bounds an
#: accepted replicate's condition number by 1e12.  This is not the normal
#: equations of the raw basis, which square the condition of ``X_K`` (up to
#: 1e24): ``U`` is orthonormal, so the Gram matrix squares only the
#: condition of ``U_K``, at most 1e2 once gated, and its own is at most 1e4.
#: The downdate of dependent rows counts a singular value of ``W_D`` whose
#: square is at least this as a relation the dropped rows touch.
DELETION_GATE = 1e-4

#: The downdate of dependent rows counts a singular value of ``W_D`` (the
#: dropped rows of the left null space) at most this, the accuracy of ``W``,
#: as a relation among the kept rows alone; one between this and
#: ``DELETION_GATE``'s square root sends the replicate to gelsy.
KEPT_RELATION_MAX = np.finfo(float).eps * ROW_CONDITION_MAX

#: Upper bound on the bytes of one stack of per-replicate factors taken in a
#: single batched LAPACK call.  Larger stacks raise peak memory (the calls
#: hold several copies) and run no faster.
_CHUNK_BYTES = 1 << 17

#: The same bound for row deletion's Gram systems, counted as p by the kept
#: rows per replicate: at p = 79 and 128 kept rows it stacks six.
_GRAM_CHUNK_BYTES = 1 << 19

#: How ``LocalProblem.solve_rows`` solved each replicate, by the codes it
#: returns: ``ROUTES[code]``.
ROUTES = ("downdate", "deletion", "gelsy")
DOWNDATE, DELETION, GELSY = range(len(ROUTES))

_POTRF = get_lapack_funcs("potrf", (np.empty((1, 1)),))


def _positive_definite(stack: np.ndarray) -> np.ndarray:
    """Which symmetric matrices of a stack have a Cholesky factor: one LAPACK potrf of each member's lower triangle."""
    return np.array([_POTRF(member, lower=True)[1] == 0 for member in stack], dtype=bool)


def _condition(s: np.ndarray, rank: int) -> float:
    """Largest over ``rank``-th singular value; inf when that one is 0 or missing."""
    return float(s[0] / s[rank - 1]) if rank <= s.size and s[rank - 1] > 0 else math.inf


def _numerical_rank(s: np.ndarray, n_rows: int, n_columns: int) -> int:
    """Singular values above ``s[0] * max(n_rows, n_columns) * eps``, ``np.linalg.matrix_rank``'s tolerance."""
    return int(np.count_nonzero(s > s[0] * max(n_rows, n_columns) * np.finfo(float).eps))


def _project(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Projections of ``w``, one vector or one per member, onto the column spans of the orthonormal stack ``q``."""
    coordinates = w @ q if w.ndim == 1 else (w[:, None, :] @ q)[:, 0]
    return (q @ coordinates[:, :, None])[:, :, 0]


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
    score matrices.  Only the cached fits change after construction,
    deterministically, so instances are safe to share across threads.
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
        _check_rows(schema, query.numeric, query.codes)  # the query point, by the dataset rows' checks
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
        self.Xw, self.yw = self.X, self.y
        if config.weighted:
            sw = np.sqrt(compute_weights(self.neighborhood.distances))
            self.Xw, self.yw = self.X * sw[:, None], self.y * sw
        nonzero = self.Xw != 0
        self.live_columns = np.flatnonzero(nonzero.any(axis=0))
        self.nonzero_rows = np.flatnonzero(nonzero.any(axis=1))
        self.query_enc = self.layout.encode(
            self.query_std.numeric.reshape(1, -1), self.query_std.codes.reshape(1, -1)
        )[0]
        self.deltas = self._resolve_deltas()
        self.score_names, self.score_kinds, self.plus, self.minus = self._score_matrices()
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
        phi_query = None  # taken at most once, and only for a categorical feature
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
                    if phi_query is None:
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
        coefficients, ranks, _ = self.solve_rows(np.arange(self.m)[None, :])
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
        """The one thin SVD ``U S V'`` of the nonzero weighted rows over the live columns.

        Returns all of ``S`` and the factors ``(S_r, U_r, y, U_r' y, V_r', W,
        W' y)`` of the replicate routes, ``y`` the weighted targets of those
        rows, truncated at their numerical rank r (:attr:`row_rank`).
        ``W = U[:, r:]`` spans the relations among the rows, their left null
        space: it has columns only when N <= p (the downdate's case) and the
        rows are dependent.  The factors are None when ``S[0] / S[r-1]`` is
        above ``ROW_CONDITION_MAX``: no replicate may then use them.  More
        rows than live terms (row deletion's case) are taken at r = p, so
        dependent ones are never factored.
        Taken at most once per problem, and only when the point fit, the row
        condition or some replicate's route (:meth:`solve_rows`) asks for it.
        Tall rows are factored as ``Q R`` and ``U`` is ``Q`` times the ``U``
        of ``R``'s SVD: at 255 x 79 the tall SVD's ``U`` differs in its last
        bits between BLAS thread counts, and this product does not.
        """
        rows = self.Xw[np.ix_(self.nonzero_rows, self.live_columns)]
        if self.nonzero_rows.size > self.live_columns.size:
            q, r = np.linalg.qr(rows)
            u, s, vt = np.linalg.svd(r)
            u = q @ u
            rank = s.size
        else:
            u, s, vt = np.linalg.svd(rows, full_matrices=False)
            rank = _numerical_rank(s, *rows.shape)
        if not _condition(s, rank) <= ROW_CONDITION_MAX:
            return s, None
        y = self.yw[self.nonzero_rows]
        u, null = u[:, :rank], u[:, rank:]
        return s, (s[:rank], u, y, y @ u, vt[:rank], null, y @ null)

    @property
    def row_condition(self) -> float:
        """Condition number of the nonzero weighted rows, over the live columns."""
        return _condition(self._row_svd[0], self._row_svd[0].size)

    @property
    def row_rank(self) -> int:
        """Numerical rank of the nonzero weighted rows, at ``np.linalg.matrix_rank``'s tolerance."""
        return _numerical_rank(self._row_svd[0], self.nonzero_rows.size, self.live_columns.size)

    def solve_rows(self, row_indices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Minimum-norm LS coefficients on row subsets of the neighborhood.

        ``row_indices`` is a (B, m') matrix with one subset per row; returns
        the (B, q) coefficient matrix, the (B,) effective ranks and the (B,)
        route codes (``ROUTES[code]`` names how each subset was solved).
        Rows are pre-scaled by sqrt-weights when the problem is weighted; the
        point estimate, :attr:`point_fit`, is the subset of every row (d = 0).
        A column zero on every row (``live_columns`` are the others) gets the
        exact minimum-norm 0 without entering the solve.

        Let N be the nonzero weighted rows, r their numerical rank, p the
        live columns and d the nonzero rows a subset drops.  Three routes:

        * ``downdate`` (N <= p): every subset, by :meth:`_downdate`, except
          one of dependent rows (r < N) whose relations the dropped rows
          neither clearly touch nor clearly miss, which goes to gelsy;
        * ``deletion`` (N > p): every subset, by :meth:`_delete`, when m'
          and the largest d any subset can have, min(N, m - m'), pass the
          shape rule 2 m' >= 2 p + min(2 d, p); a subset whose kept rows
          fail ``DELETION_GATE``, by its one Cholesky factorization, goes to
          gelsy;
        * ``gelsy``: every other subset, one LAPACK gelsy call each, one at
          a time (stacking them would hold B copies of the design matrix).

        Both factorization routes need the rows' s_1/s_r, their largest over
        r-th singular value, to be at most ``ROW_CONDITION_MAX`` (1e10), and
        deletion needs r = p; the route is chosen from N, p, m' and d before
        the SVD of :attr:`_row_svd` is taken.  Where a factorization route
        and gelsy give a subset the same rank, its scores agree within the
        largest of 1e-7, 10 eps kappa (kappa the subset's own condition
        number) and 0.3 eps s_1/s_r of each score's largest magnitude: a
        subset far better conditioned than its rows carries their SVD's error.
        """
        live = self.live_columns
        n_rows, n_live = self.nonzero_rows.size, live.size
        n_subsets, m_prime = row_indices.shape
        coefficients = np.zeros((n_subsets, self.basis.q))
        routes = np.full(n_subsets, GELSY, dtype=np.int8)
        fits = np.zeros((n_subsets, n_live))
        ranks = np.empty(n_subsets, dtype=np.int64)
        # a subset drops m - m' rows, at most N of them nonzero
        most_dropped = min(n_rows, self.m - m_prime)
        # with less margin, a fifth to three quarters of the subsets failed DELETION_GATE
        # on the sweep grid, and the batches paid for both routes: 1.3-1.5x gelsy's time
        deletes = 2 * m_prime >= 2 * n_live + min(2 * most_dropped, n_live)
        route = DOWNDATE if n_rows <= n_live else DELETION if deletes else GELSY
        if route != GELSY and self._row_svd[1] is not None:
            solve = self._downdate if route == DOWNDATE else self._delete
            solved, fits, ranks = solve(*self._dropped_rows(row_indices))
            routes[solved] = route
        Xw = self.Xw[:, live]
        for b in np.flatnonzero(routes == GELSY).tolist():
            rows = row_indices[b]
            fits[b], ranks[b] = lstsq_min_norm(Xw[rows], self.yw[rows])
        coefficients[:, live] = fits
        return coefficients, ranks, routes

    def _dropped_rows(self, row_indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each subset's mask over the nonzero rows of those it drops, and its drop count d."""
        member = np.zeros((row_indices.shape[0], self.m), dtype=bool)
        np.put_along_axis(member, row_indices, True, axis=1)
        dropped = ~member[:, self.nonzero_rows]
        return dropped, dropped.sum(axis=1)

    def _downdate(self, dropped: np.ndarray, drop_counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Underdetermined subset fits over the live columns, as downdates of the interpolant.

        With the factors of :attr:`_row_svd`, the full fit is ``beta = V z``
        with ``z = U' y / S``, the minimum-norm fit of all N rows (the
        truncated pseudo-inverse when they are dependent).  A subset keeps
        rows K and drops rows D.  Everything lies in the span of ``V``, so
        its fit is found on r-vectors like ``z``.

        Independent rows (``W`` empty): ``beta`` interpolates them, and the
        subset's fit is ``beta`` less its projection onto the pseudo-inverse
        columns of the dropped rows (rows of ``U / S``), which span what the
        kept rows lose.  The projection goes through a batched QR of those
        rows, never their Gram matrix, which would square their condition.
        The rank is N - d.

        Dependent rows (``W`` has k = N - r columns): the SVD
        ``W_D = L diag(sv) R'`` of the dropped rows of ``W`` sorts the
        relations.  The k' with ``sv**2 >= DELETION_GATE`` touch the dropped
        rows.  Those with ``sv <= KEPT_RELATION_MAX``, and the k - min(d, k)
        without a singular value, lie among the kept rows alone: the fit
        cannot meet them, so the kept targets lose their component along
        them.  A subset with a value in between is left to gelsy.  With
        ``t = W_K' y_K``, the dropped-row targets ``x_D = -L_k' R_k'' t / sv_k'``
        and the reduced kept targets satisfy every relation, so the truncated
        SVD interpolates them.  Less a part that the projection below removes
        anyway, that interpolant is
        ``z - U_D' L_k' (L_k'' y_D + R_k'' t / sv_k') / S``.  The fit is this
        less its projection onto ``U_D' Z / S`` (``Z = L[:, k':]``), the
        directions the kept rows lose.  The rank is N - d - (k - k'); with
        k = 0 this is the independent case.

        Subsets are grouped by drop count and stacked in chunks of at most
        ``_CHUNK_BYTES``; a chunk of dependent rows is split by k'.  The point
        fit (d = 0) and a subset whose dropped rows all touch relations lose
        no direction: the same code takes them as empty stacks.  Returns the
        mask of solved subsets, the fits (zero for the others) and the ranks.
        """
        _, (s, u, y, uty, vt, null, nty) = self._row_svd
        z = uty / s
        inverse = u / s
        n_rows, n_null = null.shape
        out = np.zeros((drop_counts.size, s.size))
        ranks = s.size - drop_counts  # r - d, plus each group's k' below
        solved = np.ones(drop_counts.size, dtype=bool)
        for count in np.unique(drop_counts):
            subsets = np.flatnonzero(drop_counts == count)
            positions = np.nonzero(dropped[subsets])[1].reshape(subsets.size, count)
            # every stack of a chunk is at most (nonzero rows, d) per subset
            chunk = max(1, _CHUNK_BYTES // (8 * n_rows * max(count, 1)))
            for start in range(0, subsets.size, chunk):
                at, pos = subsets[start:start + chunk], positions[start:start + chunk]
                groups = [(0, slice(None))]
                if n_null:
                    lefts, sv, rights = np.linalg.svd(null[pos])
                    spans = (sv * sv >= DELETION_GATE).sum(axis=1)
                    clear = spans + (sv <= KEPT_RELATION_MAX).sum(axis=1) == sv.shape[1]
                    solved[at[~clear]] = False
                    groups = [
                        (span, np.flatnonzero(clear & (spans == span))) for span in np.unique(spans[clear]).tolist()
                    ]
                for span, group in groups:
                    members, dropped_at = at[group], pos[group]
                    w = z
                    if span:
                        y_d, left = y[dropped_at], lefts[group, :, :span]
                        t = nty - (y_d[:, None, :] @ null[dropped_at])[:, 0]  # W_K' y_K
                        along = (y_d[:, None, :] @ left)[:, 0]
                        along += (rights[group, :span] @ t[:, :, None])[:, :, 0] / sv[group, :span]
                        w = z - (((left @ along[:, :, None])[:, :, 0])[:, None, :] @ inverse[dropped_at])[:, 0]
                    lost = inverse[dropped_at].transpose(0, 2, 1)  # (g, r, d)
                    if n_null:
                        lost = lost @ lefts[group, :, span:]
                    out[members] = w - _project(np.linalg.qr(lost).Q, w)
                    ranks[members] += span
        return solved, out @ vt, ranks

    def _delete(self, dropped: np.ndarray, drop_counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Overdetermined subset fits over the live columns, by deleting rows from one SVD.

        With ``U S V'`` of the N nonzero rows (N > p, full column rank), a
        subset that keeps rows K and drops D solves ``G w = r`` with the
        p x p Gram matrix ``G = U_K' U_K`` and ``r = U_K' y_K``, and fits
        ``beta = V (w / S)``.  One that drops d >= p rows forms ``G`` from
        its kept rows.  One that drops d < p forms ``r`` as ``U' y - U_D' y_D``
        and takes Woodbury, ``w = r + U_D' M^-1 U_D r`` with the d x d matrix
        ``M = I - U_D U_D'``, which has the same smallest eigenvalue as ``G``;
        the point fit (d = 0) is a 0 x 0 system, so ``w = U' y``.
        A subset is accepted when that eigenvalue, the squared smallest
        singular value of ``U_K``, is at least ``DELETION_GATE``: one
        Cholesky factorization of ``M`` or ``G`` less that times ``I`` per
        subset decides, whether it passes or not.  The others are left
        unsolved, for gelsy.  Subsets are grouped by drop count and stacked
        in chunks of at most ``_CHUNK_BYTES`` (``_GRAM_CHUNK_BYTES`` for
        ``G``).  Returns what :meth:`_downdate` does: the mask of accepted
        subsets, the fits (zero for the others) and the ranks, p for each.
        """
        _, (s, u, y, uty, vt, _, _) = self._row_svd
        n_rows, n_live = u.shape
        w = np.zeros((drop_counts.size, n_live))
        solved = np.ones(drop_counts.size, dtype=bool)
        for count in np.unique(drop_counts):
            subsets = np.flatnonzero(drop_counts == count)
            gram = count >= n_live
            side = n_rows - count if gram else count  # the rows of U a subset's stack holds
            eye = np.eye(n_live if gram else count)
            chunk = max(1, (_GRAM_CHUNK_BYTES if gram else _CHUNK_BYTES) // (8 * n_live * max(side, 1)))
            for start in range(0, subsets.size, chunk):
                at = subsets[start:start + chunk]
                pos = np.nonzero(~dropped[at] if gram else dropped[at])[1].reshape(at.size, side)
                u_side = u[pos]  # (chunk, side, p)
                along = (y[pos][:, None, :] @ u_side)[:, 0]
                if gram:
                    r, m = along, u_side.transpose(0, 2, 1) @ u_side
                else:
                    r, m = uty - along, eye - u_side @ u_side.transpose(0, 2, 1)
                ok = _positive_definite(m - DELETION_GATE * eye)
                if not ok.all():
                    solved[at[~ok]] = False
                    at, u_side, r, m = at[ok], u_side[ok], r[ok], m[ok]
                if gram:
                    w[at] = np.linalg.solve(m, r[:, :, None])[:, :, 0]
                else:
                    x = np.linalg.solve(m, u_side @ r[:, :, None])
                    w[at] = r + (u_side.transpose(0, 2, 1) @ x)[:, :, 0]
        return solved, (w / s) @ vt, np.full(drop_counts.size, n_live)

    # -- naive closed-form interval -----------------------------------------

    #: Always empty; kept only while ``benchmarks/tracer.py`` reads it.
    notes = property(lambda self: {})

    @functools.cached_property
    def _ols(self) -> tuple[np.ndarray, float, np.ndarray]:
        """Unweighted least-squares fit of the neighborhood: beta, RSS, pinv(X'X)."""
        beta, _ = lstsq_min_norm(self.X, self.y)
        resid = self.y - self.X @ beta
        return beta, float(resid @ resid), np.linalg.pinv(self.X.T @ self.X, hermitian=True)

    def naive_interval(self, feature: str, alpha: float = 0.05) -> NaiveInterval:
        """Closed-form z-interval for the derivative of ``feature`` at the query.

        Always computed from an ordinary (unweighted) least-squares fit on
        the neighborhood, per the classical derivation: theta = beta . v,
        Var(theta) = v' pinv(X'X) v * sigma2 at any rank, with sigma2 = RSS
        / dof and dof = m - d - 1 (d = number of raw features).  The loading
        v is the feature's gradient score column, so the problem must be
        gradient-kind with raw (non-probability) outputs, and the feature
        numeric.  The gelsy fit and pinv(X'X) are computed once per problem.
        pinv drops eigenvalues below 1e-15 of the largest, while gelsy keeps
        directions of X down to eps: theta can hold one the variance omits.
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
        beta, rss, pinv = self._ols
        v = np.ascontiguousarray(self.plus[:, self.score_names.index(feature)])
        theta = float(beta @ v)
        se = math.sqrt(max(float(v @ (pinv @ v)) * (rss / dof), 0.0))
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
