"""Percentile-bootstrap uncertainty intervals from sub-neighborhood refits.

Each replicate draws floor(c * m) members uniformly *without replacement*
from the already-selected neighborhood (subsampling, not the classical
with-replacement bootstrap), refits the surrogate with the same weighting
mode as the point estimate, and records every importance score.  Interval
endpoints are percentiles of the replicate scores, so they need not be
symmetric about the point estimate.

A run draws all B member subsets at once from one counter-based stream
(Philox keyed by (seed, 0)): each replicate's subset is the first
floor(c * m) positions of an argsort of m uniform keys.  Row b of the index
matrix depends only on the seed and b, so the replicates do not depend on
execution order and the first b rows are the same for every B >= b.
All subsets are refit by ``LocalProblem.solve_rows``, which documents how,
and all replicates are scored at once.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .explain import ROUTES, LocalProblem

#: A run errors out when more than this fraction of replicates fail.
MAX_FAILED_FRACTION = 0.2

_MASK64 = (1 << 64) - 1


class BootstrapError(RuntimeError):
    """Raised for invalid bootstrap configurations or too many failed replicates."""


@dataclass(frozen=True)
class BootstrapConfig:
    """Replicate count B, sub-neighborhood fraction c, significance, seed."""

    B: int = 1000
    c: float = 0.9
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.B < 2:
            raise BootstrapError("replicate count B must be >= 2")
        if not 0.0 < self.c < 1.0:
            raise BootstrapError("sub-neighborhood fraction c must lie in (0, 1)")
        if not 0.0 < self.alpha < 1.0:
            raise BootstrapError("alpha must lie in (0, 1)")


@dataclass(frozen=True)
class UncertaintyInterval:
    """Percentile interval [L, U] for one feature's importance score."""

    feature: str
    lower: float
    upper: float
    alpha: float


@dataclass(frozen=True)
class BootstrapDistribution:
    """Replicate score matrix (successful replicates x scores) plus bookkeeping.

    ``solved_by`` counts all B replicates, failed ones included, by the
    route that solved them (``explain.ROUTES``: downdate, deletion, gelsy);
    a replicate that a factorization route leaves to gelsy counts as gelsy.
    ``replicate_rank`` holds the min, median and max effective rank over
    the same B replicates.
    """

    names: tuple[str, ...]
    scores: np.ndarray
    failed_replicates: int
    B: int
    m_prime: int
    solved_by: dict[str, int]
    replicate_rank: dict[str, float]


def percentile(values: np.ndarray, p: float) -> float | np.ndarray:
    """Linear interpolation between closest ranks (the common "type 7" rule).

    With sorted values v_1..v_B and h = (B-1) * p / 100 the result is
    ``v_{floor(h)+1} + (h - floor(h)) * (v_{floor(h)+2} - v_{floor(h)+1})``.
    A 1-D input gives a float; a (B, n) matrix gives one value per column.
    """
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if values.ndim > 2:
        raise BootstrapError("percentile takes a vector or a (B, n) matrix")
    if values.shape[0] == 0:
        raise BootstrapError("percentile of empty values")
    if not 0.0 <= p <= 100.0:
        raise BootstrapError("percentile p must lie in [0, 100]")
    v = np.sort(values, axis=0)
    B = v.shape[0]
    h = (B - 1) * p / 100.0
    lo = int(np.floor(h))
    out = v[B - 1] if lo >= B - 1 else v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    return float(out) if values.ndim == 1 else out


def replicate_indices(seed: int, B: int, m: int, m_prime: int) -> np.ndarray:
    """The (B, m_prime) member-index matrix of a run, one replicate per row.

    One Philox stream keyed by (seed, 0) is consumed row by row, so row b
    depends only on (seed, b).  A row holds the first ``m_prime`` positions
    of the argsort of m uniform keys, which is a uniformly random subset
    without replacement, in random order.
    """
    key = np.array([seed & _MASK64, 0], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return np.argsort(rng.random((B, m)), axis=1)[:, :m_prime]


def intervals_from_distribution(
    dist: BootstrapDistribution, alpha: float
) -> list[UncertaintyInterval]:
    """Percentile intervals at level alpha from an existing replicate matrix."""
    if not 0.0 < alpha < 1.0:
        raise BootstrapError("alpha must lie in (0, 1)")
    lower = percentile(dist.scores, 100.0 * alpha / 2.0)
    upper = percentile(dist.scores, 100.0 * (1.0 - alpha / 2.0))
    return [
        UncertaintyInterval(feature=name, lower=float(lo), upper=float(hi), alpha=alpha)
        for name, lo, hi in zip(dist.names, lower, upper)
    ]


def bootstrap_from_problem(
    problem: LocalProblem, boot: BootstrapConfig
) -> tuple[list[UncertaintyInterval], BootstrapDistribution]:
    """Run the replicate loop against an already-prepared local problem."""
    m = problem.m
    m_prime = int(np.floor(boot.c * m))
    if m_prime < 2:
        raise BootstrapError(
            f"sub-neighborhood size floor(c*m) = {m_prime} is too small (need >= 2)"
        )
    names = problem.score_names
    index = replicate_indices(boot.seed, boot.B, m, m_prime)
    coefficients, ranks, routes = problem.solve_rows(index)
    scores = problem.scores_from_coefficients(coefficients)
    ok = (ranks >= 2) & np.isfinite(scores).all(axis=1)
    failed = boot.B - int(ok.sum())
    if failed > MAX_FAILED_FRACTION * boot.B:
        raise BootstrapError(
            f"{failed} of {boot.B} bootstrap replicates failed "
            f"(more than {MAX_FAILED_FRACTION:.0%})"
        )
    dist = BootstrapDistribution(
        names=names, scores=scores[ok], failed_replicates=failed, B=boot.B, m_prime=m_prime,
        solved_by=dict(zip(ROUTES, np.bincount(routes, minlength=len(ROUTES)).tolist())),
        replicate_rank={"min": int(ranks.min()), "median": float(np.median(ranks)), "max": int(ranks.max())},
    )
    return intervals_from_distribution(dist, boot.alpha), dist


def write_scores_csv(dist: BootstrapDistribution, path: str) -> None:
    """Dump the replicate score matrix (one named column per score) to CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(dist.names)
        for row in dist.scores:
            writer.writerow([repr(float(v)) for v in row])
