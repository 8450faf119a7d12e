"""Diagnostics: phase differentiation statistics, residual whiteness, and
empirical convergence rates.

The differentiation statistics count how the folded phases of each component
pair occupy a uniform grid of cells. ``gamma`` (the smallest pair-cell count)
being positive means every combination of folded positions actually occurs;
``beta`` measures how far the cross-occupancy is from uniform. Small
``beta`` with positive ``gamma`` is what makes the recursive regression
contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    GridMismatch,
    InvalidStep,
    LagTooLarge,
    OutOfDomain,
    TraceTooShort,
)
from .fold_regress import bin_layout
from .signal_model import PhasePrior, SampledSignal, unit_position

__all__ = [
    "PartitionCounts",
    "WellDiffStats",
    "partition_counts",
    "well_diff_stats",
    "autocorrelation",
    "fit_decay_rate",
]


@dataclass(frozen=True)
class PartitionCounts:
    """Occupancy counts of folded phases on a uniform cell grid."""

    step: float
    cells: int
    marginals: np.ndarray                    # (K, cells) int64
    pairs: Mapping[tuple[int, int], np.ndarray]  # ordered (i, j), i != j


@dataclass(frozen=True)
class WellDiffStats:
    step: float
    counts_single: np.ndarray
    counts_pair: Mapping[tuple[int, int], np.ndarray]
    gamma: float
    beta_per_pair: Mapping[tuple[int, int], float]
    beta: float
    contraction_bound: float
    well_differentiated: bool


def partition_counts(priors: Sequence[PhasePrior], grid: Sequence[float],
                     step: float) -> PartitionCounts:
    """Exact occupancy counts of the folded phase (pairs and marginals).

    ``step`` must divide the unit interval into an integer number of cells,
    at least 2.
    """
    if not 0.0 < step < np.inf:
        raise InvalidStep("step must be positive and finite")
    cells_f = 1.0 / step
    cells = int(round(cells_f))
    if cells < 2 or abs(cells_f - cells) > 1e-9 * cells:
        raise InvalidStep("1/step must be an integer of at least 2")
    t = np.asarray(grid, dtype=float)
    k_total = len(priors)
    if k_total == 0:
        raise OutOfDomain("at least one prior is required")
    for prior in priors:
        if len(prior) != t.size:
            raise GridMismatch("prior and grid lengths differ")
    layouts = [bin_layout(unit_position(p.phase), cells) for p in priors]
    idx = [layout.index for layout in layouts]
    marginals = np.stack([layout.counts for layout in layouts])
    pairs: dict[tuple[int, int], np.ndarray] = {}
    for i in range(k_total):
        for j in range(k_total):
            if i == j:
                continue
            flat = np.bincount(idx[i] * cells + idx[j], minlength=cells * cells)
            pairs[(i, j)] = flat.reshape(cells, cells)
    return PartitionCounts(step, cells, marginals, pairs)


def well_diff_stats(counts: PartitionCounts, m_bound: float) -> WellDiffStats:
    """Differentiation statistics from occupancy counts.

    ``gamma`` is the smallest pair-cell count (for a single component, the
    smallest marginal count by convention); ``beta`` for each ordered pair
    (i, j) is ``sqrt(sum_m (1/D_i(m)) * sum_n (D_ij(m,n) - gamma)^2)`` and
    the reported ``beta`` is the maximum. The contraction bound is
    ``m_bound^2 * (K - 1) * beta``; the collection is flagged
    well-differentiated when ``gamma > 0`` and the bound is below 1.
    """
    if not 0.0 < m_bound < np.inf:
        raise OutOfDomain("m_bound must be positive and finite")
    k_count = counts.marginals.shape[0]
    if counts.pairs:
        gamma = float(min(int(mat.min()) for mat in counts.pairs.values()))
    else:
        gamma = float(counts.marginals.min())
    beta_per_pair: dict[tuple[int, int], float] = {}
    for key, mat in counts.pairs.items():
        i = key[0]
        d_i = counts.marginals[i].astype(float)
        inner = np.sum((mat.astype(float) - gamma) ** 2, axis=1)
        terms = np.divide(inner, d_i, out=np.zeros_like(inner), where=d_i > 0)
        beta_per_pair[key] = float(np.sqrt(np.sum(terms)))
    beta = max(beta_per_pair.values()) if beta_per_pair else 0.0
    bound = float(m_bound ** 2 * (k_count - 1) * beta)
    return WellDiffStats(
        step=counts.step,
        counts_single=counts.marginals,
        counts_pair=dict(counts.pairs),
        gamma=gamma,
        beta_per_pair=beta_per_pair,
        beta=float(beta),
        contraction_bound=bound,
        well_differentiated=bool(gamma > 0.0 and bound < 1.0),
    )


def autocorrelation(signal: SampledSignal, max_lag: int) -> np.ndarray:
    """Biased sample autocorrelation of the mean-removed values.

    Normalized so the zero-lag value is 1; a constant signal returns an
    impulse at lag 0 by convention.
    """
    length = len(signal)
    if max_lag < 0:
        raise OutOfDomain("max_lag must be nonnegative")
    if max_lag >= length:
        raise LagTooLarge("max_lag must be smaller than the sample count")
    x = signal.values - np.mean(signal.values)
    # einsum, not np.dot: threaded BLAS can stall for most of a second on
    # its first dot products in a process.
    denom = float(np.einsum("i,i->", x, x))
    rho = np.zeros(max_lag + 1)
    rho[0] = 1.0
    if denom == 0.0:
        return rho
    for lag in range(1, max_lag + 1):
        rho[lag] = float(np.einsum("i,i->", x[:-lag], x[lag:])) / denom
    return rho


def fit_decay_rate(residual_norms: Sequence[float], floor: float = 0.0):
    """Per-iteration decay ratio of a residual trace, with a fit quality.

    Points within twice the final norm form the plateau where the accuracy
    floor dominates; the geometric decay is fitted on the points before the
    plateau plus the first plateau point (the transition). A trace that
    never leaves its plateau reports ratio 1.0. Returns ``(ratio, r2)``.
    """
    norms = np.asarray(residual_norms, dtype=float)
    if norms.ndim != 1:
        raise OutOfDomain("residual_norms must be 1-d")
    if np.any(norms <= 0.0):
        raise OutOfDomain("residual norms must be positive to fit a rate")
    if np.count_nonzero(norms > floor) < 3:
        raise TraceTooShort("need at least 3 trace points above the floor")
    final = norms[-1]
    plateau = norms <= 2.0 * final
    first_plateau = int(np.argmax(plateau))  # the last point is always in it
    segment = norms[:first_plateau + 1]
    if segment.size < 2:
        return 1.0, 1.0
    ks = np.arange(segment.size, dtype=float)
    logs = np.log(segment)
    slope, intercept = np.polyfit(ks, logs, 1)
    fitted = slope * ks + intercept
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(np.exp(slope)), float(r2)
