"""Regression kernel: warp, demodulate, fold into one period, bin-average.

The canonical regression backend is the partitioning estimate: the folded
unit interval is split into ``B`` equal bins and each bin takes the mean of
the responses that fall in it. A pluggable callable with the same signature
can replace it for experimentation, but every shipped code path uses
:func:`partition_regress`.

A prior's phase is fixed for a whole decomposition, so the decompositions
fold it, bin it and derive its interpolation weights once, in a
:class:`PhasePlan`, and run every regression through :func:`sweep`. The
sample-space functions :func:`unwarp_samples`, :func:`demodulate` and
:func:`fold` remain as the reference that :func:`sweep` reproduces exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    AmplitudeTooSmall,
    DecompositionError,
    EmptyInput,
    GridMismatch,
    LengthMismatch,
    NonFinite,
    SinZeroBand,
)
from .signal_model import (
    PhasePrior,
    SampledSignal,
    ShapeTable,
    eval_shape,
    interpolation,
    make_shape,
    unit_position,
)

__all__ = [
    "FoldedSamples",
    "RegressionBackend",
    "unwarp_samples",
    "demodulate",
    "fold",
    "partition_regress",
    "center_shape",
]

AMPLITUDE_FLOOR = 1e-8

# A regression backend maps folded samples and a bin count to a shape table.
# It must not modify the samples: a run shares their positions across
# regressions.
RegressionBackend = Callable[["FoldedSamples", int], ShapeTable]


@dataclass(frozen=True)
class BinLayout:
    """Where folded positions fall among ``size`` equal bins.

    ``index`` holds each position's bin and ``counts`` each bin's
    occupancy. The empty bins, centred at ``empty_x``, are filled in from
    the occupied bins, centred at ``known_x``.
    """

    index: np.ndarray
    counts: np.ndarray
    occupied: np.ndarray
    empty_x: np.ndarray
    known_x: np.ndarray

    @property
    def size(self) -> int:
        return int(self.counts.size)


def bin_layout(xs: np.ndarray, nb: int) -> BinLayout:
    """Bin positions in ``[0, 1)`` into ``nb`` equal bins."""
    index = np.clip((xs * nb).astype(np.int64), 0, nb - 1)
    counts = np.bincount(index, minlength=nb)
    occupied = counts > 0
    centers = (np.arange(nb) + 0.5) / nb
    return BinLayout(index, counts, occupied, centers[~occupied],
                     centers[occupied])


@dataclass(frozen=True)
class FoldedSamples:
    """Folded phase positions in [0, 1) with their responses.

    ``layout`` optionally carries the positions' binning, precomputed by a
    :class:`PhasePlan`; :func:`partition_regress` reuses it when asked for
    that many bins.
    """

    xs: np.ndarray
    ys: np.ndarray
    layout: BinLayout | None = None

    def __len__(self) -> int:
        return int(self.xs.size)


@dataclass(frozen=True)
class PhasePlan:
    """Everything the regressions against one prior share within a run.

    Holds the folded phase positions, their layout in ``bins`` bins, and
    the interpolation data that evaluates a ``bins``-bin shape table at the
    phase samples.
    """

    prior: PhasePrior
    xs: np.ndarray
    layout: BinLayout
    j0: np.ndarray
    j1: np.ndarray
    w: np.ndarray
    w1: np.ndarray  # 1 - w

    def __len__(self) -> int:
        return int(self.xs.size)

    def folded(self, ys: np.ndarray) -> FoldedSamples:
        return FoldedSamples(self.xs, ys, self.layout)

    def evaluate(self, shape: ShapeTable) -> np.ndarray:
        """:func:`eval_shape` at the prior's phase samples."""
        if shape.size != self.layout.size:
            return eval_shape(shape, self.prior.phase)
        b = shape.bins
        return self.w1 * b[self.j0] + self.w * b[self.j1]


def plan_phase(prior: PhasePrior, length: int, bins: int) -> PhasePlan:
    """Fold, bin and prepare interpolation for one prior, once per run."""
    if len(prior) != length:
        raise GridMismatch("prior and residual are on different grids")
    if not np.all(np.isfinite(prior.phase)):
        raise NonFinite("folded samples must be finite")
    nb = int(bins)
    if nb < 2:
        raise LengthMismatch("bin count must be at least 2")
    xs = unit_position(prior.phase)
    j0, j1, w = interpolation(xs, nb)
    return PhasePlan(prior, xs, bin_layout(xs, nb), j0, j1, w, 1.0 - w)


def as_plans(priors: Sequence[PhasePrior | PhasePlan], length: int,
             bins: int) -> list[PhasePlan]:
    """Plans for ``priors``, keeping entries that already are plans."""
    plans = []
    for p in priors:
        if not isinstance(p, PhasePlan):
            p = plan_phase(p, length, bins)
        elif len(p) != length:
            raise GridMismatch("prior and residual are on different grids")
        plans.append(p)
    return plans


def check_amplitude(prior: PhasePrior) -> None:
    """Reject amplitudes too small to divide by."""
    if np.any(np.abs(prior.amplitude) < AMPLITUDE_FLOOR):
        raise AmplitudeTooSmall(
            f"amplitude magnitude below {AMPLITUDE_FLOOR:g}")


def unwarp_samples(residual: SampledSignal, prior: PhasePrior):
    """Re-index residual samples by phase and divide out the amplitude.

    Returns ``(vs, ys)`` with ``vs = p(t_l)`` and ``ys = r(t_l) / q(t_l)``.
    No explicit phase inverse is computed; the samples are simply re-indexed.
    """
    if len(prior) != len(residual):
        raise GridMismatch("prior and residual are on different grids")
    check_amplitude(prior)
    return prior.phase.copy(), residual.values / prior.amplitude


def carrier(prior: PhasePrior, n: int, kind: str) -> np.ndarray:
    """Demodulation carrier ``cos/sin(2*pi*n*p/N)`` sampled on the grid."""
    if kind not in ("cos", "sin"):
        raise DecompositionError(f"unknown carrier kind {kind!r}")
    if kind == "sin" and n == 0:
        raise SinZeroBand("sine carrier vanishes identically at band 0")
    if prior.fundamental is None:
        raise DecompositionError("prior fundamental required for demodulation")
    angle = 2.0 * np.pi * n * prior.phase / prior.fundamental
    return np.cos(angle) if kind == "cos" else np.sin(angle)


def demodulate(residual: SampledSignal, prior: PhasePrior, n: int, kind: str):
    """Multiply the residual by the band-``n`` carrier, re-indexed by phase.

    Unlike :func:`unwarp_samples` there is no amplitude division; the
    demodulated sweeps operate with unit amplitude.
    """
    if len(prior) != len(residual):
        raise GridMismatch("prior and residual are on different grids")
    g = carrier(prior, n, kind)
    return prior.phase.copy(), g * residual.values


def fold(vs: Sequence[float], ys: Sequence[float]) -> FoldedSamples:
    """Map warped positions into one period: ``(v, y) -> (mod(v, 1), y)``."""
    v = np.asarray(vs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if v.shape != y.shape or v.ndim != 1:
        raise LengthMismatch("vs and ys must be 1-d and equal length")
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(y))):
        raise NonFinite("folded samples must be finite")
    return FoldedSamples(unit_position(v), y.copy())


def partition_regress(samples: FoldedSamples, bins: int) -> ShapeTable:
    """Partitioning estimate: per-bin mean of the responses.

    Bin ``j`` covers ``[j/B, (j+1)/B)``. Empty bins are filled by periodic
    linear interpolation between the nearest non-empty bins on each side, so
    the returned table is total. Bin means are reproducible to 1e-12 under
    reordering of the samples (summation-order effects stay below that).
    """
    nb = int(bins)
    if nb < 2:
        raise LengthMismatch("bin count must be at least 2")
    if len(samples) == 0:
        raise EmptyInput("cannot regress zero samples")
    layout = samples.layout
    if layout is None or layout.size != nb:
        layout = bin_layout(samples.xs, nb)
    sums = np.bincount(layout.index, weights=samples.ys, minlength=nb)
    occupied = layout.occupied
    means = np.zeros(nb)
    means[occupied] = sums[occupied] / layout.counts[occupied]
    if layout.empty_x.size:
        means[~occupied] = np.interp(layout.empty_x, layout.known_x,
                                     means[occupied], period=1.0)
    return make_shape(means)


def center_shape(shape: ShapeTable) -> ShapeTable:
    """Subtract the bin mean; idempotent."""
    return make_shape(shape.bins - np.mean(shape.bins))


def sweep(residual: np.ndarray, plans: Sequence[PhasePlan], bins: int,
          scheme: str, backend: RegressionBackend,
          pre: Sequence[np.ndarray | None], post: Sequence[np.ndarray | None],
          divide: bool = False):
    """One Gauss-Seidel or Jacobi pass of regressions over all components.

    Component ``k`` regresses ``ys = r / pre[k]`` (with ``divide``) or
    ``ys = pre[k] * r`` on its plan's folded positions, centres the
    estimate and subtracts ``post[k] * shape(p)``; a ``None`` factor is 1.
    Gauss-Seidel chains the residual through the components, Jacobi
    regresses every component against ``residual``.

    Returns ``(increments, subtracted, residual)`` with the centred shape
    increments, the subtracted sample arrays and the new residual array.
    """
    cur = residual
    increments: list[ShapeTable] = []
    subtracted: list[np.ndarray] = []
    for plan, a, b in zip(plans, pre, post):
        source = cur if scheme == "gauss_seidel" else residual
        if a is None:
            ys = source
        else:
            ys = source / a if divide else a * source
        if not np.all(np.isfinite(ys)):
            raise NonFinite("folded samples must be finite")
        inc = center_shape(backend(plan.folded(ys), bins))
        e = plan.evaluate(inc)
        sub = e if b is None else b * e
        increments.append(inc)
        subtracted.append(sub)
        if scheme == "gauss_seidel":
            cur = cur - sub
    if scheme != "gauss_seidel":
        cur = residual - np.sum(subtracted, axis=0)
    return increments, subtracted, cur
