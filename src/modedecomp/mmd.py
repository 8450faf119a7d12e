"""Multiresolution mode decomposition: band-demodulated recursive regression.

The outer loop visits bands in the interleaved order 0, +1, -1, ..., +M0,
-M0. For each band a demodulated regression pass (cosine carrier always,
sine carrier only for |n| > 0) estimates the band's shape increment per
component, updates that component's accumulator and mode, and chains the
residual. Band accumulators are the identifiable products: coefficient times
unit shape. Results keep the products, with their L2 norms as coefficients;
``normalize_estimate`` splits them into coefficients and unit-norm shapes.

Relative to a plain generalized-mode run, the multiresolution loop costs a
factor of order ``J2 * M0`` more regressions; each one reuses its prior's
:class:`~modedecomp.fold_regress.PhasePlan`, built once per run, and each
band pass evaluates its carriers once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BandOutOfRange,
    DecompositionError,
    GridMismatch,
    OutOfDomain,
    SinZeroBand,
)
from .fold_regress import (
    PhasePlan,
    RegressionBackend,
    as_plans,
    carrier,
    partition_regress,
    sweep,
)
from .gmd import DecompositionReport, StopReason, _check_scheme, to_caller_order
from .signal_model import (
    MimfEstimate,
    PhasePrior,
    SampledSignal,
    add_shapes,
    ldexp_shape,
    ldexp_signal,
    make_estimate,
    reconstruct_mimf,
    scale_into_range,
    scale_shape,
    signal_norm,
    sort_components,
    with_fundamental,
    zero_shape,
)

__all__ = [
    "MmdConfig",
    "MmdResult",
    "band_order",
    "modified_rdbr",
    "mmd_decompose",
    "ell_band_approx",
    "band_residual",
]


@dataclass(frozen=True)
class MmdConfig:
    """Knobs for the multiresolution loop.

    ``m0`` is the bandwidth; ``eps1`` stops the outer loop on the relative
    residual, ``eps2`` stops each inner demodulated pass; ``j1``/``j2`` cap
    the outer/inner iteration counts; ``bins`` is the regression bin count.
    """

    m0: int = 10
    eps1: float = 1e-6
    eps2: float = 1e-6
    j1: int = 200
    j2: int = 10
    bins: int = 200
    scheme: str = "gauss_seidel"

    def validate(self) -> None:
        if self.m0 < 0:
            raise OutOfDomain("m0 must be nonnegative")
        if not (0.0 < self.eps1 < 1.0 and 0.0 < self.eps2 < 1.0):
            raise OutOfDomain("eps1 and eps2 must lie in (0, 1)")
        if self.j1 < 1 or self.j2 < 1:
            raise OutOfDomain("j1 and j2 must be at least 1")
        if self.bins < 2:
            raise OutOfDomain("bins must be at least 2")
        _check_scheme(self.scheme)


@dataclass(frozen=True)
class MmdResult:
    estimates: list[MimfEstimate]
    residual: SampledSignal
    report: DecompositionReport
    fundamentals: list[int]


def band_order(m0: int) -> list[int]:
    """Interleaved band visit order 0, +1, -1, ..., +m0, -m0."""
    order = [0]
    for n in range(1, m0 + 1):
        order.extend((n, -n))
    return order


def modified_rdbr(residual: SampledSignal,
                  priors: Sequence[PhasePrior | PhasePlan],
                  n: int, kind: str, eps2: float = 1e-6, max_iters: int = 10,
                  bins: int = 200, scheme: str = "gauss_seidel",
                  backend: RegressionBackend = partition_regress):
    """Demodulated regression pass for one band.

    For band 0 the regressed increment itself is the mode increment; for
    |n| > 0 the mode increment is ``2 * carrier * increment`` and the stored
    shape increment is doubled, so the accumulator tracks the full product
    of coefficient and shape. ``priors`` may hold the :class:`PhasePlan`
    objects :func:`mmd_decompose` prepares once per run.

    Returns ``(shape_increments, mode_increments, residual)`` where the shape
    increments are per-component tables accumulated over the inner sweeps and
    the mode increments are :class:`SampledSignal` values.
    """
    _check_scheme(scheme)
    if kind == "sin" and n == 0:
        raise SinZeroBand("sine demodulation is undefined at band 0")
    plans = as_plans(priors, len(residual), bins)
    if n == 0:
        # the band-0 carrier is exactly 1: regress the residual itself
        if kind != "cos":
            raise DecompositionError(f"unknown carrier kind {kind!r}")
        if any(plan.prior.fundamental is None for plan in plans):
            raise DecompositionError(
                "prior fundamental required for demodulation")
        pre = post = [None] * len(plans)
    else:
        pre = [carrier(plan.prior, n, kind) for plan in plans]
        post = [2.0 * g for g in pre]

    t = residual.times
    denom = signal_norm(residual.values) or 1.0

    shape_acc = [zero_shape(bins) for _ in plans]
    mode_acc = [np.zeros(len(residual)) for _ in plans]
    r = residual.values
    eps0, eps1v, eps2v = 2.0, 1.0, 1.0
    j = 0
    while (j < max_iters and eps1v > eps2 and eps2v > eps2
           and abs(eps1v - eps0) > eps2):
        raws, f_incs, r = sweep(r, plans, bins, scheme, backend, pre, post)
        inc_norms: list[float] = []
        for k, (raw, f_inc) in enumerate(zip(raws, f_incs)):
            stored = raw if n == 0 else scale_shape(raw, 2.0)
            shape_acc[k] = add_shapes(shape_acc[k], stored)
            mode_acc[k] += f_inc
            inc_norms.append(stored.l2norm)
        eps0 = eps1v
        eps1v = signal_norm(r) / denom
        eps2v = max(inc_norms) / denom
        j += 1

    modes = [SampledSignal(t, acc) for acc in mode_acc]
    return shape_acc, modes, SampledSignal(t, r)


def mmd_decompose(signal: SampledSignal, priors: Sequence[PhasePrior],
                  cfg: MmdConfig,
                  backend: RegressionBackend = partition_regress) -> MmdResult:
    """Run the full multiresolution loop.

    The outer loop ends the first time the relative residual drops to
    ``cfg.eps1``, fails to improve by more than ``cfg.eps1``, or ``cfg.j1``
    iterations have run. Estimates hold the band products (coefficient
    times unit shape), not normalized; each coefficient is its product's L2
    norm. Components in the result follow the caller's prior order.
    """
    cfg.validate()
    if len(priors) == 0:
        raise DecompositionError("at least one phase prior is required")

    t = signal.times
    resolved = [p if p.fundamental is not None else with_fundamental(p, t)
                for p in priors]
    sorted_priors, order = sort_components(resolved)
    plans = as_plans(sorted_priors, len(signal), cfg.bins)

    r, pow2 = scale_into_range(signal)
    denom = r.l2norm or 1.0

    bands = band_order(cfg.m0)
    accumulators = {
        "cos": [{b: zero_shape(cfg.bins) for b in bands} for _ in plans],
        "sin": [{b: zero_shape(cfg.bins) for b in bands if b != 0}
                for _ in plans],
    }
    mode_acc = [np.zeros(len(signal)) for _ in plans]

    best = 1.0
    norms_r: list[float] = []
    norms_s: list[float] = []
    reason = StopReason.MAX_ITER
    iterations = 0
    for _ in range(cfg.j1):
        sweep_inc = 0.0
        for b in bands:
            for kind in ("cos", "sin") if b != 0 else ("cos",):
                shapes, modes, r = modified_rdbr(
                    r, plans, b, kind, cfg.eps2, cfg.j2, cfg.bins,
                    cfg.scheme, backend)
                for k, acc in enumerate(accumulators[kind]):
                    acc[b] = add_shapes(acc[b], shapes[k])
                    mode_acc[k] += modes[k].values
                    sweep_inc = max(sweep_inc, shapes[k].l2norm / denom)
        iterations += 1
        rel = signal_norm(r.values) / denom
        norms_r.append(rel)
        norms_s.append(sweep_inc)
        if rel <= cfg.eps1:
            reason = StopReason.RESIDUAL_SMALL
            break
        if rel >= best - cfg.eps1:
            reason = StopReason.STALLED
            break
        best = rel

    report = DecompositionReport(tuple(norms_r), tuple(norms_s), reason,
                                 iterations)

    estimates = [
        make_estimate(cfg.m0,
                      {b: ldexp_shape(s, pow2) for b, s in cos_acc.items()},
                      {b: ldexp_shape(s, pow2) for b, s in sin_acc.items()},
                      mode=SampledSignal(t, np.ldexp(acc, pow2, out=acc)))
        for cos_acc, sin_acc, acc in zip(accumulators["cos"],
                                         accumulators["sin"], mode_acc)
    ]
    fundamentals = [int(p.fundamental) for p in sorted_priors]
    return MmdResult(to_caller_order(estimates, order), ldexp_signal(r, pow2),
                     report, to_caller_order(fundamentals, order))


def ell_band_approx(est: MimfEstimate, prior: PhasePrior, ell: int,
                    grid: Sequence[float]) -> SampledSignal:
    """Reconstruct using only the bands with |n| <= ell."""
    if not 0 <= ell <= est.bandwidth:
        raise BandOutOfRange(f"ell must lie in [0, {est.bandwidth}]")
    truncated = make_estimate(
        est.bandwidth,
        cos_shapes={b: s for b, s in est.cos_shapes.items() if abs(b) <= ell},
        sin_shapes={b: s for b, s in est.sin_shapes.items() if abs(b) <= ell},
        cos_coeffs={b: c for b, c in est.cos_coeffs.items() if abs(b) <= ell},
        sin_coeffs={b: c for b, c in est.sin_coeffs.items() if abs(b) <= ell},
        normalized=est.normalized,
    )
    return reconstruct_mimf(truncated, prior, grid)


def band_residual(signal: SampledSignal, est: MimfEstimate, prior: PhasePrior,
                  ell: int, grid: Sequence[float]) -> SampledSignal:
    """Component-attributed signal minus its ell-banded reconstruction."""
    t = np.asarray(grid, dtype=float)
    if len(signal) != t.size:
        raise GridMismatch("signal and grid lengths differ")
    approx = ell_band_approx(est, prior, ell, grid)
    return SampledSignal(signal.times, signal.values - approx.values)
