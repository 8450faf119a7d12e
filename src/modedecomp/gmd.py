"""Recursive diffeomorphism-based regression for the generalized mode
decomposition.

Each sweep warps the residual into every component's phase coordinate, folds
it into one period, regresses a shape increment, centers it, and subtracts
the reconstructed increment. With the ``gauss_seidel`` scheme each
component's regression sees the residual already reduced by the components
processed earlier in the same sweep; with ``jacobi`` all components regress
against the sweep-entering residual and the subtractions are applied
together afterwards. The Jacobi scheme exists as a first-class option so the
two convergence rates can be compared; Gauss-Seidel is the default and the
recommended choice.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .errors import DecompositionError, InvalidPartition, OutOfDomain
from .fold_regress import (
    PhasePlan,
    RegressionBackend,
    as_plans,
    check_amplitude,
    partition_regress,
    sweep,
)
from .signal_model import (
    PhasePrior,
    SampledSignal,
    ShapeTable,
    add_shapes,
    ldexp_shape,
    ldexp_signal,
    scale_into_range,
    signal_norm,
    sort_components,
    with_fundamental,
    zero_shape,
)

__all__ = [
    "StopReason",
    "DecompositionReport",
    "GmdResult",
    "SCHEMES",
    "rdbr_sweep",
    "gmd_decompose",
    "group_sum_shapes",
]

SCHEMES = ("gauss_seidel", "jacobi")


class StopReason(enum.Enum):
    MAX_ITER = "MaxIter"
    RESIDUAL_SMALL = "ResidualSmall"
    INCREMENT_SMALL = "IncrementSmall"
    STALLED = "Stalled"


@dataclass(frozen=True)
class DecompositionReport:
    """Per-iteration norms and the reason iteration ended.

    Norms are relative to the input signal's L2 norm, so the accuracy
    parameter is scale-free. ``accelerated`` holds, per iteration, whether
    the extrapolated state was kept (mmd only; always false for gmd).
    """

    residual_norms: tuple[float, ...]
    shape_increment_norms: tuple[float, ...]
    stop_reason: StopReason
    iterations: int
    accelerated: tuple[bool, ...]


@dataclass(frozen=True)
class GmdResult:
    """Shapes and modes per component (in the caller's component order)."""

    shapes: list[ShapeTable]
    modes: list[SampledSignal]
    residual: SampledSignal
    report: DecompositionReport
    fundamentals: list[int]


def _check_scheme(scheme: str) -> None:
    if scheme not in SCHEMES:
        raise DecompositionError(f"scheme must be one of {SCHEMES}, got {scheme!r}")


def to_caller_order(items: Sequence, order: Sequence[int]) -> list:
    """Undo :func:`sort_components`: ``items[i]`` belongs to input ``order[i]``."""
    out = [None] * len(items)
    for pos, src in enumerate(order):
        out[src] = items[pos]
    return out


def rdbr_sweep(residual: SampledSignal,
               priors: Sequence[PhasePrior | PhasePlan],
               bins: int, scheme: str = "gauss_seidel",
               backend: RegressionBackend = partition_regress):
    """One regression sweep over all components (priors already sorted).

    Returns the centered shape increments and the residual after all
    subtractions. With identical phases the first component absorbs the
    common structure; the result is order-dependent by design. ``backend``
    swaps the regression estimator; the partitioning estimate is the
    canonical default. ``priors`` may hold the :class:`PhasePlan` objects
    :func:`gmd_decompose` prepares once per run, whose amplitudes it has
    already checked.
    """
    _check_scheme(scheme)
    plans = as_plans(priors, len(residual), bins)
    for p in priors:
        if not isinstance(p, PhasePlan):
            check_amplitude(p)
    amplitudes = [plan.prior.amplitude for plan in plans]
    increments, _, r = sweep(residual.values, plans, bins, scheme, backend,
                             amplitudes, amplitudes, divide=True)
    return increments, SampledSignal(residual.times, r)


def gmd_decompose(signal: SampledSignal, priors: Sequence[PhasePrior],
                  eps: float = 1e-6, max_iters: int = 200, bins: int = 200,
                  scheme: str = "gauss_seidel",
                  backend: RegressionBackend = partition_regress) -> GmdResult:
    """Iterate regression sweeps until the residual stops improving.

    Stops on the first of: the relative residual norm or the largest shape
    increment norm dropping to ``eps``, the residual norm changing by at
    most ``eps`` between sweeps (stall), or ``max_iters`` sweeps.
    """
    _check_scheme(scheme)
    if len(priors) == 0:
        raise DecompositionError("at least one phase prior is required")
    if not 0.0 < eps < 1.0:
        raise OutOfDomain("eps must lie in (0, 1)")
    if max_iters < 1:
        raise OutOfDomain("max_iters must be at least 1")
    if bins < 2:
        raise OutOfDomain("bins must be at least 2")

    t = signal.times
    resolved = [p if p.fundamental is not None else with_fundamental(p, t)
                for p in priors]
    sorted_priors, order = sort_components(resolved)

    r, pow2 = scale_into_range(signal)
    denom = r.l2norm or 1.0

    shapes = [zero_shape(bins) for _ in sorted_priors]
    plans = as_plans(sorted_priors, len(signal), bins)
    for prior in sorted_priors:
        check_amplitude(prior)
    eps0, eps1, eps2 = 2.0, 1.0, 1.0
    norms_r: list[float] = []
    norms_s: list[float] = []
    j = 0
    while (j < max_iters and eps1 > eps and eps2 > eps
           and abs(eps1 - eps0) > eps):
        incs, r = rdbr_sweep(r, plans, bins, scheme, backend)
        shapes = [add_shapes(s, inc) for s, inc in zip(shapes, incs)]
        eps0 = eps1
        eps1 = signal_norm(r.values) / denom
        eps2 = max(inc.l2norm for inc in incs) / denom
        norms_r.append(eps1)
        norms_s.append(eps2)
        j += 1

    if eps1 <= eps:
        reason = StopReason.RESIDUAL_SMALL
    elif eps2 <= eps:
        reason = StopReason.INCREMENT_SMALL
    elif abs(eps1 - eps0) <= eps:
        reason = StopReason.STALLED
    else:
        reason = StopReason.MAX_ITER

    report = DecompositionReport(tuple(norms_r), tuple(norms_s), reason, j,
                                 (False,) * j)

    shapes = [ldexp_shape(s, pow2) for s in shapes]
    r = ldexp_signal(r, pow2)
    modes = [SampledSignal(t, plan.prior.amplitude * plan.evaluate(s))
             for plan, s in zip(plans, shapes)]
    fundamentals = [int(p.fundamental) for p in sorted_priors]
    return GmdResult(to_caller_order(shapes, order),
                     to_caller_order(modes, order), r, report,
                     to_caller_order(fundamentals, order))


def group_sum_shapes(result: GmdResult,
                     groups: Sequence[Sequence[int]]) -> list[ShapeTable]:
    """Bin-wise sums of the accumulated shapes over a partition of components.

    Meaningful when spurious priors are harmonics of a fundamental: the summed
    shape of each group approximates that group's true shape. An empty group
    yields a zero table by convention.
    """
    k_total = len(result.shapes)
    seen: set[int] = set()
    for group in groups:
        for k in group:
            if not 0 <= k < k_total:
                raise InvalidPartition(f"component index {k} out of range")
            if k in seen:
                raise InvalidPartition(f"component index {k} repeated")
            seen.add(k)
    if seen != set(range(k_total)):
        raise InvalidPartition("groups must cover every component exactly once")
    nb = result.shapes[0].size
    out = []
    for group in groups:
        total = zero_shape(nb)
        for k in group:
            total = add_shapes(total, result.shapes[k])
        out.append(total)
    return out
