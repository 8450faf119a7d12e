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

:func:`run_pass` drives every pass, sweeping until :func:`iterate_sweeps`,
the one stopping rule (mmd's outer loop stops by it too), ends it:
:func:`gmd_decompose` runs one pass from its first sweep to its last,
:func:`modedecomp.mmd.modified_rdbr` one per band.
A pass of partitioning estimates is linear in the residual, so given the
pass's operators it runs on bin sums
(:class:`~modedecomp.fold_regress.BinPass`), and otherwise on the samples
through :func:`~modedecomp.fold_regress.sweep`; :func:`bin_space_fits`
decides for gmd. Either way a run has the same iterations and stop
reasons, and outputs that differ by rounding only.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DecompositionError, InvalidPartition, OutOfDomain, integer
from .fold_regress import (
    BandOperators,
    BinPass,
    PhasePlan,
    Workers,
    as_plans,
    band_operators,
    check_amplitude,
    operator_bytes,
    partition_regress,
    pass_modes,
    run_workers,
    sweep,
)
from .signal_model import (
    PhasePrior,
    SampledSignal,
    ShapeTable,
    add_shapes,
    ldexp_shape,
    ldexp_signal,
    make_shape,
    row_norms,
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


#: The least value of each integer run parameter; any other parameter
#: :func:`check_run` is given is an accuracy in ``(0, 1)``.
LEAST = {"bins": 2, "max_iters": 1, "j1": 1, "j2": 1, "m0": 0}


def check_run(scheme: str, **params) -> None:
    """Reject a run's parameters outside their domains: ``scheme`` one of
    :data:`SCHEMES`, the counts in :data:`LEAST` integers (not ``bool``) at
    least their least value, and every other parameter a real number in
    ``(0, 1)``."""
    if scheme not in SCHEMES:
        raise DecompositionError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    for name, value in params.items():
        if name in LEAST:
            integer(value, name, LEAST[name])
        elif not (isinstance(value, numbers.Real) and 0.0 < value < 1.0):
            raise OutOfDomain(f"{name} must lie in (0, 1), got {value!r}")


def check_backend(backend) -> None:
    """Reject a ``backend`` other than :func:`partition_regress`, which
    ``bench/tracer.py`` binds to this module's name and hands in traced."""
    if backend is not partition_regress:
        raise OutOfDomain(f"backend must be partition_regress, got {backend!r}")


def to_caller_order(items: Sequence, order: Sequence[int]) -> list:
    """Undo :func:`sort_components`: ``items[i]`` belongs to input ``order[i]``."""
    out = [None] * len(items)
    for pos, src in enumerate(order):
        out[src] = items[pos]
    return out


def rdbr_sweep(residual: SampledSignal,
               priors: Sequence[PhasePrior | PhasePlan],
               bins: int, scheme: str = "gauss_seidel"):
    """One regression sweep over all components (priors already sorted).

    Returns the centered shape increments and the residual after all
    subtractions. With identical phases the first component absorbs the
    common structure; the result is order-dependent by design. ``priors``
    may hold the :class:`PhasePlan` objects :func:`gmd_decompose` prepares
    once per run, whose amplitudes it has already checked.
    """
    check_run(scheme, bins=bins)
    plans = as_plans(priors, len(residual), bins)
    for p in priors:
        if not isinstance(p, PhasePlan):
            check_amplitude(p)
    amplitudes = [plan.prior.amplitude for plan in plans]
    increments, r = sweep(residual.values, plans, bins, scheme, amplitudes,
                          amplitudes, 1.0, divide=True)
    return [make_shape(u) for u in increments], SampledSignal(residual.times, r)


def iterate_sweeps(step, denom: float, eps: float, max_iters: int):
    """Run ``step()`` until the residual stops falling: the stopping rule of
    gmd's pass, of each mmd band pass and of mmd's outer loop.

    Each call runs one step and returns the residual's norm and its
    increments' norms. Stops on the first of: the residual norm or the
    largest increment norm, relative to ``denom``, dropping to ``eps``; the
    relative residual falling by at most ``eps``, from 1 at the first step
    (stall: a loop ends at its first rise); or ``max_iters`` steps. Returns
    the relative norms per step and the :class:`StopReason`.
    """
    eps1, norms_r, norms_s, reason = 1.0, [], [], None
    while reason is None:
        r_norm, inc_norms = step()
        eps0, eps1 = eps1, r_norm / denom
        eps2 = max(inc_norms) / denom
        norms_r.append(float(eps1))
        norms_s.append(float(eps2))
        reason = (StopReason.RESIDUAL_SMALL if eps1 <= eps
                  else StopReason.INCREMENT_SMALL if eps2 <= eps
                  # a norm that is not a number stalls the loop too
                  else StopReason.STALLED if not eps0 - eps1 > eps
                  else StopReason.MAX_ITER if len(norms_r) >= max_iters
                  else None)
    return norms_r, norms_s, reason


def run_pass(residual: np.ndarray, plans: Sequence[PhasePlan], bins: int,
             pre: Sequence[np.ndarray | None],
             post: Sequence[np.ndarray | None], gain: float, scheme: str,
             eps: float, max_iters: int, ops: BandOperators | None = None,
             divide: bool = False, workers: Workers | None = None):
    """Sweep ``residual`` until :func:`iterate_sweeps` stops: one pass of
    the recursive scheme, as gmd runs it once and mmd once per band.

    Component ``k`` regresses ``pre_k * r`` and subtracts
    ``gain * post_k * E_k u``; a ``None`` factor is 1. Given the pass's
    :class:`~modedecomp.fold_regress.BandOperators` as ``ops``, the sweeps
    run on bin sums (:class:`~modedecomp.fold_regress.BinPass`); without,
    on the samples through :func:`~modedecomp.fold_regress.sweep`, where
    ``divide`` regresses ``r / pre_k`` instead. Both take the same
    factors and the same regression step. A pass on bin sums runs its
    per-component sample work on ``workers``, inline if not given.

    Returns the relative residual and increment norms per sweep, the
    :class:`StopReason`, the summed increments ``U`` ``(K, B)``, the modes
    ``post_k * E_k(gain * U_k)`` and the residual.
    """
    if ops is not None:
        solver = BinPass(residual, plans, ops, pre, post, gain, scheme,
                         workers)
        # relative to the norm the pass read on entry
        denom = math.sqrt(solver.base_sq / residual.size) or 1.0
        return iterate_sweeps(lambda: solver.sweep()[1:], denom, eps,
                              max_iters) + solver.finish()

    denom = signal_norm(residual) or 1.0
    total = np.zeros((len(plans), bins))
    r = residual

    def step():
        nonlocal r
        incs, r = sweep(r, plans, bins, scheme, pre, post, gain, divide)
        np.add(total, incs, out=total)
        # scaling by a gain of 1 or 2 commutes with the norm, bit for bit
        return signal_norm(r), row_norms(incs) * gain

    return iterate_sweeps(step, denom, eps, max_iters) + (
        total, pass_modes(plans, post, gain, total), r)


#: Bytes of a run's operators per component and sample beyond which its
#: bin-space sweeps were measured slower than sample-space sweeps.
OPERATOR_PER_SAMPLE = 8


def bin_space_fits(length: int, bins: int, components: int) -> bool:
    """Whether a gmd run sweeps in bin space: it has more than one
    component, and its operators,
    :func:`~modedecomp.fold_regress.operator_bytes`, take at most
    :data:`OPERATOR_PER_SAMPLE` bytes per component and sample (so never
    more than its phase plans).

    An mmd run of band 0 alone is the opposite case:
    :func:`modedecomp.mmd.bin_space_fits` keeps it on the samples for more
    than one component, because it builds a new pass in every outer
    iteration and forms that pass's modes and residual on the samples. A gmd
    run is one pass from its first sweep to its last: it builds its
    operators once and forms its modes and residual once. With one
    component that fixed work still costs as much as the cheap sweeps it
    replaces: a lone mode converges in four to six of them.

    Measured on ex4_1-shaped runs with the path forced (2-vCPU Xeon VM,
    ``K = 1 ... 3``, ``B = 200 ... 1000``, ``L = 2^10 ... 2^20``, both
    schemes), bin over sample time: 0.56-0.84 on the 24 sizes this rule
    admits; 0.60-7.4 on the 108 with ``K = 2, 3`` it turns away, where the
    first losses came at 23-46 bytes a sample with ``K = 3``; and with one
    component 0.63-1.10, with 1.04-1.28 at ``B = 200``,
    ``L = 2^16 ... 2^20`` in a second series.
    """
    return (components > 1 and operator_bytes(bins, components, 1)
            <= OPERATOR_PER_SAMPLE * components * length)


def gmd_decompose(signal: SampledSignal, priors: Sequence[PhasePrior],
                  eps: float = 1e-6, max_iters: int = 200, bins: int = 200,
                  scheme: str = "gauss_seidel",
                  backend=partition_regress) -> GmdResult:
    """Iterate regression sweeps until the residual stops falling.

    One :func:`run_pass` from the first sweep to the last, stopped by
    :func:`iterate_sweeps`: component ``k`` regresses ``r / q_k`` and
    subtracts ``q_k E_k u``, on bin sums when :func:`bin_space_fits`
    holds. A run on bin sums builds its operators, enters its pass and
    forms its modes one component (or pair) a task, on the
    :func:`~modedecomp.fold_regress.run_workers` pool it owns until it
    returns: threads from
    :data:`~modedecomp.fold_regress.POOL_FLOOR` samples, with the same
    outputs as inline. ``backend`` is checked by :func:`check_backend`.
    """
    check_run(scheme, eps=eps, max_iters=max_iters, bins=bins)
    check_backend(backend)
    if len(priors) == 0:
        raise DecompositionError("at least one phase prior is required")

    t = signal.times
    resolved = [p if p.fundamental is not None else with_fundamental(p, t)
                for p in priors]
    sorted_priors, order = sort_components(resolved)

    scaled, pow2 = scale_into_range(signal)
    plans = as_plans(sorted_priors, len(signal), bins)
    for prior in sorted_priors:
        check_amplitude(prior)
    amplitudes = [plan.prior.amplitude for plan in plans]

    pre, ops = amplitudes, None
    with run_workers(len(signal), len(plans)) as workers:
        if bin_space_fits(len(signal), bins, len(plans)):
            pre = [1.0 / q for q in amplitudes]
            ops = band_operators(plans, pre, amplitudes, 1.0, workers)
        norms_r, norms_s, reason, total, modes, r = run_pass(
            scaled.values, plans, bins, pre, amplitudes, 1.0, scheme, eps,
            max_iters, ops, divide=ops is None, workers=workers)

    j = len(norms_r)
    report = DecompositionReport(tuple(norms_r), tuple(norms_s), reason, j,
                                 (False,) * j)
    shapes = [ldexp_shape(make_shape(u), pow2) for u in total]
    modes = [SampledSignal(t, np.ldexp(mode, pow2, out=mode))
             for mode in modes]
    r = ldexp_signal(SampledSignal(t, r), pow2)
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
            if not 0 <= integer(k, "component index") < k_total:
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
