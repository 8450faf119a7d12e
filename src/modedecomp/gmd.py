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
:func:`rdbr_sweep` one of one sweep, :func:`modedecomp.mmd.modified_rdbr`
one per band.
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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (DecompositionError, InvalidPartition, NonFinite,
                     OutOfDomain, integer, real)
from .fold_regress import (
    BandOperators,
    BinPass,
    PhasePlan,
    Workers,
    as_plans,
    band_operators,
    check_amplitude,
    leave,
    operator_bytes,
    partition_regress,
    run_workers,
    sweep,
)
from .signal_model import (
    PhasePrior,
    SampledSignal,
    ShapeTable,
    make_shape,
    row_norms,
    scale_into_range,
    signal_norm,
    sort_components,
    with_fundamental,
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
        elif not 0.0 < real(value, name) < 1.0:
            raise OutOfDomain(f"{name} must lie in (0, 1), got {value!r}")


def check_backend(backend) -> None:
    """Reject a ``backend`` other than :func:`partition_regress`, which
    ``bench/tracer.py`` binds to this module's name and hands in traced."""
    if backend is not partition_regress:
        raise OutOfDomain(f"backend must be partition_regress, got {backend!r}")


def prepare_run(signal: SampledSignal, priors: Sequence[PhasePrior], backend,
                bins: int, workers: Workers):
    """The prologue of both decompositions: check ``backend``
    (:func:`check_backend`), resolve each missing fundamental on the
    signal's grid and plan the priors in :func:`sort_components` order,
    one prior a task of the run's ``workers``, every fundamental before any
    plan. A fundamental keeps no sample-length array
    (:func:`~modedecomp.signal_model.round_fundamental`); the plans are
    allocated by the calling thread (:func:`as_plans`). Returns the plans,
    the order and the fundamentals in the caller's order."""
    check_backend(backend)
    resolved = workers.map(
        lambda p: (p if p.fundamental is not None
                   else with_fundamental(p, signal.times)), priors)
    sorted_priors, order = sort_components(resolved)
    return (as_plans(sorted_priors, len(signal), bins, workers), order,
            [int(p.fundamental) for p in resolved])


def to_caller_order(items: Sequence, order: Sequence[int]) -> list:
    """Undo :func:`sort_components`: ``items[i]`` belongs to input ``order[i]``."""
    return [items[order.index(k)] for k in range(len(items))]


def gmd_factors(plans: Sequence[PhasePlan], workers: Workers | None = None):
    """gmd's factors ``pre_k = 1 / q_k`` and ``post_k = q_k``, checked, one
    plan a task of ``workers`` (inline if not given)."""
    # allocated by the calling thread, as fold_regress.as_plans sets out
    inverse = [np.empty(len(plans[0])) for _ in plans]

    def factors(k):
        q = check_amplitude(plans[k].prior)
        return np.divide(1.0, q, out=inverse[k]), q

    pre, post = zip(*(workers or Workers(len(plans[0]))).map(
        factors, range(len(plans))))
    return list(pre), list(post)


def rdbr_sweep(residual: SampledSignal,
               priors: Sequence[PhasePrior | PhasePlan],
               bins: int, scheme: str = "gauss_seidel"):
    """One regression sweep over all components (priors already sorted),
    as a :func:`run_pass` stopped after one sweep.

    Returns the centered shape increments and the residual after all
    subtractions. With identical phases the first component absorbs the
    common structure; the result is order-dependent by design. ``priors``
    may hold :class:`PhasePlan` objects; every amplitude is checked.
    """
    check_run(scheme, bins=bins)
    plans = as_plans(priors, len(residual), bins)
    *_, total, _, r = run_pass(residual.values, plans, *gmd_factors(plans),
                               1.0, scheme, 0.5, 1)
    return [make_shape(u) for u in total], SampledSignal(residual.times, r)


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


def run_pass(residual: np.ndarray, plans: Sequence[PhasePlan],
             pre: Sequence[np.ndarray | None],
             post: Sequence[np.ndarray | None], gain: float, scheme: str,
             eps: float, max_iters: int, ops: BandOperators | None = None,
             workers: Workers | None = None,
             modes: Sequence[np.ndarray] | None = None):
    """Sweep ``residual`` until :func:`iterate_sweeps` stops: one pass of
    the recursive scheme, as gmd runs it once and mmd once per band.

    Component ``k`` regresses ``pre_k * r`` on its plan's bins and
    subtracts ``gain * post_k * E_k u``; a ``None`` factor is 1, and the
    plans fix the bin count ``B``. Given the pass's
    :class:`~modedecomp.fold_regress.BandOperators` as ``ops``, the sweeps
    run on bin sums (:class:`~modedecomp.fold_regress.BinPass`); without,
    on the samples through :func:`~modedecomp.fold_regress.sweep`. Both
    take the same factors and the same regression step. A pass on bin
    sums enters one component a task of ``workers`` (inline if not given).
    Either path's exit forms every band term of the pass one sample range a
    task, by :func:`~modedecomp.fold_regress.leave`: on bin sums the
    residual the pass leaves, and on either path the modes it is given.

    A residual with a NaN or an infinity is refused as
    :class:`~modedecomp.errors.NonFinite`, read from the max and min by
    which :func:`~modedecomp.signal_model.scale_into_range` scales it. The
    pass sweeps the residual scaled and scales its outputs back, so it is
    scale-free.

    Returns the relative residual and increment norms per sweep, the
    :class:`StopReason`, the summed increments ``U`` ``(K, B)``, the modes
    ``post_k * E_k(gain * U_k)`` and the residual. The modes are formed in
    ``modes``' arrays where given (on bin sums, beside the residual), and
    are ``None`` otherwise: a pass's modes follow from ``U``, its plans and
    its factors.
    """
    residual, pow2, finite = scale_into_range(residual)
    if not finite:
        raise NonFinite("folded samples must be finite")
    if ops is not None:
        solver = BinPass(residual, plans, ops, pre, post, gain, scheme,
                         workers)
        # relative to the norm the pass read on entry
        denom = math.sqrt(solver.base_sq / residual.size) or 1.0
        out = iterate_sweeps(lambda: solver.sweep()[1:], denom, eps,
                             max_iters)
        total, r = solver.total, solver.finish(modes)
    else:
        denom = signal_norm(residual) or 1.0
        total = np.zeros((len(plans), plans[0].layout.size))
        r = residual

        def step():
            nonlocal r
            incs, r = sweep(r, plans, scheme, pre, post, gain)
            np.add(total, incs, out=total)
            # scaling by a gain of 1 or 2 commutes with the norm, bit for bit
            return signal_norm(r), row_norms(incs) * gain

        out = iterate_sweeps(step, denom, eps, max_iters)
        if modes is not None:
            leave(workers or Workers(residual.size), plans,
                  [gain * u for u in total], post, modes, None)
    if pow2:
        with np.errstate(over="ignore"):  # make_shape refuses an infinity
            for a in (total, *(modes or ()), r):
                np.ldexp(a, pow2, out=a)
    return out + (total, modes, r)


#: Bytes of a run's operators per component and sample beyond which its
#: bin-space sweeps were measured slower than sample-space sweeps.
OPERATOR_PER_SAMPLE = 8


def bin_space_fits(length: int, bins: int, components: int) -> bool:
    """Whether a gmd run sweeps in bin space: its operators,
    :func:`~modedecomp.fold_regress.operator_bytes`, take at most
    :data:`OPERATOR_PER_SAMPLE` bytes per component and sample (so never
    more than its phase plans). With one component that holds from
    ``L = 5 B``.

    A gmd run is one pass from its first sweep to its last, so it builds
    its operators and forms its modes and residual once
    (:func:`modedecomp.mmd.bin_space_fits` sets out why a run of mmd's band
    0 alone differs).
    """
    return (operator_bytes(bins, components, 1)
            <= OPERATOR_PER_SAMPLE * components * length)


def gmd_decompose(signal: SampledSignal, priors: Sequence[PhasePrior],
                  eps: float = 1e-6, max_iters: int = 200, bins: int = 200,
                  scheme: str = "gauss_seidel",
                  backend=partition_regress) -> GmdResult:
    """Iterate regression sweeps until the residual stops falling.

    One :func:`run_pass` from the first sweep to the last, stopped by
    :func:`iterate_sweeps`: component ``k`` regresses ``(1 / q_k) r`` and
    subtracts ``q_k E_k u``, with the factors formed once
    (:func:`gmd_factors`), on bin sums when :func:`bin_space_fits` holds.
    The run owns a :func:`~modedecomp.fold_regress.run_workers` pool until
    it returns, threads from :data:`~modedecomp.fold_regress.POOL_FLOOR`
    samples, with the same outputs and errors as inline. On it, one prior
    a task, it resolves every missing fundamental, then plans every prior
    (:func:`prepare_run`), then checks every amplitude and forms every
    factor, with no workspace and, of sample length, only the plans and
    factors it keeps; a run on bin sums then builds its operators and
    enters its pass one component (or pair) a task. On either path the
    pass's exit forms every band term, its modes and, on bin sums, its
    residual, one sample range a task.
    ``backend`` is checked by :func:`check_backend`.
    """
    check_run(scheme, eps=eps, max_iters=max_iters, bins=bins)
    with run_workers(len(signal), len(priors)) as workers:
        plans, order, fundamentals = prepare_run(signal, priors, backend,
                                                 bins, workers)
        pre, post = gmd_factors(plans, workers)
        ops = (band_operators(plans, pre, post, 1.0, workers)
               if bin_space_fits(len(signal), bins, len(plans)) else None)
        # formed by the pass's exit, beside its residual
        modes = [np.empty(len(signal)) for _ in plans]
        norms_r, norms_s, reason, total, modes, r = run_pass(
            signal.values, plans, pre, post, 1.0, scheme, eps, max_iters,
            ops, workers, modes)

    j = len(norms_r)
    report = DecompositionReport(tuple(norms_r), tuple(norms_s), reason, j,
                                 (False,) * j)
    t = signal.times
    modes = [SampledSignal(t, mode) for mode in modes]
    return GmdResult(to_caller_order([make_shape(u) for u in total], order),
                     to_caller_order(modes, order), SampledSignal(t, r),
                     report, fundamentals)


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
    zeros = np.zeros(result.shapes[0].size)
    return [make_shape(sum((result.shapes[k].bins for k in group), zeros))
            for group in groups]
