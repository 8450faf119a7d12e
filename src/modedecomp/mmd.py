"""Multiresolution mode decomposition: band-demodulated recursive regression.

The outer loop visits bands 0, 1, ..., M0. For each band a demodulated
regression pass (cosine carrier always, sine carrier only for n > 0)
estimates the band's shape increment per component, adds it to that
component's band table, and chains the residual. Band ``-n``'s carriers are
band ``n``'s (cosine even, sine odd, bit for bit), so only the sums
``s_cn + s_c,-n`` and ``s_sn - s_s,-n`` can be identified: a run fits them
as band ``n``'s tables, and its estimates hold zero tables for band ``-n``.
Band tables are the identifiable products: coefficient times unit shape.
Results keep the products, with their L2 norms as coefficients;
``normalize_estimate`` splits them into coefficients and unit-norm shapes.

Each outer iteration runs ``2 * M0 + 1`` band passes of up to ``J2``
sweeps; each regression reuses its prior's
:class:`~modedecomp.fold_regress.PhasePlan`, built once per run.

Every step of a band pass is linear in the residual, so
:func:`~modedecomp.gmd.run_pass` may solve it on bin sums: the inner sweeps
then cost ``O(K^2 B^2)`` rather than ``O(K L)``. :func:`bin_space_fits`
chooses the path. A pass's ``B x B`` operators, its
:class:`~modedecomp.fold_regress.BandOperators`, do not change across
outer iterations, so a run's :class:`BandPlans` builds them once for each
``(n, kind)``; on either path its passes and modes take their carriers
from one :class:`~modedecomp.signal_model.BandCarriers` store.
The run's plans are made one prior a task on its
:func:`~modedecomp.fold_regress.run_workers` pool, and on bin sums the
operator builds and each pass's entry sums run one component a task on it
too, while each pass's exit, the residual it leaves, and the closing band
sums run one sample range a task, with the same outputs as inline.

The outer loop is a fixed-point iteration on the run's band state, one
``(passes, K, B)`` array of band tables, stopped as a band pass is, by
:func:`~modedecomp.gmd.iterate_sweeps`. After each plain iteration, one
Gauss-Seidel step over the bands, :class:`AndersonStep` extrapolates the
state and the residual with a depth-one Anderson step and keeps the result
only when its residual is below the plain step's.

The band state and the residual are all the outer loop carries. A mode is a
function of its band tables, their band sum, so each is formed from them
once, after the loop, on the carriers its passes ran on; a pass forms no
mode array, and returns its shape increments and its residual alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .errors import BandOutOfRange, GridMismatch, integer
from .fold_regress import (
    BandOperators,
    PhasePlan,
    Workers,
    as_plans,
    band_operators,
    operator_bytes,
    partition_regress,
    range_terms,
    run_workers,
)
from .gmd import (
    DecompositionReport,
    check_run,
    iterate_sweeps,
    prepare_run,
    run_pass,
    to_caller_order,
)
from .signal_model import (
    BandCarriers,
    MimfEstimate,
    PhasePrior,
    SampledSignal,
    band_slots,
    make_estimate,
    make_shape,
    reconstruct_mimf,
    scale_into_range,
    signal_norm,
    zero_shape,
)

__all__ = [
    "MmdConfig",
    "MmdResult",
    "modified_rdbr",
    "mmd_decompose",
    "ell_band_approx",
    "band_residual",
]


@dataclass(frozen=True)
class MmdConfig:
    """Knobs for the multiresolution loop.

    ``m0`` is the bandwidth; ``eps1`` stops the outer loop on the relative
    residual, its fall and the largest band increment, ``eps2`` each inner
    demodulated pass alike; ``j1``/``j2`` cap the outer/inner iteration
    counts; ``bins`` is the regression bin count.
    """

    m0: int = 10
    eps1: float = 1e-6
    eps2: float = 1e-6
    j1: int = 200
    j2: int = 10
    bins: int = 200
    scheme: str = "gauss_seidel"

    def validate(self) -> None:
        check_run(self.scheme, m0=self.m0, eps1=self.eps1, eps2=self.eps2,
                  j1=self.j1, j2=self.j2, bins=self.bins)


@dataclass(frozen=True)
class MmdResult:
    estimates: list[MimfEstimate]
    residual: SampledSignal
    report: DecompositionReport
    fundamentals: list[int]


class BandPlans(tuple):
    """A run's phase plans and what its band passes share: ``carriers``, a
    :class:`~modedecomp.signal_model.BandCarriers` store, the ``workers``
    (inline if not given) and, with ``bin_space``, each pass's
    :class:`~modedecomp.fold_regress.BandOperators`, built by
    :meth:`operators` on first use and kept for the run by ``(|n|, kind)``.
    Without ``bin_space``, :meth:`operators` gives ``None`` and
    :func:`modified_rdbr` sweeps on the samples.
    """

    def __new__(cls, plans: Sequence[PhasePlan], bin_space: bool = False,
                workers: Workers | None = None):
        self = super().__new__(cls, plans)
        self.carriers = BandCarriers([plan.prior for plan in plans])
        self.workers = workers or Workers(len(plans[0]))
        self.cache = {} if bin_space else None
        return self

    def operators(self, n: int, kind: str, carriers,
                  gain: float) -> BandOperators | None:
        if self.cache is None:
            return None
        key = (abs(n), kind)
        if key not in self.cache:
            self.cache[key] = band_operators(self, carriers, carriers,
                                             gain, self.workers)
        return self.cache[key]


#: Bytes of cached operators any run may hold, whatever its length.
OPERATOR_FLOOR = 32 * 2 ** 20

#: Bytes of one pass's operators per component and sample beyond which a
#: bin-space sweep, which reads them all, was measured slower than a
#: sample-space sweep.
OPERATOR_PER_SAMPLE = 128


def bin_space_fits(length: int, bins: int, components: int,
                   passes: int) -> bool:
    """Whether a run solves its band passes in bin space.

    Speed: one pass's operators take at most :data:`OPERATOR_PER_SAMPLE`
    bytes per component and sample, so that the dense ``B x B`` work of a
    sweep stays below the per-sample work it replaces, and a run of band 0
    alone has one component. Memory: all the cached operators take at most
    ``48 K L`` bytes, six arrays of ``length`` numbers per component, or
    :data:`OPERATOR_FLOOR` if that is more; the carriers do not count.

    A run of band 0 alone is a gmd run cut into passes: it builds its
    operators once, but enters a new pass in every outer iteration, and
    each pass's entry sums and its exit on the samples cost more than its
    two or three sweeps save with more than one component. A gmd run is
    one pass from its first sweep to its last, so
    :func:`modedecomp.gmd.bin_space_fits` tests operator bytes alone.
    """
    if passes == 1 and components > 1:
        return False
    per_pass = operator_bytes(bins, components, 1)
    return (per_pass <= OPERATOR_PER_SAMPLE * components * length
            and passes * per_pass <= max(48 * components * length,
                                         OPERATOR_FLOOR))


def modified_rdbr(residual: SampledSignal,
                  priors: Sequence[PhasePrior | PhasePlan],
                  n: int, kind: str, eps2: float = 1e-6, max_iters: int = 10,
                  bins: int = 200, scheme: str = "gauss_seidel"):
    """Demodulated regression pass for one band.

    For band 0 the pass subtracts the regressed increment itself; for
    |n| > 0 it subtracts ``2 * carrier * increment`` and the stored shape
    increment is doubled, so a band table summed from them holds the full
    product of coefficient and shape. ``priors`` may be the
    :class:`BandPlans` :func:`mmd_decompose` prepares once per run, and
    then the pass takes its carriers, operators and workers from them: on
    bin sums if they give operators, to within rounding of the
    sample-space sweeps. Other priors sweep on the samples.

    A negative ``n`` runs on band ``|n|``'s carriers and operators: a sine
    carrier's sign flips the increments, not the modes or the residual, so
    band ``-n``'s sine tables are stored negated. :func:`mmd_decompose`
    visits ``n >= 0`` only.

    Returns ``(shape_increments, residual)``, as :func:`rdbr_sweep` does,
    where the shape increments are per-component tables accumulated over
    the inner sweeps. The pass forms no mode increment: component ``k``'s
    is :func:`~modedecomp.signal_model.reconstruct_mimf` of the estimate
    that holds its table alone, at band ``n`` and of its ``kind``, and the
    residual is the input less their sum.
    """
    check_run(scheme, eps2=eps2, max_iters=max_iters, bins=bins)
    plans = as_plans(priors, len(residual), bins)
    shared = priors if isinstance(priors, BandPlans) else BandPlans(plans)
    pre = shared.carriers(n, kind)
    gain = 1.0 if n == 0 else 2.0
    ops = shared.operators(n, kind, pre, gain)

    *_, total, _, r = run_pass(residual.values, plans, pre, pre, gain,
                               scheme, eps2, max_iters, ops, shared.workers)
    # sin is odd: band -n's sine term is band n's carrier times -table
    sign = -gain if n < 0 and kind == "sin" else gain
    return ([make_shape(sign * u) for u in total],
            SampledSignal(residual.times, r))


def anderson_weight(f: np.ndarray, f_prev: np.ndarray | None) -> float | None:
    """The depth-one Anderson weight ``gamma = f . df / df . df``, with
    ``df = f - f_prev``, that minimises ``|f - gamma df|``; ``None`` without
    a previous step, for ``df = 0`` or a weight that is not finite."""
    if f_prev is None:
        return None
    # einsum, not np.vdot: OpenBLAS splits a dot product of over 10,000
    # entries among its threads, so its last bits follow the thread count
    f, df = f.ravel(), (f - f_prev).ravel()
    dd = float(np.einsum("i,i->", df, df))
    if dd == 0.0:
        return None
    gamma = float(np.einsum("i,i->", f, df)) / dd
    return gamma if math.isfinite(gamma) else None


def _mix(g: np.ndarray, h: np.ndarray, gamma: float,
         out: np.ndarray) -> np.ndarray:
    """``g - gamma (g - h)`` into ``out``, which may be ``h``."""
    np.subtract(g, h, out=out)
    out *= gamma
    return np.subtract(g, out, out=out)


class AndersonStep:
    """Safeguarded depth-one Anderson acceleration (Walker & Ni, 2011) of
    the outer iteration.

    An outer iteration maps the band state ``x`` to ``g = G(x)``. With
    ``f = g - x`` and the previous iteration's ``g'`` and ``f'``, the step
    proposes ``g - gamma (g - g')`` for :func:`anderson_weight`'s
    ``gamma``. The residual is affine in the band state, so it is mixed
    with the same ``gamma`` from the previous iteration's residual, held
    here: one array of the signal's length. The modes are not held: they
    are formed from the band state once the loop ends. The mixed state is
    kept only when its residual is smaller than the plain step's; the
    history always holds the plain step.
    """

    def __init__(self):
        self.state = self.increment = self.residual = None

    def __call__(self, start: np.ndarray, state: np.ndarray, r: SampledSignal,
                 rel: float, denom: float) -> tuple[SampledSignal, float, bool]:
        """After a plain iteration from band state ``start`` to ``state``
        (updated in place), with residual ``r`` of relative norm ``rel``:
        the residual kept, its relative norm and whether the mixed state was
        kept."""
        increment = state - start
        gamma = anderson_weight(increment, self.increment)
        self.increment = increment
        kept = False
        if gamma is not None:
            mixed = _mix(r.values, self.residual, gamma, np.empty(len(r)))
            mixed_rel = signal_norm(mixed) / denom
            kept = mixed_rel < rel
        plain, self.residual = state.copy(), r.values
        if kept:
            _mix(plain, self.state, gamma, out=state)
            r, rel = SampledSignal(r.times, mixed), mixed_rel
        self.state = plain
        return r, rel, kept


def mmd_decompose(signal: SampledSignal, priors: Sequence[PhasePrior],
                  cfg: MmdConfig, backend=partition_regress) -> MmdResult:
    """Run the full multiresolution loop.

    Each outer iteration runs every band pass once (a Gauss-Seidel step
    over the bands), then tries an :class:`AndersonStep` extrapolation and
    keeps it only when it lowers the residual. :func:`iterate_sweeps` ends
    the outer loop once the relative residual or largest band increment
    drops to ``cfg.eps1``, the residual falls by at most ``cfg.eps1``, or
    ``cfg.j1`` iterations have run; ``report.accelerated`` says, per
    iteration, whether the extrapolated state was kept. Estimates hold the
    band products (coefficient times unit shape), not normalized; each
    coefficient is its product's L2 norm, and each mode is the band sum of
    its products, formed once after the loop: a :func:`modified_rdbr`
    pass returns its shape increments and its residual, and forms no mode.
    Components in the result follow the caller's prior order. ``backend``
    is checked by :func:`~modedecomp.gmd.check_backend`.

    A run owns a :func:`~modedecomp.fold_regress.run_workers` pool,
    threads from :data:`~modedecomp.fold_regress.POOL_FLOOR` samples,
    until its modes are formed. On it, one prior a task, it resolves every
    missing fundamental and then plans every prior
    (:func:`~modedecomp.gmd.prepare_run`), with no workspace and, of
    sample length, only the plans it keeps; a run on bin sums then builds
    its operators and enters each pass one component a task, and forms
    each pass's residual one sample range a task. On either path the
    closing band sums run one sample range a task, band term by band term.
    Outputs and errors are those of a run inline.
    """
    cfg.validate()
    length, passes = len(signal), 2 * cfg.m0 + 1
    # the pool starts its threads on its first task, and allocates its
    # workspaces on the first that takes one
    with run_workers(length, len(priors)) as workers:
        plans, order, fundamentals = prepare_run(signal, priors, backend,
                                                 cfg.bins, workers)
        plans = BandPlans(plans, bin_space_fits(length, cfg.bins, len(plans),
                                                passes), workers)

        # scaled as run_pass scales a pass: the Anderson step squares band
        # increments, and eps1 times the residual must stay a normal float
        scaled, pow2, _ = scale_into_range(signal.values)
        r = SampledSignal(signal.times, scaled)
        denom = r.l2norm or 1.0

        # the band state: one table per pass of an outer iteration, (band,
        # kind) in visit order, bands 0 ... m0, and component
        slots = band_slots(cfg.m0)
        state = np.zeros((len(slots), len(plans), cfg.bins))
        extrapolate = AndersonStep()
        accelerated: list[bool] = []

        def step():
            nonlocal r
            start = state.copy()
            incs = []
            for slot, (n, kind) in enumerate(slots):
                shapes, r = modified_rdbr(
                    r, plans, n, kind, cfg.eps2, cfg.j2, cfg.bins, cfg.scheme)
                state[slot] += [shape.bins for shape in shapes]
                incs += [shape.l2norm / denom for shape in shapes]
            r, rel, mixed = extrapolate(start, state, r,
                                        signal_norm(r.values) / denom, denom)
            accelerated.append(mixed)
            return rel, incs

        norms_r, norms_s, reason = iterate_sweeps(step, 1.0, cfg.eps1,
                                                  cfg.j1)
        del extrapolate  # free its held residual before the modes are formed

        # each mode is its band sum as reconstruct_mimf forms it, term by
        # term, one sample range a task
        modes = [np.zeros(length) for _ in plans]

        def add(tables, post, lo, hi, space):
            for k, a, b, term in range_terms(lo, hi, space, plans, tables,
                                             post):
                modes[k][a:b] += term

        for slot, (n, kind) in enumerate(slots):
            workers.split(partial(add, state[slot], plans.carriers(n, kind)))
    report = DecompositionReport(tuple(norms_r), tuple(norms_s), reason,
                                 len(norms_r), tuple(accelerated))

    zero = zero_shape(cfg.bins)
    estimates = []
    for k, mode in enumerate(modes):
        tables = {"cos": {}, "sin": {}}
        with np.errstate(over="ignore"):  # make_shape refuses an infinity
            for slot, (b, kind) in enumerate(slots):
                tables[kind][b] = make_shape(np.ldexp(state[slot, k], pow2))
                if b:  # band n's table holds the pair's identifiable sum
                    tables[kind][-b] = zero
        np.ldexp(mode, pow2, out=mode)
        estimates.append(make_estimate(cfg.m0, tables["cos"], tables["sin"],
                                       mode=SampledSignal(signal.times, mode)))
    if pow2:
        r = SampledSignal(r.times, np.ldexp(r.values, pow2))
    return MmdResult(to_caller_order(estimates, order), r, report,
                     fundamentals)


def ell_band_approx(est: MimfEstimate, prior: PhasePrior, ell: int,
                    grid: Sequence[float]) -> SampledSignal:
    """Reconstruct using only the bands with |n| <= ell."""
    if not 0 <= integer(ell, "ell") <= est.bandwidth:
        raise BandOutOfRange(f"ell must lie in [0, {est.bandwidth}]")
    kept = [{b: v for b, v in bands.items() if abs(b) <= ell}
            for bands in (est.cos_shapes, est.sin_shapes, est.cos_coeffs,
                          est.sin_coeffs)][:4 if est.normalized else 2]
    return reconstruct_mimf(make_estimate(ell, *kept, normalized=est.normalized),
                            prior, grid)


def band_residual(signal: SampledSignal, est: MimfEstimate, prior: PhasePrior,
                  ell: int, grid: Sequence[float]) -> SampledSignal:
    """A component's signal on ``grid`` minus its ell-banded reconstruction."""
    if not np.array_equal(signal.times, np.asarray(grid, dtype=float)):
        raise GridMismatch("signal times and grid differ")
    approx = ell_band_approx(est, prior, ell, grid)
    return SampledSignal(signal.times, signal.values - approx.values)
