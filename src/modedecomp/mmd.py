"""Multiresolution mode decomposition: band-demodulated recursive regression.

The outer loop visits bands in the interleaved order 0, +1, -1, ..., +M0,
-M0. For each band a demodulated regression pass (cosine carrier always,
sine carrier only for |n| > 0) estimates the band's shape increment per
component, adds it to that component's band table, and chains the residual.
Band tables are the identifiable products: coefficient times unit shape.
Results keep the products, with their L2 norms as coefficients;
``normalize_estimate`` splits them into coefficients and unit-norm shapes.

Relative to a plain generalized-mode run, the multiresolution loop costs a
factor of order ``J2 * M0`` more regressions; each one reuses its prior's
:class:`~modedecomp.fold_regress.PhasePlan`, built once per run, and each
band pass evaluates its carriers once.

Every step of a band pass is linear in the residual, so
:func:`~modedecomp.gmd.run_pass` may solve it on bin sums: the inner sweeps
then cost ``O(K^2 B^2)`` rather than ``O(K L)``. The pass's ``B x B``
operators (:class:`~modedecomp.fold_regress.BandOperators`) and its carriers
do not change across outer iterations, and band ``-n``'s passes run on band
``n``'s (:func:`modified_rdbr`). So :class:`BinSpacePlans` builds the
operators once per run for each ``(|n|, kind)`` and holds the carriers in
the memory they leave. :func:`bin_space_fits` chooses the path. On that
path the operator builds, each pass's entry sums and its modes run one
component a task on the run's
:func:`~modedecomp.fold_regress.run_workers` pool, with the same outputs
as inline.

The outer loop is a fixed-point iteration on the run's band state, one
``(passes, K, B)`` array of band tables, stopped as a band pass is, by
:func:`~modedecomp.gmd.iterate_sweeps`. After each plain iteration, one
Gauss-Seidel step over the bands, :class:`AndersonStep` extrapolates the
state and the residual with a depth-one Anderson step and keeps the result
only when its residual is below the plain step's. On ex4_1-shaped inputs
(``K = 2``, ``B = 200``, ``L = 2^14``) that took ``m0 = 4`` runs from 15-16
outer iterations to 11, and ``m0 = 10`` runs from 163 and 118 to 66 and 79
(62 once the loop also stopped on its band increments), each with a lower
final residual; ``L = 2^17``, ``m0 = 2`` runs take 5.

The band state and the residual are all the outer loop carries. A mode is a
function of its band tables, their band sum, so each is formed from them
once, after the loop, on the carriers its passes ran on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BandOutOfRange,
    DecompositionError,
    GridMismatch,
    integer,
)
from .fold_regress import (
    BandOperators,
    PhasePlan,
    Workers,
    as_plans,
    band_operators,
    operator_bytes,
    partition_regress,
    pass_modes,
    run_workers,
)
from .gmd import (
    DecompositionReport,
    check_backend,
    check_run,
    iterate_sweeps,
    run_pass,
    to_caller_order,
)
from .signal_model import (
    MimfEstimate,
    PhasePrior,
    SampledSignal,
    band_carrier,
    band_sign,
    band_slots,
    carrier,
    ldexp_shape,
    ldexp_signal,
    make_estimate,
    make_shape,
    reconstruct_mimf,
    scale_into_range,
    signal_norm,
    sort_components,
    with_fundamental,
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


class BinSpacePlans(tuple):
    """A run's phase plans, marked for the bin-space band pass.

    :func:`modified_rdbr` solves a band pass over these plans on bin sums
    (:class:`~modedecomp.fold_regress.BinPass`) and keeps the pass's
    :class:`~modedecomp.fold_regress.BandOperators` here for the rest of
    the run, keyed by ``(|n|, kind)``: band ``-n``'s passes run on band
    ``n``'s carriers.

    The carriers are kept here too, keyed the same way. Those of the first
    ``(|n|, kind)`` in the order ``(1, cos), (1, sin), (2, cos), ...`` that
    fit in ``carrier_bytes``, ``8 K L`` bytes each, are held for the run;
    the others only while the passes of bands ``n`` and ``-n`` run, which
    the outer loop visits one after the other.

    The operators are built and the passes run on ``workers``
    (:class:`~modedecomp.fold_regress.Workers`), inline if not given.
    """

    def __new__(cls, plans: Sequence[PhasePlan], carrier_bytes: int = 0,
                workers: Workers | None = None):
        self = super().__new__(cls, plans)
        self.workers = workers or Workers(len(plans[0]))
        self.cache = {}
        self.held, self.loose = {}, {}
        self.holds = carrier_bytes // (8 * len(plans) * len(plans[0]))
        return self

    def operators(self, n: int, kind: str, carriers,
                  gain: float) -> BandOperators:
        key = (abs(n), kind)
        if key not in self.cache:
            self.cache[key] = band_operators(self, carriers, carriers,
                                             gain, self.workers)
        return self.cache[key]

    def carriers(self, n: int, kind: str) -> list[np.ndarray]:
        """Band ``|n|``'s ``kind`` carriers, one per plan, as
        :func:`~modedecomp.fold_regress.carrier` gives them: held ones as
        they are, the others evaluated for band ``n``'s pass and given up
        to band ``-n``'s."""
        key = (abs(n), kind)
        got = (self.held.get(key) or self.loose.pop(key, None)
               or [carrier(plan.prior, abs(n), kind) for plan in self])
        if 2 * (abs(n) - 1) + (kind == "sin") < self.holds:
            self.held[key] = got
        elif n > 0:
            self.loose[key] = got
        return got


#: Bytes of cached operators and carriers any run may hold, whatever its
#: length.
OPERATOR_FLOOR = 32 * 2 ** 20

#: Bytes of one pass's operators per component and sample beyond which a
#: bin-space sweep, which reads them all, was measured slower than a
#: sample-space sweep.
OPERATOR_PER_SAMPLE = 128


def memory_bound(length: int, components: int) -> int:
    """Bytes a bin-space run may hold in cached operators and carriers:
    ``48 K L``, six arrays of ``length`` numbers per component, or
    :data:`OPERATOR_FLOOR` if that is more."""
    return max(48 * components * length, OPERATOR_FLOOR)


def bin_space_fits(length: int, bins: int, components: int,
                   passes: int) -> bool:
    """Whether a run solves its band passes in bin space.

    Speed: one pass's operators take at most :data:`OPERATOR_PER_SAMPLE`
    bytes per component and sample, so that the dense ``B x B`` work of a
    sweep stays below the per-sample work it replaces, and a run of band 0
    alone has one component. Memory: all the cached operators take at most
    :func:`memory_bound`. The carriers do not count here: a run holds them
    in what the operators leave under the bound (:class:`BinSpacePlans`),
    and evaluates those that do not fit once per outer iteration, so that
    holding them never sends a run to the slower sample-space sweeps.

    A run of band 0 alone is a gmd run cut into passes: it builds a new
    pass in every outer iteration and forms the pass's modes and residual
    on the samples, which the few inner sweeps of a pass do not pay back
    with more than one component. A gmd run builds one pass for all its
    sweeps, so :func:`modedecomp.gmd.bin_space_fits` takes bin space with
    more than one component, and only then.

    Measured on ex4_1-shaped runs (2-vCPU Xeon VM), bin over sample time:
    0.38-0.94 where this rule admits a run with ``m0 >= 1`` (``K = 1 ... 4``,
    ``B = 200 ... 1000``, ``L = 2^9 ... 2^17``), 0.75-2.8 where the speed
    bound turns one away; band 0 alone 0.78-1.0 with ``K = 1`` and 1.2-6.6
    with ``K = 2, 3`` at ``L <= 2^16``.
    """
    if passes == 1 and components > 1:
        return False
    per_pass = operator_bytes(bins, components, 1)
    return (per_pass <= OPERATOR_PER_SAMPLE * components * length
            and passes * per_pass <= memory_bound(length, components))


def band_carriers(plans: Sequence[PhasePlan], n: int,
                  kind: str) -> list[np.ndarray | None]:
    """Band ``n``'s ``kind`` carriers, one per plan: held or lent by
    :class:`BinSpacePlans` away from band 0, else by ``band_carrier``."""
    if n and isinstance(plans, BinSpacePlans):
        return plans.carriers(n, kind)
    return [band_carrier(plan.prior, n, kind) for plan in plans]


def modified_rdbr(residual: SampledSignal,
                  priors: Sequence[PhasePrior | PhasePlan],
                  n: int, kind: str, eps2: float = 1e-6, max_iters: int = 10,
                  bins: int = 200, scheme: str = "gauss_seidel"):
    """Demodulated regression pass for one band.

    For band 0 the regressed increment itself is the mode increment; for
    |n| > 0 the mode increment is ``2 * carrier * increment`` and the stored
    shape increment is doubled, so a band table summed from them holds the
    full product of coefficient and shape. ``priors`` may hold the
    :class:`PhasePlan` objects :func:`mmd_decompose` prepares once per run;
    given them as :class:`BinSpacePlans`, the pass is solved in bin space,
    to within rounding of the sample-space sweeps.

    The pass runs on band ``|n|``'s carriers: a sine carrier's sign flips
    the increments, not the modes or the residual, so band ``-n``'s sine
    tables are stored negated (:func:`~modedecomp.signal_model.band_sign`).

    Returns ``(shape_increments, mode_increments, residual)`` where the shape
    increments are per-component tables accumulated over the inner sweeps and
    the mode increments are :class:`SampledSignal` values.
    """
    check_run(scheme, eps2=eps2, max_iters=max_iters, bins=bins)
    plans = as_plans(priors, len(residual), bins)
    bin_space = isinstance(priors, BinSpacePlans)
    pre = band_carriers(priors if bin_space else plans, n, kind)
    gain = 1.0 if n == 0 else 2.0
    ops, workers = ((priors.operators(n, kind, pre, gain), priors.workers)
                    if bin_space else (None, None))

    scaled, pow2 = scale_into_range(residual)
    *_, total, modes, r = run_pass(scaled.values, plans, bins, pre, pre, gain,
                                   scheme, eps2, max_iters, ops,
                                   workers=workers)
    stored = band_sign(n, kind) * gain * total
    t = residual.times
    return ([ldexp_shape(make_shape(u), pow2) for u in stored],
            [ldexp_signal(SampledSignal(t, m), pow2) for m in modes],
            ldexp_signal(SampledSignal(t, r), pow2))


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
    its products, formed once after the loop: the mode increments each
    :func:`modified_rdbr` pass returns are let go as soon as it returns,
    before the next pass runs. Components in the result follow the
    caller's prior order. ``backend`` is checked by
    :func:`~modedecomp.gmd.check_backend`.

    A run on bin sums owns a :func:`~modedecomp.fold_regress.run_workers`
    pool for its outer loop, threads from
    :data:`~modedecomp.fold_regress.POOL_FLOOR` samples, and stops it
    before the modes are formed.
    """
    cfg.validate()
    check_backend(backend)
    if len(priors) == 0:
        raise DecompositionError("at least one phase prior is required")

    t = signal.times
    resolved = [p if p.fundamental is not None else with_fundamental(p, t)
                for p in priors]
    sorted_priors, order = sort_components(resolved)
    plans = as_plans(sorted_priors, len(signal), cfg.bins)
    passes = 2 * cfg.m0 + 1
    # it starts its threads and allocates its workspaces on first use
    workers = run_workers(len(signal), len(plans))
    if bin_space_fits(len(signal), cfg.bins, len(plans), passes):
        plans = BinSpacePlans(
            plans, memory_bound(len(signal), len(plans))
            - operator_bytes(cfg.bins, len(plans), passes), workers)

    r, pow2 = scale_into_range(signal)
    denom = r.l2norm or 1.0

    # the band state: one table per pass of an outer iteration, (band,
    # kind) in visit order, and component
    slots = band_slots(cfg.m0)
    state = np.zeros((len(slots), len(plans), cfg.bins))
    extrapolate = AndersonStep()
    accelerated: list[bool] = []

    def step():
        nonlocal r
        start = state.copy()
        incs = []
        for slot, (b, kind) in enumerate(slots):
            shapes, modes, r = modified_rdbr(
                r, plans, b, kind, cfg.eps2, cfg.j2, cfg.bins, cfg.scheme)
            del modes  # formed from the band state after the loop
            state[slot] += [shape.bins for shape in shapes]
            incs += [shape.l2norm / denom for shape in shapes]
        r, rel, mixed = extrapolate(start, state, r,
                                    signal_norm(r.values) / denom, denom)
        accelerated.append(mixed)
        return rel, incs

    with workers:
        norms_r, norms_s, reason = iterate_sweeps(step, 1.0, cfg.eps1,
                                                  cfg.j1)
    report = DecompositionReport(tuple(norms_r), tuple(norms_s), reason,
                                 len(norms_r), tuple(accelerated))

    del extrapolate  # free its held residual before the modes are formed
    # each mode, one at a time, is its band sum as reconstruct_mimf forms it
    modes = [np.zeros(len(signal)) for _ in plans]
    for slot, (b, kind) in enumerate(slots):
        post = band_carriers(plans, b, kind)
        for mode, plan, c, u in zip(modes, plans, post, state[slot]):
            mode += pass_modes([plan], [c], band_sign(b, kind), [u])[0]

    estimates = []
    for k, mode in enumerate(modes):
        tables = {"cos": {}, "sin": {}}
        for slot, (b, kind) in enumerate(slots):
            tables[kind][b] = ldexp_shape(make_shape(state[slot, k]), pow2)
        estimates.append(make_estimate(
            cfg.m0, tables["cos"], tables["sin"],
            mode=SampledSignal(t, np.ldexp(mode, pow2, out=mode))))
    fundamentals = [int(p.fundamental) for p in sorted_priors]
    return MmdResult(to_caller_order(estimates, order), ldexp_signal(r, pow2),
                     report, to_caller_order(fundamentals, order))


def ell_band_approx(est: MimfEstimate, prior: PhasePrior, ell: int,
                    grid: Sequence[float]) -> SampledSignal:
    """Reconstruct using only the bands with |n| <= ell."""
    if not 0 <= integer(ell, "ell") <= est.bandwidth:
        raise BandOutOfRange(f"ell must lie in [0, {est.bandwidth}]")
    kept = [{b: v for b, v in bands.items() if abs(b) <= ell}
            for bands in (est.cos_shapes, est.sin_shapes, est.cos_coeffs,
                          est.sin_coeffs)]
    return reconstruct_mimf(make_estimate(ell, *kept, normalized=est.normalized),
                            prior, grid)


def band_residual(signal: SampledSignal, est: MimfEstimate, prior: PhasePrior,
                  ell: int, grid: Sequence[float]) -> SampledSignal:
    """Component-attributed signal minus its ell-banded reconstruction."""
    t = np.asarray(grid, dtype=float)
    if len(signal) != t.size:
        raise GridMismatch("signal and grid lengths differ")
    approx = ell_band_approx(est, prior, ell, grid)
    return SampledSignal(signal.times, signal.values - approx.values)
