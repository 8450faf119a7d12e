"""Regression kernel: warp, demodulate, fold into one period, bin-average.

The one regression estimator is the partitioning estimate: the folded unit
interval is split into ``B`` equal bins and each bin takes the mean of the
responses that fall in it (:func:`partition_regress`).

A prior's phase is fixed for a whole decomposition, so the decompositions
bin it and derive its interpolation weights once, for one bin count, in a
:class:`PhasePlan`. A pass of regression sweeps then runs on the samples
through :func:`sweep`, which reproduces the reference functions
:func:`unwarp_samples` to :func:`center_shape` bit for bit, or on bin sums
through :class:`BinPass` and the :class:`BandOperators` that
:func:`band_operators` builds, to rounding. Both take the same factors
and regress by :func:`bin_means` of the plans' bin sums of ``pre_k * r``.
:func:`modedecomp.gmd.run_pass` runs every pass, either way.

Every pass ends the same way: its band terms ``h_k E_k U_k`` are its
modes, and the residual it leaves is the one it entered with less each
term, in component order. One routine, :func:`leave`, forms them, on
either path: the modes where the caller hands it arrays for them (gmd's
one pass does, no mmd band pass), the residual where the pass has not
formed one yet, or both. A pass on bin sums reads the samples twice: on
entry, for its bin sums and its norm (an mmd band pass takes them from two
sums over :attr:`PhasePlan.half_slots`, which its run's first operator
build builds), and at its exit. In between, only a rebase, once the
bin-sum norm has lost six digits, forms the residual, by the same exit,
for its norm alone.

A decomposition run maps its sample-length work over the :class:`Workers`
it owns, on threads from :data:`POOL_FLOOR` samples (numpy lets go of the
GIL in ``bincount`` and its ufuncs). What is independent per component
runs one component a task: each prior's fundamental, plan and gmd factor
``1 / q_k``, and a pass's operator blocks and its entry sums. Every band
term of a pass, and of mmd's closing band sums, is formed one sample range
a task (:meth:`Workers.split`, :func:`range_terms`), each sample with the
arithmetic it takes on the whole array. So the outputs are the same bytes
on any number of threads. The set-up runs in
stages, every fundamental, then every plan, then gmd's factors, so that a
run refuses an input with the error it raises inline, and it takes no
workspace: the calling thread allocates the plans and factors it keeps,
and a fundamental or an amplitude check keeps nothing, reading its prior
a :data:`~modedecomp.signal_model.GRADIENT_BLOCK` at a time. A pass's
tasks write their sample-length products, terms and indices into a
:class:`Workspace` the pool allocated, so threads add no temporaries.
Carriers and the sweeps, on bin sums or on the samples, stay on the
calling thread.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from .errors import (
    AmplitudeTooSmall,
    DecompositionError,
    EmptyInput,
    GridMismatch,
    LengthMismatch,
    NonFinite,
    integer,
)
from .signal_model import (
    GRADIENT_BLOCK,
    PhasePrior,
    SampledSignal,
    ShapeTable,
    band_term,
    carrier,
    make_shape,
    row_norms,
    scaled_interpolation,
    unit_position,
)

__all__ = [
    "FoldedSamples",
    "unwarp_samples",
    "demodulate",
    "fold",
    "partition_regress",
    "center_shape",
]

AMPLITUDE_FLOOR = 1e-8


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
    return _layout(np.clip((xs * nb).astype(np.int64), 0, nb - 1), nb)


def _layout(index: np.ndarray, nb: int) -> BinLayout:
    """The :class:`BinLayout` of bin indices ``index`` in ``[0, nb)``."""
    counts = np.bincount(index, minlength=nb)
    occupied = counts > 0
    centers = (np.arange(nb) + 0.5) / nb
    return BinLayout(index, counts, occupied, centers[~occupied],
                     centers[occupied])


@lru_cache(maxsize=16)
def _neighbours(nb: int) -> np.ndarray:
    """The periodic neighbours of ``nb`` bins: row ``i`` of the ``(3, nb)``
    result holds ``(i - 1, i, i + 1) mod nb`` down its column ``i``."""
    i = np.arange(nb)
    out = np.stack((np.roll(i, 1), i, np.roll(i, -1)))
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class FoldedSamples:
    """Folded phase positions in [0, 1) with their responses: what
    :func:`fold` gives :func:`partition_regress`."""

    xs: np.ndarray
    ys: np.ndarray

    def __len__(self) -> int:
        return int(self.xs.size)


@dataclass(frozen=True)
class PhasePlan:
    """Everything the regressions against one prior share within a run.

    Holds the phase samples' layout in ``bins`` bins, the one bin count it
    serves, and the interpolation data that evaluates a ``bins``-bin shape
    table at the phase samples, but not the folded positions.
    """

    prior: PhasePrior
    layout: BinLayout
    j0: np.ndarray  # the bin a sample interpolates from, to (j0 + 1) % B
    w: np.ndarray
    w1: np.ndarray  # 1 - w

    def __len__(self) -> int:
        return int(self.j0.size)

    @cached_property
    def half_slots(self) -> np.ndarray:
        """Each sample's half-bin slot ``2 j0 + (i != j0)`` for its bin
        ``i``: slot ``2 j`` holds bin ``j``'s samples that interpolate from
        ``j``, slot ``2 j + 1`` bin ``j + 1``'s. Built on first use, by an
        mmd run's first operator build (:func:`band_operators`) on the
        calling thread, and kept for the run: every mmd band pass counts
        its diagonal blocks and its entry sums over them. gmd never builds
        them; its operator build forms the slots in a workspace."""
        out = self.j0 * 2
        out += self.layout.index != self.j0
        return out


def plan_arrays(length: int) -> tuple[np.ndarray, ...]:
    """The sample-length arrays a :class:`PhasePlan` keeps, unset: ``w``,
    the bin index, ``j0`` and ``w1``."""
    return (np.empty(length), np.empty(length, np.int64),
            np.empty(length, np.int64), np.empty(length))


def plan_phase(prior: PhasePrior, length: int, bins: int,
               out: tuple[np.ndarray, ...] | None = None) -> PhasePlan:
    """Fold, bin and prepare interpolation for one prior, once per run, in
    ``out``'s :func:`plan_arrays` if given."""
    if len(prior) != length:
        raise GridMismatch("prior and residual are on different grids")
    if not np.all(np.isfinite(prior.phase)):
        raise NonFinite("folded samples must be finite")
    nb = check_bins(bins)
    u, index, j0, w1 = out or plan_arrays(length)
    # bin_layout's index and interpolation's (j0, w) from one product
    # u = x B, bit for bit: x's array becomes u and then w
    unit_position(prior.phase, u)
    u *= nb
    np.copyto(index, u, casting="unsafe")  # truncates, as astype does
    np.minimum(index, nb - 1, out=index)  # x < 1, but the guard is cheap
    j0, w = scaled_interpolation(u, nb, j0)
    return PhasePlan(prior, _layout(index, nb), j0, w,
                     np.subtract(1.0, w, out=w1))


def as_plans(priors: Sequence[PhasePrior | PhasePlan], length: int,
             bins: int, workers: Workers | None = None) -> list[PhasePlan]:
    """Plans for ``priors``, at least one, keeping entries that already
    are plans for ``bins`` bins; one prior a task of ``workers`` (inline if
    not given), into arrays the calling thread allocates."""
    if len(priors) == 0:
        raise DecompositionError("at least one phase prior is required")
    # a sample-length array a worker thread allocates is served from that
    # thread's malloc arena, and the process then holds both arenas: plans
    # made on the threads raised gmd_long's peak RSS by 19-38 MB
    outs = [None if isinstance(p, PhasePlan) else plan_arrays(length)
            for p in priors]

    def plan(k):
        p = priors[k]
        if not isinstance(p, PhasePlan):
            return plan_phase(p, length, bins, outs[k])
        if len(p) != length:
            raise GridMismatch("prior and residual are on different grids")
        if p.layout.size != bins:
            raise LengthMismatch("plan is for another bin count")
        return p

    return (workers or Workers(length)).map(plan, range(len(priors)))


def check_amplitude(prior: PhasePrior) -> np.ndarray:
    """The prior's amplitude; reject one too small to divide by. The
    least magnitude that is a number in each
    :data:`~modedecomp.signal_model.GRADIENT_BLOCK` samples is compared
    with the floor, as any magnitude below it would be, so the check's
    temporaries are block-sized."""
    q = prior.amplitude
    for lo in range(0, q.size, GRADIENT_BLOCK):
        block = np.abs(q[lo:lo + GRADIENT_BLOCK])
        if np.fmin.reduce(block, initial=np.inf) < AMPLITUDE_FLOOR:
            raise AmplitudeTooSmall(
                f"amplitude magnitude below {AMPLITUDE_FLOOR:g}")
    return q


def unwarp_samples(residual: SampledSignal, prior: PhasePrior):
    """Re-index residual samples by phase and take out the amplitude.

    Returns ``(vs, ys)`` with ``vs = p(t_l)`` and ``ys = (1/q(t_l)) r(t_l)``.
    No explicit phase inverse is computed; the samples are simply re-indexed.
    """
    if len(prior) != len(residual):
        raise GridMismatch("prior and residual are on different grids")
    return prior.phase.copy(), (1.0 / check_amplitude(prior)) * residual.values


def demodulate(residual: SampledSignal, prior: PhasePrior, n: int, kind: str):
    """Multiply the residual by the band-``n`` carrier, re-indexed by phase.

    Unlike :func:`unwarp_samples` there is no amplitude division; the
    demodulated sweeps operate with unit amplitude.
    """
    if len(prior) != len(residual):
        raise GridMismatch("prior and residual are on different grids")
    return prior.phase.copy(), carrier(prior, n, kind) * residual.values


def fold(vs: Sequence[float], ys: Sequence[float]) -> FoldedSamples:
    """Map warped positions into one period: ``(v, y) -> (mod(v, 1), y)``."""
    v = np.asarray(vs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if v.shape != y.shape or v.ndim != 1:
        raise LengthMismatch("vs and ys must be 1-d and equal length")
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(y))):
        raise NonFinite("folded samples must be finite")
    return FoldedSamples(unit_position(v), y.copy())


def check_bins(bins) -> int:
    """``bins`` as an ``int``: an integer (not ``bool``) of at least 2."""
    return integer(bins, "bin count", 2, LengthMismatch)


def partition_regress(samples: FoldedSamples, bins: int) -> ShapeTable:
    """Partitioning estimate: per-bin mean of the responses.

    Bin ``j`` covers ``[j/B, (j+1)/B)``. Empty bins are filled by periodic
    linear interpolation between the nearest non-empty bins on each side, so
    the returned table is total. Bin means are reproducible to 1e-12 under
    reordering of the samples (summation-order effects stay below that).
    """
    nb = check_bins(bins)
    if len(samples) == 0:
        raise EmptyInput("cannot regress zero samples")
    layout = bin_layout(samples.xs, nb)
    sums = np.bincount(layout.index, weights=samples.ys, minlength=nb)
    return make_shape(bin_means(sums, layout))


def bin_means(sums: np.ndarray, layout: BinLayout) -> np.ndarray:
    """Per-bin means from per-bin sums, empty bins filled in as in
    :func:`partition_regress`."""
    if not layout.empty_x.size:
        return sums / layout.counts
    occupied = layout.occupied
    means = np.zeros(layout.size)
    means[occupied] = sums[occupied] / layout.counts[occupied]
    means[~occupied] = np.interp(layout.empty_x, layout.known_x,
                                 means[occupied], period=1.0)
    return means


def center_shape(shape: ShapeTable) -> ShapeTable:
    """Subtract the bin mean; idempotent."""
    return make_shape(shape.bins - np.mean(shape.bins))


def _times(a: np.ndarray | None, b: np.ndarray | None,
           out: np.ndarray | None = None) -> np.ndarray | None:
    """Product of two optional factors, into ``out`` if given; ``None``
    stands for 1, and one factor of 1 leaves the other as it is."""
    if a is None:
        return b
    return a if b is None else np.multiply(a, b, out=out)


#: Samples from which a run maps its per-component sample kernels over
#: worker threads (:func:`run_workers`); shorter runs map them inline.
#: Measured on ex4_1-shaped bin-space runs with the pool forced on and off
#: (2-vCPU Xeon VM, gmd and mmd ``m0 = 2``, ``K = 2, 3``), pooled over
#: inline time: 1.08-1.31 at ``2^13, 2^14``, 0.98-1.06 at ``2^15``,
#: 0.87-0.93 at ``2^16`` and 0.76-0.87 at ``2^17``.
POOL_FLOOR = 2 ** 16


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class Workspace:
    """One task's sample-length scratch: a float array ``x``, and for an
    operator build a second one ``y``, an index array ``i`` and a mask
    ``m``."""

    x: np.ndarray
    y: np.ndarray | None = None
    i: np.ndarray | None = None
    m: np.ndarray | None = None


class Workers:
    """Runs a run's tasks on ``threads`` threads, the calling thread among
    them; with one, inline and in order.

    A pass's tasks (:meth:`run`, and :meth:`split`'s one sample range a
    thread) are each called with a :class:`Workspace` no other running
    task holds, so they allocate only bin-sized arrays. The calling thread
    allocates one ``x`` per thread on the first :meth:`run`, and keeps them
    until :meth:`close`. An operator build's wider workspaces live for its
    :meth:`run` alone, so a pass's exit runs beside one sample-length array
    per thread. A run's preparation (:meth:`map`) takes no workspace. The
    other threads start on the first task either hands them: a pool that
    never runs one allocates nothing.

    Either raises as the tasks would inline: the error of the first task
    to fail in list order. Once a task fails no new task starts, and the
    running ones finish before the error is raised.
    """

    def __init__(self, length: int, threads: int = 1):
        self.length, self.threads = length, threads
        self._spaces: list[Workspace] = []
        self._executor = None

    def __enter__(self) -> "Workers":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop the threads and let the workspaces go."""
        if self._executor is not None:
            self._executor.shutdown()
        self._executor, self._spaces = None, []

    def run(self, tasks: Sequence[Callable[[Workspace], object]],
            build: bool = False) -> list:
        """``[task(space) for task in tasks]``, each with a workspace of
        its own, wide for an operator ``build``; results in the order of
        ``tasks``."""
        n = self.length
        if not self._spaces:
            self._spaces = [Workspace(np.empty(n))
                            for _ in range(self.threads)]
        spaces = self._spaces
        if build:
            spaces = [Workspace(s.x, np.empty(n), np.empty(n, np.int64),
                                np.empty(n, bool)) for s in spaces]
        return self._spread(tasks, [(s,) for s in spaces])

    def split(self, task: Callable[[int, int, Workspace], object]) -> None:
        """``task(lo, hi, space)`` for one sample range ``[lo, hi)`` a
        thread, the ranges in order and covering the run's samples. Finer
        ranges, of ``2^13`` samples, made ``mmd_long`` 1.15-1.23x slower:
        each task hands the GIL on."""
        n, t = self.length, self.threads
        self.run([partial(task, n * i // t, n * (i + 1) // t)
                  for i in range(t)])

    def map(self, fn: Callable, items: Sequence) -> list:
        """``[fn(item) for item in items]``, with no workspace."""
        return self._spread([partial(fn, item) for item in items],
                            [()] * self.threads)

    def _spread(self, tasks: Sequence[Callable], args: Sequence[tuple]):
        """``[task(*args[i]) for task in tasks]``, ``i`` the thread that
        runs the task."""
        if self.threads == 1:
            return [task(*args[0]) for task in tasks]
        if self._executor is None:
            # imported on first use: it imports logging, which would add
            # 4-7 ms to every import of the package
            from concurrent.futures import ThreadPoolExecutor
            self._executor = ThreadPoolExecutor(self.threads - 1)
        results = [None] * len(tasks)
        pending = iter(enumerate(tasks))
        failed: list[tuple[int, BaseException]] = []
        lock = threading.Lock()

        def drain(arg):
            # each thread takes the next task until none is left or one
            # has failed
            while True:
                with lock:
                    item = None if failed else next(pending, None)
                if item is None:
                    return
                try:
                    results[item[0]] = item[1](*arg)
                except BaseException as exc:
                    with lock:
                        failed.append((item[0], exc))
                    return

        helpers = [self._executor.submit(drain, arg) for arg in args[1:]]
        try:
            drain(args[0])
        finally:
            # no thread may hold a workspace once the call returns
            for helper in helpers:
                helper.exception()
        if failed:
            # the tasks before the first failure in list order all started
            raise min(failed, key=lambda f: f[0])[1]
        return results


def run_workers(length: int, components: int) -> Workers:
    """The pool a decomposition run of ``length`` samples owns: one thread
    per component up to :func:`usable_cpus` from :data:`POOL_FLOOR`
    samples, below it the calling thread alone."""
    return Workers(length, min(max(components, 1), usable_cpus())
                   if length >= POOL_FLOOR else 1)


def sweep(residual: np.ndarray, plans: Sequence[PhasePlan], scheme: str,
          pre: Sequence[np.ndarray | None],
          post: Sequence[np.ndarray | None], gain: float):
    """One Gauss-Seidel or Jacobi pass of regressions over all components.

    Component ``k`` regresses ``ys = pre[k] * r`` on its plan's bins, as
    :class:`BinPass` does, centres the estimate ``u`` and subtracts
    ``post[k] * E_k(gain * u)``; a ``None`` factor is 1. Gauss-Seidel
    chains the residual through the components, Jacobi regresses every
    component against ``residual``.

    Returns the centred increments ``(K, B)`` and the new residual array.
    """
    cur, bins = residual, plans[0].layout.size
    incs = np.empty((len(plans), bins))
    subtracted = None
    for plan, a, b, inc in zip(plans, pre, post, incs):
        ys = _times(a, cur if scheme == "gauss_seidel" else residual)
        if not np.all(np.isfinite(ys)):
            raise NonFinite("folded samples must be finite")
        means = bin_means(np.bincount(plan.layout.index, ys, bins),
                          plan.layout)
        # center_shape's arithmetic, as in BinPass.sweep
        np.subtract(means, np.add.reduce(means) / bins, out=inc)
        # a gain of 1 or 2 commutes with E_k and the product, bit for bit
        sub = band_term(gain * inc, plan.j0, plan.w, plan.w1, b)
        if scheme == "gauss_seidel":
            cur = cur - sub
        elif subtracted is None:
            subtracted = sub
        else:
            subtracted += sub
    return incs, cur if subtracted is None else residual - subtracted


def range_terms(lo: int, hi: int, space: Workspace,
                plans: Sequence[PhasePlan], tables: Sequence[np.ndarray],
                post: Sequence[np.ndarray | None],
                modes: Sequence[np.ndarray] | None = None):
    """Each component's term ``post_k E_k tables[k]`` on samples ``[lo,
    hi)``, as :func:`band_term` forms it on all of them, in pieces that fit
    the halves of ``space.x``: yields ``(k, a, b, term)`` for each piece
    ``[a, b)``, in component order within a piece. A term is formed in
    ``modes[k][a:b]`` if given, else in the first half, and its tail in the
    second. The band terms of a pass's exit (:func:`leave`) and of mmd's
    closing band sums are all formed here."""
    half = space.x.size // 2
    for a in range(lo, hi, half):
        b = min(a + half, hi)
        term, tail = space.x[:b - a], space.x[half:half + b - a]
        for k, (p, table, g) in enumerate(zip(plans, tables, post)):
            yield k, a, b, band_term(
                table, p.j0[a:b], p.w[a:b], p.w1[a:b],
                None if g is None else g[a:b],
                term if modes is None else modes[k][a:b], tail)


def leave(workers: Workers, plans: Sequence[PhasePlan],
          tables: Sequence[np.ndarray], post: Sequence[np.ndarray | None],
          modes: Sequence[np.ndarray] | None,
          r0: np.ndarray | None) -> np.ndarray | None:
    """A pass's exit: each component's band term ``post_k E_k tables[k]``
    (:func:`range_terms`), one sample range a task of ``workers``, in
    ``modes``' arrays if given (else in the task's workspace, for the
    residual alone). Given ``r0``, returns the residual ``r0 - term_0 -
    term_1 - ...``, subtracted in component order."""
    r = None if r0 is None else np.empty_like(r0)

    def task(lo, hi, space):
        for k, a, b, term in range_terms(lo, hi, space, plans, tables, post,
                                         modes):
            if r is not None:
                np.subtract(r[a:b] if k else r0[a:b], term, out=r[a:b])

    workers.split(task)
    return r


@dataclass(frozen=True)
class BandOperators:
    """One pass of :func:`sweep` over ``K`` components, on bins.

    Component ``k`` regresses ``a_k * r`` and subtracts ``h_k * E_k u``,
    with regression factor ``a_k``, subtraction factor ``b_k`` and
    ``h_k = gain * b_k`` (a factor of ``None`` is 1). An mmd band pass
    takes its carrier for both factors, a gmd sweep ``a_k = 1 / q_k`` and
    ``b_k = q_k`` with gain 1. ``S_k`` sums samples into component ``k``'s
    bins and ``E_k`` evaluates a table at its phase samples
    (:func:`band_term` at the plan's ``j0, w, w1``). Each step is linear in
    the residual, so a pass can run on bin sums:

    - ``cross[k, m] = S_k diag(a_k h_m) E_m`` (``k != m``): subtracting
      component ``m``'s ``h_m E_m u`` lowers component ``k``'s bin sums by
      ``cross[k, m] @ u``;
    - ``gram[k, m] = E_k^T diag(h_k h_m) E_m`` (``k < m``) gives the
      residual's norm;
    - ``self_t[k]`` and ``self_g[k]`` are the diagonal blocks of both. A
      sample in bin ``i`` interpolates between bins ``i - 1, i`` or
      ``i, i + 1``, so they couple neighbouring bins only and are kept as
      periodic diagonals: ``self_t[k] = (T[i, i-1], T[i, i], T[i, i+1])``
      and ``self_g[k] = (G[a, a], G[a, a+1])``. With two bins ``i - 1``
      and ``i + 1`` are one bin, whose entry is the sum of the first and
      last diagonal.

    :func:`band_operators` builds every block from weight moments, the
    sums of ``c`` and ``c w`` (and ``c w^2``, ``c w_k w_m``) for a block's
    factor product ``c``, so the blocks equal the sums over the samples
    to rounding, not bit for bit.
    """

    cross: dict
    gram: dict
    self_t: np.ndarray
    self_g: np.ndarray


def operator_bytes(bins: int, components: int, passes: int) -> int:
    """Bytes of the :class:`BandOperators` of ``passes`` distinct passes:
    per pass ``K(K-1)`` dense ``T`` and ``K(K-1)/2`` dense Gram blocks of
    ``B x B`` doubles, and ``5K`` periodic diagonals of ``B``. For
    ``K = 2, B = 200`` that is 976,000 bytes a pass; every sweep of the
    pass reads them once. Not counted: the build's workspaces, which live
    for the build alone, and the :attr:`PhasePlan.half_slots` an mmd run
    keeps, ``8 L`` bytes a plan, which its passes' entry sums read too."""
    k, b = components, bins
    return passes * 8 * (3 * k * (k - 1) // 2 * b * b + 5 * k * b)


def band_operators(plans: Sequence[PhasePlan],
                   pre: Sequence[np.ndarray | None],
                   post: Sequence[np.ndarray | None],
                   gain: float,
                   workers: Workers | None = None) -> BandOperators:
    """The :class:`BandOperators` of a pass with regression factors ``pre``
    and subtraction factors ``post``, from weight moments: a block with
    factor product ``c`` counts ``c`` and ``c w`` over the samples (a Gram
    block ``c w_k`` and ``c w_k w_m`` too), and its weights ``w1 = 1 - w``
    come from bin-sized arithmetic, ``sum c w1 = sum c - sum c w``.

    Component ``k``'s diagonal blocks count ``c`` and ``c w`` by
    :attr:`PhasePlan.half_slots` and ``c w^2`` by ``j0``. A pass whose
    ``pre`` is its ``post``, as every mmd band pass, takes the plans' half
    slots, built here by the calling thread on the run's first build; any
    other pass (gmd) forms them in the task's workspace, and counts its
    Gram's ``c = post_k^2`` by ``j0`` in three sums. At ``K = 2`` an mmd
    pass makes 14 sample-length ``bincount``s, a gmd pass 18. Each
    component's diagonal blocks, each ordered pair's ``cross`` and each
    pair's ``gram`` are one task of ``workers`` (inline if not given)."""
    nb, k_all = plans[0].layout.size, range(len(plans))
    workers = workers or Workers(len(plans[0]))
    prev = _neighbours(nb)[0]
    # an mmd pass's half slots, built by the calling thread, as the plans
    # are: a worker thread's sample-length array raises the peak RSS
    halves = [p.half_slots if b is a else None
              for p, a, b in zip(plans, pre, post)]

    # Every sample-length product and index goes into the task's
    # workspace: a factor's product in x, a weight's in y, an index in i.
    # _times(c, w, space.y) writes into c only when c is space.y.
    def count(index, c, size):
        # a count without weights is of integers
        return np.bincount(index, c, size).astype(float, copy=False)

    def flat(i, j, space):
        out = np.multiply(i, nb, out=space.i)
        out += j
        return out

    def moved(shift):
        # (to, from) slices that move an axis shift bins on, 0 or 1
        if not shift:
            return [(slice(None), slice(None))]
        return [(slice(1, None), slice(None, -1)),
                (slice(0, 1), slice(-1, None))]

    def add_count(out, index, weights, terms):
        # out + sign m moved (rows, cols) bins on, periodically, for each
        # (sign, rows, cols) of terms, m the count of weights by index:
        # one moment a time, summed into the block in place
        m = count(index, weights, nb * nb).reshape(nb, nb)
        for sign, rows, cols in terms:
            op = np.add if sign > 0 else np.subtract
            for to_r, from_r in moved(rows):
                for to_c, from_c in moved(cols):
                    op(out[to_r, to_c], m[from_r, from_c],
                       out=out[to_r, to_c])

    def by_columns(index, c, w, space):
        # the sums of c w1 by (row, j0 = j) and of c w by (row, j0 = j - 1):
        # Y - Y_w + Y_w moved one column on, Y and Y_w the counts of c and
        # c w by index = row B + j0
        out = count(index, c, nb * nb).reshape(nb, nb)
        add_count(out, index, _times(c, w, space.y),
                  [(-1, 0, 0), (1, 0, 1)])
        return out

    self_t = np.empty((len(plans), 3, nb))
    self_g = np.empty((len(plans), 2, nb))

    def diagonal(k, space):
        pk, ak, bk = plans[k], pre[k], post[k]
        slots = halves[k]
        if slots is None:
            slots = np.multiply(pk.j0, 2, out=space.i)
            slots += np.not_equal(pk.layout.index, pk.j0, out=space.m)
        c = _times(ak, bk, space.x)
        cw = _times(c, pk.w, space.y)
        # lo[j] counts bin j's samples that interpolate from j0 = j, hi[j]
        # bin j + 1's: T[i, i - 1] takes c w1 of hi[i - 1], T[i, i] c w1
        # of lo[i] and c w of hi[i - 1], T[i, i + 1] c w of lo[i]
        (lo, hi), (lo_w, hi_w) = (
            count(slots, v, 2 * nb).reshape(nb, 2).T for v in (c, cw))
        self_t[k] = (hi - hi_w)[prev], (lo - lo_w) + hi_w[prev], lo_w
        self_t[k] *= gain
        if halves[k] is not None:
            # the Gram's c = b_k^2 is a_k b_k: its counts by j0 are lo + hi
            m0, m1 = lo + hi, lo_w + hi_w
        else:
            c = _times(bk, bk, space.x)
            cw = _times(c, pk.w, space.y)
            m0, m1 = count(pk.j0, c, nb), count(pk.j0, cw, nb)
        m2 = count(pk.j0, np.multiply(cw, pk.w, out=space.y), nb)
        # G[a, a] sums c w1^2 by j0 = a and c w^2 by j0 = a - 1, G[a, a + 1]
        # c w1 w by j0 = a
        self_g[k] = (m0 - 2.0 * m1 + m2) + m2[prev], m1 - m2
        self_g[k] *= gain * gain

    def cross_block(k, m, space):
        pm = plans[m]
        out = by_columns(flat(plans[k].layout.index, pm.j0, space),
                         _times(pre[k], post[m], space.x), pm.w, space)
        out *= gain
        return out

    def gram_block(k, m, space):
        # by (j0_k, j0_m), with R and C the moves one row and one column
        # on: G = Y + (C - 1) Y_m + (R - 1) Y_k + (R - 1)(C - 1) Y_km,
        # Y, Y_m, Y_k and Y_km the counts of c, c w_m, c w_k and c w_k w_m
        pk, pm = plans[k], plans[m]
        c = _times(post[k], post[m], space.x)
        index = flat(pk.j0, pm.j0, space)
        out = by_columns(index, c, pm.w, space)
        ck = _times(c, pk.w, space.y)
        add_count(out, index, ck, [(-1, 0, 0), (1, 1, 0)])
        add_count(out, index, _times(ck, pm.w, space.y),
                  [(1, 0, 0), (-1, 1, 0), (-1, 0, 1), (1, 1, 1)])
        out *= gain * gain
        return out

    pairs = [(k, m) for k in k_all for m in k_all if m != k]
    upper = [(k, m) for k, m in pairs if k < m]
    # longest first, by their sample-length bincounts: 3 (mmd) or 5 (gmd),
    # 4 and 2 a task
    blocks = workers.run([partial(diagonal, k) for k in k_all]
                         + [partial(gram_block, k, m) for k, m in upper]
                         + [partial(cross_block, k, m) for k, m in pairs],
                         build=True)
    blocks = blocks[len(plans):]
    return BandOperators(dict(zip(pairs, blocks[len(upper):])),
                         dict(zip(upper, blocks)), self_t, self_g)


class BinPass:
    """A pass of :func:`sweep`, solved on bin sums.

    ``z[k]`` holds the bin sums of ``a_k * r`` over component ``k``'s bins
    for the current residual ``r``. A regression is then :func:`bin_means`
    of ``z[k]``, centred as by :func:`center_shape`, and its subtraction
    lowers every ``z[m]`` by the matching :class:`BandOperators` block.
    After increments ``U`` since a base residual ``r0``, the residual's
    squared norm is ``|r0|^2 - 2 sum_k U_k . q_k + sum_km U_k^T G_km U_m``
    with ``q_k = E_k^T(h_k r0)``.

    Entering the pass forms ``z``, ``|r0|^2`` and ``q_k = (s - s_w) +
    s_w[i - 1]``, ``s`` and ``s_w`` the sums of ``y = h_k r`` and ``y w``
    by ``j0``, on the samples, one component a task of ``workers``. A pass
    whose regression factor is its subtraction factor, as every mmd band
    pass, takes ``z`` and ``s`` from one sum over
    :attr:`PhasePlan.half_slots`; gmd's from two bin counts. Once the
    squared norm falls below ``2**-20 |r0|^2``, cancellation has cost six
    digits: the pass then forms the residual on the samples for its squared
    norm alone and takes it as the new ``r0``, moving ``q`` by the Gram
    ``G`` in bin space and keeping ``z``. The residual the pass leaves is
    formed once, by :meth:`finish`, which a rebase calls too: every band
    term goes through :func:`leave`, one sample range a task. The residual
    it enters with must be finite, as :func:`modedecomp.gmd.run_pass`
    checks.
    """

    REBASE = 2.0 ** -20

    def __init__(self, residual: np.ndarray, plans: Sequence[PhasePlan],
                 ops: BandOperators, pre: Sequence[np.ndarray | None],
                 post: Sequence[np.ndarray | None], gain: float,
                 scheme: str, workers: Workers | None = None):
        self.residual, self.plans, self.ops = residual, plans, ops
        self.pre, self.post = pre, post
        self.gain, self.scheme = gain, scheme
        self.workers = workers or Workers(residual.size)
        components = range(len(plans))
        self.total = np.zeros((len(plans), plans[0].layout.size))
        self.z, self.q = np.empty_like(self.total), np.empty_like(self.total)
        self.neighbours = _neighbours(self.total.shape[1])
        self.prev, _, self.next = self.neighbours
        # a sweep's steps: (k, None) regresses component k, and (k, others)
        # subtracts its increment, from z[k] by its self block and from the
        # other rows of z by their cross blocks
        regress = [(k, None) for k in components]
        subtract = [(k, [(self.z[m], ops.cross[m, k])
                         for m in components if m != k])
                    for k in components]
        self.steps = ([step for pair in zip(regress, subtract)
                       for step in pair] if scheme == "gauss_seidel"
                      else regress + subtract)
        self._enter(residual)

    def _enter(self, r: np.ndarray) -> None:
        nb = self.total.shape[1]
        # an mmd run's first operator build built them; else they are
        # built here, by the calling thread, as the plans are
        halves = [p.half_slots if b is a else None
                  for p, a, b in zip(self.plans, self.pre, self.post)]

        def sums(k, space):
            p, a, b = self.plans[k], self.pre[k], self.post[k]
            y = _times(a, r, space.x)
            if not y.flags.writeable:
                # np.bincount copies weights it may not write to, such as
                # mmd band 0's read-only residual, into a new array: a
                # copy into the workspace allocates nothing
                y = space.x
                y[...] = r
            if b is a:
                # bin i's samples fill slots 2i and 2i - 1, and those that
                # interpolate from j0 = j slots 2j and 2j + 1
                lo, hi = np.bincount(halves[k], y, 2 * nb).reshape(nb, 2).T
                self.z[k] = lo + hi[self.prev]
                s = lo + hi
            else:
                self.z[k] = np.bincount(p.layout.index, y, nb)
                y = _times(b, r, space.x)
                s = np.bincount(p.j0, y, nb)
            # E_k^T y sums y (1 - w) by j0 and y w by j0 + 1, for y = b_k r
            sw = np.bincount(p.j0, np.multiply(y, p.w, out=space.x), nb)
            self.q[k] = (s - sw) + sw[self.prev]

        # a pairwise sum, as signal_norm takes it, here and in _rebase: a
        # threaded BLAS dot product's last bits follow the thread count,
        # and einsum's running sum drifts from the sample-space norms
        def norm(space):
            return float(np.add.reduce(np.multiply(r, r, out=space.x)))

        *_, self.base_sq = self.workers.run(
            [partial(sums, k) for k in range(len(self.plans))] + [norm])
        self.q *= self.gain
        self.since = np.zeros_like(self.total)

    def _rebase(self) -> None:
        """Take the current residual as ``r0``: its squared norm from the
        samples, ``q`` less ``G @ since``, ``z`` as it is."""
        r = self.finish()
        self.base_sq = float(np.add.reduce(np.multiply(r, r, out=r)))
        u, q, ops = self.since, self.q, self.ops
        for qk, uk, (d, off) in zip(q, u, ops.self_g):
            # G[a, a +- 1] = off[a], off[a - 1]
            qk -= d * uk + off * uk[self.next] + (off * uk)[self.prev]
        for (k, m), g in ops.gram.items():
            q[k] -= g @ u[m]
            q[m] -= u[k] @ g
        u[:] = 0.0

    def sweep(self) -> tuple[np.ndarray, float, np.ndarray]:
        """One sweep: the centred increments ``(K, B)``, the residual's
        root-mean-square and the :func:`signal_norm` of each stored
        increment ``gain * U_k``."""
        z, plans, self_t = self.z, self.plans, self.ops.self_t
        neighbours, after = self.neighbours, self.next
        incs = np.empty_like(z)
        nb = incs.shape[1]
        for k, others in self.steps:
            if others is None:
                layout = plans[k].layout
                # bin_means' arithmetic, called only for empty bins
                means = (z[k] / layout.counts if not layout.empty_x.size
                         else bin_means(z[k], layout))
                # np.mean's arithmetic without its call overhead
                np.subtract(means, np.add.reduce(means) / nb, out=incs[k])
                continue
            inc = incs[k]
            # T @ inc for the periodic tridiagonal T = self_t[k]: d[0]
            # inc[i-1] + d[1] inc[i] + d[2] inc[i+1], summed in that order
            # (a reduction over a short first axis adds its rows in turn)
            z[k] -= np.add.reduce(self_t[k] * inc[neighbours], axis=0)
            for zm, cross in others:
                zm -= cross @ inc
        self.total += incs
        self.since += incs
        u, ops = self.since, self.ops
        # np.sum's arithmetic without its call overhead
        sq = self.base_sq - 2.0 * float(np.add.reduce(u * self.q, axis=None))
        for uk, (d, off) in zip(u, ops.self_g):
            sq += float(d @ (uk * uk) + 2.0 * (off @ (uk * uk[after])))
        for (k, m), g in ops.gram.items():
            sq += 2.0 * float(u[k] @ g @ u[m])
        if sq < self.REBASE * self.base_sq:
            self._rebase()
            sq = self.base_sq
        # scaling by a gain of 1 or 2 commutes with the norm, bit for bit
        return (incs, math.sqrt(max(sq, 0.0) / self.residual.size),
                row_norms(incs) * self.gain)

    def finish(self, modes: Sequence[np.ndarray] | None = None) -> np.ndarray:
        """The residual ``r0 - h_0 E_0 U_0 - h_1 E_1 U_1 - ...`` the pass
        leaves, by :func:`leave`, each term formed in ``modes`` if given."""
        return leave(self.workers, self.plans,
                     [self.gain * u for u in self.total], self.post, modes,
                     self.residual)
