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

A pass on bin sums reads the samples twice: on entry, for its bin sums and
its norm (an mmd band pass takes them from two sums over
:attr:`PhasePlan.half_slots`), and at its end, for the modes and the
residual. In between, only a rebase, once the bin-sum norm has lost six
digits, forms the residual, for its norm alone.

The sample-length work of a pass on bin sums is independent per component:
its operator blocks, its entry sums and its modes. A decomposition run maps
those tasks over the :class:`Workers` it owns, on threads from
:data:`POOL_FLOOR` samples (numpy lets go of the GIL in ``bincount`` and
its ufuncs). Each task keeps its serial arithmetic, so the outputs are the
same bytes on any number of threads, and writes its sample-length products
and indices into a :class:`Workspace` the pool allocated, so threads add no
temporaries. Plans, carriers and sweeps stay on the calling thread.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Callable, Sequence

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
    PhasePrior,
    SampledSignal,
    ShapeTable,
    band_term,
    carrier,
    interpolation,
    make_shape,
    row_norms,
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
    index = np.clip((xs * nb).astype(np.int64), 0, nb - 1)
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
        ``j``, slot ``2 j + 1`` bin ``j + 1``'s. Built on first use, by the
        first mmd band pass on bin sums, and kept for the run."""
        out = self.j0 * 2
        out += self.layout.index != self.j0
        return out


def plan_phase(prior: PhasePrior, length: int, bins: int) -> PhasePlan:
    """Fold, bin and prepare interpolation for one prior, once per run."""
    if len(prior) != length:
        raise GridMismatch("prior and residual are on different grids")
    if not np.all(np.isfinite(prior.phase)):
        raise NonFinite("folded samples must be finite")
    nb = check_bins(bins)
    xs = unit_position(prior.phase)
    j0, w = interpolation(xs, nb)
    return PhasePlan(prior, bin_layout(xs, nb), j0, w, 1.0 - w)


def as_plans(priors: Sequence[PhasePrior | PhasePlan], length: int,
             bins: int) -> list[PhasePlan]:
    """Plans for ``priors``, at least one, keeping entries that already
    are plans for ``bins`` bins."""
    if len(priors) == 0:
        raise DecompositionError("at least one phase prior is required")
    plans = []
    for p in priors:
        if not isinstance(p, PhasePlan):
            p = plan_phase(p, length, bins)
        elif len(p) != length:
            raise GridMismatch("prior and residual are on different grids")
        elif p.layout.size != bins:
            raise LengthMismatch("plan is for another bin count")
        plans.append(p)
    return plans


def check_amplitude(prior: PhasePrior) -> np.ndarray:
    """The prior's amplitude; reject one too small to divide by."""
    if np.any(np.abs(prior.amplitude) < AMPLITUDE_FLOOR):
        raise AmplitudeTooSmall(
            f"amplitude magnitude below {AMPLITUDE_FLOOR:g}")
    return prior.amplitude


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
    """Runs a pass's per-component tasks on ``threads`` threads, the
    calling thread among them; with one, inline and in order.

    Each task is called with a :class:`Workspace` no other running task
    holds, so it allocates only bin-sized arrays. The calling thread
    allocates one ``x`` per thread on the first :meth:`run`, and keeps them
    until :meth:`close`, and the other threads start then too: a pool that
    never runs a task allocates nothing. An operator build's wider
    workspaces live for its :meth:`run` alone, so the run's modes are
    formed beside one sample-length array per thread.
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
        if self.threads == 1:
            return [task(spaces[0]) for task in tasks]
        if self._executor is None:
            # imported on first use: it imports logging, which would add
            # 4-7 ms to every import of the package
            from concurrent.futures import ThreadPoolExecutor
            self._executor = ThreadPoolExecutor(self.threads - 1)
        results = [None] * len(tasks)
        pending = iter(enumerate(tasks))
        lock = threading.Lock()

        def drain(space):
            # each thread takes the next task until none is left
            while True:
                with lock:
                    item = next(pending, None)
                if item is None:
                    return
                results[item[0]] = item[1](space)

        helpers = [self._executor.submit(drain, space)
                   for space in spaces[1:]]
        try:
            drain(spaces[0])
        finally:
            # no thread may hold a workspace once the call returns
            for helper in helpers:
                helper.exception()
        for helper in helpers:
            helper.result()
        return results


def run_workers(length: int, components: int) -> Workers:
    """The pool a decomposition run of ``length`` samples owns: one thread
    per component up to :func:`usable_cpus` from :data:`POOL_FLOOR`
    samples, below it the calling thread alone."""
    return Workers(length, min(components, usable_cpus())
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


def pass_modes(plans: Sequence[PhasePlan], post: Sequence[np.ndarray | None],
               gain: float, total: np.ndarray,
               workers: Workers | None = None) -> list[np.ndarray]:
    """Each component's mode ``post_k * E_k(gain * U_k)`` for the summed
    increments ``total`` of a pass, each one task of ``workers`` (inline if
    not given); a ``None`` factor is 1."""
    workers = workers or Workers(len(plans[0]))
    modes = [np.empty(len(plans[0])) for _ in plans]

    def mode(k, space):
        p = plans[k]
        band_term(gain * total[k], p.j0, p.w, p.w1, post[k], modes[k],
                  space.x)

    workers.run([partial(mode, k) for k in range(len(modes))])
    return modes


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
      and ``self_g[k] = (G[a, a], G[a, a+1])``.
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
    pass reads them once."""
    k, b = components, bins
    return passes * 8 * (3 * k * (k - 1) // 2 * b * b + 5 * k * b)


def band_operators(plans: Sequence[PhasePlan],
                   pre: Sequence[np.ndarray | None],
                   post: Sequence[np.ndarray | None],
                   gain: float,
                   workers: Workers | None = None) -> BandOperators:
    """The :class:`BandOperators` of a pass with regression factors ``pre``
    and subtraction factors ``post``: one ``bincount`` over the samples per
    pair of interpolation weights and block. Each component's diagonal
    blocks, each ordered pair's ``cross`` and each pair's ``gram`` are one
    task of ``workers`` (inline if not given)."""
    nb, k_all = plans[0].layout.size, range(len(plans))
    workers = workers or Workers(len(plans[0]))

    # Every sample-length product and index goes into the task's
    # workspace: a factor's product in x, a weight's in y, an index in i.
    def count(index, weights, factor, size, space):
        return np.bincount(index, _times(factor, weights, space.y), size)

    def product(a, b, factor, space):
        out = np.multiply(a, b, out=space.y)
        if factor is not None:
            out *= factor
        return out

    def flat(i, j, space):
        out = np.multiply(i, nb, out=space.i)
        out += j
        return out

    def shifted(block, rows, cols):
        # a count over (j0 + 1) % B is the count over j0 with its cells
        # moved one bin on, summed in the same order
        return np.roll(block.reshape(nb, nb), (rows, cols), (0, 1))

    self_t = np.empty((len(plans), 3, nb))
    self_g = np.empty((len(plans), 2, nb))

    def diagonal(k, space):
        pk, ak, bk = plans[k], pre[k], post[k]
        rows = pk.layout.index
        c = _times(ak, bk, space.x)

        # slots 0, 1, 2 of row i hold columns i - 1, i, i + 1; a sample's
        # j0 is its bin i or i - 1, so j0 + 1 takes the slot after j0's,
        # which wraps to slot 0 when B = 2
        slots = np.multiply(rows, 3, out=space.i)
        slots += np.equal(pk.j0, rows, out=space.m)
        t = (count(slots, pk.w1, c, 3 * nb, space).reshape(nb, 3)
             + count(slots, pk.w, c, 3 * nb, space).reshape(nb, 3)[
                 :, [2, 0, 1] if nb > 2 else [1, 0, 2]])
        self_t[k] = gain * t.T
        c = c if ak is bk else _times(bk, bk, space.x)
        self_g[k, 0] = (
            np.bincount(pk.j0, product(pk.w1, pk.w1, c, space), nb)
            + np.roll(np.bincount(pk.j0, product(pk.w, pk.w, c, space), nb),
                      1))
        self_g[k, 1] = np.bincount(pk.j0, product(pk.w1, pk.w, c, space), nb)
        self_g[k] *= gain * gain

    def cross_block(k, m, space):
        pm = plans[m]
        c = _times(pre[k], post[m], space.x)
        index = flat(plans[k].layout.index, pm.j0, space)
        return gain * (count(index, pm.w1, c, nb * nb, space).reshape(nb, nb)
                       + shifted(count(index, pm.w, c, nb * nb, space), 0, 1))

    def gram_block(k, m, space):
        pk, pm = plans[k], plans[m]
        c = _times(post[k], post[m], space.x)
        index = flat(pk.j0, pm.j0, space)
        return gain * gain * sum(
            shifted(np.bincount(index, product(wk, wm, c, space), nb * nb),
                    dk, dm)
            for dk, wk in ((0, pk.w1), (1, pk.w))
            for dm, wm in ((0, pm.w1), (1, pm.w)))

    pairs = [(k, m) for k in k_all for m in k_all if m != k]
    upper = [(k, m) for k, m in pairs if k < m]
    blocks = workers.run([partial(diagonal, k) for k in k_all]
                         + [partial(cross_block, k, m) for k, m in pairs]
                         + [partial(gram_block, k, m) for k, m in upper],
                         build=True)
    blocks = blocks[len(plans):]
    return BandOperators(dict(zip(pairs, blocks)),
                         dict(zip(upper, blocks[len(pairs):])),
                         self_t, self_g)


def _banded(d: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``T @ x`` for a periodic tridiagonal ``T`` held as in ``self_t``:
    ``d[0] x[i-1] + d[1] x[i] + d[2] x[i+1]``, summed in that order (a
    reduction over a short first axis adds its rows one after another)."""
    return np.add.reduce(d * x[_neighbours(x.size)], axis=0)


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
    by ``j0``, on the samples. A pass whose regression factor is its
    subtraction factor, as every mmd band pass, takes ``z`` and ``s`` from
    one sum over :attr:`PhasePlan.half_slots`; gmd's from two bin counts.
    Once the squared norm falls below ``2**-20 |r0|^2``, cancellation has
    cost six digits: the pass then forms the residual on the samples for
    its squared norm alone and takes it as the new ``r0``, moving ``q`` by
    the Gram ``G`` in bin space and keeping ``z``. The modes and the
    residual are formed once, by :meth:`finish`.
    """

    REBASE = 2.0 ** -20

    def __init__(self, residual: np.ndarray, plans: Sequence[PhasePlan],
                 ops: BandOperators, pre: Sequence[np.ndarray | None],
                 post: Sequence[np.ndarray | None], gain: float,
                 scheme: str, workers: Workers | None = None):
        if not np.all(np.isfinite(residual)):
            raise NonFinite("folded samples must be finite")
        self.residual, self.plans, self.ops = residual, plans, ops
        self.pre, self.post = pre, post
        self.gain, self.scheme = gain, scheme
        self.workers = workers or Workers(residual.size)
        self.total = np.zeros((len(plans), plans[0].layout.size))
        self.z, self.q = np.empty_like(self.total), np.empty_like(self.total)
        # what a subtraction of component k lowers besides z[k]: the other
        # rows of z, each with its cross block
        self.others = [[(self.z[m], ops.cross[m, k])
                        for m in range(len(plans)) if m != k]
                       for k in range(len(plans))]
        self.prev, _, self.next = _neighbours(self.total.shape[1])
        self._enter(residual)

    def _enter(self, r: np.ndarray) -> None:
        nb = self.total.shape[1]
        # built here, by the calling thread, as the plans are
        halves = [p.half_slots if b is a else None
                  for p, a, b in zip(self.plans, self.pre, self.post)]

        def sums(k, space):
            p, a, b = self.plans[k], self.pre[k], self.post[k]
            y = _times(a, r, space.x)
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
        r = self.finish()[2]
        self.base_sq = float(np.add.reduce(r * r))
        u, q, ops = self.since, self.q, self.ops
        for qk, uk, (d, off) in zip(q, u, ops.self_g):
            # G[a, a +- 1] = off[a], off[a - 1]
            qk -= d * uk + off * uk[self.next] + (off * uk)[self.prev]
        for (k, m), g in ops.gram.items():
            q[k] -= g @ u[m]
            q[m] -= u[k] @ g
        u[:] = 0.0

    def _subtract(self, k: int, inc: np.ndarray) -> None:
        self.z[k] -= _banded(self.ops.self_t[k], inc)
        for z, cross in self.others[k]:
            z -= cross @ inc

    def sweep(self) -> tuple[np.ndarray, float, np.ndarray]:
        """One sweep: the centred increments ``(K, B)``, the residual's
        root-mean-square and the :func:`signal_norm` of each stored
        increment ``gain * U_k``."""
        incs = np.empty_like(self.z)
        nb = incs.shape[1]
        chained = self.scheme == "gauss_seidel"
        for k, plan in enumerate(self.plans):
            means = bin_means(self.z[k], plan.layout)
            # np.mean's arithmetic without its call overhead
            np.subtract(means, np.add.reduce(means) / nb, out=incs[k])
            if chained:
                self._subtract(k, incs[k])
        if not chained:
            for k, inc in enumerate(incs):
                self._subtract(k, inc)
        self.total += incs
        self.since += incs
        u, ops = self.since, self.ops
        sq = self.base_sq - 2.0 * float(np.sum(u * self.q))
        for uk, (d, off) in zip(u, ops.self_g):
            sq += float(d @ (uk * uk) + 2.0 * (off @ (uk * uk[self.next])))
        for (k, m), g in ops.gram.items():
            sq += 2.0 * float(u[k] @ g @ u[m])
        if sq < self.REBASE * self.base_sq:
            self._rebase()
            sq = self.base_sq
        # scaling by a gain of 1 or 2 commutes with the norm, bit for bit
        return (incs, math.sqrt(max(sq, 0.0) / self.residual.size),
                row_norms(incs) * self.gain)

    def finish(self):
        """``(U, modes, residual)``: the summed increments ``(K, B)``, each
        component's ``h_k E_k U_k`` and the residual they leave."""
        modes = pass_modes(self.plans, self.post, self.gain, self.total,
                           self.workers)
        r = self.residual - modes[0]
        for mode in modes[1:]:
            r -= mode
        return self.total, modes, r
