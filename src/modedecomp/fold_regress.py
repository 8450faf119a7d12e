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
:func:`band_operators` builds, to rounding. Both regress by
:func:`bin_means` of the plans' bin sums.
:func:`modedecomp.gmd.run_pass` runs a pass either way.

A pass on bin sums reads the samples twice: on entry, for its bin sums and
its norm (an mmd band pass takes them from two sums over
:attr:`PhasePlan.half_slots`), and at its end, for the modes and the
residual. In between, only a rebase, once the bin-sum norm has lost six
digits, forms the residual, for its norm alone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import (
    AmplitudeTooSmall,
    DecompositionError,
    EmptyInput,
    GridMismatch,
    LengthMismatch,
    NonFinite,
    OutOfDomain,
    SinZeroBand,
)
from .signal_model import (
    PhasePrior,
    SampledSignal,
    ShapeTable,
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

    def interpolate(self, b: np.ndarray) -> np.ndarray:
        """A ``layout.size``-bin table evaluated at the phase samples."""
        out = b[self.j0]
        out *= self.w1
        # b[(j0 + 1) % B] is b moved one bin back, read at j0
        tail = b[_neighbours(b.size)[2]][self.j0]
        tail *= self.w
        out += tail
        return out

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
    nb = int(bins)
    if nb < 2:
        raise LengthMismatch("bin count must be at least 2")
    xs = unit_position(prior.phase)
    j0, w = interpolation(xs, nb)
    return PhasePlan(prior, bin_layout(xs, nb), j0, w, 1.0 - w)


def as_plans(priors: Sequence[PhasePrior | PhasePlan], length: int,
             bins: int) -> list[PhasePlan]:
    """Plans for ``priors``, keeping entries that already are plans for
    ``bins`` bins."""
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
    if isinstance(bins, bool) or not isinstance(bins, numbers.Integral):
        raise OutOfDomain(f"bin count must be an integer, got {bins!r}")
    nb = int(bins)
    if nb < 2:
        raise LengthMismatch("bin count must be at least 2")
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


def _times(a: np.ndarray | None, b: np.ndarray | None) -> np.ndarray | None:
    """Product of two optional factors; ``None`` stands for 1."""
    if a is None:
        return b
    return a if b is None else a * b


def sweep(residual: np.ndarray, plans: Sequence[PhasePlan], bins: int,
          scheme: str, pre: Sequence[np.ndarray | None],
          post: Sequence[np.ndarray | None], gain: float,
          divide: bool = False):
    """One Gauss-Seidel or Jacobi pass of regressions over all components.

    Component ``k`` regresses ``ys = r / pre[k]`` (with ``divide``) or
    ``ys = pre[k] * r`` on its plan's bins, as :class:`BinPass` does,
    centres the estimate ``u`` and subtracts ``post[k] * E_k(gain * u)``;
    a ``None`` factor is 1. Gauss-Seidel chains the residual through the
    components, Jacobi regresses every component against ``residual``.

    Returns the centred increments ``(K, B)`` and the new residual array.
    """
    cur = residual
    incs = np.empty((len(plans), bins))
    subtracted: list[np.ndarray] = []
    for plan, a, b, inc in zip(plans, pre, post, incs):
        source = cur if scheme == "gauss_seidel" else residual
        ys = source / a if divide and a is not None else _times(a, source)
        if not np.all(np.isfinite(ys)):
            raise NonFinite("folded samples must be finite")
        means = bin_means(np.bincount(plan.layout.index, ys, bins),
                          plan.layout)
        # center_shape's arithmetic, as in BinPass.sweep
        np.subtract(means, np.add.reduce(means) / bins, out=inc)
        # a gain of 1 or 2 commutes with E_k and the product, bit for bit
        sub = _times(b, plan.interpolate(gain * inc))
        if scheme == "gauss_seidel":
            cur = cur - sub
        else:
            subtracted.append(sub)
    if scheme != "gauss_seidel":
        cur = residual - np.sum(subtracted, axis=0)
    return incs, cur


def pass_modes(plans: Sequence[PhasePlan], post: Sequence[np.ndarray | None],
               gain: float, total: np.ndarray) -> list[np.ndarray]:
    """Each component's mode ``post_k * E_k(gain * U_k)`` for the summed
    increments ``total`` of a pass; a ``None`` factor is 1."""
    modes = []
    for plan, b, u in zip(plans, post, total):
        mode = plan.interpolate(gain * u)
        if b is not None:
            mode *= b
        modes.append(mode)
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
    (:meth:`PhasePlan.interpolate`). Each step is linear in the residual,
    so a pass can run on bin sums:

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
                   gain: float) -> BandOperators:
    """The :class:`BandOperators` of a pass with regression factors ``pre``
    and subtraction factors ``post``: one ``bincount`` over the samples per
    pair of interpolation weights and block."""
    nb = plans[0].layout.size

    # Index and weight temporaries are formed in place, so that at most
    # two sample-length ones live beside the factors' product.
    def count(index, weights, factor, size):
        return np.bincount(index, _times(factor, weights), size)

    def product(a, b, factor):
        out = a * b
        if factor is not None:
            out *= factor
        return out

    def flat(i, j):
        out = i * nb
        out += j
        return out

    def shifted(block, rows, cols):
        # a count over (j0 + 1) % B is the count over j0 with its cells
        # moved one bin on, summed in the same order
        return np.roll(block.reshape(nb, nb), (rows, cols), (0, 1))

    cross, gram = {}, {}
    self_t = np.empty((len(plans), 3, nb))
    self_g = np.empty((len(plans), 2, nb))
    for k, pk in enumerate(plans):
        rows, ak, bk = pk.layout.index, pre[k], post[k]
        c = _times(ak, bk)

        # slots 0, 1, 2 of row i hold columns i - 1, i, i + 1; a sample's
        # j0 is its bin i or i - 1, so j0 + 1 takes the slot after j0's,
        # which wraps to slot 0 when B = 2
        slots = rows * 3
        slots += pk.j0 == rows
        t = (count(slots, pk.w1, c, 3 * nb).reshape(nb, 3)
             + count(slots, pk.w, c, 3 * nb).reshape(nb, 3)[
                 :, [2, 0, 1] if nb > 2 else [1, 0, 2]])
        del slots
        self_t[k] = gain * t.T
        c = c if ak is bk else _times(bk, bk)
        self_g[k, 0] = (np.bincount(pk.j0, product(pk.w1, pk.w1, c), nb)
                        + np.roll(np.bincount(pk.j0, product(pk.w, pk.w, c),
                                              nb), 1))
        self_g[k, 1] = np.bincount(pk.j0, product(pk.w1, pk.w, c), nb)
        self_g[k] *= gain * gain
        for m, pm in enumerate(plans):
            if m == k:
                continue
            c = _times(ak, post[m])
            index = flat(rows, pm.j0)
            cross[k, m] = gain * (
                count(index, pm.w1, c, nb * nb).reshape(nb, nb)
                + shifted(count(index, pm.w, c, nb * nb), 0, 1))
            if m > k:
                c = c if ak is bk else _times(bk, post[m])
                index = flat(pk.j0, pm.j0)
                gram[k, m] = gain * gain * sum(
                    shifted(np.bincount(index, product(wk, wm, c), nb * nb),
                            dk, dm)
                    for dk, wk in ((0, pk.w1), (1, pk.w))
                    for dm, wm in ((0, pm.w1), (1, pm.w)))
    return BandOperators(cross, gram, self_t, self_g)


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
                 scheme: str):
        if not np.all(np.isfinite(residual)):
            raise NonFinite("folded samples must be finite")
        self.residual, self.plans, self.ops = residual, plans, ops
        self.pre, self.post = pre, post
        self.gain, self.scheme = gain, scheme
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
        for k, (p, a, b) in enumerate(zip(self.plans, self.pre, self.post)):
            y = _times(a, r)
            if b is a:
                # bin i's samples fill slots 2i and 2i - 1, and those that
                # interpolate from j0 = j slots 2j and 2j + 1
                lo, hi = np.bincount(p.half_slots, y, 2 * nb).reshape(nb, 2).T
                self.z[k] = lo + hi[self.prev]
                s = lo + hi
            else:
                self.z[k] = np.bincount(p.layout.index, y, nb)
                y = _times(b, r)
                s = np.bincount(p.j0, y, nb)
            # E_k^T y sums y (1 - w) by j0 and y w by j0 + 1, for y = b_k r;
            # y is r itself where the factor is 1
            y = y * p.w if y is r else np.multiply(y, p.w, out=y)
            sw = np.bincount(p.j0, y, nb)
            self.q[k] = (s - sw) + sw[self.prev]
        self.q *= self.gain
        # a pairwise sum, as signal_norm takes it, here and in _rebase: a
        # threaded BLAS dot product's last bits follow the thread count,
        # and einsum's running sum drifts from the sample-space norms. The
        # squares go into the last y, a private product no longer needed.
        self.base_sq = float(np.add.reduce(np.multiply(r, r, out=y)))
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
        modes = pass_modes(self.plans, self.post, self.gain, self.total)
        r = self.residual - modes[0]
        for mode in modes[1:]:
            r -= mode
        return self.total, modes, r
