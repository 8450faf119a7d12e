"""Core data types: sampled signals, phase priors, shape tables, mode estimates.

All types are frozen dataclasses holding read-only numpy arrays, so instances
can be shared freely between threads. Operations are pure functions that
return new objects.

Conventions
-----------
* Time grids live in ``[0, 1]``.
* Phases are exchanged in cycles (``p = N * phi``); angles pick up their
  ``2*pi`` factor only inside trigonometric evaluation.
* A shape table stores one period of a periodic waveform on ``B`` uniform
  bins over ``[0, 1)``; its ``l2norm`` is the root-mean-square of the bin
  values, i.e. the L2 norm of the piecewise-constant function on the unit
  interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    AmplitudeTooSmall,
    BandOutOfRange,
    DecompositionError,
    DuplicateTime,
    GridMismatch,
    LengthMismatch,
    NonFinite,
    NonMonotonePhase,
    OutOfDomain,
    SinZeroBand,
    integer,
)

__all__ = [
    "SampledSignal",
    "PhasePrior",
    "ShapeTable",
    "MimfEstimate",
    "make_signal",
    "make_prior",
    "make_shape",
    "zero_shape",
    "add_shapes",
    "scale_shape",
    "signal_norm",
    "row_norms",
    "scale_into_range",
    "ldexp_signal",
    "ldexp_shape",
    "round_fundamental",
    "with_fundamental",
    "sort_components",
    "eval_shape",
    "make_estimate",
    "normalize_estimate",
    "reconstruct_mimf",
]


def _readonly(a, dtype=float):
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


def _freeze(obj, *fields) -> None:
    """Replace array fields of a frozen dataclass by read-only views, leaving
    the caller's arrays writeable."""
    for name in fields:
        view = np.asarray(getattr(obj, name)).view()
        view.setflags(write=False)
        object.__setattr__(obj, name, view)


def signal_norm(values) -> float:
    """Discrete L2 norm: root-mean-square over samples (uniform weight 1/L).

    A norm beyond ``2**±500`` is recomputed on the values scaled by a power
    of two, so squaring them neither overflows nor underflows.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return 0.0
    # np.mean's arithmetic, bit for bit, without its call overhead: the
    # saving pays for the errstate on small shape tables.
    with np.errstate(over="ignore", under="ignore"):  # rescaled below
        norm = math.sqrt(np.add.reduce(v * v, axis=None) / v.size)
    if 2.0 ** -500 < norm < 2.0 ** 500:
        return norm
    peak = float(np.max(np.abs(v)))
    if peak == 0.0 or not math.isfinite(peak):
        return norm
    k = math.frexp(peak)[1]
    return math.ldexp(signal_norm(np.ldexp(v, -k)), k)


def row_norms(rows: np.ndarray) -> np.ndarray:
    """:func:`signal_norm` of each row of a 2-d array, bit for bit: one
    reduction along the rows, with the per-row call only for a norm outside
    ``2**±500``."""
    with np.errstate(over="ignore", under="ignore"):  # recomputed below
        norms = np.sqrt(np.add.reduce(rows * rows, axis=1) / rows.shape[1])
    for i, norm in enumerate(norms.tolist()):
        if not 2.0 ** -500 < norm < 2.0 ** 500:
            norms[i] = signal_norm(rows[i])
    return norms


@dataclass(frozen=True)
class SampledSignal:
    """A real-valued series sampled at strictly increasing times in [0, 1].

    Use :func:`make_signal` to construct validated instances; the raw
    constructor is reserved for internal fast paths that already guarantee
    the invariants. The instance holds read-only views of the arrays, so it
    is safe to share; the arrays passed in stay writeable.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        _freeze(self, "times", "values")

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def l2norm(self) -> float:
        return signal_norm(self.values)


def scale_into_range(signal: SampledSignal) -> tuple[SampledSignal, int]:
    """Split ``signal`` into ``scaled * 2**k`` whose squares neither overflow
    nor underflow: ``k = 0`` for a zero signal or one whose magnitudes lie
    within ``2**±256`` (a residual 1e-16 of that size still squares to a
    normal float), else ``scaled`` peaks in ``[0.5, 1)``. The scaling is
    exact and a decomposition is linear in the signal, so a run on
    ``scaled`` with its outputs times ``2**k`` does not depend on the scale.
    """
    v = signal.values
    k = math.frexp(max(float(np.max(v)), -float(np.min(v))))[1]
    if abs(k) <= 256:
        return signal, 0
    return ldexp_signal(signal, -k), k


def ldexp_signal(signal: SampledSignal, k: int) -> SampledSignal:
    """``signal * 2**k``, exactly."""
    if k == 0:
        return signal
    return SampledSignal(signal.times, np.ldexp(signal.values, k))


def make_signal(times: Sequence[float], values: Sequence[float]) -> SampledSignal:
    """Validate and canonicalize a sampled signal.

    Samples are sorted by time; duplicate times are rejected rather than
    merged because downstream regression bins would double-count them.

    Raises
    ------
    LengthMismatch, NonFinite, DuplicateTime, OutOfDomain
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.ndim != 1 or v.ndim != 1 or t.size != v.size:
        raise LengthMismatch("times and values must be 1-d sequences of equal length")
    if t.size < 2:
        raise LengthMismatch("a signal needs at least 2 samples")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
        raise NonFinite("times and values must be finite")
    if t.min() < 0.0 or t.max() > 1.0:
        raise OutOfDomain("times must lie within [0, 1]")
    order = np.argsort(t, kind="stable")
    t = t[order]
    v = v[order]
    if np.any(np.diff(t) == 0.0):
        raise DuplicateTime("duplicate sample times are not allowed")
    return SampledSignal(_readonly(t), _readonly(v))


@dataclass(frozen=True)
class PhasePrior:
    """One component's phase samples in cycles, with an optional amplitude.

    ``fundamental`` is the rounded average cycle rate; it is derived from the
    grid by :func:`round_fundamental` and is ``None`` until computed.
    """

    phase: np.ndarray
    amplitude: np.ndarray
    fundamental: int | None = None

    def __post_init__(self):
        _freeze(self, "phase", "amplitude")

    def __len__(self) -> int:
        return int(self.phase.size)


def make_prior(phase: Sequence[float], amplitude: Sequence[float] | None = None,
               fundamental: int | None = None) -> PhasePrior:
    """Validate a phase prior (phase strictly increasing, amplitude positive)."""
    p = np.asarray(phase, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise LengthMismatch("phase must be a 1-d sequence with at least 2 samples")
    if not np.all(np.isfinite(p)):
        raise NonFinite("phase must be finite")
    # neighbours compared, not differenced: a difference can overflow
    if np.any(p[1:] <= p[:-1]):
        raise NonMonotonePhase("phase must be strictly increasing")
    if amplitude is None:
        q = np.ones_like(p)
    else:
        q = np.asarray(amplitude, dtype=float)
        if q.shape != p.shape:
            raise LengthMismatch("amplitude must match the phase length")
        if not np.all(np.isfinite(q)):
            raise NonFinite("amplitude must be finite")
        if np.any(q <= 0.0):
            raise AmplitudeTooSmall("amplitude must be strictly positive")
    if fundamental is not None:
        integer(fundamental, "fundamental", 1)
    return PhasePrior(_readonly(p), _readonly(q), fundamental)


#: Samples of the phase derivative :func:`round_fundamental` takes at once.
GRADIENT_BLOCK = 2 ** 16


def round_fundamental(prior: PhasePrior, grid: Sequence[float]) -> int:
    """Nearest integer to the grid-average of the discrete phase derivative.

    The derivative is taken by central finite differences on the grid, with
    one-sided differences at the endpoints, by ``np.gradient`` in blocks of
    :data:`GRADIENT_BLOCK` samples overlapping by one, so that its
    temporaries stay block-sized.
    """
    t = np.asarray(grid, dtype=float)
    p = prior.phase
    if t.size != p.size:
        raise GridMismatch("grid length does not match the prior")
    if t.size < 2:
        raise LengthMismatch("grid needs at least 2 points")
    deriv = np.empty(t.size)
    for lo in range(0, t.size, GRADIENT_BLOCK):
        hi, a = lo + GRADIENT_BLOCK, max(lo - 1, 0)
        deriv[lo:hi] = np.gradient(p[a:hi + 1], t[a:hi + 1])[lo - a:hi - a]
    if np.any(deriv <= 0.0):
        raise NonMonotonePhase("discrete phase derivative must be positive")
    n = int(round(float(np.mean(deriv))))
    if n < 1:
        raise DecompositionError("average cycle rate rounds below 1")
    return n


def with_fundamental(prior: PhasePrior, grid: Sequence[float]) -> PhasePrior:
    """Return a copy of ``prior`` with its fundamental computed and stored."""
    return replace(prior, fundamental=round_fundamental(prior, grid))


def sort_components(priors: Sequence[PhasePrior]):
    """Order priors by ascending fundamental, stably.

    Returns ``(sorted_priors, permutation)`` where ``permutation[i]`` is the
    input index of the i-th sorted prior, so callers can map outputs back.
    """
    for k, prior in enumerate(priors):
        if prior.fundamental is None:
            raise DecompositionError(f"prior {k} has no fundamental; "
                                     "call with_fundamental first")
    order = sorted(range(len(priors)), key=lambda k: (priors[k].fundamental, k))
    return [priors[k] for k in order], list(order)


@dataclass(frozen=True)
class ShapeTable:
    """One period of a periodic waveform tabulated on B uniform bins."""

    bins: np.ndarray
    l2norm: float

    def __post_init__(self):
        _freeze(self, "bins")

    @property
    def size(self) -> int:
        return int(self.bins.size)

    @property
    def mean(self) -> float:
        return float(np.mean(self.bins))


def make_shape(bins: Sequence[float]) -> ShapeTable:
    b = np.asarray(bins, dtype=float)
    if b.ndim != 1 or b.size < 2:
        raise LengthMismatch("a shape table needs at least 2 bins")
    if not np.all(np.isfinite(b)):
        raise NonFinite("shape bins must be finite")
    return ShapeTable(_readonly(b), signal_norm(b))


def zero_shape(bins: int) -> ShapeTable:
    return make_shape(np.zeros(integer(bins, "bins")))


def add_shapes(a: ShapeTable, b: ShapeTable) -> ShapeTable:
    if a.size != b.size:
        raise LengthMismatch("shape tables have different bin counts")
    return make_shape(a.bins + b.bins)


def scale_shape(shape: ShapeTable, factor: float) -> ShapeTable:
    """``shape * factor``; a product that overflows is refused as
    :class:`NonFinite` by :func:`make_shape`, without a warning."""
    with np.errstate(over="ignore"):
        bins = shape.bins * float(factor)
    return make_shape(bins)


def ldexp_shape(shape: ShapeTable, k: int) -> ShapeTable:
    """``shape * 2**k``, exactly; the norm is scaled alongside rather than
    recomputed, so it cannot overflow or underflow."""
    if k == 0:
        return shape
    return ShapeTable(np.ldexp(shape.bins, k),
                      float(np.ldexp(shape.l2norm, k)))


def eval_shape(shape: ShapeTable, v):
    """Evaluate the periodic table at fractional position ``mod(v, 1)``.

    Linear interpolation between bin centers with periodic wrap; exact bin
    values at bin centers. Accepts scalars or arrays of finite positions.
    """
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise NonFinite("positions must be finite")
    out = band_term(shape.bins, *interpolation(unit_position(v), shape.size))
    return float(out) if out.ndim == 0 else out


def unit_position(v) -> np.ndarray:
    """Fractional position ``mod(v, 1)`` in ``[0, 1)``.

    ``v - floor(v)`` is ``np.mod(v, 1.0)`` bit for bit: both round the same
    exact difference once, and both give ``+0`` at integers, ``-0``
    included.
    """
    v = np.asarray(v, dtype=float)
    x = np.floor(v, out=np.empty_like(v))
    np.subtract(v, x, out=x)
    # the difference can round up to exactly 1.0 for tiny negative inputs
    np.subtract(x, 1.0, out=x, where=x >= 1.0)
    return x


def interpolation(x, nb: int):
    """Bin-center interpolation data ``(j0, w)`` of a ``nb``-bin table at
    positions ``x`` in ``[0, 1)``, as :func:`band_term` reads them.
    """
    x = np.asarray(x, dtype=float)
    u = np.multiply(x, nb, out=np.empty_like(x))
    u -= 0.5
    j0 = np.floor(u, out=np.empty(u.shape, np.int64), casting="unsafe")
    w = np.subtract(u, j0, out=u)
    # u lies in [-0.5, nb - 0.5), so only j0 = -1 wraps
    np.add(j0, nb, out=j0, where=j0 < 0)
    return j0, w


def band_term(table: np.ndarray, j0, w, w1=None,
              g: np.ndarray | None = None, out: np.ndarray | None = None,
              scratch: np.ndarray | None = None) -> np.ndarray:
    """``g`` times ``table`` at :func:`interpolation`'s ``(j0, w)``,
    ``w1 table[j0] + w table[(j0 + 1) % B]`` in place, with ``w1 = 1 - w``
    unless given and ``g = None`` being 1: the one table-at-samples formula.
    Formed in ``out`` with its tail in ``scratch``, where given, else in
    new arrays."""
    # j0 lies in [0, B); "wrap" writes into out unbuffered, as "raise" does not
    out = np.take(table, j0, out=out, mode="wrap")
    # a w1 formed here is let go before the tail is gathered
    out *= 1.0 - w if w1 is None else w1
    # table[(j0 + 1) % B] is the table moved one bin back, read at j0
    tail = np.take(np.concatenate((table[1:], table[:1])), j0, out=scratch,
                   mode="wrap")
    tail *= w
    out += tail
    if g is not None:
        out *= g
    return out


def band_order(m0: int) -> list[int]:
    """Interleaved band visit order 0, +1, -1, ..., +m0, -m0."""
    return [0] + [b for n in range(1, m0 + 1) for b in (n, -n)]


def band_slots(m0: int) -> list[tuple[int, str]]:
    """The ``(band, kind)`` terms in the solver's visit order, cos first."""
    return [(n, kind) for n in band_order(m0)
            for kind in (("cos", "sin") if n else ("cos",))]


def band_sign(n: int, kind: str) -> float:
    """-1 for a negative band's sine term, else 1: ``sin`` is odd bit for
    bit, so that term is band ``|n|``'s carrier times the negated table."""
    return -1.0 if n < 0 and kind == "sin" else 1.0


def check_band(prior: PhasePrior, n: int, kind: str) -> None:
    """Refuse a band term without a carrier: bad kind, band-0 sine, no N."""
    if kind not in ("cos", "sin"):
        raise DecompositionError(f"unknown carrier kind {kind!r}")
    if integer(n, "band") == 0 and kind == "sin":
        raise SinZeroBand("sine carrier vanishes identically at band 0")
    if prior.fundamental is None:
        raise DecompositionError("prior fundamental required for demodulation")


def carrier(prior: PhasePrior, n: int, kind: str) -> np.ndarray:
    """Demodulation carrier ``cos/sin(2*pi*n*p/N)`` sampled on the grid."""
    check_band(prior, n, kind)
    angle = 2.0 * np.pi * n * prior.phase / prior.fundamental
    return np.cos(angle) if kind == "cos" else np.sin(angle)


def band_carrier(prior: PhasePrior, n: int, kind: str) -> np.ndarray | None:
    """The carrier of band ``n``'s ``kind`` term: ``None`` (a factor of 1)
    at band 0, else band ``|n|``'s, the sign left to :func:`band_sign`."""
    check_band(prior, n, kind)
    return carrier(prior, abs(n), kind) if n else None


@dataclass(frozen=True)
class MimfEstimate:
    """Band-indexed shape accumulators and coefficients for one component.

    ``cos_shapes``/``sin_shapes`` hold the accumulated products
    (coefficient times unit shape) unless ``normalized`` is set, in which
    case they are unit-norm shapes and the coefficients carry the scale.
    The sine map never has a band-0 entry.
    """

    bandwidth: int
    cos_shapes: Mapping[int, ShapeTable]
    sin_shapes: Mapping[int, ShapeTable]
    cos_coeffs: Mapping[int, float]
    sin_coeffs: Mapping[int, float]
    mode: SampledSignal | None = None
    normalized: bool = False


def make_estimate(bandwidth: int,
                  cos_shapes: Mapping[int, ShapeTable],
                  sin_shapes: Mapping[int, ShapeTable],
                  cos_coeffs: Mapping[int, float] | None = None,
                  sin_coeffs: Mapping[int, float] | None = None,
                  mode: SampledSignal | None = None,
                  normalized: bool = False) -> MimfEstimate:
    """Validate band indices and assemble an estimate.

    When coefficients are omitted they default to the L2 norms of the stored
    tables (the product-table convention).
    """
    m0 = integer(bandwidth, "bandwidth", 0, BandOutOfRange)
    for kind, shapes in (("cos", cos_shapes), ("sin", sin_shapes)):
        for n in shapes:
            if kind == "sin" and n == 0:
                raise SinZeroBand("sine shapes have no band-0 entry")
            if abs(integer(n, f"{kind} band")) > m0:
                raise BandOutOfRange(f"{kind} band {n} outside [-{m0}, {m0}]")
    if cos_coeffs is None:
        cos_coeffs = {n: s.l2norm for n, s in cos_shapes.items()}
    if sin_coeffs is None:
        sin_coeffs = {n: s.l2norm for n, s in sin_shapes.items()}
    return MimfEstimate(m0, dict(cos_shapes), dict(sin_shapes),
                        dict(cos_coeffs), dict(sin_coeffs), mode, normalized)


def normalize_estimate(est: MimfEstimate) -> MimfEstimate:
    """Split each accumulated product into a nonnegative coefficient and a
    unit-norm shape; zero accumulators yield coefficient 0 and a zero shape."""
    if est.normalized:
        return est

    def split(shapes):
        out_s, out_c = {}, {}
        for n, s in shapes.items():
            norm = s.l2norm
            if norm > 0.0:
                out_s[n] = scale_shape(s, 1.0 / norm)
                out_c[n] = norm
            else:
                out_s[n] = zero_shape(s.size)
                out_c[n] = 0.0
        return out_s, out_c

    cos_s, cos_c = split(est.cos_shapes)
    sin_s, sin_c = split(est.sin_shapes)
    return MimfEstimate(est.bandwidth, cos_s, sin_s, cos_c, sin_c,
                        est.mode, normalized=True)


def reconstruct_mimf(est: MimfEstimate, prior: PhasePrior,
                     grid: Sequence[float]) -> SampledSignal:
    """Evaluate the band sum at the prior's phase samples.

    Band ``n`` adds ``cos(2*pi*n*p/N) a_n(p)`` and ``sin(2*pi*n*p/N)
    b_n(p)``, tables evaluated at the phase ``p`` (cycles). It sums them as
    an mmd run forms its modes: in the solver's visit order
    (:func:`band_slots`), on band ``|n|``'s carriers, by :func:`band_term`,
    so that it reproduces an mmd mode exactly from its unnormalized
    estimate. Interpolation data is formed once per table size, and band
    ``|n|``'s carriers once for bands ``n`` and ``-n``.
    """
    t = np.asarray(grid, dtype=float)
    if t.size != len(prior):
        raise GridMismatch("grid length does not match the prior")
    x = unit_position(prior.phase)
    at, held = {}, {}
    total = np.zeros_like(x)
    for n, kind in band_slots(est.bandwidth):
        shapes, coeffs = ((est.cos_shapes, est.cos_coeffs) if kind == "cos"
                          else (est.sin_shapes, est.sin_coeffs))
        if n not in shapes:
            continue
        table = shapes[n]
        if est.normalized:
            table = scale_shape(table, coeffs.get(n, 0.0))
        nb = table.size
        if nb not in at:
            at[nb] = interpolation(x, nb)
        # band -n's term takes band n's carrier, given up to it
        g = held.pop((-n, kind), None)
        if g is None:
            g = held[n, kind] = band_carrier(prior, n, kind)
        total += band_term(band_sign(n, kind) * table.bins, *at[nb], g=g)
    return SampledSignal(_readonly(t), _readonly(total))
