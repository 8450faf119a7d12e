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
    real,
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
    "scale_shape",
    "signal_norm",
    "row_norms",
    "scale_into_range",
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


def scale_into_range(values: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """Split ``values`` into ``scaled * 2**k`` whose squares neither
    overflow nor underflow: ``k = 0`` and ``values`` as they are if zero or
    within ``2**±256`` in magnitude (a residual 1e-16 of that size still
    squares to a normal float), else ``scaled``, a new array, peaks in
    ``[0.5, 1)``. The scaling is exact and a pass is linear in its residual,
    so :func:`~modedecomp.gmd.run_pass` on ``scaled``, with its outputs
    times ``2**k``, does not depend on the scale. Returns ``(scaled, k,
    finite)``, ``finite`` whether every value is a number, read from the
    same max and min: a NaN or an infinity shows in them (and leaves
    ``values`` unscaled).
    """
    peak = max(float(np.max(values)), -float(np.min(values)))
    k = math.frexp(peak)[1]
    return ((values, 0) if abs(k) <= 256
            else (np.ldexp(values, -k), k)) + (math.isfinite(peak),)


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


#: Samples :func:`round_fundamental` and ``fold_regress.check_amplitude``
#: read at once.
GRADIENT_BLOCK = 2 ** 16


def round_fundamental(prior: PhasePrior, grid: Sequence[float]) -> int:
    """Nearest integer to the grid-average of the discrete phase derivative.

    The derivative is taken by central finite differences on the grid, with
    one-sided differences at the endpoints, by ``np.gradient`` in blocks of
    :data:`GRADIENT_BLOCK` samples overlapping by one; each block is
    sign-checked and summed, and the average is the blocks' sums added in
    order, so it can round otherwise than ``np.mean`` of the whole
    derivative only within rounding error of a half-integer.

    The grid is refused as :func:`make_signal` refuses a signal's sorted
    times (a repeated time where it repeats its neighbour); a derivative
    not positive somewhere, as on a grid that steps back, is
    :class:`NonMonotonePhase`, and a non-finite average :class:`NonFinite`.
    """
    t = np.asarray(grid, dtype=float)
    p = prior.phase
    if t.size != p.size:
        raise GridMismatch("grid length does not match the prior")
    if t.size < 2:
        raise LengthMismatch("grid needs at least 2 points")
    # a NaN is the least and the greatest time, -inf the least, inf the
    # greatest
    least, greatest = float(t.min()), float(t.max())
    if not (math.isfinite(least) and math.isfinite(greatest)):
        raise NonFinite("times must be finite")
    if least < 0.0 or greatest > 1.0:
        raise OutOfDomain("times must lie within [0, 1]")
    total = 0.0
    # a step that underflows makes the average non-finite: refused below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(0, t.size, GRADIENT_BLOCK):
            hi, a = lo + GRADIENT_BLOCK, max(lo - 1, 0)
            ta = t[a:hi + 1]
            if np.any(ta[1:] == ta[:-1]):
                raise DuplicateTime("duplicate sample times are not allowed")
            deriv = np.gradient(p[a:hi + 1], ta)[lo - a:hi - a]
            if np.any(deriv <= 0.0):
                raise NonMonotonePhase(
                    "discrete phase derivative must be positive")
            total += float(np.add.reduce(deriv))
    average = total / t.size
    if not math.isfinite(average):
        raise NonFinite("average cycle rate is not finite on this grid")
    n = round(average)
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


def scale_shape(shape: ShapeTable, factor: float) -> ShapeTable:
    """``shape * factor``; a product that overflows is refused as
    :class:`NonFinite` by :func:`make_shape`, without a warning."""
    with np.errstate(over="ignore"):
        bins = shape.bins * real(factor, "factor")
    return make_shape(bins)


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


def unit_position(v, out: np.ndarray | None = None) -> np.ndarray:
    """Fractional position ``mod(v, 1)`` in ``[0, 1)``, in ``out`` if
    given.

    ``v - floor(v)`` is ``np.mod(v, 1.0)`` bit for bit: both round the same
    exact difference once, and both give ``+0`` at integers, ``-0``
    included.
    """
    v = np.asarray(v, dtype=float)
    x = np.floor(v, out=np.empty_like(v) if out is None else out)
    np.subtract(v, x, out=x)
    # the difference can round up to exactly 1.0 for tiny negative inputs
    np.subtract(x, 1.0, out=x, where=x >= 1.0)
    return x


def interpolation(x, nb: int):
    """Bin-center interpolation data ``(j0, w)`` of a ``nb``-bin table at
    positions ``x`` in ``[0, 1)``, as :func:`band_term` reads them.
    """
    x = np.asarray(x, dtype=float)
    return scaled_interpolation(np.multiply(x, nb, out=np.empty_like(x)), nb)


def scaled_interpolation(u: np.ndarray, nb: int,
                         j0: np.ndarray | None = None):
    """:func:`interpolation`'s ``(j0, w)`` from the product ``u = x nb``,
    which becomes ``w``, with ``j0`` in the given int64 array if any."""
    u -= 0.5
    j0 = np.floor(u, out=np.empty(u.shape, np.int64) if j0 is None else j0,
                  casting="unsafe")
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


def band_slots(m0: int) -> list[tuple[int, str]]:
    """The ``(band, kind)`` terms in the solver's visit order, bands
    ``0 ... m0``, cos first: band ``-n``'s terms are band ``n``'s
    (:func:`reconstruct_mimf`), so the solver visits ``n >= 0`` only."""
    return [(n, kind) for n in range(m0 + 1)
            for kind in (("cos", "sin") if n else ("cos",))]


#: Bands from one seed of :func:`carrier`'s recurrence to the next.
SEED_SPACING = 16


def carrier(prior: PhasePrior, n: int, kind: str) -> np.ndarray:
    """Demodulation carrier ``cos/sin(2*pi*n*p/N)`` sampled on the grid:
    ``np.cos``/``np.sin`` at band 1 and at each multiple of
    :data:`SEED_SPACING`, its seeds, and from the seed at or below ``|n|``
    up by band 1's angle, ``cos (j+1)x = cos jx cos x - sin jx sin x``,
    ``sin (j+1)x = sin jx cos x + cos jx sin x``, the sine negated for ``n
    < 0``. Up to band 20 it lies within 5e-14 of ``np.cos``/``np.sin``."""
    g = BandCarriers([prior])(n, kind)[0]
    if g is None:
        return np.ones(len(prior))
    return np.negative(g) if n < 0 and kind == "sin" else g


def _trig(prior: PhasePrior, n: int) -> tuple[np.ndarray, np.ndarray]:
    angle = 2.0 * np.pi * n * prior.phase / prior.fundamental
    return np.cos(angle), np.sin(angle)


def _turn(pair, one) -> tuple[np.ndarray, np.ndarray]:
    """Band ``j + 1``'s carriers from band ``j``'s and band 1's."""
    (c, s), (c1, s1) = pair, one
    tmp = s * s1
    cn = c * c1
    cn -= tmp
    sn = s * c1
    sn += np.multiply(c, s1, out=tmp)
    return cn, sn


class BandCarriers:
    """The carriers of band terms on ``priors``: ``carriers(n, kind)``
    refuses a band term without one (a bad kind, band 0's sine, a prior
    without its fundamental) and gives, per prior, ``None`` (a factor of 1)
    at band 0, else band ``|n|``'s :func:`carrier`, bit for bit. It holds
    band 1's and the last band's, four arrays a prior, and turns the last
    band's up to a higher band from the same seed, one prior at a time, or
    else starts afresh."""

    def __init__(self, priors: Sequence[PhasePrior]):
        self.priors, self.band, self.one, self.pairs = list(priors), 1, None, None

    def __call__(self, n: int, kind: str) -> list[np.ndarray | None]:
        if kind not in ("cos", "sin"):
            raise DecompositionError(f"unknown carrier kind {kind!r}")
        if integer(n, "band") == 0 and kind == "sin":
            raise SinZeroBand("sine carrier vanishes identically at band 0")
        if any(prior.fundamental is None for prior in self.priors):
            raise DecompositionError("prior fundamental required for "
                                     "demodulation")
        if n == 0:
            return [None] * len(self.priors)
        m, seed = abs(n), SEED_SPACING * (abs(n) // SEED_SPACING)
        if self.one is None:
            self.one = [_trig(prior, 1) for prior in self.priors]
            self.pairs = list(self.one)
        start = self.band if seed <= self.band <= m else max(seed, 1)
        for k, prior in enumerate(self.priors):
            if start != self.band:
                self.pairs[k] = None  # let the last band go first
                self.pairs[k] = _trig(prior, seed) if seed else self.one[k]
            for _ in range(start, m):
                self.pairs[k] = _turn(self.pairs[k], self.one[k])
        self.band = m
        return [pair[kind == "sin"] for pair in self.pairs]


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
    """Validate band indices and coefficients and assemble an estimate.

    Every band is an integer in ``[-m0, m0]``, no sine band is 0, and every
    coefficient is finite, with a table of its kind. Coefficient maps are
    given only with ``normalized``. An omitted one is the tables' L2 norms
    for product tables, and 1 for each table with ``normalized``, so that a
    table given without a coefficient is used as it is.
    """
    m0 = integer(bandwidth, "bandwidth", 0, BandOutOfRange)
    if not normalized and (cos_coeffs is not None or sin_coeffs is not None):
        raise OutOfDomain("coefficient maps need normalized=True")

    def default(shapes):
        return {n: 1.0 if normalized else s.l2norm for n, s in shapes.items()}

    if cos_coeffs is None:
        cos_coeffs = default(cos_shapes)
    if sin_coeffs is None:
        sin_coeffs = default(sin_shapes)
    checked = []
    for kind, shapes, coeffs in (("cos", cos_shapes, cos_coeffs),
                                 ("sin", sin_shapes, sin_coeffs)):
        for n in (*shapes, *coeffs):
            if kind == "sin" and n == 0:
                raise SinZeroBand("sine shapes have no band-0 entry")
            if abs(integer(n, f"{kind} band")) > m0:
                raise BandOutOfRange(f"{kind} band {n} outside [-{m0}, {m0}]")
        values = {}
        for n, c in coeffs.items():
            if n not in shapes:
                raise OutOfDomain(f"{kind} coefficient {n} has no table")
            values[n] = real(c, f"{kind} coefficient {n}")
            if not math.isfinite(values[n]):
                raise NonFinite(f"{kind} coefficient {n} is {c!r}")
        checked.append(values)
    return MimfEstimate(m0, dict(cos_shapes), dict(sin_shapes), *checked,
                        mode, normalized)


def normalize_estimate(est: MimfEstimate) -> MimfEstimate:
    """Split each accumulated product into a nonnegative coefficient and a
    unit-norm shape; zero accumulators yield coefficient 0 and a zero shape.
    A table whose norm has no finite inverse is first scaled up by a power
    of two, exactly, and its norm recomputed."""
    if est.normalized:
        return est

    def split(shapes):
        out_s, out_c = {}, {}
        for n, s in shapes.items():
            norm = s.l2norm
            if norm > 0.0:
                if math.isinf(1.0 / norm):
                    s = make_shape(np.ldexp(s.bins, -math.frexp(norm)[1]))
                out_s[n] = scale_shape(s, 1.0 / s.l2norm)
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
    b_n(p)``, tables evaluated at the phase ``p`` (cycles). ``cos`` and
    ``sin`` are even and odd bit for bit, so it first folds band ``-n``
    into band ``n``, ``a_n + a_-n`` and ``b_n - b_-n``, a table size at a
    time. It then sums the folded terms as an mmd run forms its modes: in
    the solver's visit order (:func:`band_slots`), by :func:`band_term`,
    on the carriers of a :class:`BandCarriers` store, so that it
    reproduces an mmd mode exactly from its unnormalized estimate, whose
    ``-n`` tables are zero. It visits only the bands the estimate holds
    tables for, whatever its bandwidth. Interpolation data is formed once
    per table size. The grid, the prior's sample times in order, is refused
    if decreasing, else as :func:`make_signal` refuses times.
    """
    t = np.asarray(grid, dtype=float)
    if t.shape != prior.phase.shape:
        raise GridMismatch("grid length does not match the prior")
    if np.any(t[1:] < t[:-1]):
        raise OutOfDomain("grid times must be increasing")
    folded = {}
    for kind, shapes, coeffs in (("cos", est.cos_shapes, est.cos_coeffs),
                                 ("sin", est.sin_shapes, est.sin_coeffs)):
        for n, table in shapes.items():
            if est.normalized:
                table = scale_shape(table, coeffs.get(n, 0.0))
            key = (abs(n), kind, table.size)
            folded[key] = folded.get(key, 0.0) + (
                -table.bins if n < 0 and kind == "sin" else table.bins)
    x = unit_position(prior.phase)
    at, carriers = {}, BandCarriers([prior])
    total = np.zeros_like(x)
    # band_slots' order, cos before sin, then the table size
    for (n, kind, nb), table in sorted(folded.items()):
        if nb not in at:
            at[nb] = interpolation(x, nb)
        total += band_term(table, *at[nb], g=carriers(n, kind)[0])
    return make_signal(t, total)
