"""Ground-truth generators: one component ``a(phi) s(N phi)``, the
two-component benchmark signal, noise injection, and sampling grids; a
band-structured mode is ``reconstruct_mimf`` of its ``make_estimate``.

The benchmark waveforms are ECG-flavored surrogates built from three
periodic Gaussian bumps (P, QRS and T analogs); the bump parameters are
committed constants so golden values stay reproducible. Bump widths are
deliberately generous so that desk-scale regressions resolve the waveform
at the bin counts the noisy benchmark uses.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import (LengthMismatch, NonPositiveVariance, OutOfDomain, integer,
                     real)
from .signal_model import (
    MimfEstimate,
    PhasePrior,
    SampledSignal,
    ShapeTable,
    eval_shape,
    make_estimate,
    make_prior,
    make_shape,
    scale_shape,
    signal_norm,
    with_fundamental,
    zero_shape,
)

__all__ = [
    "Example41",
    "RNG_IDENTITY",
    "gen_example_4_1",
    "ecg_like_shape",
    "add_noise",
    "snr",
    "sample_grid",
]

# Seeded generator used everywhere randomness is needed; recorded in reports.
RNG_IDENTITY = "numpy.random.default_rng(PCG64)"

# Committed surrogate waveform parameters: (center, width, height) of the
# P, QRS and T analog bumps, per variant.
_ECG_BUMPS = {
    1: ((0.19, 0.120, 0.40), (0.47, 0.105, 1.00), (0.77, 0.140, 0.55)),
    2: ((0.25, 0.140, 0.45), (0.54, 0.110, 1.00), (0.82, 0.120, 0.30)),
}

# Component amplitude scale of the two-component benchmark. Committed so the
# leading-band signal-to-noise ratio of the noisy benchmark sits near -10 dB
# under the norm-over-variance convention used by snr().
_EX41_SCALE = 0.32
_EX41_SHAPE_BINS = 1024
# Its components: fundamental, phase wiggle, amplitude (const, cos1, sin1)
# and waveform variant, as gen_component takes them.
_EX41 = ((150, ("sin", 0.006), (1.0, 0.2, 0.1), 1),
         (220, ("cos", 0.006), (1.0, 0.1, 0.2), 2))
_WIGGLES = {"sin": np.sin, "cos": np.cos}


def ecg_like_shape(bins: int, variant: int) -> ShapeTable:
    """ECG-flavored periodic waveform: three Gaussian bumps, centered and
    normalized to unit L2 norm on the unit interval.

    The bumps are evaluated with wrapped distance, so the tabulated period is
    continuous across the seam.
    """
    integer(bins, "bins", 64, LengthMismatch)
    if integer(variant, "variant") not in _ECG_BUMPS:
        raise OutOfDomain(f"variant must be 1 or 2, got {variant}")
    x = (np.arange(bins) + 0.5) / bins
    s = np.zeros(bins)
    for center, width, height in _ECG_BUMPS[variant]:
        d = np.abs(x - center)
        d = np.minimum(d, 1.0 - d)
        s += height * np.exp(-0.5 * (d / width) ** 2)
    s -= s.mean()
    s /= signal_norm(s)
    return make_shape(s)


def _check_seed(seed) -> None:
    """Raise :class:`OutOfDomain` unless ``seed`` is a non-negative integer,
    as ``default_rng`` needs; checked where nothing is drawn too, so that a
    recorded seed always reproduces the run."""
    if integer(seed, "seed") < 0:
        raise OutOfDomain(f"seed must be a non-negative integer, got {seed!r}")


def add_noise(signal: SampledSignal, noise_var: float, seed: int) -> SampledSignal:
    """Add i.i.d. zero-mean Gaussian samples of the given variance.

    Zero variance returns the signal unchanged; the draw is deterministic
    for a fixed seed, which must be a non-negative integer either way.
    """
    _check_seed(seed)
    noise_var = real(noise_var, "noise_var")
    if not 0.0 <= noise_var < np.inf:
        raise OutOfDomain("noise variance must be finite and nonnegative")
    if noise_var == 0.0:
        return signal
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, np.sqrt(noise_var), len(signal))
    return SampledSignal(signal.times, signal.values + noise)


def snr(signal: SampledSignal, noise_var: float) -> float:
    """Signal-to-noise ratio in dB: ``10 * log10(norm / variance)``.

    The numerator is the discrete L2 norm (root-mean-square), not the signal
    power, so this is not the textbook power ratio; it is kept this way to
    match the convention the benchmark values were reported under.
    """
    noise_var = real(noise_var, "noise_var")
    if not noise_var > 0.0:
        raise NonPositiveVariance("snr needs a strictly positive variance")
    return float(10.0 * np.log10(signal.l2norm / noise_var))


def sample_grid(length: int, mode: str = "uniform", seed: int = 0) -> np.ndarray:
    """Sampling grid on [0, 1): deterministic uniform or sorted i.i.d. draws.

    The i.i.d. mode redraws exact duplicates so downstream binning never
    double-counts a time instant. The seed must be a non-negative integer
    in either mode.
    """
    integer(length, "length", 2, LengthMismatch)
    _check_seed(seed)
    if mode == "uniform":
        return np.arange(length) / length
    if mode != "iid_uniform":
        raise OutOfDomain(f"unknown grid mode {mode!r}")
    rng = np.random.default_rng(seed)
    t = rng.random(length)
    t.sort()
    while True:
        dup = np.flatnonzero(np.diff(t) == 0.0)
        if dup.size == 0:
            return t
        t[dup] = rng.random(dup.size)
        t.sort()


@dataclass(frozen=True)
class Example41:
    """The two-component benchmark: signal, exact priors, and band truth."""

    signal: SampledSignal
    clean: SampledSignal
    components: tuple[SampledSignal, SampledSignal]
    priors: tuple[PhasePrior, PhasePrior]
    truth: tuple[MimfEstimate, MimfEstimate]
    noise_var: float
    seed: int


def gen_component(t: np.ndarray, fundamental: int, wiggle: tuple[str, float],
                  amplitude: tuple[float, float, float], shape: ShapeTable):
    """One component ``a(phi) s(N phi)`` on the read-only grid ``t``, as
    Example 4.1 and ``synth --spec`` describe it, with its prior's positions
    ``N phi`` and amplitude ``a``, unchecked.

    ``wiggle = (kind, amp)``: ``phi = t + amp sin/cos(2 pi t)`` for kind
    "sin"/"cos", ``phi = t`` for "none". ``amplitude = (const, cos1, sin1)``:
    ``a = const + cos1 cos(2 pi phi) + sin1 sin(2 pi phi)``. Positions whose
    doubles are coarser than one bin of the shape are :class:`OutOfDomain`;
    an amplitude or mode that overflows is left to the caller to refuse.
    """
    kind, size = wiggle
    phi = t if kind == "none" else t + size * _WIGGLES[kind](2.0 * np.pi * t)
    reach = max(float(phi.max()), -float(phi.min()))
    if not (fundamental <= sys.float_info.max
            and np.spacing(fundamental * reach) <= 1.0 / shape.size):
        raise OutOfDomain(f"too large for doubles to resolve the shape's "
                          f"{shape.size} bins")
    const, cos1, sin1 = amplitude
    with np.errstate(over="ignore", invalid="ignore"):
        amp = (const + cos1 * np.cos(2.0 * np.pi * phi)
               + sin1 * np.sin(2.0 * np.pi * phi))
        pos = fundamental * phi
        values = eval_shape(shape, pos)
        values *= amp
    return SampledSignal(t, values), pos, amp


def gen_example_4_1(length: int, noise_var: float = 0.0, seed: int = 0,
                    grid_mode: str = "uniform") -> Example41:
    """Two amplitude-modulated, phase-warped components plus optional noise.

    Component k has fundamental 150 or 220, a slightly warped phase, an
    amplitude that oscillates once per unit time in the warped coordinate,
    and one of the two surrogate waveforms. Because the amplitude has a
    single harmonic, each component is exactly a three-band structure:
    band 0 (the average waveform) plus cosine and sine band +1. The returned
    truth estimates tabulate those products, including explicit zero tables
    for the bands that are zero by construction.
    """
    t = sample_grid(length, grid_mode, seed)
    # one read-only grid for every signal: sample_grid's times are sorted,
    # unique and finite, so the raw constructor needs no checks or copies
    t.setflags(write=False)
    components = []
    priors = []
    truths = []
    for n_k, wiggle, amplitude, variant in _EX41:
        shape = scale_shape(ecg_like_shape(_EX41_SHAPE_BINS, variant),
                            _EX41_SCALE)
        # positions and amplitude are not kept past make_prior, which copies
        # them, so that the next component's heap peak is lower
        comp, *prior = gen_component(t, n_k, wiggle, amplitude, shape)
        prior = with_fundamental(make_prior(*prior), t)
        zeros = zero_shape(_EX41_SHAPE_BINS)
        truth = make_estimate(
            2,
            cos_shapes={
                0: shape,
                1: scale_shape(shape, amplitude[1]),
                -1: zeros, 2: zeros, -2: zeros,
            },
            sin_shapes={
                1: scale_shape(shape, amplitude[2]),
                -1: zeros, 2: zeros, -2: zeros,
            },
            mode=comp,
        )
        components.append(comp)
        priors.append(prior)
        truths.append(truth)

    clean = SampledSignal(t, components[0].values + components[1].values)
    noisy = add_noise(clean, noise_var, seed)
    return Example41(
        signal=noisy,
        clean=clean,
        components=(components[0], components[1]),
        priors=(priors[0], priors[1]),
        truth=(truths[0], truths[1]),
        noise_var=noise_var,
        seed=seed,
    )
