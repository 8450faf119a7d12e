"""Decomposition of nonlinear, non-stationary oscillatory series into
multiresolution modes via recursive diffeomorphism-based regression."""

from .errors import (
    AmplitudeTooSmall,
    BandOutOfRange,
    DecompositionError,
    DuplicateTime,
    EmptyInput,
    GridMismatch,
    InvalidPartition,
    InvalidStep,
    IoError,
    LagTooLarge,
    LengthMismatch,
    NonFinite,
    NonMonotonePhase,
    NonPositiveVariance,
    OutOfDomain,
    ParseError,
    SinZeroBand,
    TraceTooShort,
)
from .signal_model import (
    MimfEstimate,
    PhasePrior,
    SampledSignal,
    ShapeTable,
    eval_shape,
    make_estimate,
    make_prior,
    make_shape,
    make_signal,
    normalize_estimate,
    reconstruct_mimf,
    round_fundamental,
    scale_shape,
    signal_norm,
    sort_components,
    with_fundamental,
    zero_shape,
)
from .fold_regress import (
    FoldedSamples,
    center_shape,
    demodulate,
    fold,
    partition_regress,
    unwarp_samples,
)
from .gmd import (
    DecompositionReport,
    GmdResult,
    StopReason,
    gmd_decompose,
    group_sum_shapes,
    rdbr_sweep,
)
from .mmd import (
    MmdConfig,
    MmdResult,
    band_residual,
    ell_band_approx,
    mmd_decompose,
    modified_rdbr,
)
from .synth import (
    Example41,
    add_noise,
    ecg_like_shape,
    gen_example_4_1,
    sample_grid,
    snr,
)
from .diagnostics import (
    PartitionCounts,
    WellDiffStats,
    autocorrelation,
    fit_decay_rate,
    partition_counts,
    well_diff_stats,
)

__version__ = "0.1.0"
