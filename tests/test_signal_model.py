import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import modedecomp as md
from modedecomp.errors import (
    DecompositionError,
    DuplicateTime,
    GridMismatch,
    LengthMismatch,
    NonFinite,
    NonMonotonePhase,
    OutOfDomain,
)
from modedecomp.signal_model import (GRADIENT_BLOCK, SEED_SPACING,
                                     BandCarriers, band_slots, carrier,
                                     interpolation, unit_position)

from bitwise import same_bits
from oracles import mimf_oracle


class TestMakeSignal:
    def test_identity_case(self):
        sig = md.make_signal([0, 0.5, 1], [1, 2, 3])
        assert len(sig) == 3
        assert np.array_equal(sig.values, [1, 2, 3])

    def test_sorting_contract(self):
        sig = md.make_signal([0.5, 0], [1, 2])
        assert np.array_equal(sig.times, [0, 0.5])
        assert np.array_equal(sig.values, [2, 1])

    def test_duplicate_time(self):
        with pytest.raises(DuplicateTime):
            md.make_signal([0, 0], [1, 2])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            md.make_signal([0, 1], [1, 2, 3])
        with pytest.raises(LengthMismatch):
            md.make_signal([0.5], [1])

    def test_non_finite(self):
        with pytest.raises(NonFinite):
            md.make_signal([0, np.nan], [1, 2])
        with pytest.raises(NonFinite):
            md.make_signal([0, 1], [1, np.inf])

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            md.make_signal([0, 1.5], [1, 2])

    def test_immutability(self):
        sig = md.make_signal([0, 0.5], [1, 2])
        with pytest.raises(ValueError):
            sig.values[0] = 9.0


class TestConstructorsLeaveCallerArrays:
    """Raw constructors store read-only views; the caller's arrays stay
    writeable."""

    def test_sampled_signal(self):
        t, v = np.linspace(0.0, 1.0, 8), np.ones(8)
        sig = md.SampledSignal(t, v)
        assert t.flags.writeable and v.flags.writeable
        assert not sig.times.flags.writeable
        assert not sig.values.flags.writeable

    def test_phase_prior(self):
        p, q = np.arange(8.0), np.ones(8)
        prior = md.PhasePrior(p, q)
        assert p.flags.writeable and q.flags.writeable
        assert not prior.phase.flags.writeable
        assert not prior.amplitude.flags.writeable

    def test_shape_table(self):
        b = np.zeros(4)
        table = md.ShapeTable(b, 0.0)
        assert b.flags.writeable
        with pytest.raises(ValueError):
            table.bins[0] = 1.0


class TestRoundFundamental:
    def test_warped_phase_150(self):
        # cycle rate 150 with a +/-0.006 sinusoidal warp still rounds to 150
        t = np.arange(8192) / 8192
        p = 150.0 * (t + 0.006 * np.sin(2 * np.pi * t))
        prior = md.make_prior(p)
        assert md.round_fundamental(prior, t) == 150

    def test_warped_phase_220(self):
        t = np.arange(8192) / 8192
        p = 220.0 * (t + 0.006 * np.cos(2 * np.pi * t))
        prior = md.make_prior(p)
        assert md.round_fundamental(prior, t) == 220

    def test_linear_phase(self):
        t = np.arange(64) / 64
        assert md.round_fundamental(md.make_prior(t), t) == 1

    def test_non_monotone_rejected_at_construction(self):
        with pytest.raises(NonMonotonePhase):
            md.make_prior([0.0, 1.0, 0.5])

    def test_phase_spanning_more_than_largest_double(self):
        # the difference of neighbours overflows; their order does not
        top = np.finfo(float).max
        for phase in ([-1e308, 1e308], [-top, top], [-top, 0.0, top]):
            assert np.array_equal(md.make_prior(phase).phase, phase)
        with pytest.raises(NonMonotonePhase):
            md.make_prior([-1e308, 1e308, 1e308])
        with pytest.raises(NonMonotonePhase):
            md.make_prior([1e308, -1e308])

    def test_grid_mismatch(self):
        t = np.arange(64) / 64
        prior = md.make_prior(t)
        with pytest.raises(GridMismatch):
            md.round_fundamental(prior, t[:32])

    @staticmethod
    def on_grid(change):
        """The fundamental of ``8t + 0.01 sin 2 pi t`` on 64 samples of
        ``linspace(0, 1)``, taken on the grid ``change`` makes of them."""
        t = np.linspace(0.0, 1.0, 64)
        prior = md.make_prior(8.0 * t + 0.01 * np.sin(2.0 * np.pi * t))
        return md.round_fundamental(prior, change(t.copy()))

    def test_nan_time_refused(self):
        def nan(t):
            t[10] = np.nan
            return t
        with pytest.raises(NonFinite):
            self.on_grid(nan)

    def test_repeated_time_refused(self):
        def repeated(t):
            t[10] = t[9]
            return t
        with pytest.raises(DuplicateTime):
            self.on_grid(repeated)

    def test_underflowing_steps_refused(self):
        # steps of about 1.6e-302 underflow in np.gradient's weights: the
        # average is not a number
        with pytest.raises(NonFinite):
            self.on_grid(lambda t: t * 1e-300)

    def test_grid_outside_unit_interval_refused(self):
        with pytest.raises(OutOfDomain):
            self.on_grid(lambda t: 3.0 * t)

    @settings(max_examples=30, deadline=None)
    @given(blocks=st.integers(1, 3), offset=st.integers(-3, 3),
           kind=st.sampled_from(["uniform", "iid_uniform"]),
           seed=st.integers(0, 2 ** 16), rate=st.floats(1.0, 5000.0),
           warp=st.floats(-0.1, 0.1))
    def test_matches_mean_of_whole_derivative(self, blocks, offset, kind,
                                              seed, rate, warp):
        # the blocks' sums added in order round as np.mean of the whole
        # derivative does, away from a half-integer
        t = md.sample_grid(blocks * GRADIENT_BLOCK + offset, kind, seed)
        phase = rate * (t + warp * np.sin(2.0 * np.pi * t))
        deriv = np.gradient(phase, t)
        mean = float(np.mean(deriv))
        assume(np.all(deriv > 0.0) and mean >= 1.0)
        assume(abs(mean - math.floor(mean) - 0.5) > 1e-9 * mean)
        assert md.round_fundamental(md.make_prior(phase), t) == round(mean)


class TestRoundFundamentalBlocks:
    """:func:`round_fundamental` takes ``np.gradient`` in blocks, where a
    block of uniform spacing rounds by another formula: its integer and its
    :class:`NonMonotonePhase` decision are those of the unblocked
    derivative, across block edges."""

    @staticmethod
    def unblocked(phase, t):
        deriv = np.gradient(phase, t)
        if np.any(deriv <= 0.0):
            return None
        return int(round(float(np.mean(deriv))))

    @staticmethod
    def grid(kind, length):
        if kind in ("uniform", "iid_uniform"):
            return md.sample_grid(length, kind, 5)
        # spacing exactly 2^-18, then, for "dyadic_then_iid", jittered
        # from the second block on
        t = np.arange(length) / 2.0 ** 18
        if kind == "dyadic_then_iid":
            rng = np.random.default_rng(5)
            tail = t[GRADIENT_BLOCK:]
            tail += rng.random(tail.size) * 2.0 ** -20
        return t

    def check(self, phase, t):
        want = self.unblocked(phase, t)
        prior = md.make_prior(phase)
        if want is None:
            with pytest.raises(NonMonotonePhase):
                md.round_fundamental(prior, t)
        else:
            assert md.round_fundamental(prior, t) == want

    @pytest.mark.parametrize("kind", ["uniform", "iid_uniform", "dyadic",
                                      "dyadic_then_iid"])
    @pytest.mark.parametrize("length", [
        2, 3, GRADIENT_BLOCK - 1, GRADIENT_BLOCK, GRADIENT_BLOCK + 1,
        GRADIENT_BLOCK + 2, 2 * GRADIENT_BLOCK + 1, 3 * GRADIENT_BLOCK - 7,
        200_003])
    def test_matches_unblocked(self, kind, length):
        t = self.grid(kind, length)
        span = t[-1] - t[0]
        self.check(150.0 / span * (t + 0.006 * span * np.sin(2 * np.pi * t)),
                   t)

    @pytest.mark.parametrize("at", [GRADIENT_BLOCK - 2, GRADIENT_BLOCK - 1,
                                    GRADIENT_BLOCK, 2 * GRADIENT_BLOCK - 1])
    @pytest.mark.parametrize("kind", ["uniform", "iid_uniform", "dyadic"])
    def test_grid_step_back_at_block_edge(self, kind, at):
        # an increasing phase over a grid that steps back once, near an
        # edge, has a negative derivative there
        t = self.grid(kind, 2 * GRADIENT_BLOCK + 3)
        phase = 150.0 * t
        t[[at, at + 1]] = t[[at + 1, at]]
        assert self.unblocked(phase, t) is None
        self.check(phase, t)


class TestSortComponents:
    def _prior(self, n):
        t = np.arange(16) / 16
        return md.make_prior(n * t, fundamental=n)

    def test_two_components_reordered(self):
        ordered, perm = md.sort_components([self._prior(220), self._prior(150)])
        assert [p.fundamental for p in ordered] == [150, 220]
        assert perm == [1, 0]

    def test_single_component(self):
        ordered, perm = md.sort_components([self._prior(5)])
        assert perm == [0]

    def test_stable_tie_break(self):
        a, b = self._prior(7), self._prior(7)
        ordered, perm = md.sort_components([a, b])
        assert perm == [0, 1]
        assert ordered[0] is a

    def test_inverse_permutation_restores_input(self):
        priors = [self._prior(n) for n in (9, 3, 27, 3)]
        ordered, perm = md.sort_components(priors)
        restored = [None] * len(priors)
        for pos, src in enumerate(perm):
            restored[src] = ordered[pos]
        assert all(r is p for r, p in zip(restored, priors))

    def test_missing_fundamental(self):
        t = np.arange(16) / 16
        with pytest.raises(md.DecompositionError):
            md.sort_components([md.make_prior(3 * t)])


class TestMakePriorFundamental:
    @pytest.mark.parametrize("fundamental", [
        150.5, 150.0, float("nan"), float("inf"), True, False, 0, -3,
        np.float64(7.0), "7"])
    def test_fundamental_not_a_positive_integer(self, fundamental):
        # solvers build carriers on the stored fundamental and report its
        # int(): only for an integer is that the one the carriers ran on
        t = np.arange(16) / 16
        with pytest.raises(OutOfDomain):
            md.make_prior(3 * t, fundamental=fundamental)

    @pytest.mark.parametrize("fundamental", [1, 150, np.int64(220),
                                             np.uint8(3)])
    def test_fundamental_integers_accepted(self, fundamental):
        t = np.arange(16) / 16
        prior = md.make_prior(3 * t, fundamental=fundamental)
        assert prior.fundamental == fundamental


def non_integer_count_calls():
    """One call per count or index of the library, each given a non-integer
    or ``bool`` where an integer belongs."""
    t = np.arange(64) / 64
    prior = md.with_fundamental(md.make_prior(4.0 * t), t)
    shape = md.ecg_like_shape(64, 1)
    est = md.make_estimate(2, {0: shape, 1: shape}, {1: shape})
    sig = md.make_signal(t, np.sin(8.0 * np.pi * t))
    # the one field of a gmd result that group_sum_shapes reads
    two = SimpleNamespace(shapes=[shape, shape])
    return {
        "make_estimate bandwidth": lambda: md.make_estimate(2.9, {0: shape}, {}),
        "make_estimate bool bandwidth": lambda: md.make_estimate(True, {}, {}),
        "make_estimate band key": lambda: md.make_estimate(2, {0.5: shape}, {}),
        "ell_band_approx ell": lambda: md.ell_band_approx(est, prior, 1.5, t),
        "ell_band_approx bool ell": lambda: md.ell_band_approx(est, prior,
                                                               True, t),
        "zero_shape bins": lambda: md.zero_shape(3.7),
        "zero_shape bool bins": lambda: md.zero_shape(True),
        "sample_grid length": lambda: md.sample_grid(2.5),
        "gen_example_4_1 length": lambda: md.gen_example_4_1(300.5),
        "ecg_like_shape bins": lambda: md.ecg_like_shape(100.5, 1),
        "ecg_like_shape variant": lambda: md.ecg_like_shape(64, 2.0),
        "ecg_like_shape bool variant": lambda: md.ecg_like_shape(64, True),
        "autocorrelation max_lag": lambda: md.autocorrelation(sig, 2.5),
        "group_sum_shapes index": lambda: md.group_sum_shapes(two, [[0.0, 1]]),
        "carrier band": lambda: carrier(prior, 1.5, "cos"),
        "BandCarriers band": lambda: BandCarriers([prior])(np.float64(1),
                                                           "sin"),
        "modified_rdbr band": lambda: md.modified_rdbr(sig, [prior], 1.5,
                                                       "cos"),
    }


class TestIntegerCounts:
    """Every count and index goes through one check: a non-integer or a
    ``bool`` is :class:`OutOfDomain`, neither truncated nor a TypeError."""

    @pytest.mark.parametrize("case", sorted(non_integer_count_calls()))
    def test_non_integer_refused(self, case):
        with pytest.raises(OutOfDomain, match="must be an integer"):
            non_integer_count_calls()[case]()

    def test_numpy_integers_accepted(self):
        t = np.arange(64) / 64
        prior = md.with_fundamental(md.make_prior(4.0 * t), t)
        shape = md.ecg_like_shape(np.int64(64), np.int64(1))
        est = md.make_estimate(np.int64(1), {np.int64(0): shape}, {})
        assert est.bandwidth == 1
        assert md.zero_shape(np.int32(8)).size == 8
        assert md.sample_grid(np.int64(8)).size == 8
        assert md.ell_band_approx(est, prior, np.int64(1), t).values.size == 64
        assert np.array_equal(carrier(prior, np.int64(2), "cos"),
                              carrier(prior, 2, "cos"))


def non_real_calls(value):
    """One call per real parameter of the library, each given ``value``
    where a real number belongs."""
    t = np.arange(64) / 64
    prior = md.with_fundamental(md.make_prior(4.0 * t), t)
    shape = md.ecg_like_shape(64, 1)
    sig = md.make_signal(t, np.sin(8.0 * np.pi * t))
    counts = md.partition_counts([prior], t, 0.25)
    return {
        "make_estimate coefficient": lambda: md.make_estimate(
            1, {0: shape}, {1: shape}, sin_coeffs={1: value},
            normalized=True),
        "partition_counts step": lambda: md.partition_counts([prior], t,
                                                             value),
        "well_diff_stats m_bound": lambda: md.well_diff_stats(counts, value),
        "add_noise noise_var": lambda: md.add_noise(sig, value, 0),
        "snr noise_var": lambda: md.snr(sig, value),
        "fit_decay_rate floor": lambda: md.fit_decay_rate([1.0, 0.5, 0.25],
                                                          value),
        "scale_shape factor": lambda: md.scale_shape(shape, value),
        "gmd_decompose eps": lambda: md.gmd_decompose(sig, [prior],
                                                      eps=value),
    }


class TestRealParameters:
    """Every real parameter goes through one check: a value that is not a
    real number, or a ``bool``, is :class:`OutOfDomain`, neither converted
    nor a TypeError."""

    @pytest.mark.parametrize("value", ["1.0", None, 1j, True],
                             ids=["str", "None", "complex", "bool"])
    @pytest.mark.parametrize("case", sorted(non_real_calls(None)))
    def test_non_real_refused(self, case, value):
        with pytest.raises(OutOfDomain, match="must be a real number"):
            non_real_calls(value)[case]()

    @pytest.mark.parametrize("case", sorted(non_real_calls(None)))
    def test_beyond_float_range_refused(self, case):
        """An ``int`` too large for a float is refused as well, neither an
        ``OverflowError`` nor a ``TypeError`` from numpy."""
        with pytest.raises(OutOfDomain):
            non_real_calls(10 ** 400)[case]()

    def test_numpy_reals_accepted(self):
        shape = md.ecg_like_shape(64, 1)
        assert np.array_equal(md.scale_shape(shape, np.float32(2.0)).bins,
                              2.0 * shape.bins)
        est = md.make_estimate(1, {0: shape}, {1: shape},
                               sin_coeffs={1: np.int64(2)}, normalized=True)
        assert est.sin_coeffs[1] == 2


class TestEvalShape:
    def test_cosine_table_matches_cosine(self):
        t = md.sample_grid(2048)
        centers = (np.arange(1024) + 0.5) / 1024
        cos_table = md.make_shape(np.cos(2 * np.pi * centers))
        out = md.eval_shape(cos_table, 10 * t)
        assert np.max(np.abs(out - np.cos(20 * np.pi * t))) <= 1e-4

    def test_zero_table(self):
        z = md.zero_shape(16)
        assert md.eval_shape(z, 0.37) == 0.0

    def test_periodicity(self):
        table = md.make_shape(np.sin(2 * np.pi * (np.arange(32) + 0.5) / 32))
        for v in (0.1, 0.73, 0.999):
            assert md.eval_shape(table, v) == pytest.approx(
                md.eval_shape(table, v + 1.0), abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(v=st.floats(-50, 50, allow_nan=False),
           m=st.integers(-3, 3))
    def test_periodicity_property(self, v, m):
        table = md.make_shape([0.3, -1.2, 0.4, 0.5])
        assert md.eval_shape(table, v) == pytest.approx(
            md.eval_shape(table, v + m), abs=1e-9)

    def test_cosine_table_quarter(self):
        # independent oracle: direct cosine evaluation
        bins = 256
        centers = (np.arange(bins) + 0.5) / bins
        table = md.make_shape(np.cos(2 * np.pi * centers))
        assert abs(md.eval_shape(table, 0.25) - np.cos(2 * np.pi * 0.25)) < 1e-3

    def test_exact_at_bin_centers(self):
        table = md.make_shape([1.0, -2.0, 3.0, 4.0])
        for j, val in enumerate(table.bins):
            assert md.eval_shape(table, (j + 0.5) / 4) == val

    def test_negative_position_wrap(self):
        table = md.make_shape([1.0, 2.0, 3.0, 4.0])
        assert md.eval_shape(table, -0.25 + 1e-18) == pytest.approx(
            md.eval_shape(table, 0.75), abs=1e-12)

    @pytest.mark.parametrize("v", [np.nan, np.inf, -np.inf,
                                   np.array([0.25, np.nan, 0.5])])
    def test_non_finite_position(self, v):
        # rejected before folding, whose floor would warn and whose bin
        # index would fall outside the table
        with pytest.raises(NonFinite, match="positions must be finite"):
            md.eval_shape(md.make_shape([1.0, 2.0, 3.0]), v)

    def test_huge_position(self):
        # 1e300 is an integer: it folds to 0, between the last and first
        # bin centres
        table = md.make_shape([1.0, 2.0, 3.0])
        assert md.eval_shape(table, 1e300) == md.eval_shape(table, 0.0) == 2.0
        assert np.array_equal(md.eval_shape(table, [1e300, -1e300]),
                              [2.0, 2.0])


def mod_position(v):
    """:func:`unit_position` as numpy's floating modulo gives it."""
    x = np.mod(np.asarray(v, dtype=float), 1.0)
    return np.where(x >= 1.0, x - 1.0, x)


def mod_interpolation(x, nb):
    """:func:`interpolation` with the bin wrapped by integer modulo."""
    u = x * nb - 0.5
    j = np.floor(u)
    return np.mod(j.astype(np.int64), nb), u - j


FINITE = st.floats(allow_nan=False, allow_infinity=False)
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-300,
         -1e-20, 1e-20, -1.0, 1.0, -0.5, 0.5, np.nextafter(1.0, 0.0),
         -np.nextafter(1.0, 0.0), 2.0 ** 52 + 0.5, -(2.0 ** 52) - 0.5,
         2.0 ** 53, -(2.0 ** 53), 1e17, -1e17, 1.7976931348623157e308,
         -1.7976931348623157e308]


class TestFoldingBits:
    """:func:`unit_position` and :func:`interpolation` fold and wrap
    without ``np.mod``, and give its bits: the sign of zero included, for
    arrays and scalars alike."""

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(FINITE, max_size=50),
           bits=st.lists(st.integers(0, 2 ** 64 - 1), max_size=50))
    def test_unit_position(self, values, bits):
        raw = np.array(bits, dtype=np.uint64).view(float)
        v = np.concatenate([values, EDGES, raw[np.isfinite(raw)]])
        assert same_bits(unit_position(v), mod_position(v))

    @settings(max_examples=300, deadline=None)
    @given(v=FINITE)
    def test_unit_position_scalar(self, v):
        assert same_bits(unit_position(v), mod_position(v))

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(FINITE, max_size=50),
           nb=st.integers(2, 4096))
    def test_interpolation(self, values, nb):
        x = unit_position(np.concatenate([values, EDGES]))
        got, want = interpolation(x, nb), mod_interpolation(x, nb)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        assert np.all((0 <= got[0]) & (got[0] < nb))

    @settings(max_examples=300, deadline=None)
    @given(v=FINITE, nb=st.integers(2, 4096))
    def test_interpolation_scalar(self, v, nb):
        x = unit_position(v)
        got, want = interpolation(x, nb), mod_interpolation(x, nb)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        table = md.make_shape(np.arange(nb, dtype=float))
        assert isinstance(md.eval_shape(table, v), float)


class TestCenteredTables:
    def test_center_mean_bound(self):
        rng = np.random.default_rng(1)
        bins = rng.normal(3.0, 2.0, 101)
        centered = md.center_shape(md.make_shape(bins))
        assert abs(centered.mean) <= 1e-12 * max(1.0, np.abs(centered.bins).max())

    def test_l2norm_consistency(self):
        table = md.make_shape([1.0, -1.0, 2.0])
        expect = np.sqrt(np.mean(np.square(table.bins)))
        assert table.l2norm == pytest.approx(expect, rel=1e-12)


MIMF_COEFF = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))
MIMF_TABLE = st.lists(st.one_of(st.just(-0.0), st.floats(-2.0, 2.0)),
                      min_size=2, max_size=12).map(md.make_shape)


@st.composite
def mimf_specs(draw):
    """``(phase, N, bands)`` for :func:`mimf_oracle`: bands of any index on
    a few tables, some shared between terms."""
    tables = draw(st.lists(MIMF_TABLE, min_size=1, max_size=3))
    table = st.one_of(st.none(), st.sampled_from(tables))
    bands = {n: (draw(MIMF_COEFF), draw(MIMF_COEFF), draw(table), draw(table))
             for n in draw(st.lists(st.integers(-3, 3), min_size=1,
                                    max_size=4, unique=True))}
    wiggle = draw(st.floats(0.0, 0.1))
    return (lambda t: t + wiggle * np.sin(2.0 * np.pi * t),
            draw(st.integers(1, 300)), bands)


class TestReconstruct:
    def _setup(self):
        t = np.arange(2048) / 2048
        prior = md.with_fundamental(md.make_prior(40.0 * t), t)
        return t, prior

    def test_all_zero_shapes(self):
        t, prior = self._setup()
        est = md.make_estimate(1, {0: md.zero_shape(64), 1: md.zero_shape(64)},
                               {1: md.zero_shape(64)})
        out = md.reconstruct_mimf(est, prior, t)
        assert np.all(out.values == 0.0)

    def test_single_band_zero_is_plain_warp(self):
        # with only band 0 present the output is the shape warped by the phase
        t, prior = self._setup()
        table = md.ecg_like_shape(256, 1)
        est = md.make_estimate(0, {0: table}, {})
        out = md.reconstruct_mimf(est, prior, t)
        expect = md.eval_shape(table, prior.phase)
        assert np.allclose(out.values, expect, atol=0, rtol=0)

    def test_visits_only_bands_present(self):
        # the band sum visits the tables the estimate holds, not every
        # band slot up to its bandwidth
        t, prior = self._setup()
        table = md.ecg_like_shape(256, 1)
        want = md.reconstruct_mimf(md.make_estimate(0, {0: table}, {}),
                                   prior, t)
        wide = md.make_estimate(10 ** 12, {0: table}, {})
        # a seed band's carriers are evaluated there, not turned up from
        # band 1 a band at a time
        far = md.make_estimate(10 ** 12, {10 ** 9: table}, {})
        start = time.perf_counter()
        got = md.reconstruct_mimf(wide, prior, t)
        approx = md.ell_band_approx(wide, prior, 10 ** 12, t)
        got_far = md.reconstruct_mimf(far, prior, t)
        assert time.perf_counter() - start < 0.5
        assert same_bits(got.values, want.values)
        assert same_bits(approx.values, want.values)
        angle = 2.0 * np.pi * 10 ** 9 * prior.phase / prior.fundamental
        assert np.array_equal(got_far.values,
                              np.cos(angle) * md.eval_shape(table, prior.phase))

    def test_matches_generator(self):
        # per-term formula as oracle: trig-carrier evaluation vs band-sum
        # reconstruction
        t = np.arange(4096) / 4096
        shape = md.ecg_like_shape(512, 2)
        phase = lambda tt: tt + 0.003 * np.sin(2 * np.pi * tt)  # noqa: E731
        generated = mimf_oracle(phase, 37, {0: (1.0, 0.0, shape, None),
                                            1: (0.25, 0.1, shape, shape)}, t)
        prior = md.with_fundamental(md.make_prior(37.0 * phase(t)), t)
        est = md.make_estimate(
            1,
            {0: shape, 1: md.scale_shape(shape, 0.25)},
            {1: md.scale_shape(shape, 0.1)},
        )
        rebuilt = md.reconstruct_mimf(est, prior, t)
        rel = md.signal_norm(rebuilt.values - generated.values) / generated.l2norm
        assert rel <= 1e-10

    def test_linearity_in_tables(self):
        t, prior = self._setup()
        rng = np.random.default_rng(5)
        a = md.make_shape(rng.normal(size=64))
        b = md.make_shape(rng.normal(size=64))
        alpha, beta = 0.7, -2.1

        def build(table):
            return md.make_estimate(1, {0: table}, {1: table})

        combo = md.make_shape(alpha * a.bins + beta * b.bins)
        lhs = md.reconstruct_mimf(build(combo), prior, t).values
        rhs = (alpha * md.reconstruct_mimf(build(a), prior, t).values
               + beta * md.reconstruct_mimf(build(b), prior, t).values)
        denom = max(1.0, md.signal_norm(lhs))
        assert md.signal_norm(lhs - rhs) / denom <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(spec=mimf_specs(), length=st.integers(2, 4096),
           grid=st.sampled_from(["uniform", "iid_uniform"]),
           seed=st.integers(0, 2 ** 32))
    def test_matches_per_term_formula(self, spec, length, grid, seed):
        # the carriers' angles round differently, 2 pi n p / N against
        # 2 pi n phi, so the sums agree to rounding, not bit for bit
        phase, n_fund, bands = spec
        t = md.sample_grid(length, grid, seed)
        want = mimf_oracle(phase, n_fund, bands, t)
        prior = md.make_prior(n_fund * phase(t), fundamental=n_fund)
        tables, coeffs = {"cos": {}, "sin": {}}, {"cos": {}, "sin": {}}
        bound = 0.0
        for n, (c, s, cos_table, sin_table) in bands.items():
            for kind, coeff, table in (("cos", c, cos_table),
                                       ("sin", s, sin_table)):
                if table is not None and (kind, n) != ("sin", 0):
                    tables[kind][n], coeffs[kind][n] = table, coeff
                    # a subnormal product's error is absolute: a few of
                    # the smallest steps a term, whatever the relative bound
                    bound += (1e-12 * abs(coeff) * np.max(np.abs(table.bins))
                              + 4 * np.finfo(float).smallest_subnormal)
        products = [{n: md.scale_shape(table, coeffs[kind][n])
                     for n, table in tables[kind].items()}
                    for kind in ("cos", "sin")]
        product = md.make_estimate(3, *products)
        unit = md.make_estimate(3, tables["cos"], tables["sin"],
                                coeffs["cos"], coeffs["sin"], normalized=True)
        for est in (product, unit):
            got = md.reconstruct_mimf(est, prior, t)
            assert same_bits(got.times, want.times)
            assert np.all(np.abs(got.values - want.values) <= bound)

    @settings(max_examples=40, deadline=None)
    @given(m0=st.integers(1, 4), bins=st.integers(2, 40),
           normalized=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_folds_opposite_bands(self, m0, bins, normalized, seed):
        # independent tables on some of the bands -m0 ... m0 give what
        # their folded estimate gives, a_n + a_-n on the cosine and
        # b_n - b_-n on the sine
        rng = np.random.default_rng(seed)
        t = md.sample_grid(1024)
        prior = md.with_fundamental(
            md.make_prior(13.0 * t + 0.02 * np.sin(2.0 * np.pi * t)), t)
        keys = [(n, kind) for n in range(-m0, m0 + 1)
                for kind in ("cos", "sin") if n or kind == "cos"]
        present = [key for key in keys if rng.random() < 0.75] or keys[:1]
        tables, coeffs = {"cos": {}, "sin": {}}, {"cos": {}, "sin": {}}
        folded = {"cos": {}, "sin": {}}
        for n, kind in present:
            tables[kind][n] = md.make_shape(rng.normal(size=bins))
            coeffs[kind][n] = float(rng.normal()) if normalized else 1.0
            product = coeffs[kind][n] * tables[kind][n].bins
            if n < 0 and kind == "sin":
                product = -product
            folded[kind][abs(n)] = folded[kind].get(abs(n), 0.0) + product
        est = md.make_estimate(
            m0, tables["cos"], tables["sin"],
            *((coeffs["cos"], coeffs["sin"]) if normalized else ()),
            normalized=normalized)
        want = md.reconstruct_mimf(md.make_estimate(m0, *(
            {n: md.make_shape(b) for n, b in folded[kind].items()}
            for kind in ("cos", "sin"))), prior, t)
        got = md.reconstruct_mimf(est, prior, t)
        assert (md.signal_norm(got.values - want.values)
                <= 1e-13 * md.signal_norm(want.values))

    @pytest.mark.parametrize("grid, error", [
        (lambda t: np.full_like(t, np.nan), NonFinite),
        (lambda t: t[::-1], OutOfDomain),
        (lambda t: 3 * t, OutOfDomain),
        (lambda t: np.full_like(t, 0.5), DuplicateTime),
    ], ids=["nan", "reversed", "times_3", "constant"])
    def test_refuses_grid_a_signal_cannot_have(self, grid, error):
        # the grid holds the prior's sample times, in its order
        t = np.arange(64) / 64
        prior = md.with_fundamental(md.make_prior(8.0 * t), t)
        est = md.make_estimate(1, {0: md.ecg_like_shape(64, 1)},
                               {1: md.ecg_like_shape(64, 2)})
        with pytest.raises(error):
            md.reconstruct_mimf(est, prior, grid(t))
        with pytest.raises(error):
            md.ell_band_approx(est, prior, 1, grid(t))

    def test_grid_mismatch(self):
        t, prior = self._setup()
        est = md.make_estimate(0, {0: md.zero_shape(8)}, {})
        with pytest.raises(GridMismatch):
            md.reconstruct_mimf(est, prior, t[:100])

    def test_sin_band_zero_rejected(self):
        with pytest.raises(md.SinZeroBand):
            md.make_estimate(1, {}, {0: md.zero_shape(8)})


class TestEstimateCoefficients:
    """A coefficient map is checked as a table map is, and each of its
    bands needs a table of its kind and a finite value."""

    TABLE = md.ecg_like_shape(64, 1)

    def estimate(self, **coeffs):
        return md.make_estimate(1, {0: self.TABLE, 1: self.TABLE},
                                {1: self.TABLE}, **coeffs, normalized=True)

    def test_matching_maps_kept(self):
        est = self.estimate(cos_coeffs={0: 2.0, 1: 0.5}, sin_coeffs={1: 0.0})
        assert est.cos_coeffs == {0: 2.0, 1: 0.5}
        assert est.sin_coeffs == {1: 0.0}

    def test_band_not_an_integer(self):
        with pytest.raises(OutOfDomain):
            self.estimate(cos_coeffs={0.5: 1.0})

    @pytest.mark.parametrize("kind", ["cos", "sin"])
    @pytest.mark.parametrize("band", [2, -2, 5])
    def test_band_out_of_range(self, kind, band):
        with pytest.raises(md.BandOutOfRange):
            self.estimate(**{f"{kind}_coeffs": {band: 2.0}})

    def test_sin_band_zero(self):
        with pytest.raises(md.SinZeroBand):
            self.estimate(sin_coeffs={0: 1.0})

    @pytest.mark.parametrize("kind", ["cos", "sin"])
    def test_band_without_table(self, kind):
        # band -1 is in range, but neither map has a table for it
        with pytest.raises(OutOfDomain):
            self.estimate(**{f"{kind}_coeffs": {-1: 1.0}})

    @pytest.mark.parametrize("kind", ["cos", "sin"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite(self, kind, value):
        with pytest.raises(NonFinite):
            self.estimate(**{f"{kind}_coeffs": {1: value}})

    @pytest.mark.parametrize("coeffs", [
        {"cos_coeffs": {0: 5.0}}, {"sin_coeffs": {1: 0.5}},
        {"cos_coeffs": {}}, {"cos_coeffs": {0: 1.0}, "sin_coeffs": {1: 1.0}}])
    def test_product_tables_take_no_coefficients(self, coeffs):
        # a product table's coefficient is its norm: a map given with it
        # would be kept and never read
        with pytest.raises(OutOfDomain, match="normalized"):
            md.make_estimate(1, {0: self.TABLE, 1: self.TABLE},
                             {1: self.TABLE}, **coeffs)

    def test_omitted_map_is_one_per_table(self):
        # a normalized estimate without a coefficient map uses its tables
        # as they are: a norm-2 table reconstructs to norm 2, not 4
        t = np.arange(256) / 256
        prior = md.with_fundamental(md.make_prior(8.0 * t), t)
        table = md.scale_shape(self.TABLE, 2.0 / self.TABLE.l2norm)
        est = md.make_estimate(0, {0: table}, {}, normalized=True)
        assert est.cos_coeffs == {0: 1.0} and est.sin_coeffs == {}
        got = md.reconstruct_mimf(est, prior, t)
        want = md.reconstruct_mimf(md.make_estimate(0, {0: table}, {}),
                                   prior, t)
        assert same_bits(got.values, want.values)
        assert got.l2norm == pytest.approx(2.0, rel=1e-2)
        assert self.estimate(sin_coeffs={1: 0.5}).cos_coeffs == {0: 1.0,
                                                                 1: 1.0}


class TestBandTerm:
    """One definition of a band term, shared by the solver and the band
    sum: its carrier, its check, its visit order and its sign."""

    def _prior(self, fundamental=True):
        t = np.arange(512) / 512
        prior = md.make_prior(9.0 * t + 0.01 * np.sin(2 * np.pi * t))
        return t, md.with_fundamental(prior, t) if fundamental else prior

    def test_visit_order(self):
        assert band_slots(0) == [(0, "cos")]
        # band -n's terms fold into band n's: bands 0 ... m0 only
        assert band_slots(2) == [(0, "cos"), (1, "cos"), (1, "sin"),
                                 (2, "cos"), (2, "sin")]

    def test_carriers(self):
        _, prior = self._prior()
        assert BandCarriers([prior])(0, "cos") == [None]
        shared = BandCarriers([prior])
        for n in (1, 3):
            for kind in ("cos", "sin"):
                g = carrier(prior, n, kind)
                # a fresh store and one shared across calls
                for carriers in (BandCarriers([prior]), shared):
                    assert np.array_equal(carriers(n, kind)[0], g)
                    assert np.array_equal(carriers(-n, kind)[0], g)
                # band -n's carrier is band n's, negated for a sine
                assert np.array_equal(carrier(prior, -n, kind),
                                      (-g if kind == "sin" else g))

    @pytest.mark.parametrize("n", [0, 2])
    def test_one_check(self, n):
        # band 0's unit carrier is refused as the others are
        _, prior = self._prior()
        # a carrier is given only for a band term that has one
        carriers = BandCarriers([prior])
        carriers(n, "cos")
        with pytest.raises(DecompositionError, match="unknown carrier kind"):
            carriers(n, "tan")
        with pytest.raises(DecompositionError, match="fundamental"):
            BandCarriers([self._prior(False)[1]])(n, "cos")
        with pytest.raises(md.SinZeroBand):
            carriers(0, "sin")

    @pytest.mark.parametrize("grid", ["uniform", "iid_uniform"])
    def test_near_direct(self, grid):
        # turned carriers stay within 5e-14 of np.cos and np.sin up to band
        # 20, and are np.cos and np.sin, bit for bit, at band 1 and the
        # seeds
        ex = md.gen_example_4_1(2 ** 12, 0.0, 3, grid)
        for prior in ex.priors:
            for n in range(21):
                angle = 2.0 * np.pi * n * prior.phase / prior.fundamental
                for kind, direct in (("cos", np.cos), ("sin", np.sin)):
                    if n or kind == "cos":
                        g, want = carrier(prior, n, kind), direct(angle)
                        if n in (0, 1, SEED_SPACING):
                            assert same_bits(g, want), (n, kind)
                        assert np.max(np.abs(g - want)) <= 5e-14, (n, kind)

    @pytest.mark.parametrize("order", [
        [3, 2, 1], [2, 2, 5, 5, 4], [1, -1, 2, -2, -3, 3],
        [20, 17, 16, 15, 18], [15, 16, 17, 33, 31]])
    def test_same_bytes_in_any_order(self, order):
        # descending, repeated and opposite bands, in a fresh or a shared
        # store, give band |n|'s carrier
        ex = md.gen_example_4_1(2 ** 10, 0.0, 3, "iid_uniform")
        shared = BandCarriers(ex.priors)
        for n in order:
            for kind in ("cos", "sin"):
                want = [carrier(prior, abs(n), kind) for prior in ex.priors]
                for carriers in (shared, BandCarriers(ex.priors)):
                    for g, w in zip(carriers(n, kind), want, strict=True):
                        assert same_bits(g, w), (n, kind)

    def test_reconstruct_needs_fundamental(self):
        # the band sum forms band 0's term as the solver does, through the
        # one check
        t, prior = self._prior(False)
        est = md.make_estimate(0, {0: md.ecg_like_shape(64, 1)}, {})
        with pytest.raises(DecompositionError, match="fundamental required"):
            md.reconstruct_mimf(est, prior, t)


class TestNormalizeEstimate:
    def test_unit_norm_or_zero(self):
        rng = np.random.default_rng(11)
        est = md.make_estimate(
            1,
            {0: md.make_shape(rng.normal(size=32)), 1: md.zero_shape(32)},
            {1: md.make_shape(rng.normal(size=32))},
        )
        normed = md.normalize_estimate(est)
        assert normed.cos_shapes[0].l2norm == pytest.approx(1.0, abs=1e-10)
        assert normed.sin_shapes[1].l2norm == pytest.approx(1.0, abs=1e-10)
        assert normed.cos_coeffs[1] == 0.0
        assert normed.cos_shapes[1].l2norm == 0.0
        assert all(c >= 0.0 for c in normed.cos_coeffs.values())

    def test_norm_without_finite_inverse(self):
        """Tables of norm 1e-310, below 2**-1024, where ``1 / norm``
        overflows."""
        rng = np.random.default_rng(12)
        flat = md.make_shape(1e-310 * np.array([1.0, -1.0] * 16))
        rough = md.make_shape(np.ldexp(rng.normal(size=32), -1040))
        est = md.make_estimate(1, {0: flat, 1: rough}, {1: md.zero_shape(32)})
        normed = md.normalize_estimate(est)
        assert normed.cos_coeffs[0] == 1e-310
        assert normed.cos_coeffs[1] == rough.l2norm < 2.0 ** -1024
        for n, table in ((0, flat), (1, rough)):
            unit = normed.cos_shapes[n]
            assert unit.l2norm == pytest.approx(1.0, abs=1e-15)
            scaled = np.ldexp(table.bins, 1100)
            assert np.allclose(unit.bins, scaled / md.signal_norm(scaled),
                               rtol=0, atol=1e-15)
        assert normed.sin_coeffs[1] == 0.0

    def test_reconstruction_invariant_under_normalization(self):
        t = np.arange(1024) / 1024
        prior = md.with_fundamental(md.make_prior(20.0 * t), t)
        rng = np.random.default_rng(3)
        est = md.make_estimate(1, {0: md.make_shape(rng.normal(size=32)),
                                   1: md.make_shape(rng.normal(size=32))},
                               {1: md.make_shape(rng.normal(size=32))})
        raw = md.reconstruct_mimf(est, prior, t).values
        via_norm = md.reconstruct_mimf(md.normalize_estimate(est), prior, t).values
        assert md.signal_norm(raw - via_norm) / md.signal_norm(raw) <= 1e-12

    def test_normalized_estimate_returned_as_is(self):
        est = md.normalize_estimate(md.make_estimate(
            1, {0: md.ecg_like_shape(64, 1)}, {1: md.ecg_like_shape(64, 2)}))
        assert md.normalize_estimate(est) is est
