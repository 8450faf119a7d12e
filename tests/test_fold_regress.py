import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modedecomp as md
from modedecomp.errors import (
    AmplitudeTooSmall,
    EmptyInput,
    GridMismatch,
    LengthMismatch,
    OutOfDomain,
    SinZeroBand,
)
from modedecomp.fold_regress import (
    FoldedSamples,
    carrier,
    plan_phase,
    sweep,
)
from modedecomp.gmd import run_pass
from modedecomp.mmd import BinSpacePlans


def brute_force_bin_means(xs, ys, bins):
    """Independent per-bin mean oracle (plain Python accumulation)."""
    sums = [0.0] * bins
    counts = [0] * bins
    for x, y in zip(xs, ys):
        j = min(int(x * bins), bins - 1)
        sums[j] += y
        counts[j] += 1
    return [(sums[j] / counts[j] if counts[j] else None) for j in range(bins)]


class TestUnwarp:
    def test_linear_phase_unit_amplitude(self):
        t = np.arange(64) / 64
        sig = md.make_signal(t, np.sin(2 * np.pi * t))
        prior = md.make_prior(8.0 * t)
        vs, ys = md.unwarp_samples(sig, prior)
        assert np.array_equal(vs, 8.0 * t)
        assert np.array_equal(ys, sig.values)

    def test_amplitude_division(self):
        t = np.arange(8) / 8
        sig = md.make_signal(t, np.arange(8.0))
        prior = md.make_prior(3.0 * t, amplitude=np.full(8, 2.0))
        _, ys = md.unwarp_samples(sig, prior)
        assert np.array_equal(ys, sig.values / 2.0)

    def test_amplitude_floor(self):
        t = np.arange(8) / 8
        sig = md.make_signal(t, np.ones(8))
        q = np.full(8, 1.0)
        q[3] = 1e-9
        prior = md.PhasePrior(3.0 * t, q, None)
        with pytest.raises(AmplitudeTooSmall):
            md.unwarp_samples(sig, prior)

    def test_warped_phase_roundtrip(self):
        # generator as oracle: a pure warped mode folds back onto its shape
        t = np.arange(4096) / 4096
        phi = t + 0.006 * np.sin(2 * np.pi * t)
        shape = md.ecg_like_shape(512, 1)
        values = md.eval_shape(shape, 150.0 * phi)
        sig = md.make_signal(t, values)
        prior = md.make_prior(150.0 * phi)
        vs, ys = md.unwarp_samples(sig, prior)
        folded = md.fold(vs, ys)
        recovered = md.eval_shape(shape, folded.xs)
        assert np.max(np.abs(recovered - ys)) <= 1e-12

    def test_grid_mismatch(self):
        t = np.arange(8) / 8
        sig = md.make_signal(t, np.ones(8))
        with pytest.raises(GridMismatch):
            md.unwarp_samples(sig, md.make_prior(np.arange(6.0)))


class TestDemodulate:
    def test_band_zero_cos_is_identity(self):
        t = np.arange(32) / 32
        sig = md.make_signal(t, np.cos(2 * np.pi * 4 * t))
        prior = md.with_fundamental(md.make_prior(4.0 * t), t)
        vs, ys = md.demodulate(sig, prior, 0, "cos")
        assert np.array_equal(ys, sig.values)

    def test_band_zero_sin_rejected(self):
        t = np.arange(32) / 32
        sig = md.make_signal(t, np.ones(32))
        prior = md.with_fundamental(md.make_prior(4.0 * t), t)
        with pytest.raises(SinZeroBand):
            md.demodulate(sig, prior, 0, "sin")

    def test_band_one_recovers_half_product(self):
        # r = cos(2*pi*p/N) * s(p): regressing the demodulated samples and
        # doubling recovers s. Brute-force bin means are the oracle.
        t = np.arange(2 ** 13) / 2 ** 13
        n_fund = 32
        p = n_fund * t
        bins = 64
        centers = (np.arange(bins) + 0.5) / bins
        table = md.make_shape(np.cos(2 * np.pi * centers) + 0.3 * np.sin(4 * np.pi * centers))
        r = np.cos(2 * np.pi * p / n_fund) * md.eval_shape(table, p)
        sig = md.make_signal(t, r)
        prior = md.with_fundamental(md.make_prior(p), t)
        vs, ys = md.demodulate(sig, prior, 1, "cos")
        folded = md.fold(vs, ys)
        est = md.partition_regress(folded, bins)
        oracle = brute_force_bin_means(folded.xs, folded.ys, bins)
        for j, val in enumerate(oracle):
            assert val is not None
            assert est.bins[j] == pytest.approx(val, abs=1e-12)
        doubled = md.scale_shape(md.center_shape(est), 2.0)
        err = md.signal_norm(doubled.bins - table.bins) / table.l2norm
        assert err <= 0.02


class TestFold:
    def test_basic_values(self):
        out = md.fold([2.3, -0.25, 5.0], [1.0, 2.0, 3.0])
        assert out.xs[0] == pytest.approx(0.3, abs=1e-12)
        assert out.xs[1] == pytest.approx(0.75, abs=1e-12)
        assert out.xs[2] == 0.0
        assert np.array_equal(out.ys, [1.0, 2.0, 3.0])

    @settings(max_examples=200, deadline=None)
    @given(v=st.floats(-100, 100, allow_nan=False), m=st.integers(-5, 5))
    def test_integer_shift_invariance(self, v, m):
        a = md.fold([v], [0.0]).xs[0]
        b = md.fold([v + m], [0.0]).xs[0]
        assert 0.0 <= a < 1.0 and 0.0 <= b < 1.0
        delta = abs(a - b)
        assert min(delta, 1.0 - delta) < 1e-9


class TestPartitionRegress:
    def test_forced_bin_average_with_fill(self):
        samples = md.fold([0.11, 0.13], [1.0, 3.0])
        table = md.partition_regress(samples, 10)
        assert table.bins[1] == pytest.approx(2.0, abs=1e-15)
        # single occupied bin: periodic interpolation yields a constant table
        assert np.allclose(table.bins, 2.0, atol=1e-12)

    def test_empty_bins_interpolate_periodically(self):
        # bins 1 and 5 of 10 hold 0 and 4; the others lie on the periodic
        # line through the two bin centres
        xs, ys = np.array([0.15, 0.55]), np.array([0.0, 4.0])
        want = [4 - 4 * 0.5 / 0.6, 0, 1, 2, 3, 4,
                4 - 4 * 0.1 / 0.6, 4 - 4 * 0.2 / 0.6, 4 - 4 * 0.3 / 0.6,
                4 - 4 * 0.4 / 0.6]
        table = md.partition_regress(FoldedSamples(xs, ys), 10)
        assert np.allclose(table.bins, want, rtol=0, atol=1e-12)

    def test_zero_responses(self):
        rng = np.random.default_rng(0)
        samples = md.fold(rng.random(100), np.zeros(100))
        table = md.partition_regress(samples, 16)
        assert np.all(table.bins == 0.0)

    def test_cos_bin_means_near_curve(self):
        # bin means of cos(2 pi x) track the curve at bin centers
        rng = np.random.default_rng(42)
        xs = rng.random(10 ** 4)
        ys = np.cos(2 * np.pi * xs)
        table = md.partition_regress(FoldedSamples(xs, ys), 100)
        centers = (np.arange(100) + 0.5) / 100
        assert np.max(np.abs(table.bins - np.cos(2 * np.pi * centers))) <= 0.05

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        xs = rng.random(2000)
        ys = rng.normal(size=2000)
        bins = 37
        table = md.partition_regress(FoldedSamples(xs, ys), bins)
        oracle = brute_force_bin_means(xs, ys, bins)
        for j, val in enumerate(oracle):
            if val is not None:
                assert abs(table.bins[j] - val) <= 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        xs = rng.random(5000)
        ys = rng.normal(size=5000)
        base = md.partition_regress(FoldedSamples(xs, ys), 50)
        perm = rng.permutation(5000)
        shuffled = md.partition_regress(FoldedSamples(xs[perm], ys[perm]), 50)
        assert np.max(np.abs(base.bins - shuffled.bins)) <= 1e-12

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            md.partition_regress(FoldedSamples(np.empty(0), np.empty(0)), 8)

    @pytest.mark.parametrize("bins", [2.9, 64.0, np.float64(8), True])
    def test_bin_count_must_be_an_integer(self, bins):
        # the regression and the phase plan take their bin count alike: a
        # float is not truncated, nor a bool read as 1
        samples = FoldedSamples(np.array([0.1, 0.6]), np.array([1.0, 2.0]))
        prior = md.make_prior([0.1, 0.6])
        with pytest.raises(OutOfDomain):
            md.partition_regress(samples, bins)
        with pytest.raises(OutOfDomain):
            plan_phase(prior, 2, bins)
        with pytest.raises(LengthMismatch):
            md.partition_regress(samples, 1)
        with pytest.raises(LengthMismatch):
            plan_phase(prior, 2, 1)
        assert md.partition_regress(samples, np.int64(2)).size == 2
        assert plan_phase(prior, 2, np.int64(2)).layout.size == 2

    def test_step_function_fixed_point(self):
        # responses sampled from a table that is piecewise constant on the
        # same bins come back exactly (one sample per bin suffices)
        rng = np.random.default_rng(3)
        bins = 25
        target = rng.normal(size=bins)
        xs = np.concatenate([rng.random(200), (np.arange(bins) + 0.5) / bins])
        idx = np.minimum((xs * bins).astype(int), bins - 1)
        ys = target[idx]
        table = md.partition_regress(FoldedSamples(xs, ys), bins)
        assert np.max(np.abs(table.bins - target)) <= 1e-12


class TestCenterShape:
    def test_constant_becomes_zero(self):
        table = md.center_shape(md.make_shape(np.full(12, 3.7)))
        assert np.allclose(table.bins, 0.0, atol=1e-15)

    def test_mean_zero_table_unchanged(self):
        centers = (np.arange(64) + 0.5) / 64
        cos_bins = np.cos(2 * np.pi * centers)
        out = md.center_shape(md.make_shape(cos_bins))
        assert np.max(np.abs(out.bins - cos_bins)) <= 1e-12

    def test_offset_removed(self):
        centers = (np.arange(64) + 0.5) / 64
        cos_bins = np.cos(2 * np.pi * centers)
        out = md.center_shape(md.make_shape(cos_bins + 0.5))
        assert np.max(np.abs(out.bins - cos_bins)) <= 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        once = md.center_shape(md.make_shape(rng.normal(2.0, 1.0, 33)))
        twice = md.center_shape(once)
        assert np.max(np.abs(once.bins - twice.bins)) <= 1e-15


def _reference_pass(residual, priors, bins, scheme, n=None, kind="cos"):
    """Sample-space reference for one sweep: unwarp (gmd, ``n is None``) or
    demodulate, then fold -> partition_regress -> center_shape ->
    eval_shape, with every step recomputed per regression."""
    cur = residual
    incs, subs = [], []
    for prior in priors:
        source = cur if scheme == "gauss_seidel" else residual
        if n is None:
            vs, ys = md.unwarp_samples(source, prior)
        else:
            vs, ys = md.demodulate(source, prior, n, kind)
        inc = md.center_shape(md.partition_regress(md.fold(vs, ys), bins))
        e = md.eval_shape(inc, prior.phase)
        if n is None:
            sub = prior.amplitude * e
        elif n == 0:
            sub = e
        else:
            sub = 2.0 * carrier(prior, n, kind) * e
        incs.append(inc)
        subs.append(sub)
        if scheme == "gauss_seidel":
            cur = md.SampledSignal(cur.times, cur.values - sub)
    if scheme == "jacobi":
        cur = md.SampledSignal(residual.times,
                               residual.values - np.sum(subs, axis=0))
    return incs, subs, cur


def _random_problem(seed, length, grid, components):
    rng = np.random.default_rng(seed)
    t = md.sample_grid(length, grid, seed)
    priors = []
    for k in range(components):
        rate = 3.0 + 5.0 * k + rng.random()
        wiggle = 0.3 * rng.random() / (2 * np.pi)
        phase = rate * (t + wiggle * np.sin(2 * np.pi * t)) - rng.random()
        amplitude = 1.0 + 0.3 * np.cos(2 * np.pi * t + rng.random())
        priors.append(md.with_fundamental(md.make_prior(phase, amplitude), t))
    return md.make_signal(t, rng.normal(size=length)), priors


SWEEP_CASES = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 16),
    "length": st.integers(16, 600),
    "grid": st.sampled_from(["uniform", "iid_uniform"]),
    "components": st.integers(1, 3),
    "bins": st.integers(2, 300),
    "scheme": st.sampled_from(["gauss_seidel", "jacobi"]),
    "band": st.sampled_from([None, (0, "cos"), (1, "cos"), (1, "sin"),
                             (-1, "sin"), (2, "cos"), (-2, "cos"),
                             (-2, "sin"), (3, "sin")]),
})


class TestSweepMatchesReference:
    """The planned sweep reproduces the sample-space kernel bit for bit."""

    def _check(self, seed, length, grid, components, bins, scheme, band):
        sig, priors = _random_problem(seed, length, grid, components)
        n, kind = band if band is not None else (None, "cos")
        plans = [plan_phase(p, length, bins) for p in priors]
        gain = 1.0 if n is None or n == 0 else 2.0
        if n is None:
            post = [p.amplitude for p in priors]
            pre = [1.0 / q for q in post]
        elif n == 0:
            pre = post = [None] * components
        else:
            pre = post = [carrier(p, n, kind) for p in priors]
        incs, r = sweep(sig.values, plans, scheme, pre, post, gain)
        want_incs, want_subs, want_r = _reference_pass(
            sig, priors, bins, scheme, n, kind)
        assert incs.shape == (components, bins)
        for got, want in zip(incs, want_incs, strict=True):
            assert np.array_equal(got, want.bins)
        assert np.array_equal(r, want_r.values)

        # a one-sweep pass subtracts its modes
        *_, modes, r = run_pass(sig.values, plans, pre, post, gain, scheme,
                                0.5, 1)
        for got, want in zip(modes, want_subs):
            assert np.array_equal(got, want)
        assert np.array_equal(r, want_r.values)

        # the public sweeps route through the same kernel
        if n is None:
            got_incs, got_r = md.rdbr_sweep(sig, priors, bins, scheme)
            stored = want_incs
        else:
            got_incs, modes, got_r = md.modified_rdbr(
                sig, priors, n, kind, max_iters=1, bins=bins, scheme=scheme)
            stored = want_incs if n == 0 else [
                md.scale_shape(inc, 2.0) for inc in want_incs]
            for mode, want in zip(modes, want_subs):
                assert np.array_equal(mode.values, want)
        for got, want in zip(got_incs, stored):
            assert np.array_equal(got.bins, want.bins)
        assert np.array_equal(got_r.values, want_r.values)

    @settings(max_examples=60, deadline=None)
    @given(case=SWEEP_CASES)
    def test_property(self, case):
        self._check(**case)

    @pytest.mark.parametrize("scheme", ["gauss_seidel", "jacobi"])
    @pytest.mark.parametrize("band", [None, (0, "cos"), (1, "cos"), (1, "sin")])
    def test_empty_bins(self, scheme, band):
        # 64 samples over 200 bins leave most bins empty and interpolated
        self._check(5, 64, "iid_uniform", 2, 200, scheme, band)

    def test_plan_for_other_bin_count_rejected(self):
        # a plan serves the one bin count it was made for
        sig, priors = _random_problem(2, 300, "uniform", 2)
        plans = [plan_phase(p, 300, 50) for p in priors]
        with pytest.raises(LengthMismatch):
            md.rdbr_sweep(sig, plans, 40)
        with pytest.raises(LengthMismatch):
            md.modified_rdbr(sig, BinSpacePlans(plans), 1, "cos", bins=40)

    def test_plan_checks_grid(self):
        _, priors = _random_problem(3, 64, "uniform", 1)
        with pytest.raises(GridMismatch):
            plan_phase(priors[0], 65, 16)
        sig, _ = _random_problem(3, 65, "uniform", 1)
        with pytest.raises(GridMismatch):
            md.rdbr_sweep(sig, [plan_phase(priors[0], 64, 16)], 16)
