import functools
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modedecomp as md
from modedecomp import fold_regress, mmd
from modedecomp.errors import BandOutOfRange, GridMismatch, SinZeroBand
from modedecomp.signal_model import band_slots

from oracles import mimf_oracle


def table_gap(recovered_values, truth_values):
    num = md.signal_norm(recovered_values - truth_values)
    den = md.signal_norm(truth_values)
    return num / (den if den > 0 else 1.0)


FINE = (np.arange(8192) + 0.5) / 8192


class TestModifiedRdbr:
    def test_band_zero_on_pure_mode(self):
        t = md.sample_grid(2 ** 13)
        shape = md.ecg_like_shape(512, 1)
        sig = md.make_signal(t, md.eval_shape(shape, 45.0 * t))
        prior = md.with_fundamental(md.make_prior(45.0 * t), t)
        shapes, residual = md.modified_rdbr(sig, [prior], 0, "cos", 1e-6, 10,
                                            200)
        rel = table_gap(md.eval_shape(shapes[0], FINE),
                        md.eval_shape(shape, FINE))
        assert rel <= 5e-2
        assert md.signal_norm(residual.values) / sig.l2norm <= 5e-2

    def test_zero_residual(self):
        t = md.sample_grid(512)
        sig = md.make_signal(t, np.zeros(512))
        prior = md.with_fundamental(md.make_prior(9.0 * t), t)
        shapes, residual = md.modified_rdbr(sig, [prior], 1, "cos", 1e-6, 5,
                                            32)
        assert shapes[0].l2norm == 0.0
        assert not np.any(residual.values)

    def test_band_one_demodulation_identity(self):
        # f = cos(2 pi phi) * s(N phi): the doubled band-1 estimate is s and
        # the mode increment it gives reproduces f
        t = md.sample_grid(2 ** 13)
        n_fund = 50
        shape = md.ecg_like_shape(512, 2)
        f = np.cos(2 * np.pi * t) * md.eval_shape(shape, n_fund * t)
        sig = md.make_signal(t, f)
        prior = md.with_fundamental(md.make_prior(float(n_fund) * t), t)
        shapes, residual = md.modified_rdbr(sig, [prior], 1, "cos", 1e-6, 10,
                                            200)
        assert table_gap(md.eval_shape(shapes[0], FINE),
                         md.eval_shape(shape, FINE)) <= 5e-2
        mode = md.reconstruct_mimf(md.make_estimate(1, {1: shapes[0]}, {}),
                                   prior, t)
        assert md.signal_norm(mode.values - f) / sig.l2norm <= 5e-2
        assert md.signal_norm(residual.values) / sig.l2norm <= 5e-2

    def test_sin_zero_band_rejected(self):
        t = md.sample_grid(128)
        sig = md.make_signal(t, np.ones(128))
        prior = md.with_fundamental(md.make_prior(4.0 * t), t)
        with pytest.raises(SinZeroBand):
            md.modified_rdbr(sig, [prior], 0, "sin")


class TestMmdDecompose:
    def test_zero_signal(self):
        t = md.sample_grid(256)
        sig = md.make_signal(t, np.zeros(256))
        prior = md.with_fundamental(md.make_prior(8.0 * t), t)
        res = md.mmd_decompose(sig, [prior], md.MmdConfig(m0=1, j1=5, bins=16))
        est = res.estimates[0]
        assert all(c == 0.0 for c in est.cos_coeffs.values())
        assert all(c == 0.0 for c in est.sin_coeffs.values())
        assert md.signal_norm(res.residual.values) == 0.0
        assert res.report.stop_reason == md.StopReason.RESIDUAL_SMALL

    def test_bookkeeping_identity(self):
        ex = md.gen_example_4_1(2 ** 12, 0.0, 1)
        res = md.mmd_decompose(ex.signal, list(ex.priors),
                               md.MmdConfig(m0=1, j1=4, bins=100))
        total = (res.estimates[0].mode.values + res.estimates[1].mode.values
                 + res.residual.values)
        assert md.signal_norm(total - ex.signal.values) / ex.signal.l2norm <= 1e-10

    def test_mode_equals_band_sum(self):
        # the mode is the band-sum reconstruction of its estimate, bit for
        # bit, on either path, for either scheme and any bandwidth: both
        # sum the same terms in the solver's visit order, m0 = 17 across
        # the carriers' seed at band 16
        ex = md.gen_example_4_1(2 ** 12, 0.0, 1)
        for bin_space, scheme, m0 in itertools.product(
                (True, False), ("gauss_seidel", "jacobi"), (0, 1, 2, 3, 17)):
            cfg = md.MmdConfig(m0=m0, j1=4, bins=100, scheme=scheme)
            res = run_mmd(ex, cfg, bin_space)
            for k in range(2):
                est = res.estimates[k]
                rebuilt = md.reconstruct_mimf(est, ex.priors[k],
                                              ex.signal.times)
                assert np.array_equal(rebuilt.values, est.mode.values), (
                    bin_space, scheme, m0, k)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_band_passes_form_no_mode_arrays(self, threads):
        # once the first outer iteration has made what the run keeps (its
        # plans' half-bin slots, carriers, operators and the pool's
        # workspaces), a bin-space pass's traced heap rises by the residual
        # it leaves and bin-sized blocks, on one thread or two: no mode
        # array, no residual read twice, no copy of its entry residual
        length = 2 ** 14
        ex = md.gen_example_4_1(length, 0.0, 3)
        cfg = md.MmdConfig(m0=1, j1=3, bins=32)
        rises = []
        run_pass = mmd.modified_rdbr

        def measured(*args, **kwargs):
            size = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = run_pass(*args, **kwargs)
            rises.append(tracemalloc.get_traced_memory()[1] - size)
            return out

        with mock.patch.object(mmd, "modified_rdbr", measured), \
                mock.patch.object(fold_regress, "POOL_FLOOR", 0), \
                mock.patch.object(fold_regress, "usable_cpus",
                                  lambda: threads):
            tracemalloc.start()
            try:
                run_mmd(ex, cfg, True)
            finally:
                tracemalloc.stop()
        passes = len(band_slots(cfg.m0))
        assert len(rises) == 3 * passes
        blocks = 64 * 8 * len(ex.priors) * cfg.bins
        assert max(rises[passes:]) <= 8 * length + blocks

    def test_band_nesting(self):
        ex = md.gen_example_4_1(2 ** 12, 0.0, 1)
        res = md.mmd_decompose(ex.signal, list(ex.priors),
                               md.MmdConfig(m0=2, j1=3, bins=100))
        t = ex.signal.times
        for k in range(2):
            est = res.estimates[k]
            low = md.ell_band_approx(est, ex.priors[k], 1, t).values
            full = md.reconstruct_mimf(est, ex.priors[k], t).values
            outer = np.zeros_like(full)
            p = ex.priors[k].phase
            n_fund = ex.priors[k].fundamental
            for n in (2, -2):
                outer += (np.cos(2 * np.pi * n * p / n_fund)
                          * md.eval_shape(est.cos_shapes[n], p))
                outer += (np.sin(2 * np.pi * n * p / n_fund)
                          * md.eval_shape(est.sin_shapes[n], p))
            rel = md.signal_norm(low + outer - full) / max(md.signal_norm(full), 1e-30)
            assert rel <= 1e-12

    def test_normalized_shapes_unit_or_zero(self):
        ex = md.gen_example_4_1(2 ** 12, 0.0, 1)
        res = md.mmd_decompose(ex.signal, list(ex.priors),
                               md.MmdConfig(m0=1, j1=4, bins=100))
        for est in res.estimates:
            normed = md.normalize_estimate(est)
            for n, table in normed.cos_shapes.items():
                if normed.cos_coeffs[n] == 0.0:
                    assert table.l2norm == 0.0
                else:
                    assert table.l2norm == pytest.approx(1.0, abs=1e-10)
            assert all(c >= 0.0 for c in normed.cos_coeffs.values())
            assert all(c >= 0.0 for c in normed.sin_coeffs.values())

    def test_m0_zero_matches_gmd_product(self):
        # cross-algorithm consistency on a unit-amplitude mode
        t = md.sample_grid(2 ** 13)
        shape = md.ecg_like_shape(512, 1)
        sig = md.make_signal(t, md.eval_shape(shape, 60.0 * t))
        prior = md.with_fundamental(md.make_prior(60.0 * t), t)
        gres = md.gmd_decompose(sig, [prior], eps=1e-6, max_iters=20, bins=200)
        mres = md.mmd_decompose(sig, [prior],
                                md.MmdConfig(m0=0, j1=20, bins=200))
        gmode = gres.modes[0].values
        mmode = mres.estimates[0].mode.values
        assert md.signal_norm(gmode - mmode) / sig.l2norm <= 5e-2

    def test_stop_reason_stalled_on_noise(self):
        rng = np.random.default_rng(0)
        t = md.sample_grid(2 ** 12)
        sig = md.make_signal(t, rng.normal(0, 1, 2 ** 12))
        prior = md.with_fundamental(md.make_prior(30.0 * t), t)
        res = md.mmd_decompose(sig, [prior], md.MmdConfig(m0=1, j1=50, bins=64))
        assert res.report.stop_reason == md.StopReason.STALLED
        assert res.report.iterations < 50

    def test_distinct_band_waveforms_identified(self):
        # the point of the banded model: each band may carry its own
        # waveform, and the decomposition must separate them
        t = md.sample_grid(2 ** 14)
        n_fund = 64
        centers = (np.arange(512) + 0.5) / 512
        s_a = md.ecg_like_shape(512, 1)
        s_b = md.ecg_like_shape(512, 2)
        third = md.center_shape(md.make_shape(
            np.cos(2 * np.pi * centers) + 0.4 * np.sin(4 * np.pi * centers)))
        s_c = md.scale_shape(third, 1.0 / third.l2norm)
        phase_fn = lambda tt: tt + 0.005 * np.sin(2 * np.pi * tt)  # noqa: E731
        sig = mimf_oracle(phase_fn, n_fund, {0: (1.0, 0.0, s_a, None),
                                             1: (0.3, 0.2, s_b, s_c)}, t)
        prior = md.with_fundamental(md.make_prior(n_fund * phase_fn(t)), t)
        res = md.mmd_decompose(sig, [prior],
                               md.MmdConfig(m0=1, j1=100, j2=10, bins=200))
        est = res.estimates[0]
        assert table_gap(md.eval_shape(est.cos_shapes[0], FINE),
                         md.eval_shape(s_a, FINE)) <= 1e-2
        rec_c = (md.eval_shape(est.cos_shapes[1], FINE)
                 + md.eval_shape(est.cos_shapes[-1], FINE))
        assert table_gap(rec_c, 0.3 * md.eval_shape(s_b, FINE)) <= 1e-2
        rec_s = (md.eval_shape(est.sin_shapes[1], FINE)
                 - md.eval_shape(est.sin_shapes[-1], FINE))
        assert table_gap(rec_s, 0.2 * md.eval_shape(s_c, FINE)) <= 1e-2

    def test_stop_reason_increment_small(self):
        # the largest band increment drops to eps1 while the residual,
        # still falling by more than eps1 an iteration, stays above it
        ex = md.gen_example_4_1(2 ** 11, 0.0, 0)
        cfg = md.MmdConfig(m0=2, eps1=1e-4, bins=100)
        report = md.mmd_decompose(ex.signal, list(ex.priors), cfg).report
        assert report.stop_reason == md.StopReason.INCREMENT_SMALL
        assert report.shape_increment_norms[-1] <= cfg.eps1
        assert report.residual_norms[-1] > cfg.eps1
        assert report.residual_norms[-2] - report.residual_norms[-1] > cfg.eps1
        assert report.iterations < cfg.j1

    def test_stop_reason_max_iter(self):
        ex = md.gen_example_4_1(2 ** 12, 0.0, 1)
        res = md.mmd_decompose(ex.signal, list(ex.priors),
                               md.MmdConfig(m0=1, j1=1, bins=100))
        assert res.report.stop_reason == md.StopReason.MAX_ITER
        assert res.report.iterations == 1

    def test_config_validation(self):
        with pytest.raises(md.OutOfDomain):
            md.MmdConfig(m0=-1).validate()
        with pytest.raises(md.OutOfDomain):
            md.MmdConfig(eps1=0.0).validate()
        with pytest.raises(md.OutOfDomain):
            md.MmdConfig(j2=0).validate()
        with pytest.raises(md.DecompositionError):
            md.MmdConfig(scheme="sor").validate()


class TestBandOperators:
    def _fitted(self):
        ex = md.gen_example_4_1(2 ** 12, 0.0, 1)
        res = md.mmd_decompose(ex.signal, list(ex.priors),
                               md.MmdConfig(m0=2, j1=4, bins=100))
        return ex, res

    def test_full_band_equals_reconstruction(self):
        ex, res = self._fitted()
        t = ex.signal.times
        est = res.estimates[0]
        full = md.ell_band_approx(est, ex.priors[0], 2, t)
        rebuilt = md.reconstruct_mimf(est, ex.priors[0], t)
        assert np.array_equal(full.values, rebuilt.values)

    def test_band_zero_only_estimate(self):
        t = md.sample_grid(1024)
        prior = md.with_fundamental(md.make_prior(12.0 * t), t)
        table = md.ecg_like_shape(128, 1)
        est = md.make_estimate(2, {0: table}, {})
        assert np.array_equal(
            md.ell_band_approx(est, prior, 0, t).values,
            md.reconstruct_mimf(est, prior, t).values)

    def test_out_of_range(self):
        ex, res = self._fitted()
        with pytest.raises(BandOutOfRange):
            md.ell_band_approx(res.estimates[0], ex.priors[0], 3,
                               ex.signal.times)

    def test_residual_of_full_fit_small(self):
        ex, res = self._fitted()
        t = ex.signal.times
        # attribute the signal to component 0 by removing the other fit
        attributed = md.SampledSignal(
            ex.signal.times, ex.signal.values - res.estimates[1].mode.values)
        r2 = md.band_residual(attributed, res.estimates[0], ex.priors[0], 2, t)
        assert md.signal_norm(r2.values) / ex.components[0].l2norm <= 5e-2

    def test_zero_estimate_returns_signal(self):
        t = md.sample_grid(256)
        sig = md.make_signal(t, np.sin(2 * np.pi * 5 * t))
        prior = md.with_fundamental(md.make_prior(5.0 * t), t)
        est = md.make_estimate(1, {0: md.zero_shape(16), 1: md.zero_shape(16)},
                               {1: md.zero_shape(16)})
        out = md.band_residual(sig, est, prior, 1, t)
        assert np.array_equal(out.values, sig.values)

    @pytest.mark.parametrize("times", [np.sqrt, lambda t: t[:-1]],
                             ids=["sqrt", "short"])
    def test_signal_off_grid_refused(self, times):
        # a signal on other times than the grid, of its length or not
        ex = md.gen_example_4_1(2048, 0.0, 3)
        t = ex.signal.times
        sig = md.make_signal(times(t), ex.signal.values[:times(t).size])
        est = md.make_estimate(0, {0: md.ecg_like_shape(64, 1)}, {})
        with pytest.raises(GridMismatch):
            md.band_residual(sig, est, ex.priors[0], 0, t)

    def test_normalized_estimate_bands(self):
        # a normalized estimate's bands keep their coefficients
        ex, res = self._fitted()
        t = ex.signal.times
        normed = md.normalize_estimate(res.estimates[0])
        assert np.array_equal(
            md.ell_band_approx(normed, ex.priors[0], 2, t).values,
            md.reconstruct_mimf(normed, ex.priors[0], t).values)
        low = md.ell_band_approx(normed, ex.priors[0], 1, t).values
        want = md.ell_band_approx(res.estimates[0], ex.priors[0], 1, t).values
        assert md.signal_norm(low - want) <= 1e-12 * md.signal_norm(want)

    def test_band_zero_exposes_variance(self):
        ex, res = self._fitted()
        t = ex.signal.times
        attributed = md.SampledSignal(
            ex.signal.times, ex.signal.values - res.estimates[1].mode.values)
        r0 = md.band_residual(attributed, res.estimates[0], ex.priors[0], 0, t)
        r2 = md.band_residual(attributed, res.estimates[0], ex.priors[0], 2, t)
        assert md.signal_norm(r0.values) >= md.signal_norm(r2.values)


class TestOppositeBandsZero:
    """A run fits each identifiable sum, ``s_cn + s_c,-n`` and
    ``s_sn - s_s,-n``, in band ``n``'s tables: band ``-n``'s are zero
    tables with coefficient 0, and the band sum rebuilds each mode."""

    @pytest.mark.parametrize("bin_space", [True, False])
    @pytest.mark.parametrize("m0", [1, 2, 3, 4])
    @settings(max_examples=4, deadline=None)
    @given(scheme=st.sampled_from(["gauss_seidel", "jacobi"]),
           grid=st.sampled_from(["uniform", "iid_uniform"]),
           noise_var=st.sampled_from([0.0, 0.25]),
           seed=st.integers(0, 2 ** 16))
    def test_property(self, m0, bin_space, scheme, grid, noise_var, seed):
        ex = md.gen_example_4_1(2 ** 11, noise_var, seed, grid)
        cfg = md.MmdConfig(m0=m0, j1=4, bins=32, scheme=scheme)
        res = run_mmd(ex, cfg, bin_space)
        for est, prior in zip(res.estimates, ex.priors, strict=True):
            assert sorted(est.cos_shapes) == list(range(-m0, m0 + 1))
            assert sorted(est.sin_shapes) == [n for n in range(-m0, m0 + 1)
                                              if n]
            for e in (est, md.normalize_estimate(est)):
                for shapes, coeffs in ((e.cos_shapes, e.cos_coeffs),
                                       (e.sin_shapes, e.sin_coeffs)):
                    for n in range(1, m0 + 1):
                        assert not np.any(shapes[-n].bins)
                        assert coeffs[-n] == 0.0
            rebuilt = md.reconstruct_mimf(est, prior, ex.signal.times)
            assert np.array_equal(rebuilt.values, est.mode.values)


def plain_weight(f, f_prev):
    """:func:`mmd.anderson_weight` patched in for plain Gauss-Seidel: no
    extrapolated step is ever proposed."""
    return None


def run_mmd(ex, cfg, bin_space, plain=False):
    """mmd on a forced path, accelerated or plain."""
    weight = plain_weight if plain else mmd.anderson_weight
    with mock.patch.object(mmd, "bin_space_fits", lambda *a: bin_space), \
            mock.patch.object(mmd, "anderson_weight", weight):
        return md.mmd_decompose(ex.signal, list(ex.priors), cfg)


def quality(res, ex):
    """Largest band-product error against the truth, largest zero-band
    coefficient and final relative residual, as the acceptance suite and
    the benchmark measure them."""
    def ev(shapes, n):
        return md.eval_shape(shapes[n], FINE)
    errors, zero = [], []
    for est, tru in zip(res.estimates, ex.truth):
        errors.append(table_gap(ev(est.cos_shapes, 0), ev(tru.cos_shapes, 0)))
        if est.bandwidth >= 1:
            errors.append(table_gap(
                ev(est.cos_shapes, 1) + ev(est.cos_shapes, -1),
                ev(tru.cos_shapes, 1) + ev(tru.cos_shapes, -1)))
            errors.append(table_gap(
                ev(est.sin_shapes, 1) - ev(est.sin_shapes, -1),
                ev(tru.sin_shapes, 1) - ev(tru.sin_shapes, -1)))
        zero += [c for n, c in est.cos_coeffs.items() if n not in (0, 1)]
        zero += [c for n, c in est.sin_coeffs.items() if n != 1]
    return max(errors), max(zero, default=0.0), res.report.residual_norms[-1]


def arrays(res):
    """Every array an mmd result carries, in a fixed order."""
    out = [res.residual.values]
    for est in res.estimates:
        out.append(est.mode.values)
        for shapes, coeffs in ((est.cos_shapes, est.cos_coeffs),
                               (est.sin_shapes, est.sin_coeffs)):
            for n in sorted(shapes):
                out += [shapes[n].bins, np.array([coeffs[n]])]
    return out


@functools.lru_cache(maxsize=None)
def fixture_runs(fixture, cfg, bin_space):
    """The example ``gen_example_4_1(*fixture)`` and its plain and its
    accelerated run, once per test session."""
    ex = md.gen_example_4_1(*fixture)
    return (ex, run_mmd(ex, cfg, bin_space, plain=True),
            run_mmd(ex, cfg, bin_space))


# the benchmark's mmd_wide shape
WIDE = ((2 ** 14, 0.0, 3, "iid_uniform"), md.MmdConfig(m0=4, bins=200))


class TestAcceleration:
    """The safeguarded Anderson step against plain Gauss-Seidel, which
    patching :func:`mmd.anderson_weight` restores."""

    @pytest.mark.parametrize("bin_space", [True, False])
    @pytest.mark.parametrize("fixture, cfg", [
        # the acceptance fixtures
        ((2 ** 14, 0.0, 7), md.MmdConfig(m0=2, bins=200)),
        ((2 ** 14, 0.0, 7), md.MmdConfig(m0=2, bins=200, scheme="jacobi")),
        ((2 ** 15, 2.25, 7), md.MmdConfig(m0=1, bins=20)),
        ((2 ** 15, 2.25, 7), md.MmdConfig(m0=1, bins=20, scheme="jacobi")),
        WIDE,
        # a noisy input on the same grid, and m0 = 1 on a uniform grid
        ((2 ** 14, 2.25, 5, "iid_uniform"), md.MmdConfig(m0=2, bins=200)),
        ((2 ** 12, 0.0, 2), md.MmdConfig(m0=1, bins=200)),
    ])
    def test_no_worse_than_plain(self, fixture, cfg, bin_space):
        ex, plain, fast = fixture_runs(fixture, cfg, bin_space)
        assert not any(plain.report.accelerated)
        assert len(fast.report.accelerated) == fast.report.iterations
        assert fast.report.iterations <= plain.report.iterations
        for got, want in zip(quality(fast, ex), quality(plain, ex)):
            assert got <= 1.02 * want
        total = sum(est.mode.values for est in fast.estimates)
        assert table_gap(total + fast.residual.values,
                         ex.signal.values) <= 1e-10

    @pytest.mark.parametrize("bin_space", [True, False])
    def test_fewer_iterations_on_wide_input(self, bin_space):
        _, plain, fast = fixture_runs(*WIDE, bin_space)
        assert fast.report.iterations <= 12 < plain.report.iterations
        assert fast.report.stop_reason == plain.report.stop_reason

    def test_safeguard_rejects_rising_residual(self):
        # a weight far too large throws the state off: every mix raises
        # the residual, so each is rejected and the run is plain
        ex = md.gen_example_4_1(2 ** 12, 0.0, 2)
        cfg = md.MmdConfig(m0=1, bins=64, j1=12)
        plain = run_mmd(ex, cfg, True, plain=True)
        with mock.patch.object(
                mmd, "anderson_weight",
                lambda f, f_prev: None if f_prev is None else 1e3):
            wild = md.mmd_decompose(ex.signal, list(ex.priors), cfg)
        assert not any(wild.report.accelerated)
        assert wild.report == plain.report
        assert all(np.array_equal(a, b)
                   for a, b in zip(arrays(wild), arrays(plain)))

    def test_safeguard_with_nonlinear_backend(self):
        # every other weight is far too large: the mix it makes raises the
        # residual and is rejected, while a mix of the true weight in
        # between is kept; a kept state never has a larger residual than
        # the plain step
        steps, weights = [], []
        step, weight = mmd.AndersonStep.__call__, mmd.anderson_weight

        def recording_step(self, start, state, r, rel, denom):
            out = step(self, start, state, r, rel, denom)
            steps.append((rel, out[1], out[2]))
            return out

        def recording_weight(f, f_prev):
            gamma = weight(f, f_prev)
            weights.append(gamma if len(weights) % 2 == 0 else 1e3)
            return weights[-1]

        ex = md.gen_example_4_1(2 ** 12, 0.0, 2)
        with mock.patch.object(mmd.AndersonStep, "__call__", recording_step), \
                mock.patch.object(mmd, "anderson_weight", recording_weight):
            res = md.mmd_decompose(ex.signal, list(ex.priors),
                                   md.MmdConfig(m0=1, bins=32, j1=30))
        assert [kept for _, _, kept in steps] == list(res.report.accelerated)
        assert [rel for _, rel, _ in steps] == list(res.report.residual_norms)
        for (plain_rel, rel, kept), gamma in zip(steps, weights):
            assert rel < plain_rel if kept else rel == plain_rel
            assert gamma is not None or not kept
        # some mix was rejected after one had been kept
        rejected = [gamma is not None and not kept
                    for (_, _, kept), gamma in zip(steps, weights)]
        first_kept = res.report.accelerated.index(True)
        assert any(rejected[first_kept + 1:])

    def test_step_holds_one_sample_array(self):
        # the step mixes the band state and the residual only: it holds
        # no mode, whatever the number of components
        made = []

        class Recorded(mmd.AndersonStep):
            def __init__(self):
                super().__init__()
                made.append(self)

        def held(value):
            if isinstance(value, np.ndarray):
                return [value]
            if isinstance(value, (list, tuple)):
                return [a for v in value for a in held(v)]
            return []

        ex = md.gen_example_4_1(2 ** 12, 0.0, 2)
        with mock.patch.object(mmd, "AndersonStep", Recorded):
            res = md.mmd_decompose(ex.signal, list(ex.priors),
                                   md.MmdConfig(m0=2, bins=64))
        assert len(made) == 1
        assert any(res.report.accelerated)
        arrays = [a for value in vars(made[0]).values() for a in held(value)
                  if a.shape == (len(ex.signal),)]
        assert len(arrays) == 1

    @pytest.mark.parametrize("bin_space", [True, False])
    def test_rerun_identical(self, bin_space):
        ex = md.gen_example_4_1(2 ** 13, 0.0, 8, "iid_uniform")
        cfg = md.MmdConfig(m0=2, bins=100)
        first = run_mmd(ex, cfg, bin_space)
        again = run_mmd(ex, cfg, bin_space)
        assert any(first.report.accelerated)
        assert first.report == again.report
        assert all(np.array_equal(a, b)
                   for a, b in zip(arrays(first), arrays(again)))
