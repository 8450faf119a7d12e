import numpy as np
import pytest

import modedecomp as md
from modedecomp.errors import NonPositiveVariance, OutOfDomain


class TestGenGimf:
    def test_cosine_table_matches_cosine(self):
        t = md.sample_grid(2048)
        centers = (np.arange(1024) + 0.5) / 1024
        cos_table = md.make_shape(np.cos(2 * np.pi * centers))
        spec = md.ComponentSpec(amplitude=lambda tt: np.ones_like(tt),
                                phase=lambda tt: tt, fundamental=10,
                                shape=cos_table)
        out = md.gen_gimf(spec, t)
        assert np.max(np.abs(out.values - np.cos(20 * np.pi * t))) <= 1e-4

    def test_zero_amplitude(self):
        t = md.sample_grid(128)
        spec = md.ComponentSpec(amplitude=lambda tt: np.zeros_like(tt),
                                phase=lambda tt: tt, fundamental=5,
                                shape=md.ecg_like_shape(128, 1))
        assert np.all(md.gen_gimf(spec, t).values == 0.0)

    def test_benchmark_component_matches_direct_formula(self):
        # independent direct evaluation of the first benchmark component
        ex = md.gen_example_4_1(4096, 0.0, 0)
        t = ex.signal.times
        phi = t + 0.006 * np.sin(2 * np.pi * t)
        alpha = (1.0 + 0.2 * np.cos(2 * np.pi * phi)
                 + 0.1 * np.sin(2 * np.pi * phi))
        shape = ex.truth[0].cos_shapes[0]
        direct = alpha * md.eval_shape(shape, 150.0 * phi)
        rel = md.signal_norm(direct - ex.components[0].values) / ex.components[0].l2norm
        assert rel <= 1e-12


class TestExample41:
    def test_amplitude_formulas_at_zero(self):
        # alpha_1(0) = 1 + 0.2, phi_2(0) = 0.006
        from modedecomp.synth import _ex41_amp, _ex41_phase
        assert _ex41_amp(1)(np.array([0.0]))[0] == pytest.approx(1.2)
        assert _ex41_phase(2)(np.array([0.0]))[0] == pytest.approx(0.006)

    def test_zero_noise_is_exact_sum(self):
        ex = md.gen_example_4_1(1024, 0.0, 9)
        total = ex.components[0].values + ex.components[1].values
        assert np.array_equal(ex.signal.values, total)
        assert ex.signal is ex.clean or np.array_equal(
            ex.signal.values, ex.clean.values)

    def test_fundamentals(self):
        ex = md.gen_example_4_1(4096, 0.0, 9)
        assert ex.priors[0].fundamental == 150
        assert ex.priors[1].fundamental == 220

    def test_truth_band_structure(self):
        ex = md.gen_example_4_1(1024, 0.0, 9)
        tr = ex.truth[0]
        assert set(tr.cos_shapes) == {-2, -1, 0, 1, 2}
        assert set(tr.sin_shapes) == {-2, -1, 1, 2}
        assert tr.cos_shapes[-1].l2norm == 0.0
        assert tr.cos_shapes[2].l2norm == 0.0
        # band ratios follow the amplitude harmonics
        ratio_c = tr.cos_shapes[1].l2norm / tr.cos_shapes[0].l2norm
        ratio_s = tr.sin_shapes[1].l2norm / tr.cos_shapes[0].l2norm
        assert ratio_c == pytest.approx(0.2, rel=1e-9)
        assert ratio_s == pytest.approx(0.1, rel=1e-9)

    def test_generator_reconstructor_duality(self):
        ex = md.gen_example_4_1(2048, 0.0, 9)
        t = ex.signal.times
        for k in range(2):
            rebuilt = md.reconstruct_mimf(ex.truth[k], ex.priors[k], t)
            rel = (md.signal_norm(rebuilt.values - ex.components[k].values)
                   / ex.components[k].l2norm)
            assert rel <= 1e-12

    def test_leading_term_snr_near_minus_ten(self):
        ex = md.gen_example_4_1(2 ** 14, 2.25, 9)
        for k in range(2):
            lead = md.ell_band_approx(ex.truth[k], ex.priors[k], 0,
                                      ex.signal.times)
            value = md.snr(lead, 2.25)
            assert -12.0 <= value <= -8.0


class TestEcgShape:
    def test_construction_contract(self):
        for variant in (1, 2):
            table = md.ecg_like_shape(512, variant)
            assert abs(table.mean) <= 1e-12
            assert table.l2norm == pytest.approx(1.0, abs=1e-12)

    def test_variants_differ(self):
        a = md.ecg_like_shape(512, 1)
        b = md.ecg_like_shape(512, 2)
        assert md.signal_norm(a.bins - b.bins) > 0.1

    def test_periodic_continuity(self):
        for variant in (1, 2):
            table = md.ecg_like_shape(1024, variant)
            assert abs(table.bins[0] - table.bins[-1]) <= 0.05

    def test_min_bins(self):
        with pytest.raises(md.LengthMismatch):
            md.ecg_like_shape(32, 1)


class TestNoise:
    def test_zero_variance_identity(self):
        t = md.sample_grid(64)
        sig = md.make_signal(t, np.sin(2 * np.pi * t))
        assert md.add_noise(sig, 0.0, 4) is sig

    def test_seed_determinism(self):
        t = md.sample_grid(256)
        sig = md.make_signal(t, np.zeros(256))
        a = md.add_noise(sig, 1.0, 13)
        b = md.add_noise(sig, 1.0, 13)
        c = md.add_noise(sig, 1.0, 14)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_variance_scale(self):
        t = md.sample_grid(2 ** 15)
        sig = md.make_signal(t, np.zeros(2 ** 15))
        noisy = md.add_noise(sig, 2.25, 5)
        assert np.var(noisy.values) == pytest.approx(2.25, rel=0.05)


class TestSnr:
    def _signal_with_norm(self, norm):
        t = md.sample_grid(64)
        return md.make_signal(t, np.full(64, norm))

    def test_equal_norm_and_variance(self):
        assert md.snr(self._signal_with_norm(3.0), 3.0) == pytest.approx(0.0)

    def test_ten_decibels(self):
        assert md.snr(self._signal_with_norm(5.0), 0.5) == pytest.approx(10.0)

    def test_monotone_in_variance(self):
        sig = self._signal_with_norm(1.0)
        assert md.snr(sig, 0.5) > md.snr(sig, 1.0) > md.snr(sig, 2.0)

    def test_nonpositive_variance(self):
        with pytest.raises(NonPositiveVariance):
            md.snr(self._signal_with_norm(1.0), 0.0)

    @pytest.mark.parametrize("variance", [-0.0, -1.0, float("nan"),
                                          float("-inf")])
    def test_variance_not_above_zero(self, variance):
        # nan <= 0 is false: a test for <= 0 lets nan through to the log
        with pytest.raises(NonPositiveVariance):
            md.snr(self._signal_with_norm(1.0), variance)


class TestSampleGrid:
    def test_uniform(self):
        assert np.array_equal(md.sample_grid(4, "uniform"),
                              [0.0, 0.25, 0.5, 0.75])

    def test_iid_determinism(self):
        a = md.sample_grid(100, "iid_uniform", 5)
        b = md.sample_grid(100, "iid_uniform", 5)
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) > 0)

    def test_iid_close_to_uniform(self):
        # Kolmogorov statistic against the uniform CDF
        t = md.sample_grid(10 ** 4, "iid_uniform", 11)
        k = np.arange(1, t.size + 1)
        ks = max(np.max(np.abs(k / t.size - t)),
                 np.max(np.abs((k - 1) / t.size - t)))
        assert ks <= 0.02

    def test_unknown_mode(self):
        with pytest.raises(OutOfDomain):
            md.sample_grid(16, "chebyshev")
