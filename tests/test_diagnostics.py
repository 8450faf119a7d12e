import numpy as np
import pytest

import modedecomp as md
from modedecomp.errors import (
    InvalidStep,
    LagTooLarge,
    OutOfDomain,
    TraceTooShort,
)


def brute_counts(phase_lists, step):
    cells = int(round(1.0 / step))
    k_total = len(phase_lists)
    cell_of = [np.clip(np.floor((p % 1.0) * cells).astype(int), 0, cells - 1)
               for p in phase_lists]
    marginals = np.zeros((k_total, cells), dtype=int)
    pairs = {}
    for i in range(k_total):
        for m in cell_of[i]:
            marginals[i, m] += 1
        for j in range(k_total):
            if i == j:
                continue
            mat = np.zeros((cells, cells), dtype=int)
            for a, b in zip(cell_of[i], cell_of[j]):
                mat[a, b] += 1
            pairs[(i, j)] = mat
    return marginals, pairs


class TestPartitionCounts:
    def test_single_component_marginals_only(self):
        t = md.sample_grid(512)
        counts = md.partition_counts([md.make_prior(20.0 * t)], t, 0.1)
        assert counts.marginals.shape == (1, 10)
        assert counts.pairs == {}
        assert counts.marginals.sum() == 512

    def test_identical_phases_concentrate_on_diagonal(self):
        t = md.sample_grid(1024)
        p = md.make_prior(30.0 * t)
        counts = md.partition_counts([p, p], t, 0.1)
        mat = counts.pairs[(0, 1)]
        off = mat.copy()
        np.fill_diagonal(off, 0)
        assert off.sum() == 0
        assert np.trace(mat) == 1024

    def test_matches_brute_force(self):
        t = md.sample_grid(1500)
        phases = [11.0 * t, 17.0 * (t + 0.004 * np.sin(2 * np.pi * t))]
        priors = [md.make_prior(p) for p in phases]
        counts = md.partition_counts(priors, t, 0.05)
        marg_b, pairs_b = brute_counts(phases, 0.05)
        assert np.array_equal(counts.marginals, marg_b)
        for key, mat in pairs_b.items():
            assert np.array_equal(counts.pairs[key], mat)

    def test_marginals_near_uniform_for_linear_phases(self):
        length = 2 ** 15
        t = md.sample_grid(length)
        priors = [md.make_prior(150.0 * t), md.make_prior(220.0 * t)]
        counts = md.partition_counts(priors, t, 0.05)
        expected = length * 0.05
        assert np.all(np.abs(counts.marginals - expected) <= 0.1 * expected)

    def test_count_sums(self):
        t = md.sample_grid(777)
        priors = [md.make_prior(9.0 * t), md.make_prior(14.0 * t)]
        counts = md.partition_counts(priors, t, 0.05)
        assert np.all(counts.marginals.sum(axis=1) == 777)
        for mat in counts.pairs.values():
            assert mat.sum() == 777

    def test_reversed_pair_is_transpose(self):
        # each unordered pair is counted once; the reversed pair holds the
        # same counts, transposed, in the order of the pair keys
        t = md.sample_grid(900)
        phases = [7.0 * t, 12.0 * t, 19.0 * (t + 0.003 * np.sin(2 * np.pi * t))]
        counts = md.partition_counts([md.make_prior(p) for p in phases], t, 0.1)
        assert list(counts.pairs) == [(i, j) for i in range(3)
                                      for j in range(3) if i != j]
        for (i, j), mat in counts.pairs.items():
            assert np.array_equal(counts.pairs[(j, i)], mat.T)
        _, pairs_b = brute_counts(phases, 0.1)
        for key, mat in pairs_b.items():
            assert np.array_equal(counts.pairs[key], mat)

    def test_invalid_step(self):
        t = md.sample_grid(64)
        prior = md.make_prior(4.0 * t)
        with pytest.raises(InvalidStep):
            md.partition_counts([prior], t, 0.3)
        with pytest.raises(InvalidStep):
            md.partition_counts([prior], t, 0.0)

    def test_no_prior(self):
        t = md.sample_grid(64)
        with pytest.raises(OutOfDomain, match="at least one prior"):
            md.partition_counts([], t, 0.1)


class TestWellDiffStats:
    def test_identical_phases_gamma_zero(self):
        t = md.sample_grid(1024)
        p = md.make_prior(30.0 * t)
        stats = md.well_diff_stats(md.partition_counts([p, p], t, 0.1), 1.0)
        assert stats.gamma == 0.0
        assert not stats.well_differentiated

    def test_coprime_linear_phases_gamma_positive(self):
        t = md.sample_grid(2 ** 15)
        priors = [md.make_prior(150.0 * t), md.make_prior(220.0 * t)]
        stats = md.well_diff_stats(md.partition_counts(priors, t, 0.05), 1.0)
        assert stats.gamma > 0.0
        # gamma is a lower bound of every pair cell by construction
        for mat in stats.counts_pair.values():
            assert mat.min() >= stats.gamma

    def test_single_component_conventions(self):
        t = md.sample_grid(1000)
        counts = md.partition_counts([md.make_prior(25.0 * t)], t, 0.1)
        stats = md.well_diff_stats(counts, 2.0)
        assert stats.beta == 0.0
        assert stats.gamma == counts.marginals.min()
        assert stats.contraction_bound == 0.0
        assert stats.well_differentiated == (stats.gamma > 0)

    def test_beta_formula_against_direct_sum(self):
        t = md.sample_grid(2048)
        priors = [md.make_prior(13.0 * t), md.make_prior(29.0 * t)]
        counts = md.partition_counts(priors, t, 0.1)
        stats = md.well_diff_stats(counts, 1.0)
        gamma = stats.gamma
        mat = counts.pairs[(0, 1)].astype(float)
        d_i = counts.marginals[0].astype(float)
        direct = np.sqrt(sum(
            (1.0 / d_i[m]) * sum((mat[m, n] - gamma) ** 2
                                 for n in range(counts.cells))
            for m in range(counts.cells) if d_i[m] > 0))
        assert stats.beta_per_pair[(0, 1)] == pytest.approx(direct, rel=1e-12)


class TestAutocorrelation:
    def test_zero_lag_is_one(self):
        t = md.sample_grid(128)
        sig = md.make_signal(t, np.sin(2 * np.pi * 3 * t))
        rho = md.autocorrelation(sig, 10)
        assert rho[0] == 1.0

    def test_white_noise_bound(self):
        length = 2 ** 14
        rng = np.random.default_rng(21)
        t = md.sample_grid(length)
        sig = md.make_signal(t, rng.normal(size=length))
        rho = md.autocorrelation(sig, 100)
        assert np.max(np.abs(rho[1:])) <= 4.0 / np.sqrt(length)

    def test_sinusoid_peak_at_period(self):
        length = 4096
        period = 64  # samples
        t = md.sample_grid(length)
        sig = md.make_signal(t, np.sin(2 * np.pi * t * (length / period)))
        rho = md.autocorrelation(sig, period + 4)
        assert rho[period] >= 0.9

    def test_shift_and_scale_invariance(self):
        length = 512
        rng = np.random.default_rng(2)
        t = md.sample_grid(length)
        base = rng.normal(size=length)
        r1 = md.autocorrelation(md.make_signal(t, base), 20)
        r2 = md.autocorrelation(md.make_signal(t, 3.5 * base + 11.0), 20)
        assert np.allclose(r1, r2, atol=1e-10)

    def test_matches_direct_sum(self):
        length = 4096
        rng = np.random.default_rng(5)
        t = md.sample_grid(length)
        values = np.cumsum(rng.normal(size=length)) + 3.0
        rho = md.autocorrelation(md.make_signal(t, values), 40)
        x = values - values.mean()
        want = [np.dot(x[:length - lag], x[lag:]) / np.dot(x, x)
                for lag in range(41)]
        assert rho[0] == 1.0
        assert np.max(np.abs(rho - want)) <= 1e-12

    def test_lag_too_large(self):
        t = md.sample_grid(32)
        sig = md.make_signal(t, np.ones(32))
        with pytest.raises(LagTooLarge):
            md.autocorrelation(sig, 32)

    def test_constant_signal_impulse(self):
        t = md.sample_grid(32)
        sig = md.make_signal(t, np.full(32, 2.0))
        rho = md.autocorrelation(sig, 5)
        assert rho[0] == 1.0
        assert np.all(rho[1:] == 0.0)


class TestFitDecayRate:
    def test_exact_geometric(self):
        ratio, goodness = md.fit_decay_rate([1.0, 0.5, 0.25, 0.125])
        assert ratio == pytest.approx(0.5, rel=1e-9)
        assert goodness == pytest.approx(1.0, abs=1e-9)

    def test_constant_trace(self):
        ratio, goodness = md.fit_decay_rate([0.3, 0.3, 0.3, 0.3])
        assert ratio == 1.0

    def test_too_short(self):
        with pytest.raises(TraceTooShort):
            md.fit_decay_rate([1.0, 0.5])

    def test_not_one_dimensional(self):
        with pytest.raises(OutOfDomain, match="1-d"):
            md.fit_decay_rate([[1.0, 0.5], [0.25, 0.125]])

    @pytest.mark.parametrize("norms", [[1.0, 0.5, 0.0, 0.1],
                                       [1.0, -0.5, 0.25, 0.125]])
    def test_non_positive_norm(self, norms):
        with pytest.raises(OutOfDomain, match="positive"):
            md.fit_decay_rate(norms)

    def test_floor_filter(self):
        with pytest.raises(TraceTooShort):
            md.fit_decay_rate([1.0, 1e-9, 1e-9, 1e-9], floor=1e-6)

    def test_solver_trace_decays(self):
        ex = md.gen_example_4_1(2 ** 12, 0.0, 0)
        res = md.gmd_decompose(ex.signal, list(ex.priors), eps=1e-8,
                               max_iters=10, bins=100)
        ratio, _ = md.fit_decay_rate(res.report.residual_norms)
        assert ratio < 1.0

    def test_gauss_seidel_ratio_at_most_jacobi(self):
        ex = md.gen_example_4_1(2 ** 12, 0.0, 0)
        ratios = {}
        for scheme in ("gauss_seidel", "jacobi"):
            res = md.gmd_decompose(ex.signal, list(ex.priors), eps=1e-8,
                                   max_iters=12, bins=100, scheme=scheme)
            ratios[scheme], _ = md.fit_decay_rate(res.report.residual_norms)
        assert ratios["gauss_seidel"] <= ratios["jacobi"]
