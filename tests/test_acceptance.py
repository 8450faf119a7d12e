"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Expensive decompositions are shared module-scoped
fixtures; the determinism criterion reruns them from scratch.
"""

import time
from dataclasses import asdict

import numpy as np
import pytest

import modedecomp as md
from modedecomp.cli import write_report

SEED = 7
FINE = (np.arange(16384) + 0.5) / 16384


def announce(number, ok, detail):
    line = f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def table_values(est_shapes, n, sign=1.0):
    return sign * md.eval_shape(est_shapes[n], FINE)


def rel_gap(got, want):
    denom = md.signal_norm(want)
    return md.signal_norm(got - want) / (denom if denom > 0 else 1.0)


# ---------------------------------------------------------------------------
# shared expensive runs

@pytest.fixture(scope="module")
def clean_fixture():
    return md.gen_example_4_1(2 ** 14, 0.0, SEED)


@pytest.fixture(scope="module")
def gmd_gs(clean_fixture):
    start = time.perf_counter()
    res = md.gmd_decompose(clean_fixture.signal, list(clean_fixture.priors),
                           eps=1e-6, max_iters=200, bins=200,
                           scheme="gauss_seidel")
    return res, time.perf_counter() - start


@pytest.fixture(scope="module")
def gmd_jacobi(clean_fixture):
    res = md.gmd_decompose(clean_fixture.signal, list(clean_fixture.priors),
                           eps=1e-6, max_iters=200, bins=200, scheme="jacobi")
    return res


@pytest.fixture(scope="module")
def mmd_clean(clean_fixture):
    cfg = md.MmdConfig(m0=2, eps1=1e-6, eps2=1e-6, j1=200, j2=10, bins=200)
    start = time.perf_counter()
    res = md.mmd_decompose(clean_fixture.signal, list(clean_fixture.priors),
                           cfg)
    return res, cfg, time.perf_counter() - start


@pytest.fixture(scope="module")
def noisy_fixture():
    return md.gen_example_4_1(2 ** 15, 2.25, SEED)


@pytest.fixture(scope="module")
def mmd_noisy(noisy_fixture):
    cfg = md.MmdConfig(m0=1, eps1=1e-6, eps2=1e-6, j1=200, j2=10, bins=20)
    start = time.perf_counter()
    res = md.mmd_decompose(noisy_fixture.signal, list(noisy_fixture.priors),
                           cfg)
    return res, cfg, time.perf_counter() - start


# ---------------------------------------------------------------------------

def test_criterion_01_partition_oracle_equivalence():
    rng = np.random.default_rng(123)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        length = int(rng.integers(1, 10 ** 4 + 1))
        bins = int(rng.integers(2, 257))
        xs = rng.random(length)
        ys = rng.normal(scale=rng.uniform(0.5, 3.0), size=length)
        table = md.partition_regress(
            md.fold(xs + rng.integers(-3, 4), ys), bins)
        sums = [0.0] * bins
        hits = [0] * bins
        for x, y in zip(xs, ys):
            j = min(int(x * bins), bins - 1)
            sums[j] += y
            hits[j] += 1
        for j in range(bins):
            if hits[j]:
                worst = max(worst, abs(table.bins[j] - sums[j] / hits[j]))
    elapsed = time.perf_counter() - start
    announce(1, worst <= 1e-12 and elapsed < 10.0,
             f"bin-mean oracle gap {worst:.2e} over 100 fixtures "
             f"in {elapsed:.1f}s")


def test_criterion_02_gmd_recovery(clean_fixture, gmd_gs):
    res, elapsed = gmd_gs
    errors = [rel_gap(res.modes[k].values, clean_fixture.components[k].values)
              for k in range(2)]
    residual = res.report.residual_norms[-1]
    ok = (max(errors) <= 5e-2 and residual <= 1e-2 and elapsed < 60.0)
    announce(2, ok, f"mode errors {errors[0]:.2e}/{errors[1]:.2e}, "
                    f"residual {residual:.2e}, {elapsed:.1f}s")


def test_criterion_03_mmd_recovery(clean_fixture, mmd_clean):
    res, cfg, elapsed = mmd_clean
    checks = []
    for k in range(2):
        est = res.estimates[k]
        tru = clean_fixture.truth[k]
        checks.append(rel_gap(table_values(est.cos_shapes, 0),
                              table_values(tru.cos_shapes, 0)))
        # cosine carriers are even in the band index and sine carriers odd,
        # so the identifiable pair combinations are the even/odd sums
        rec_c = table_values(est.cos_shapes, 1) + table_values(est.cos_shapes, -1)
        tru_c = table_values(tru.cos_shapes, 1) + table_values(tru.cos_shapes, -1)
        checks.append(rel_gap(rec_c, tru_c))
        rec_s = table_values(est.sin_shapes, 1) - table_values(est.sin_shapes, -1)
        tru_s = table_values(tru.sin_shapes, 1) - table_values(tru.sin_shapes, -1)
        checks.append(rel_gap(rec_s, tru_s))
    zero_band_coeffs = []
    for est in res.estimates:
        zero_band_coeffs += [est.cos_coeffs[2], est.cos_coeffs[-2],
                             est.sin_coeffs[2], est.sin_coeffs[-2],
                             est.cos_coeffs[-1], est.sin_coeffs[-1]]
    total = (res.estimates[0].mode.values + res.estimates[1].mode.values
             + res.residual.values)
    identity = rel_gap(total, clean_fixture.signal.values)
    ok = (max(checks) <= 5e-2 and max(zero_band_coeffs) <= 5e-2
          and identity <= 1e-10 and elapsed < 300.0)
    announce(3, ok, f"band product errors max {max(checks):.2e}, "
                    f"empty-band coeffs max {max(zero_band_coeffs):.2e}, "
                    f"identity {identity:.1e}, {elapsed:.1f}s")


def test_criterion_04_noise_robustness(noisy_fixture, mmd_noisy):
    res, cfg, elapsed = mmd_noisy
    errors = []
    snrs = []
    for k in range(2):
        est = res.estimates[k]
        tru = noisy_fixture.truth[k]
        errors.append(rel_gap(table_values(est.cos_shapes, 0),
                              table_values(tru.cos_shapes, 0)))
        lead = md.ell_band_approx(tru, noisy_fixture.priors[k], 0,
                                  noisy_fixture.signal.times)
        snrs.append(md.snr(lead, noisy_fixture.noise_var))
    ok = (max(errors) <= 0.15
          and all(-12.0 <= s <= -8.0 for s in snrs)
          and elapsed < 600.0)
    announce(4, ok, f"leading product errors {errors[0]:.3f}/{errors[1]:.3f}, "
                    f"leading SNR {snrs[0]:.2f}/{snrs[1]:.2f} dB, "
                    f"{elapsed:.1f}s")


def test_criterion_05_rate_comparison(gmd_gs, gmd_jacobi):
    res_gs, _ = gmd_gs
    res_j = gmd_jacobi

    def reach(norms, target=1e-2):
        for i, value in enumerate(norms):
            if value <= target:
                return i + 1
        return None

    gs_iters = reach(res_gs.report.residual_norms)
    j_iters = reach(res_j.report.residual_norms)
    ratio_gs, _ = md.fit_decay_rate(res_gs.report.residual_norms)
    ratio_j, _ = md.fit_decay_rate(res_j.report.residual_norms)
    ok = (gs_iters is not None and j_iters is not None
          and gs_iters <= j_iters and ratio_gs < 1.0 and ratio_j < 1.0)
    announce(5, ok, f"iterations to 1e-2: gauss_seidel {gs_iters} <= "
                    f"jacobi {j_iters}; decay ratios {ratio_gs:.3f}, "
                    f"{ratio_j:.3f}")


def test_criterion_06_overspecified_priors():
    length = 2 ** 13
    t = md.sample_grid(length)
    shape = md.ecg_like_shape(1024, 1)
    phi = t + 0.004 * np.sin(2 * np.pi * t)
    sig = md.make_signal(t, md.eval_shape(shape, 60.0 * phi))
    priors = [md.make_prior(60.0 * phi), md.make_prior(120.0 * phi)]

    res_gs = md.gmd_decompose(sig, priors, eps=1e-2, max_iters=50, bins=100,
                              scheme="gauss_seidel")
    summed = md.group_sum_shapes(res_gs, [[0, 1]])[0]
    gap = rel_gap(md.eval_shape(summed, FINE), md.eval_shape(shape, FINE))
    terminated = res_gs.report.iterations < 50

    res_j = md.gmd_decompose(sig, priors, eps=1e-2, max_iters=50, bins=100,
                             scheme="jacobi")
    norms = res_j.report.residual_norms
    non_decreasing = all(b >= a for a, b in zip(norms, norms[1:]))
    stalled = res_j.report.stop_reason == md.StopReason.STALLED
    ok = gap <= 5e-2 and terminated and (non_decreasing or stalled)
    announce(6, ok, f"group-sum error {gap:.2e}, gauss_seidel "
                    f"{res_gs.report.stop_reason.value} after "
                    f"{res_gs.report.iterations} sweeps; jacobi "
                    f"{res_j.report.stop_reason.value} at residual "
                    f"{norms[-1]:.2e}")


def test_criterion_07_well_differentiation_counts():
    length = 2 ** 15
    t = md.sample_grid(length)
    priors = [md.make_prior(150.0 * t), md.make_prior(220.0 * t)]
    counts = md.partition_counts(priors, t, 0.05)
    stats = md.well_diff_stats(counts, 1.0)

    cells = counts.cells
    cell_idx = [np.clip(((p.phase % 1.0) * cells).astype(int), 0, cells - 1)
                for p in priors]
    exact = True
    for i in range(2):
        marg = np.zeros(cells, dtype=int)
        for m in cell_idx[i]:
            marg[m] += 1
        exact = exact and np.array_equal(marg, counts.marginals[i])
        j = 1 - i
        mat = np.zeros((cells, cells), dtype=int)
        for a, b in zip(cell_idx[i], cell_idx[j]):
            mat[a, b] += 1
        exact = exact and np.array_equal(mat, counts.pairs[(i, j)])

    same = md.well_diff_stats(
        md.partition_counts([priors[0], priors[0]], t, 0.05), 1.0)
    ok = stats.gamma > 0 and exact and same.gamma == 0.0
    announce(7, ok, f"gamma {stats.gamma:.0f} > 0 with exact counts; "
                    f"identical phases give gamma {same.gamma:.0f}")


def test_criterion_08_residual_whiteness(noisy_fixture, mmd_noisy):
    res, _, _ = mmd_noisy
    length = len(noisy_fixture.signal)
    bound = 4.0 / np.sqrt(length)
    rho_res = md.autocorrelation(res.residual, 100)
    rho_in = md.autocorrelation(noisy_fixture.signal, 100)
    peak_res = float(np.max(np.abs(rho_res[1:])))
    peak_in = float(np.max(np.abs(rho_in[1:])))
    ok = peak_res <= bound and peak_in > bound
    announce(8, ok, f"residual peak autocorrelation {peak_res:.4f} <= "
                    f"{bound:.4f}; input peak {peak_in:.4f} violates it")


def test_criterion_09_band_monotonicity(clean_fixture, mmd_clean):
    res, _, _ = mmd_clean
    t = clean_fixture.signal.times
    ok = True
    details = []
    for k in range(2):
        other = res.estimates[1 - k].mode.values
        attributed = md.SampledSignal(clean_fixture.signal.times,
                                      clean_fixture.signal.values - other)
        errs = [md.signal_norm(
            md.band_residual(attributed, res.estimates[k],
                             clean_fixture.priors[k], ell, t).values)
            for ell in (0, 1, 2)]
        ok = ok and errs[0] >= errs[1] >= errs[2]
        details.append("[" + ", ".join(f"{e:.2e}" for e in errs) + "]")
    announce(9, ok, "banded approximation error over ell=0,1,2: "
                    + " and ".join(details))


def test_criterion_10_determinism(tmp_path, clean_fixture, gmd_gs,
                                  noisy_fixture, mmd_clean, mmd_noisy):
    def serialize(result, config, directory):
        directory.mkdir(parents=True, exist_ok=True)
        write_report(directory, result.report, None, config)
        return (directory / "report.json").read_bytes()

    cfg2 = {"eps": 1e-6, "max_iters": 200, "bins": 200,
            "scheme": "gauss_seidel"}
    first = serialize(gmd_gs[0], cfg2, tmp_path / "gmd_a")
    rerun = md.gmd_decompose(clean_fixture.signal, list(clean_fixture.priors),
                             eps=1e-6, max_iters=200, bins=200,
                             scheme="gauss_seidel")
    second = serialize(rerun, cfg2, tmp_path / "gmd_b")
    same_gmd = first == second

    res3, cfg_m, _ = mmd_clean
    cfg3 = asdict(cfg_m)
    first = serialize(res3, cfg3, tmp_path / "mmd_a")
    rerun_fix = md.gen_example_4_1(2 ** 14, 0.0, SEED)
    rerun = md.mmd_decompose(rerun_fix.signal, list(rerun_fix.priors), cfg_m)
    second = serialize(rerun, cfg3, tmp_path / "mmd_b")
    same_mmd = first == second

    res4, cfg_n, _ = mmd_noisy
    cfg4 = asdict(cfg_n)
    first = serialize(res4, cfg4, tmp_path / "noisy_a")
    rerun_fix = md.gen_example_4_1(2 ** 15, 2.25, SEED)
    rerun = md.mmd_decompose(rerun_fix.signal, list(rerun_fix.priors), cfg_n)
    second = serialize(rerun, cfg4, tmp_path / "noisy_b")
    same_noisy = first == second

    ok = same_gmd and same_mmd and same_noisy
    announce(10, ok, f"byte-identical reports on rerun: gmd={same_gmd}, "
                     f"mmd={same_mmd}, noisy={same_noisy}")
