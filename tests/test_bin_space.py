"""The bin-space passes against the sample-space sweeps they replace.

:func:`modedecomp.modified_rdbr` solves a pass on bin sums when handed
:class:`~modedecomp.mmd.BinSpacePlans`, and with sample-space sweeps
otherwise; :func:`modedecomp.gmd_decompose` runs its sweeps on bin sums
when :func:`modedecomp.gmd.bin_space_fits` holds. The two differ only in
rounding, so every comparison allows a relative 1e-12 and requires the same
number of sweeps.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import modedecomp as md
from modedecomp import fold_regress, gmd, mmd
from modedecomp.fold_regress import (BinPass, _banded, band_operators,
                                     bin_means, carrier, plan_phase)
from modedecomp.mmd import (OPERATOR_FLOOR, OPERATOR_PER_SAMPLE,
                            BinSpacePlans, bin_space_fits, operator_bytes)
from modedecomp.signal_model import unit_position

TOL = 1e-12


def rel(got, want, scale=None):
    """RMS of the difference over the RMS of ``want`` (or ``scale``)."""
    denom = md.signal_norm(want) if scale is None else scale
    return md.signal_norm(np.asarray(got) - want) / (denom or 1.0)


def problem(seed, length, grid, components):
    """Noise to decompose against ``components`` warped, modulated priors."""
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


@contextmanager
def recording_sweeps():
    """Record the residual's norm after each sample-space and each
    bin-space sweep run inside."""
    norms = {"sample": [], "bin": []}
    sample_sweep, bin_sweep = gmd.sweep, BinPass.sweep

    def sample(*args, **kwargs):
        out = sample_sweep(*args, **kwargs)
        norms["sample"].append(md.signal_norm(out[1]))
        return out

    def binned(self):
        out = bin_sweep(self)
        norms["bin"].append(out[1])
        return out

    with mock.patch.object(gmd, "sweep", sample), \
            mock.patch.object(BinPass, "sweep", binned):
        yield norms


def both_passes(signal, priors, n, kind, bins, scheme, eps2=1e-6,
                max_iters=10):
    """``modified_rdbr`` on the sample-space and on the bin-space path."""
    plans = [plan_phase(p, len(signal), bins) for p in priors]
    with recording_sweeps() as want_norms:
        want = md.modified_rdbr(signal, plans, n, kind, eps2, max_iters,
                                bins, scheme)
    with recording_sweeps() as got_norms:
        got = md.modified_rdbr(signal, BinSpacePlans(plans), n, kind, eps2,
                               max_iters, bins, scheme)
    assert not want_norms["bin"] and not got_norms["sample"]
    return want, want_norms["sample"], got, got_norms["bin"]


def assert_close(want, got, signal, factor=1.0):
    """Shapes and modes agree to 1e-12 of their own size, the residual to
    1e-12 of the pass's input: a pass may remove nearly all of it."""
    (w_shapes, w_modes, w_r), (g_shapes, g_modes, g_r) = want, got
    for w, g in zip(w_shapes, g_shapes):
        assert rel(g.bins / factor, w.bins) <= TOL
        assert abs(g.l2norm / factor - w.l2norm) <= TOL * (w.l2norm or 1.0)
    for w, g in zip(w_modes, g_modes):
        assert rel(g.values / factor, w.values) <= TOL
    assert rel(g_r.values / factor, w_r.values, signal.l2norm) <= TOL


def gmd_both_paths(signal, priors, **kwargs):
    """``gmd_decompose`` with its sweeps on the samples, then on bin sums,
    each with the residual's norm after every sweep."""
    runs = []
    for bin_space in (False, True):
        with mock.patch.object(gmd, "bin_space_fits",
                               lambda *args, _b=bin_space: _b), \
                recording_sweeps() as norms:
            result = md.gmd_decompose(signal, priors, **kwargs)
        assert not norms["sample" if bin_space else "bin"]
        runs.append((result, norms["bin" if bin_space else "sample"]))
    return runs


def assert_gmd_close(runs, signal):
    """Same iterations and stop reason; per-sweep residual norms, shapes,
    modes and residual within 1e-12 of the signal's norm. The bin path
    takes its norms from the Gram form, which keeps its error on the
    signal's scale rather than on the residual's."""
    (want, want_norms), (got, got_norms) = runs
    assert got.report.iterations == want.report.iterations
    assert got.report.stop_reason == want.report.stop_reason
    assert len(got_norms) == len(want_norms) == want.report.iterations
    scale = signal.l2norm
    gaps = np.subtract(got_norms, want_norms)
    assert np.max(np.abs(gaps)) <= TOL * scale
    for name in ("residual_norms", "shape_increment_norms"):
        # already relative to the signal's norm
        gaps = np.subtract(getattr(got.report, name),
                           getattr(want.report, name))
        assert np.max(np.abs(gaps)) <= TOL
    assert got.fundamentals == want.fundamentals
    for g, w in zip(got.shapes, want.shapes):
        assert rel(g.bins, w.bins, scale) <= TOL
        assert abs(g.l2norm - w.l2norm) <= TOL * scale
    for g, w in zip(got.modes, want.modes):
        assert rel(g.values, w.values, scale) <= TOL
    assert rel(got.residual.values, want.residual.values, scale) <= TOL


def gmd_problem(length, grid, noise_var, components, seed):
    """ex4_1 against its first prior, both, or both and a spurious third."""
    ex = md.gen_example_4_1(length, noise_var, seed, grid)
    t = ex.signal.times
    third = md.make_prior(97.0 * (t + 0.002 * np.sin(2 * np.pi * t)),
                          1.0 + 0.2 * np.cos(2 * np.pi * t))
    return ex.signal, [*ex.priors, third][:components]


BANDS = [(0, "cos"), (1, "cos"), (1, "sin"), (-2, "cos"), (-2, "sin"),
         (3, "sin")]


class TestPassMatchesSampleSpace:
    @pytest.mark.parametrize("scheme", ["gauss_seidel", "jacobi"])
    @pytest.mark.parametrize("components", [1, 2, 3])
    @pytest.mark.parametrize("band", BANDS)
    def test_noise(self, scheme, components, band):
        sig, priors = problem(components, 600, "iid_uniform", components)
        want, j_want, got, j_got = both_passes(sig, priors, *band, 24, scheme)
        assert len(j_got) == len(j_want)
        assert_close(want, got, sig)

    @pytest.mark.parametrize("scheme", ["gauss_seidel", "jacobi"])
    @pytest.mark.parametrize("band", [(0, "cos"), (1, "cos"), (-1, "sin")])
    def test_empty_bins(self, scheme, band):
        # 64 samples over 200 bins leave most bins empty and filled in
        sig, priors = problem(5, 64, "iid_uniform", 2)
        plans = [plan_phase(p, 64, 200) for p in priors]
        assert all(p.layout.empty_x.size for p in plans)
        want, j_want, got, j_got = both_passes(sig, priors, *band, 200,
                                               scheme)
        assert len(j_got) == len(j_want)
        assert_close(want, got, sig)

    def test_zero_residual(self):
        sig, priors = problem(3, 256, "uniform", 2)
        zero = md.make_signal(sig.times, np.zeros(256))
        want, j_want, got, j_got = both_passes(zero, priors, 1, "cos", 16,
                                               "gauss_seidel")
        assert len(j_got) == len(j_want) == 1
        for table in got[0]:
            assert table.l2norm == 0.0
        assert not np.any(got[2].values)

    @pytest.mark.parametrize("exponent", [-160, 160])
    @pytest.mark.parametrize("band", [(0, "cos"), (2, "sin")])
    def test_scale_free(self, exponent, band):
        # modes on the priors in the pass's band, plus small noise: a
        # residual that keeps falling, so that the pass runs all its sweeps
        factor = 10.0 ** exponent
        noise, priors = problem(7, 512, "uniform", 2)
        rng = np.random.default_rng(107)
        values = 0.01 * noise.values
        for prior in priors:
            table = md.center_shape(md.make_shape(rng.normal(size=32)))
            wave = 1.0 if band[0] == 0 else carrier(prior, *band)
            values = values + wave * md.eval_shape(table, prior.phase)
        sig = md.make_signal(noise.times, values)
        scaled = md.make_signal(sig.times, sig.values * factor)
        want, j_want, _, _ = both_passes(sig, priors, *band, 32,
                                         "gauss_seidel")
        _, _, got, j_got = both_passes(scaled, priors, *band, 32,
                                       "gauss_seidel")
        assert len(j_got) == len(j_want) == 10
        assert_close(want, got, sig, factor)

    def test_mode_on_its_own_grid(self):
        # a residual the pass nearly removes, so that the norm's Gram form
        # would cancel: the pass re-forms the residual on the samples and
        # its norms follow the sample-space ones to 1e-12 of the input
        t = md.sample_grid(2 ** 12)
        prior = md.with_fundamental(md.make_prior(37.0 * t), t)
        table = md.center_shape(md.ecg_like_shape(64, 1))
        sig = md.make_signal(t, md.eval_shape(table, prior.phase))
        want, want_norms, got, got_norms = both_passes(
            sig, [prior], 0, "cos", 64, "gauss_seidel", eps2=1e-14,
            max_iters=40)
        assert len(got_norms) == len(want_norms) == 30
        assert want_norms[-1] < 1e-14 * sig.l2norm
        gaps = np.abs(np.subtract(got_norms, want_norms))
        assert np.max(gaps) <= TOL * sig.l2norm
        assert_close(want, got, sig)

    def test_operators_shared_by_opposite_bands(self):
        sig, priors = problem(9, 300, "iid_uniform", 2)
        plans = BinSpacePlans([plan_phase(p, 300, 16) for p in priors])
        for n in (2, -2):
            md.modified_rdbr(sig, plans, n, "sin", bins=16)
        assert list(plans.cache) == [(2, "sin")]


class TestDecompositionsMatch:
    """Whole runs on the acceptance fixtures: the bin-space path and the
    sample-space path give the same iterations, stop reasons and, to
    rounding, the same outputs.

    Modes, residuals and band tables are compared on the signal's scale: a
    run's residual falls to 1e-4 of the signal, so rounding of order 1e-16
    of the signal, which either path makes, is 1e-12 of the residual. A
    one-ulp change to the input moves the sample-space outputs by as much.
    """

    @pytest.mark.parametrize("fixture, cfg", [
        ((2 ** 14, 0.0), md.MmdConfig(m0=2, bins=200)),
        ((2 ** 14, 0.0), md.MmdConfig(m0=2, bins=200, scheme="jacobi")),
        ((2 ** 15, 2.25), md.MmdConfig(m0=1, bins=20)),
        ((2 ** 15, 2.25), md.MmdConfig(m0=1, bins=20, scheme="jacobi")),
        # the benchmark's mmd_wide shape, which the operator floor moved to
        # bin space
        ((2 ** 14, 0.0), md.MmdConfig(m0=4, bins=200)),
    ])
    def test_acceptance_fixtures(self, fixture, cfg):
        ex = md.gen_example_4_1(*fixture, 7)
        runs = []
        for bin_space in (False, True):
            with mock.patch.object(mmd, "bin_space_fits",
                                   lambda *args, _b=bin_space: _b), \
                    recording_sweeps() as norms:
                runs.append((md.mmd_decompose(ex.signal, list(ex.priors), cfg),
                             norms))
        (want, want_norms), (got, got_norms) = runs
        assert not want_norms["bin"] and not got_norms["sample"]
        assert len(got_norms["bin"]) == len(want_norms["sample"])
        gaps = np.subtract(got_norms["bin"], want_norms["sample"])
        assert np.max(np.abs(gaps)) <= TOL * ex.signal.l2norm
        assert got.report.iterations == want.report.iterations
        assert got.report.stop_reason == want.report.stop_reason
        for name in ("residual_norms", "shape_increment_norms"):
            for g, w in zip(getattr(got.report, name),
                            getattr(want.report, name)):
                assert abs(g - w) <= TOL * w
        scale = ex.signal.l2norm
        for g, w in zip(got.estimates, want.estimates):
            assert rel(g.mode.values, w.mode.values, scale) <= TOL
            for shapes in ("cos_shapes", "sin_shapes"):
                for n, table in getattr(w, shapes).items():
                    got_table = getattr(g, shapes)[n].bins
                    assert rel(got_table, table.bins, scale) <= TOL
        assert rel(got.residual.values, want.residual.values, scale) <= TOL


    @pytest.mark.parametrize("fixture, kwargs", [
        ((2 ** 14, 0.0), {}),
        ((2 ** 14, 0.0), {"scheme": "jacobi"}),
        ((2 ** 15, 2.25), {}),
        ((2 ** 15, 2.25), {"scheme": "jacobi", "bins": 20}),
    ])
    def test_gmd_acceptance_fixtures(self, fixture, kwargs):
        ex = md.gen_example_4_1(*fixture, 7)
        assert_gmd_close(gmd_both_paths(ex.signal, list(ex.priors), **kwargs),
                         ex.signal)

    @pytest.mark.parametrize("scheme", ["gauss_seidel", "jacobi"])
    def test_gmd_overspecified_priors(self, scheme):
        # criterion 6's fixture: a second prior at twice the first's phase
        t = md.sample_grid(2 ** 13)
        phi = t + 0.004 * np.sin(2 * np.pi * t)
        sig = md.make_signal(
            t, md.eval_shape(md.ecg_like_shape(1024, 1), 60.0 * phi))
        priors = [md.make_prior(60.0 * phi), md.make_prior(120.0 * phi)]
        assert_gmd_close(gmd_both_paths(sig, priors, eps=1e-2, max_iters=50,
                                        bins=100, scheme=scheme), sig)


class TestGmdMatchesSampleSpace:
    @settings(max_examples=25, deadline=None)
    @given(components=st.integers(1, 3),
           scheme=st.sampled_from(["gauss_seidel", "jacobi"]),
           grid=st.sampled_from(["uniform", "iid_uniform"]),
           noise_var=st.sampled_from([0.0, 0.5]),
           log_length=st.integers(10, 14),
           seed=st.integers(0, 2 ** 16))
    def test_property(self, components, scheme, grid, noise_var, log_length,
                      seed):
        sig, priors = gmd_problem(2 ** log_length, grid, noise_var,
                                  components, seed)
        assert_gmd_close(gmd_both_paths(sig, priors, scheme=scheme), sig)

    @pytest.mark.parametrize("scheme, same", [("gauss_seidel", 1),
                                              ("jacobi", 2)])
    def test_paths_regress_the_same_samples(self, scheme, same):
        # both paths regress (1 / q_k) r, so a one-sweep run's increments
        # agree bit for bit while they regress the run's input: Gauss-
        # Seidel's first component, and every component of a Jacobi sweep
        sig, priors = gmd_problem(2 ** 14, "iid_uniform", 0.0, 2, 3)
        (want, _), (got, _) = gmd_both_paths(sig, priors, max_iters=1,
                                             scheme=scheme)
        for g, w in zip(got.shapes[:same], want.shapes[:same], strict=True):
            assert np.array_equal(g.bins, w.bins)


@contextmanager
def sweeps_inside_run_pass():
    """Record, for each sample-space and bin-space sweep run inside,
    whether it ran within a :func:`gmd.run_pass` call."""
    depth, inside = [0], []
    real_pass = gmd.run_pass

    def driver(*args, **kwargs):
        depth[0] += 1
        try:
            return real_pass(*args, **kwargs)
        finally:
            depth[0] -= 1

    def recorded(fn):
        def wrapper(*args, **kwargs):
            inside.append(depth[0] > 0)
            return fn(*args, **kwargs)
        return wrapper

    sample = recorded(fold_regress.sweep)
    with mock.patch.object(gmd, "run_pass", driver), \
            mock.patch.object(mmd, "run_pass", driver), \
            mock.patch.object(fold_regress, "sweep", sample), \
            mock.patch.object(gmd, "sweep", sample), \
            mock.patch.object(BinPass, "sweep", recorded(BinPass.sweep)):
        yield inside


class TestOnePassDriver:
    """Every sweep of the public decompositions, on the samples or on bin
    sums, runs in the one pass driver, :func:`gmd.run_pass`."""

    def run(self, case, sig, priors):
        if case == "rdbr_sweep":
            return md.rdbr_sweep(sig, priors, 24)
        if case.startswith("gmd_decompose"):
            bin_space = case.endswith("bin")
            with mock.patch.object(gmd, "bin_space_fits",
                                   lambda *args: bin_space):
                return md.gmd_decompose(sig, priors, max_iters=3, bins=24)
        plans = [plan_phase(p, len(sig), 24) for p in priors]
        return md.modified_rdbr(
            sig, BinSpacePlans(plans) if case.endswith("bin") else plans,
            1, "cos", max_iters=3, bins=24)

    @pytest.mark.parametrize("case", [
        "rdbr_sweep", "gmd_decompose_sample", "gmd_decompose_bin",
        "modified_rdbr_sample", "modified_rdbr_bin"])
    def test_every_sweep_in_run_pass(self, case):
        sig, priors = problem(11, 600, "iid_uniform", 2)
        with sweeps_inside_run_pass() as inside:
            self.run(case, sig, priors)
        assert inside and all(inside)


def factors(priors, n, kind):
    """Regression and subtraction factors and gain of an mmd band pass
    (``kind`` "cos" or "sin"), or of a gmd sweep (``kind`` "amplitude")."""
    if kind == "amplitude":
        q = [p.amplitude for p in priors]
        return [1.0 / a for a in q], q, 1.0
    g = [None if n == 0 else carrier(p, n, kind) for p in priors]
    return g, g, 1.0 if n == 0 else 2.0


class TestTemporariesInPlace:
    """:func:`~modedecomp.fold_regress.band_operators` and
    :meth:`BinPass.finish` form their sample-length temporaries in place;
    their values are those of the plain expressions, bit for bit, for an
    mmd pass's carriers and for gmd's separate regression and subtraction
    factors."""

    @pytest.mark.parametrize("n, kind", [(0, "cos"), (2, "sin"),
                                         (0, "amplitude")])
    def test_operators(self, n, kind):
        sig, priors = problem(11, 500, "iid_uniform", 3)
        pre, post, gain = factors(priors, n, kind)
        for nb in (2, 3, 24):
            self.check_operators(priors, pre, post, gain, nb)

    @staticmethod
    def check_operators(priors, pre, post, gain, nb):
        plans = [plan_phase(p, 500, nb) for p in priors]
        ops = band_operators(plans, pre, post, gain)

        def times(a, b):
            return b if a is None else a * b

        # the bin each sample interpolates to
        j1 = [(p.j0 + 1) % nb for p in plans]
        for k, pk in enumerate(plans):
            rows = pk.layout.index
            c = times(pre[k], post[k])
            t = sum(np.bincount(3 * rows + (j - rows + 1) % nb, times(c, w),
                                3 * nb) for j, w in ((pk.j0, pk.w1),
                                                     (j1[k], pk.w)))
            assert np.array_equal(ops.self_t[k], gain * t.reshape(nb, 3).T)
            c = times(post[k], post[k])
            d = (np.bincount(pk.j0, times(c, pk.w1 * pk.w1), nb)
                 + np.bincount(j1[k], times(c, pk.w * pk.w), nb))
            off = np.bincount(pk.j0, times(c, pk.w1 * pk.w), nb)
            assert np.array_equal(ops.self_g[k],
                                  np.array([d, off]) * (gain * gain))
            for m, pm in enumerate(plans):
                if m == k:
                    continue
                c = times(pre[k], post[m])
                cross = sum(np.bincount(rows * nb + j, times(c, w), nb * nb)
                            for j, w in ((pm.j0, pm.w1), (j1[m], pm.w)))
                assert np.array_equal(ops.cross[k, m],
                                      gain * cross.reshape(nb, nb))
                if m > k:
                    c = times(post[k], post[m])
                    gram = sum(
                        np.bincount(jk * nb + jm, times(c, wk * wm), nb * nb)
                        for jk, wk in ((pk.j0, pk.w1), (j1[k], pk.w))
                        for jm, wm in ((pm.j0, pm.w1), (j1[m], pm.w)))
                    assert np.array_equal(ops.gram[k, m],
                                          gain * gain * gram.reshape(nb, nb))

    @pytest.mark.parametrize("n, kind", [(0, "cos"), (1, "sin"),
                                         (0, "amplitude")])
    def test_finish(self, n, kind):
        sig, priors = problem(12, 500, "iid_uniform", 3)
        plans = [plan_phase(p, 500, 24) for p in priors]
        pre, post, gain = factors(priors, n, kind)
        solver = BinPass(sig.values, plans,
                         band_operators(plans, pre, post, gain), pre, post,
                         gain, "gauss_seidel")
        solver.sweep()
        total, modes, r = solver.finish()
        want_r = sig.values
        for p, b, u, mode in zip(plans, post, total, modes):
            j1 = (p.j0 + 1) % 24
            want = p.w1 * (gain * u)[p.j0] + p.w * (gain * u)[j1]
            want = want if b is None else b * want
            assert np.array_equal(mode, want)
            want_r = want_r - want
        assert np.array_equal(r, want_r)


class TestSweepTrims:
    """:meth:`BinPass.sweep` centres with ``np.mean``'s arithmetic, reads
    its norms in one row reduction and applies the self blocks without
    concatenating; the values are the plain expressions', bit for bit."""

    def test_banded(self):
        rng = np.random.default_rng(4)
        d, x = rng.normal(size=(3, 37)), rng.normal(size=37)
        want = (d[0] * np.concatenate((x[-1:], x[:-1])) + d[1] * x
                + d[2] * np.concatenate((x[1:], x[:1])))
        assert np.array_equal(_banded(d, x), want)

    @pytest.mark.parametrize("n, kind", [(0, "cos"), (1, "sin")])
    def test_increments_and_norms(self, n, kind):
        # Jacobi sweeps regress every component on the bin sums the sweep
        # starts from
        sig, priors = problem(13, 500, "iid_uniform", 3)
        plans = [plan_phase(p, 500, 24) for p in priors]
        g, _, gain = factors(priors, n, kind)
        solver = BinPass(sig.values, plans, band_operators(plans, g, g, gain),
                         g, g, gain, "jacobi")
        for _ in range(3):
            means = [bin_means(z, p.layout) for z, p in zip(solver.z, plans)]
            incs, _, norms = solver.sweep()
            for inc, m in zip(incs, means):
                assert np.array_equal(inc, m - np.mean(m))
            assert np.array_equal(
                norms, [md.signal_norm(gain * inc) for inc in incs])


class TestHalfBinSums:
    """A pass enters with ``z`` the bin sums of ``y = a r`` and ``q`` the
    ``E^T`` of ``v = b r``, formed one way whatever its factors: as
    ``(s - s_w) + s_w[i - 1]`` from the sums ``s`` of ``v`` and ``s_w`` of
    ``v w`` by ``j0``. A pass whose regression factor is its subtraction
    factor, as every mmd band pass, takes ``z`` and ``s`` from one sum over
    the half-bin slots; gmd's, with ``a = 1/q`` and ``b = q``, from two bin
    counts. Both match the direct sums to rounding, wherever the positions
    fall."""

    @staticmethod
    def check(xs, nb, seed, factors):
        plan = plan_phase(md.make_prior(xs), xs.size, nb)
        # positions in [0, 1) fold to themselves
        assert np.array_equal(unit_position(plan.prior.phase), xs)
        rng = np.random.default_rng(seed)
        r = rng.normal(size=xs.size)
        a = b = None
        gain = 2.0 if factors == "carried" else 1.0
        if factors == "carried":
            a = b = rng.normal(size=xs.size)
        elif factors == "unequal":
            b = 1.0 + 0.5 * rng.random(xs.size)
            a = 1.0 / b
        solver = BinPass(r, [plan], band_operators([plan], [a], [b], gain),
                         [a], [b], gain, "gauss_seidel")
        y = r if a is None else a * r
        v = r if b is None else b * r
        # each sum's rounding: at most len(y) ulps of the sum of |y|
        ulps = xs.size * 2.0 ** -52
        index = plan.layout.index
        assert np.all(np.abs(solver.z[0] - np.bincount(index, y, nb))
                      <= ulps * np.bincount(index, np.abs(y), nb))
        # E^T v: each sample's v added to its two bins with its
        # interpolation weights, v (1 - w) to j0 and v w to j0 + 1
        spread = (np.bincount(plan.j0, v * plan.w1, nb)
                  + np.roll(np.bincount(plan.j0, v * plan.w, nb), 1))
        by_j0 = np.bincount(plan.j0, np.abs(v), nb)
        assert np.all(np.abs(solver.q[0] - gain * spread)
                      <= 2.0 * gain * ulps * (by_j0 + np.roll(by_j0, 1)))
        return plan

    @staticmethod
    def centres_and_edges(nb):
        """The centres of the even bins, the lower edges of bins 1, 4, 7,
        ..., 0 and the largest double below 1: bins 3, 5, 9, 11, ... stay
        empty."""
        j = np.arange(nb)
        return np.unique(np.concatenate((
            (j[::2] + 0.5) / nb, j[1::3] / nb,
            [0.0, np.nextafter(1.0, 0.0)])))

    @settings(max_examples=60, deadline=None)
    @given(nb=st.sampled_from([2, 3, 24, 200]), data=st.data())
    def test_property(self, nb, data):
        position = st.one_of(
            st.integers(0, nb - 1).map(lambda j: (j + 0.5) / nb),
            st.integers(0, nb - 1).map(lambda j: j / nb),
            st.just(np.nextafter(1.0, 0.0)),
            st.floats(0.0, 1.0, exclude_max=True))
        xs = np.unique(data.draw(st.lists(position, min_size=2,
                                          max_size=400)))
        assume(xs.size >= 2)
        self.check(xs, nb, data.draw(st.integers(0, 2 ** 16)),
                   data.draw(st.sampled_from(["one", "carried", "unequal"])))

    @pytest.mark.parametrize("carried", [False, True])
    @pytest.mark.parametrize("nb", [2, 3, 24, 200])
    def test_centres_edges_and_empty_bins(self, nb, carried):
        plan = self.check(self.centres_and_edges(nb), nb, nb,
                          "carried" if carried else "one")
        assert plan.layout.index[-1] == nb - 1
        assert bool(plan.layout.empty_x.size) == (nb > 3)

    @pytest.mark.parametrize("nb", [2, 3, 24, 200])
    def test_unequal_factors(self, nb):
        self.check(self.centres_and_edges(nb), nb, nb, "unequal")


class TestPlansHoldWhatTheirPathReads:
    """No solver folds samples: the partitioning estimate regresses on the
    plans' bin sums, on the bin and on the sample path alike."""

    @staticmethod
    @contextmanager
    def no_folded_samples():
        def refuse(*args, **kwargs):
            raise AssertionError("the default estimator folded samples")

        with mock.patch.object(fold_regress, "FoldedSamples", refuse), \
                mock.patch.object(fold_regress, "center_shape", refuse), \
                recording_sweeps() as norms:
            yield norms

    @pytest.mark.parametrize("run", ["gmd", "mmd"])
    def test_bin_path_builds_no_positions(self, run):
        if run == "gmd":
            ex = md.gen_example_4_1(2 ** 16, 0.0, 21, "iid_uniform")
            with self.no_folded_samples() as norms:
                md.gmd_decompose(ex.signal, ex.priors)
        else:
            ex = md.gen_example_4_1(2 ** 14, 0.0, 21, "iid_uniform")
            with self.no_folded_samples() as norms:
                md.mmd_decompose(ex.signal, ex.priors, md.MmdConfig(m0=2))
        assert norms["bin"] and not norms["sample"]

    @pytest.mark.parametrize("run", ["gmd", "mmd"])
    def test_sample_path_builds_no_positions(self, run):
        # one-component gmd, and mmd's band 0 alone with two components,
        # sweep on the samples
        ex = md.gen_example_4_1(2 ** 12, 0.0, 21, "iid_uniform")
        with self.no_folded_samples() as norms:
            if run == "gmd":
                md.gmd_decompose(ex.signal, ex.priors[:1])
            else:
                md.mmd_decompose(ex.signal, ex.priors, md.MmdConfig(m0=0))
        assert norms["sample"] and not norms["bin"]


class TestRebase:
    """Once a pass's squared norm falls below ``BinPass.REBASE`` of its
    base, the pass forms the residual's squared norm on the samples and
    moves ``q`` by the Gram blocks in bin space. Forced after every sweep,
    that leaves each sweep's norm the norm of the residual :meth:`finish`
    forms, and every pass's sweeps those of the sample path."""

    @pytest.mark.parametrize("scheme", ["gauss_seidel", "jacobi"])
    @pytest.mark.parametrize("n, kind", [(0, "cos"), (2, "sin"),
                                         (0, "amplitude")])
    def test_norms(self, n, kind, scheme):
        # a sum of modes the pass can remove, sweep after sweep
        _, priors = problem(14, 500, "iid_uniform", 3)
        plans = [plan_phase(p, 500, 24) for p in priors]
        pre, post, gain = factors(priors, n, kind)
        rng = np.random.default_rng(14)
        r = sum(p.interpolate(rng.normal(size=24)) * (1.0 if b is None else b)
                for p, b in zip(plans, post))
        rebase, rebased = BinPass._rebase, []

        def counted(self):
            rebased.append(self)
            rebase(self)

        with mock.patch.object(BinPass, "REBASE", 1.0), \
                mock.patch.object(BinPass, "_rebase", counted):
            solver = BinPass(r, plans, band_operators(plans, pre, post, gain),
                             pre, post, gain, scheme)
            for _ in range(6):
                rms = solver.sweep()[1]
                want = md.signal_norm(solver.finish()[2])
                assert abs(rms - want) <= TOL * want
        assert len(rebased) == 6

    @pytest.mark.parametrize("scheme", ["gauss_seidel", "jacobi"])
    def test_iterations(self, scheme):
        with mock.patch.object(BinPass, "REBASE", 1.0):
            for band in BANDS[:3]:
                sig, priors = problem(2, 600, "iid_uniform", 2)
                want, j_want, got, j_got = both_passes(sig, priors, *band,
                                                       24, scheme)
                assert len(j_got) == len(j_want)
                assert_close(want, got, sig)
            ex = md.gen_example_4_1(2 ** 14, 0.0, 7)
            assert_gmd_close(gmd_both_paths(ex.signal, list(ex.priors),
                                            scheme=scheme), ex.signal)


class TestPathRule:
    def test_benchmark_sizes(self):
        # mmd_long (L = 2^17, m0 = 2), mmd_wide (L = 2^14, m0 = 4) and the
        # CLI's default m0 = 10 at L = 2^14 all solve in bin space
        assert bin_space_fits(2 ** 17, 200, 2, 2 * 2 + 1)
        assert bin_space_fits(2 ** 14, 200, 2, 2 * 4 + 1)
        assert bin_space_fits(2 ** 14, 200, 2, 2 * 10 + 1)
        # three components at m0 = 10 cache 60,984,000 bytes
        assert not bin_space_fits(2 ** 17, 200, 3, 2 * 10 + 1)

    def test_crossover(self):
        assert OPERATOR_FLOOR == 32 * 2 ** 20
        assert OPERATOR_PER_SAMPLE == 128
        # K = 2, B = 200: 976,000 bytes a pass, the plans 96 bytes a sample;
        # a pass's operators need 256 L >= 976,000
        assert operator_bytes(200, 2, 5) == 4_880_000
        assert operator_bytes(200, 2, 34) == 33_184_000
        assert not bin_space_fits(3_812, 200, 2, 3)
        assert bin_space_fits(3_813, 200, 2, 3)
        # 34 passes fit under the floor from there on, 35 do not
        assert bin_space_fits(3_813, 200, 2, 34)
        assert not bin_space_fits(355_833, 200, 2, 35)
        assert bin_space_fits(355_834, 200, 2, 35)
        # band 0 alone solves in bin space only with one component
        assert not bin_space_fits(2 ** 20, 200, 2, 1)
        assert not bin_space_fits(2 ** 20, 16, 3, 1)
        assert bin_space_fits(63, 200, 1, 1)
        # K = 3 at m0 = 10: 144 bytes a sample against 60,984,000
        assert operator_bytes(200, 3, 21) == 60_984_000
        assert not bin_space_fits(423_499, 200, 3, 21)
        assert bin_space_fits(423_500, 200, 3, 21)
        # wider bins: B = 500 takes 6,040,000 bytes a pass, B = 1000
        # 24,080,000, which no multi-band run fits under the floor
        assert not bin_space_fits(23_593, 500, 2, 5)
        assert bin_space_fits(23_594, 500, 2, 5)
        assert not bin_space_fits(2 ** 17, 1000, 2, 3)
        assert not bin_space_fits(2_257_499, 1000, 2, 9)
        assert bin_space_fits(2_257_500, 1000, 2, 9)
        # one component caches only diagonals: 8,000 bytes a pass
        assert operator_bytes(200, 1, 41) == 41 * 8_000
        assert not bin_space_fits(62, 200, 1, 3)
        assert bin_space_fits(63, 200, 1, 4_194)
        assert not bin_space_fits(699_166, 200, 1, 4_195)
        assert bin_space_fits(699_167, 200, 1, 4_195)

    @pytest.mark.parametrize("components", [1, 2, 3])
    def test_bytes_as_cached(self, components):
        sig, priors = problem(4, 300, "iid_uniform", components)
        plans = BinSpacePlans([plan_phase(p, 300, 16) for p in priors])
        for n in md.band_order(2):
            for kind in ("cos", "sin") if n else ("cos",):
                md.modified_rdbr(sig, plans, n, kind, bins=16)
        assert len(plans.cache) == 5
        cached = sum(block.nbytes for ops in plans.cache.values()
                     for block in (*ops.cross.values(), *ops.gram.values(),
                                   ops.self_t, ops.self_g))
        assert cached == operator_bytes(16, components, 5)

    @pytest.mark.parametrize("length, bins, m0, path", [
        (2 ** 12, 32, 1, "bin"),
        (2 ** 12, 200, 2, "bin"),
        # 35 passes of 976,000 bytes exceed the floor and 96 bytes a sample
        (2 ** 12, 200, 17, "sample"),
        # a pass of 976,000 bytes exceeds 256 bytes a sample
        (2 ** 11, 200, 2, "sample"),
        # band 0 alone with two components
        (2 ** 14, 200, 0, "sample"),
    ])
    def test_decomposition_takes_path(self, length, bins, m0, path):
        ex = md.gen_example_4_1(length, 0.0, 3)
        cfg = md.MmdConfig(m0=m0, j1=2, bins=bins)
        with recording_sweeps() as norms:
            md.mmd_decompose(ex.signal, list(ex.priors), cfg)
        other = "sample" if path == "bin" else "bin"
        assert norms[path] and not norms[other]


class TestGmdPathRule:
    def test_crossover(self):
        assert gmd.OPERATOR_PER_SAMPLE == 8
        # K = 2, B = 200: 976,000 bytes of operators need 16 L >= 976,000
        assert not gmd.bin_space_fits(60_999, 200, 2)
        assert gmd.bin_space_fits(61_000, 200, 2)
        # K = 3: 2,904,000 bytes at B = 200, 18,060,000 at B = 500
        assert not gmd.bin_space_fits(120_999, 200, 3)
        assert gmd.bin_space_fits(121_000, 200, 3)
        assert not gmd.bin_space_fits(752_499, 500, 3)
        assert gmd.bin_space_fits(752_500, 500, 3)
        # the benchmark's gmd_long and the gmd of its cli_roundtrip
        assert gmd.bin_space_fits(2 ** 20, 200, 2)
        assert gmd.bin_space_fits(262_144, 200, 2)
        # one component sweeps on the samples at any length
        assert not gmd.bin_space_fits(2 ** 20, 200, 1)
        assert not gmd.bin_space_fits(2 ** 20, 2, 1)

    def test_default_takes_bin_space(self):
        ex = md.gen_example_4_1(2 ** 16, 0.0, 3, "iid_uniform")
        with recording_sweeps() as norms:
            result = md.gmd_decompose(ex.signal, list(ex.priors))
        assert not norms["sample"]
        assert len(norms["bin"]) == result.report.iterations

    @pytest.mark.parametrize("length, components", [
        # one component
        (2 ** 16, 1),
        # operators above 8 bytes a sample
        (2 ** 15, 2),
    ])
    def test_sample_space(self, length, components):
        ex = md.gen_example_4_1(length, 0.0, 3, "iid_uniform")
        with recording_sweeps() as norms:
            result = md.gmd_decompose(ex.signal,
                                      list(ex.priors)[:components])
        assert not norms["bin"]
        assert len(norms["sample"]) == result.report.iterations


class TestCarrierWindow:
    """Without room to hold them, :meth:`BinSpacePlans.carriers` evaluates
    band ``|n|``'s carriers once for the passes of ``n`` and ``-n``; its
    outputs are band ``|n|``'s from
    :func:`~modedecomp.fold_regress.carrier`, bit for bit."""

    PASSES = [(2, "cos"), (2, "sin"), (-2, "cos"), (-2, "sin")]

    @pytest.mark.parametrize("grid", ["uniform", "iid_uniform"])
    def test_carriers_even_and_odd(self, grid):
        ex = md.gen_example_4_1(2 ** 12, 0.0, 3, grid)
        for prior in ex.priors:
            for n in range(1, 11):
                assert np.array_equal(carrier(prior, -n, "cos"),
                                      carrier(prior, n, "cos"))
                assert np.array_equal(carrier(prior, -n, "sin"),
                                      -carrier(prior, n, "sin"))

    def test_window_gives_carrier(self):
        ex = md.gen_example_4_1(2 ** 12, 0.0, 3, "iid_uniform")
        plans = BinSpacePlans([plan_phase(p, 2 ** 12, 32) for p in ex.priors])
        for n, kind in self.PASSES + [(1, "sin"), (-3, "sin")]:
            for plan, g in zip(plans, plans.carriers(n, kind)):
                assert np.array_equal(g, carrier(plan.prior, abs(n), kind))

    @pytest.mark.parametrize("scheme", ["gauss_seidel", "jacobi"])
    def test_shared_window_matches_fresh(self, scheme):
        ex = md.gen_example_4_1(2 ** 12, 0.0, 3, "iid_uniform")
        plans = [plan_phase(p, 2 ** 12, 32) for p in ex.priors]
        shared = BinSpacePlans(plans)
        r_shared = r_fresh = ex.signal
        for n, kind in self.PASSES:
            got = md.modified_rdbr(r_shared, shared, n, kind, bins=32,
                                   scheme=scheme)
            want = md.modified_rdbr(r_fresh, BinSpacePlans(plans), n, kind,
                                    bins=32, scheme=scheme)
            for g, w in zip(got[0], want[0]):
                assert np.array_equal(g.bins, w.bins)
            for g, w in zip(got[1], want[1]):
                assert np.array_equal(g.values, w.values)
            assert np.array_equal(got[2].values, want[2].values)
            r_shared, r_fresh = got[2], want[2]


class TestOppositeBands:
    """Band ``-n``'s sine pass runs on band ``n``'s carriers. On the bin
    path it gives what a pass on band ``-n``'s own, negated carriers gives:
    the same tables, modes and residual bit for bit, from increments that
    are exactly the negation of those on band ``n``'s carriers."""

    @pytest.mark.parametrize("scheme", ["gauss_seidel", "jacobi"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sine_pass(self, n, scheme):
        sig, priors = problem(13, 400, "iid_uniform", 2)
        plans = [plan_phase(p, 400, 16) for p in priors]
        shapes, modes, r = md.modified_rdbr(sig, BinSpacePlans(plans), -n,
                                            "sin", bins=16, scheme=scheme)

        def run(g):
            return gmd.run_pass(sig.values, plans, g, g, 2.0, scheme, 1e-6,
                                10, ops=band_operators(plans, g, g, 2.0))

        g = [carrier(p, n, "sin") for p in priors]
        *own, total, want_modes, want_r = run([np.negative(a) for a in g])
        *same, flipped, _, _ = run(g)
        assert own == same and len(own[0]) > 1
        assert np.array_equal(flipped, -total)
        for shape, u in zip(shapes, total, strict=True):
            assert np.array_equal(shape.bins, 2.0 * u)
        for mode, want in zip(modes, want_modes, strict=True):
            assert np.array_equal(mode.values, want)
        assert np.array_equal(r.values, want_r)


class TestCarrierCache:
    """A bin-space run holds its carriers for the run, lowest band first,
    in the bytes its operators leave under :func:`mmd.memory_bound`; the
    carriers that do not fit are evaluated once per outer iteration for
    the passes of bands ``n`` and ``-n``. The outputs are the same either
    way, bit for bit."""

    CFG = md.MmdConfig(m0=3, bins=32)
    PER_BAND = 8 * 2 * 2 ** 12  # (|n|, kind)'s carriers, K = 2, L = 2^12

    def run(self, floor=None):
        """An ex4_1 run with ``CFG``, the carriers it evaluated and its
        :class:`BinSpacePlans`."""
        ex = md.gen_example_4_1(2 ** 12, 0.0, 3, "iid_uniform")
        evaluated, made = [], []
        evaluate = mmd.carrier

        def counted(prior, n, kind):
            evaluated.append((n, kind))
            return evaluate(prior, n, kind)

        class Recorded(BinSpacePlans):
            def __new__(cls, *args):
                made.append(super().__new__(cls, *args))
                return made[-1]

        with mock.patch.object(mmd, "carrier", counted), \
                mock.patch.object(mmd, "BinSpacePlans", Recorded), \
                mock.patch.object(mmd, "OPERATOR_FLOOR",
                                  OPERATOR_FLOOR if floor is None else floor):
            result = md.mmd_decompose(ex.signal, list(ex.priors), self.CFG)
        assert len(made) == 1
        return result, evaluated, made[0]

    @staticmethod
    def check_held(plans):
        # held carriers are never negated in place
        for (n, kind), held in plans.held.items():
            assert len(held) == len(plans)
            for plan, g in zip(plans, held):
                assert np.array_equal(g, carrier(plan.prior, n, kind))

    def test_once_per_run(self):
        result, evaluated, plans = self.run()
        assert result.report.iterations > 1
        assert evaluated == [(n, kind) for n in range(1, self.CFG.m0 + 1)
                             for kind in ("cos", "sin") for _ in range(2)]
        assert sorted(plans.held) == sorted(set(evaluated))
        assert not plans.loose
        self.check_held(plans)

    def test_split_budget(self):
        # room for three (|n|, kind) beside the operators: (1, cos),
        # (1, sin) and (2, cos) are held, the rest evaluated per iteration
        ops = operator_bytes(32, 2, 2 * self.CFG.m0 + 1)
        floor = ops + 3 * self.PER_BAND + self.PER_BAND // 2
        assert floor > 48 * 2 * 2 ** 12
        assert bin_space_fits(2 ** 12, 32, 2, 2 * self.CFG.m0 + 1)
        got, evaluated, plans = self.run(floor)
        held = [(1, "cos"), (1, "sin"), (2, "cos")]
        loose = [(2, "sin"), (3, "cos"), (3, "sin")]
        assert sorted(plans.held) == sorted(held)
        assert not plans.loose
        # the loose ones once more, for the modes formed after the loop
        per_iteration = [key for key in loose for _ in range(2)]
        assert evaluated == ([key for key in held for _ in range(2)]
                             + (got.report.iterations + 1) * per_iteration)
        self.check_held(plans)
        # and the outputs are those of the run that holds every carrier
        want, _, _ = self.run()
        assert got.report == want.report
        assert np.array_equal(got.residual.values, want.residual.values)
        for g, w in zip(got.estimates, want.estimates, strict=True):
            assert np.array_equal(g.mode.values, w.mode.values)
            for shapes in ("cos_shapes", "sin_shapes"):
                gs, ws = getattr(g, shapes), getattr(w, shapes)
                assert sorted(gs) == sorted(ws)
                for n in gs:
                    assert np.array_equal(gs[n].bins, ws[n].bins)

    def test_held_give_carrier(self):
        ex = md.gen_example_4_1(2 ** 12, 0.0, 3, "iid_uniform")
        plans = BinSpacePlans([plan_phase(p, 2 ** 12, 32) for p in ex.priors],
                              6 * self.PER_BAND)
        for n in (1, -1, 2, -2, -3, 3, -3):
            for kind in ("cos", "sin"):
                for plan, g in zip(plans, plans.carriers(n, kind)):
                    assert np.array_equal(g, carrier(plan.prior, abs(n),
                                                     kind))
        assert len(plans.held) == 6 and not plans.loose
        self.check_held(plans)

    @pytest.mark.parametrize("length, m0", [(2 ** 17, 2), (2 ** 14, 4),
                                            (2 ** 14, 10)])
    def test_benchmark_sizes_hold_all(self, length, m0):
        # mmd_long, mmd_wide and the CLI's default hold all 2 m0 of their
        # (|n|, kind), 8 K L bytes each
        passes = 2 * m0 + 1
        room = (mmd.memory_bound(length, 2)
                - operator_bytes(200, 2, passes))
        assert room // (8 * 2 * length) >= 2 * m0

    def test_path_rule_unchanged(self):
        # the carriers do not count in the path rule: its decisions are
        # those of the operators alone
        def operators_only(length, bins, components, passes):
            if passes == 1 and components > 1:
                return False
            per_pass = operator_bytes(bins, components, 1)
            return (per_pass <= 128 * components * length
                    and passes * per_pass <= max(48 * components * length,
                                                 32 * 2 ** 20))

        for log_length in range(6, 22):
            for length in (2 ** log_length - 1, 2 ** log_length,
                           3 * 2 ** (log_length - 1)):
                for bins in (2, 32, 200, 500, 1000):
                    for components in (1, 2, 3, 4):
                        for m0 in (0, 1, 2, 4, 10, 16, 17, 40):
                            args = (length, bins, components, 2 * m0 + 1)
                            assert (bin_space_fits(*args)
                                    == operators_only(*args)), args
        # counting them would send m0 = 10 runs from L = 2^16 to the samples
        assert bin_space_fits(2 ** 16, 200, 2, 21)
        assert (operator_bytes(200, 2, 21) + 2 * 10 * 8 * 2 * 2 ** 16
                > mmd.memory_bound(2 ** 16, 2))
