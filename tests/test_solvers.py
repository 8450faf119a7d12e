"""Properties shared by both decompositions."""

import functools
import importlib.util
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import modedecomp as md
from modedecomp import gmd, mmd
from modedecomp.errors import OutOfDomain
from modedecomp.fold_regress import BinPass
from modedecomp.signal_model import row_norms


def run_gmd(signal, priors, bins=64, scheme="gauss_seidel"):
    return md.gmd_decompose(signal, priors, bins=bins, scheme=scheme)


def run_mmd(signal, priors, bins=64, scheme="gauss_seidel", bin_space=None):
    """mmd on the path its run picks, or in bin space (``bin_space=True``)
    or in sample space (``False``)."""
    cfg = md.MmdConfig(m0=1, j1=8, bins=bins, scheme=scheme)
    if bin_space is None:
        return md.mmd_decompose(signal, priors, cfg)
    with mock.patch.object(mmd, "bin_space_fits", lambda *args: bin_space):
        return md.mmd_decompose(signal, priors, cfg)


SOLVERS = {"gmd": run_gmd, "mmd": run_mmd,
           "mmd_bin": functools.partial(run_mmd, bin_space=True),
           "mmd_sample": functools.partial(run_mmd, bin_space=False)}


def outputs(result):
    """Every array a result carries, in a fixed order."""
    if isinstance(result, md.GmdResult):
        arrays = [s.bins for s in result.shapes]
        arrays += [m.values for m in result.modes]
    else:
        arrays = []
        for est in result.estimates:
            for shapes, coeffs in ((est.cos_shapes, est.cos_coeffs),
                                   (est.sin_shapes, est.sin_coeffs)):
                for n in sorted(shapes):
                    arrays += [shapes[n].bins, np.array([coeffs[n]])]
            arrays.append(est.mode.values)
    return arrays + [result.residual.values]


def modes(result):
    if isinstance(result, md.GmdResult):
        return result.modes
    return [est.mode for est in result.estimates]


@functools.lru_cache(maxsize=None)
def unscaled(solver):
    ex = md.gen_example_4_1(2 ** 11, 0.0, 7)
    return ex, SOLVERS[solver](ex.signal, list(ex.priors))


class TestScaleFree:
    """A signal times any factor decomposes into the same run times that
    factor: accuracy parameters are relative, and norms neither overflow
    nor underflow."""

    @settings(max_examples=20, deadline=None)
    @given(solver=st.sampled_from(sorted(SOLVERS)),
           exponent=st.floats(min_value=-300.0, max_value=300.0))
    @example(solver="gmd", exponent=160.0)
    @example(solver="mmd", exponent=-160.0)
    def test_property(self, solver, exponent):
        factor = 10.0 ** exponent
        ex, base = unscaled(solver)
        signal = md.make_signal(ex.signal.times, ex.signal.values * factor)
        got = SOLVERS[solver](signal, list(ex.priors))
        assert got.report.iterations == base.report.iterations
        assert got.report.stop_reason == base.report.stop_reason
        assert np.allclose(got.report.residual_norms,
                           base.report.residual_norms, rtol=0.0, atol=1e-12)
        peak = float(np.max(np.abs(ex.signal.values)))
        for a, b in zip(outputs(got), outputs(base)):
            assert np.max(np.abs(a / factor - b)) <= 1e-12 * peak

    @pytest.mark.parametrize("exponent", [-300, -160, 160, 300])
    @pytest.mark.parametrize("solver", ["gmd", "mmd"])
    def test_bin_path(self, solver, exponent):
        # at L = 2^16 both solvers sweep on bin sums, and gmd's pass
        # rebases once its residual falls below 2^-20 of the signal's
        # energy: the norms it then takes from the samples and the bin
        # sums it keeps are scale-free too
        factor = 10.0 ** exponent
        ex, base, sweeps = bin_path_run(solver)
        signal = md.make_signal(ex.signal.times, ex.signal.values * factor)
        with counting_sweeps() as counts:
            got = BIN_PATH_SOLVERS[solver](signal, list(ex.priors))
        assert counts == sweeps
        assert got.report.iterations == base.report.iterations
        assert got.report.stop_reason == base.report.stop_reason
        assert np.allclose(got.report.residual_norms,
                           base.report.residual_norms, rtol=0.0, atol=1e-12)
        peak = float(np.max(np.abs(ex.signal.values)))
        for a, b in zip(outputs(got), outputs(base)):
            assert np.max(np.abs(a / factor - b)) <= 1e-12 * peak


BIN_PATH_SOLVERS = {
    "gmd": md.gmd_decompose,
    "mmd": lambda signal, priors: md.mmd_decompose(
        signal, priors, md.MmdConfig(m0=2, bins=200))}


@contextmanager
def counting_sweeps():
    """Count the sample-space sweeps, the bin-space sweeps and the
    bin-space passes' rebases run inside."""
    counts = {"sample": 0, "bin": 0, "rebase": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    with mock.patch.object(gmd, "sweep", counted("sample", gmd.sweep)), \
            mock.patch.object(BinPass, "sweep",
                              counted("bin", BinPass.sweep)), \
            mock.patch.object(BinPass, "_rebase",
                              counted("rebase", BinPass._rebase)):
        yield counts


@functools.lru_cache(maxsize=None)
def bin_path_run(solver):
    """An L = 2^16 input, its run with the default bins, and the sweeps
    and rebases the run made: on bin sums only, with one rebase for gmd."""
    ex = md.gen_example_4_1(2 ** 16, 0.0, 7)
    with counting_sweeps() as counts:
        base = BIN_PATH_SOLVERS[solver](ex.signal, list(ex.priors))
    assert counts["bin"] and not counts["sample"]
    assert counts["rebase"] == (solver == "gmd")
    return ex, base, counts


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_bins_below_two_rejected(solver):
    ex = md.gen_example_4_1(256, 0.0, 7)
    with pytest.raises(OutOfDomain, match="bins must be at least 2"):
        SOLVERS[solver](ex.signal, list(ex.priors), bins=1)


class TestRunParameters:
    """Every solver checks its run parameters alike: counts are integers,
    not ``bool``, at least their least value, and accuracies lie in
    ``(0, 1)``; anything else is :class:`OutOfDomain` before any work."""

    EX = md.gen_example_4_1(256, 0.0, 7)

    @pytest.mark.parametrize("params", [
        {"bins": 64.0}, {"bins": np.float64(64)}, {"max_iters": 2.5},
        {"max_iters": True}, {"eps": float("nan")}, {"eps": "0.1"}])
    def test_gmd(self, params):
        with pytest.raises(OutOfDomain):
            md.gmd_decompose(self.EX.signal, list(self.EX.priors), **params)

    @pytest.mark.parametrize("params", [
        {"bins": 64.5}, {"bins": 64.0}, {"m0": 1.5}, {"m0": True},
        {"j1": 2.5}, {"j2": 2.5}, {"j2": False}, {"eps2": float("nan")},
        {"eps1": None}])
    def test_mmd_config(self, params):
        cfg = md.MmdConfig(**params)
        with pytest.raises(OutOfDomain):
            cfg.validate()
        with pytest.raises(OutOfDomain):
            md.mmd_decompose(self.EX.signal, list(self.EX.priors), cfg)

    @pytest.mark.parametrize("params", [
        {"eps2": float("nan")}, {"eps2": 1.5}, {"eps2": 0.0},
        {"max_iters": 0}, {"max_iters": 2.5}, {"max_iters": True},
        {"bins": 64.0}])
    @pytest.mark.parametrize("bin_space", [False, True])
    def test_band_pass(self, params, bin_space):
        plans = [md.fold_regress.plan_phase(p, 256, 64)
                 for p in self.EX.priors]
        if bin_space:
            plans = mmd.BinSpacePlans(plans)
        kwargs = {"bins": 64, **params}
        with pytest.raises(OutOfDomain):
            md.modified_rdbr(self.EX.signal, plans, 1, "cos", **kwargs)

    @pytest.mark.parametrize("bins", [64.0, np.float64(64), 1, True],
                             ids=["float", "float64", "one", "bool"])
    def test_rdbr_sweep(self, bins):
        with pytest.raises(OutOfDomain):
            md.rdbr_sweep(self.EX.signal, list(self.EX.priors), bins)

    @pytest.mark.parametrize("params", [
        {"bins": np.int64(64), "max_iters": np.int32(3)},
        {"bins": 2, "max_iters": 1}])
    def test_integer_types_accepted(self, params):
        result = md.gmd_decompose(self.EX.signal, list(self.EX.priors),
                                  **params)
        assert result.report.iterations <= params["max_iters"]


class TestBackend:
    """Both decompositions keep a ``backend`` parameter, which
    ``bench/tracer.py`` hands its traced ``partition_regress``: the one
    estimator runs as the default does, and any other value is
    :class:`OutOfDomain`."""

    EX = md.gen_example_4_1(2 ** 12, 0.0, 7)
    RUNS = {
        "gmd": lambda ex, **kwargs: md.gmd_decompose(
            ex.signal, list(ex.priors), **kwargs),
        "mmd": lambda ex, **kwargs: md.mmd_decompose(
            ex.signal, list(ex.priors), md.MmdConfig(m0=1), **kwargs)}

    @pytest.mark.parametrize("run", ["gmd", "mmd"])
    def test_partition_regress_runs_as_default(self, run):
        got = self.RUNS[run](self.EX, backend=md.partition_regress)
        want = self.RUNS[run](self.EX)
        assert got.report == want.report
        assert all(np.array_equal(a, b) for a, b in zip(
            outputs(got), outputs(want), strict=True))

    @pytest.mark.parametrize("backend", [
        None, "partition_regress",
        lambda samples, bins: md.partition_regress(samples, bins)])
    @pytest.mark.parametrize("run", ["gmd", "mmd"])
    def test_foreign_backend_rejected(self, run, backend):
        with pytest.raises(OutOfDomain):
            self.RUNS[run](self.EX, backend=backend)


def load_tracer():
    """``bench/tracer.py``, loaded by path."""
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_runs_match_untraced():
    # the tracer hands its traced partition_regress in as the backend; the
    # runs take their default paths (gmd at 2^12 on the samples, mmd in
    # bin space) and regress without calling it
    ex = md.gen_example_4_1(2 ** 12, 0.0, 7)
    runs = {
        "gmd": lambda: md.gmd_decompose(ex.signal, list(ex.priors)),
        "mmd": lambda: md.mmd_decompose(ex.signal, list(ex.priors),
                                        md.MmdConfig(m0=1))}
    want = {name: run() for name, run in runs.items()}
    tracer = load_tracer().Tracer()
    with tracer.installed(), counting_sweeps() as counts:
        got = {name: run() for name, run in runs.items()}
    assert counts["sample"] and counts["bin"]
    for name in runs:
        assert got[name].report == want[name].report
        assert all(np.array_equal(a, b) for a, b in zip(
            outputs(got[name]), outputs(want[name]), strict=True))
    names = [span[2] for span in tracer.spans]
    # bands 0, 1 and -1, a cosine and a sine pass for each but band 0
    passes = 5 * want["mmd"].report.iterations
    assert names.count("mmd.modified_rdbr") == passes == tracer.passes[1]
    assert names.count("gmd.gmd_decompose") == 1
    assert "fold_regress.partition_regress" not in names


class TestModesAddUp:
    @settings(max_examples=20, deadline=None)
    @given(solver=st.sampled_from(sorted(SOLVERS)),
           scheme=st.sampled_from(["gauss_seidel", "jacobi"]),
           grid=st.sampled_from(["uniform", "iid_uniform"]),
           log_length=st.integers(min_value=9, max_value=12),
           noise_var=st.sampled_from([0.0, 0.5]),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_modes_plus_residual_is_signal(self, solver, scheme, grid,
                                           log_length, noise_var, seed):
        ex = md.gen_example_4_1(2 ** log_length, noise_var, seed, grid)
        result = SOLVERS[solver](ex.signal, list(ex.priors), scheme=scheme)
        total = sum(m.values for m in modes(result)) + result.residual.values
        gap = md.signal_norm(total - ex.signal.values)
        assert gap <= 1e-10 * ex.signal.l2norm


@contextmanager
def recording_loops():
    """Record every loop :func:`modedecomp.gmd.iterate_sweeps` runs
    inside, gmd's pass, each mmd band pass and mmd's outer loop: its
    ``eps``, its ``max_iters`` and what it returned."""
    loops = []
    iterate = gmd.iterate_sweeps

    def recorded(step, denom, eps, max_iters):
        out = iterate(step, denom, eps, max_iters)
        loops.append((eps, max_iters, *out))
        return out

    with mock.patch.object(gmd, "iterate_sweeps", recorded), \
            mock.patch.object(mmd, "iterate_sweeps", recorded):
        yield loops


def assert_one_rule(eps, max_iters, norms_r, norms_s, reason):
    """Every step before the last lowered the relative residual by more
    than ``eps``, from 1 before the first, and left it and the largest
    increment above ``eps``; the stop reason is the first test the last
    step meets."""
    falls = [a - b for a, b in zip([1.0, *norms_r], norms_r)]
    assert 1 <= len(norms_r) <= max_iters
    assert all(f > eps for f in falls[:-1])
    assert all(r > eps for r in norms_r[:-1])
    assert all(s > eps for s in norms_s[:-1])
    if norms_r[-1] <= eps:
        want = md.StopReason.RESIDUAL_SMALL
    elif norms_s[-1] <= eps:
        want = md.StopReason.INCREMENT_SMALL
    elif falls[-1] <= eps:
        want = md.StopReason.STALLED
    else:
        assert len(norms_r) == max_iters
        want = md.StopReason.MAX_ITER
    assert reason is want


class TestOneStoppingRule:
    """gmd's pass, every mmd band pass and mmd's outer loop stop by one
    rule, at the first step that fails to lower the relative residual by
    more than their accuracy parameter."""

    @settings(max_examples=25, deadline=None)
    @given(m0=st.sampled_from([None, 0, 1, 2]),
           components=st.sampled_from([1, 2]),
           scheme=st.sampled_from(["gauss_seidel", "jacobi"]),
           grid=st.sampled_from(["uniform", "iid_uniform"]),
           log_length=st.integers(min_value=9, max_value=11),
           noise_var=st.sampled_from([0.0, 0.25, 2.25]),
           eps=st.sampled_from([1e-6, 1e-4, 1e-2]),
           bins=st.sampled_from([16, 64]),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_property(self, m0, components, scheme, grid, log_length,
                      noise_var, eps, bins, seed):
        # m0 None is a gmd run
        ex = md.gen_example_4_1(2 ** log_length, noise_var, seed, grid)
        priors = list(ex.priors)[:components]
        with recording_loops() as loops:
            if m0 is None:
                result = md.gmd_decompose(ex.signal, priors, eps=eps,
                                          bins=bins, scheme=scheme)
            else:
                cfg = md.MmdConfig(m0=m0, eps1=eps, eps2=eps, j1=30,
                                   bins=bins, scheme=scheme)
                result = md.mmd_decompose(ex.signal, priors, cfg)
        passes = 1 if m0 is None else result.report.iterations * (4 * m0 + 1)
        assert len(loops) == passes + (m0 is not None)
        for loop in loops:
            assert_one_rule(*loop)
        report = result.report
        norms_r, norms_s, reason = loops[-1][2:]
        assert report.residual_norms == tuple(norms_r)
        assert report.shape_increment_norms == tuple(norms_s)
        assert report.stop_reason is reason
        assert report.iterations == len(norms_r)


def component_outputs(result, k):
    """Every array a result carries for its ``k``-th component."""
    if isinstance(result, md.GmdResult):
        return [result.shapes[k].bins, result.modes[k].values]
    est = result.estimates[k]
    arrays = [np.array([result.fundamentals[k]]), est.mode.values]
    for shapes, coeffs in ((est.cos_shapes, est.cos_coeffs),
                           (est.sin_shapes, est.sin_coeffs)):
        for n in sorted(shapes):
            arrays += [shapes[n].bins, np.array([coeffs[n]])]
    return arrays


class TestCallerOrder:
    """Results follow the caller's prior order, whatever that order is."""

    @settings(max_examples=15, deadline=None)
    @given(solver=st.sampled_from(["gmd", "mmd_sample", "mmd_bin"]),
           perm=st.permutations(range(3)),
           scheme=st.sampled_from(["gauss_seidel", "jacobi"]),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_permuted_priors(self, solver, perm, scheme, seed):
        ex = md.gen_example_4_1(2 ** 10, 0.5, seed, "iid_uniform")
        t = ex.signal.times
        third = md.make_prior(97.0 * (t + 0.002 * np.sin(2 * np.pi * t)))
        priors = [*ex.priors, third]
        base = SOLVERS[solver](ex.signal, priors, scheme=scheme)
        got = SOLVERS[solver](ex.signal, [priors[j] for j in perm],
                              scheme=scheme)
        for k, j in enumerate(perm):
            for a, b in zip(component_outputs(got, k),
                            component_outputs(base, j), strict=True):
                assert np.array_equal(a, b)
        assert np.array_equal(got.residual.values, base.residual.values)
        assert got.report == base.report


class TestCallerArraysUnchanged:
    """A run leaves the caller's writeable signal, phase and amplitude
    arrays as they were, on either path of either solver."""

    @settings(max_examples=12, deadline=None)
    @given(solver=st.sampled_from(["gmd", "mmd"]),
           bin_space=st.booleans(),
           scheme=st.sampled_from(["gauss_seidel", "jacobi"]),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_property(self, solver, bin_space, scheme, seed):
        ex = md.gen_example_4_1(2 ** 10, 0.5, seed, "iid_uniform")
        times = np.array(ex.signal.times)
        values = np.array(ex.signal.values)
        phases = [np.array(p.phase) for p in ex.priors]
        amplitudes = [1.0 + 0.2 * np.cos(2 * np.pi * (times + k))
                      for k in range(len(phases))]
        arrays = [times, values, *phases, *amplitudes]
        before = [a.copy() for a in arrays]
        # the raw constructors hold views of the caller's arrays
        signal = md.SampledSignal(times, values)
        priors = [md.PhasePrior(p, q) for p, q in zip(phases, amplitudes)]
        module = gmd if solver == "gmd" else mmd
        with mock.patch.object(module, "bin_space_fits",
                               lambda *args: bin_space):
            SOLVERS[solver](signal, priors, scheme=scheme)
        for a, b in zip(arrays, before, strict=True):
            assert a.flags.writeable
            assert np.array_equal(a, b)


class TestSignalNorm:
    """Norms of values whose squares leave the float range."""

    @pytest.mark.parametrize("value", [1e200, 1e-200, 1e-170, -1e300,
                                       2.0 ** -1070])
    def test_constant_is_exact(self, value):
        assert md.signal_norm([value, value]) == abs(value)

    def test_non_finite_propagates(self):
        assert md.signal_norm([1.0, np.inf]) == np.inf
        assert np.isnan(md.signal_norm([1.0, np.nan]))

    @settings(max_examples=200, deadline=None)
    @given(exponents=st.lists(st.integers(-330, 300), min_size=1,
                              max_size=5),
           cols=st.integers(2, 300), seed=st.integers(0, 2 ** 32 - 1),
           special=st.sampled_from([None, 0.0, np.inf, -np.inf, np.nan]))
    @example(exponents=[0, 0], cols=200, seed=0, special=None)
    def test_row_norms_match_per_row(self, exponents, cols, seed, special):
        rng = np.random.default_rng(seed)
        scale = np.array([10.0 ** e for e in exponents])[:, None]
        rows = rng.normal(size=(len(exponents), cols)) * scale
        if special is not None:
            rows[-1, rng.integers(cols)] = special
        want = [md.signal_norm(row) for row in rows]
        assert np.array_equal(row_norms(rows), want, equal_nan=True)

    def test_huge_mode_norm(self):
        ex, base = unscaled("gmd")
        signal = md.make_signal(ex.signal.times, ex.signal.values * 1e160)
        got = run_gmd(signal, list(ex.priors))
        for a, b in zip(modes(got), modes(base)):
            assert abs(a.l2norm / 1e160 - b.l2norm) <= 1e-12 * b.l2norm

    @pytest.mark.parametrize("factor", [1e160, 1e-160])
    def test_band_pass_on_huge_residual(self, factor):
        ex = md.gen_example_4_1(2 ** 11, 0.0, 7)
        priors = list(ex.priors)

        def sweeps(values):
            with counting_sweeps() as counts:
                md.modified_rdbr(md.make_signal(ex.signal.times, values),
                                 priors, 0, "cos", bins=64)
            assert not counts["bin"]
            return counts["sample"]

        assert sweeps(ex.signal.values * factor) == sweeps(ex.signal.values)


#: Prints a digest of every output array and norm of five runs whose dot
#: products exceed 10,000 entries, the size above which OpenBLAS splits a
#: dot product among its threads. The last two take bin space with
#: ``500 x 500`` operator blocks.
THREADED_RUNS = """
import hashlib
import numpy as np
import modedecomp as md

def arrays(result):
    report = result.report
    out = [result.residual.values, np.array(report.residual_norms),
           np.array(report.shape_increment_norms)]
    if isinstance(result, md.GmdResult):
        return out + [s.bins for s in result.shapes]
    return out + [est.mode.values for est in result.estimates]

ex = md.gen_example_4_1(2 ** 16, 0.0, 3, "iid_uniform")
runs = [md.gmd_decompose(ex.signal, list(ex.priors))]
for length, m0 in ((2 ** 14, 7), (2 ** 12, 10)):
    ex = md.gen_example_4_1(length, 0.0, 3, "iid_uniform")
    runs.append(md.mmd_decompose(ex.signal, list(ex.priors),
                                 md.MmdConfig(m0=m0)))
ex = md.gen_example_4_1(2 ** 19, 0.0, 3, "iid_uniform")
runs.append(md.gmd_decompose(ex.signal, list(ex.priors), bins=500))
ex = md.gen_example_4_1(2 ** 15, 0.0, 3, "iid_uniform")
runs.append(md.mmd_decompose(ex.signal, list(ex.priors),
                             md.MmdConfig(m0=2, bins=500)))
for result in runs:
    digest = hashlib.sha256()
    for a in arrays(result):
        digest.update(a.tobytes())
    print(result.report.iterations, digest.hexdigest())
"""


def test_outputs_do_not_depend_on_blas_threads():
    """The same bytes with one BLAS thread and with two (README,
    Determinism), whichever of OpenBLAS, MKL or an OpenMP BLAS numpy uses."""
    src = str(Path(md.__file__).resolve().parent.parent)
    procs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                  "OMP_NUM_THREADS"), threads))
        procs.append(subprocess.Popen(
            [sys.executable, "-c", THREADED_RUNS], env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE))
    (one, err1), (two, err2) = (proc.communicate(timeout=300)
                                for proc in procs)
    assert [proc.returncode for proc in procs] == [0, 0], err1 + err2
    assert len(one.splitlines()) == 5
    assert one == two
