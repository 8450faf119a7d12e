"""The per-run worker pool of the sample-length kernels: the same bytes on
any number of threads, and no sample-length arrays beyond its
workspaces."""

import functools
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import modedecomp as md
from modedecomp import fold_regress, gmd, mmd
from modedecomp.errors import (AmplitudeTooSmall, DecompositionError,
                               GridMismatch)
from modedecomp.fold_regress import BinPass, Workers, Workspace
from modedecomp.signal_model import carrier

from bitwise import same_bits


@functools.lru_cache(maxsize=None)
def problem(length, components, noise=0.25):
    """Noisy ex4_1 against its two priors, or those and a spurious third."""
    ex = md.gen_example_4_1(length, noise, 5, "iid_uniform")
    t = ex.signal.times
    third = md.make_prior(97.0 * (t + 0.002 * np.sin(2 * np.pi * t)),
                          1.0 + 0.2 * np.cos(2 * np.pi * t))
    return ex.signal, [*ex.priors, third][:components]


@contextmanager
def pooled(threads):
    """Runs whose kernels map over ``threads`` threads at any length, or
    inline with ``threads=None`` (the floor out of reach). Yields the
    thread counts of the pools that ran tasks, the operators built and
    the number of rebases."""
    seen = {"threads": set(), "ops": [], "rebases": 0}
    run, build = Workers.run, fold_regress.band_operators
    rebase = BinPass._rebase

    def counted(self, *args, **kwargs):
        seen["threads"].add(self.threads)
        return run(self, *args, **kwargs)

    def recorded(*args, **kwargs):
        seen["ops"].append(build(*args, **kwargs))
        return seen["ops"][-1]

    def rebased(self):
        seen["rebases"] += 1
        rebase(self)

    with mock.patch.object(fold_regress, "POOL_FLOOR",
                           2 ** 62 if threads is None else 0), \
            mock.patch.object(fold_regress, "usable_cpus",
                              lambda: threads or 1), \
            mock.patch.object(Workers, "run", counted), \
            mock.patch.object(BinPass, "_rebase", rebased), \
            mock.patch.object(gmd, "band_operators", recorded), \
            mock.patch.object(mmd, "band_operators", recorded):
        yield seen


def outputs(result):
    """Every array a result carries, in a fixed order."""
    if isinstance(result, md.GmdResult):
        arrays = [s.bins for s in result.shapes]
        arrays += [m.values for m in result.modes]
    else:
        arrays = []
        for est in result.estimates:
            for shapes in (est.cos_shapes, est.sin_shapes):
                arrays += [shapes[n].bins for n in sorted(shapes)]
            arrays.append(np.array([est.cos_coeffs[n]
                                    for n in sorted(est.cos_coeffs)]))
            arrays.append(est.mode.values)
    return arrays + [result.residual.values]


def same_operators(a, b):
    return (list(a.cross) == list(b.cross) and list(a.gram) == list(b.gram)
            and all(np.array_equal(a.cross[key], b.cross[key])
                    for key in a.cross)
            and all(np.array_equal(a.gram[key], b.gram[key])
                    for key in a.gram)
            and np.array_equal(a.self_t, b.self_t)
            and np.array_equal(a.self_g, b.self_g))


def gmd_run(bins=200):
    return lambda s, p, scheme: md.gmd_decompose(s, p, bins=bins,
                                                 scheme=scheme)


def mmd_run(s, p, scheme):
    return md.mmd_decompose(s, p, md.MmdConfig(m0=2, scheme=scheme))


#: name: (length, components, noise, decompose)
RUNS = {
    # K = 3 sweeps on bin sums at 2^16 with 100 bins, not with 200
    "gmd, K = 2": (2 ** 16, 2, 0.25, gmd_run()),
    "gmd, K = 3": (2 ** 16, 3, 0.25, gmd_run(100)),
    # with 200 bins it sweeps on the samples, and its exit forms its modes
    # one sample range a task
    "gmd, K = 3, samples": (2 ** 16, 3, 0.25, gmd_run()),
    # without noise the pass rebases: it forms a residual in the middle
    "gmd, K = 2, rebases": (2 ** 16, 2, 0.0, gmd_run()),
    "mmd, m0 = 2": (2 ** 15, 2, 0.25, mmd_run),
    # the sample ranges are uneven
    "mmd, m0 = 2, odd length": (2 ** 15 + 7, 2, 0.25, mmd_run),
}


class TestSameBytes:
    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("scheme", ["gauss_seidel", "jacobi"])
    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_pool_matches_inline(self, run, scheme, threads):
        length, components, noise, decompose = RUNS[run]
        sig, priors = problem(length, components, noise)
        with pooled(None) as inline:
            want = decompose(sig, list(priors), scheme)
        with pooled(threads) as pool:
            got = decompose(sig, list(priors), scheme)
        assert inline["threads"] == {1}
        assert max(pool["threads"]) == min(threads, components)
        assert pool["rebases"] == inline["rebases"]
        assert bool(inline["rebases"]) == run.endswith("rebases")
        assert got.report == want.report
        assert all(same_bits(a, b) for a, b in zip(
            outputs(got), outputs(want), strict=True))
        assert bool(inline["ops"]) != run.endswith("samples")
        assert len(pool["ops"]) == len(inline["ops"])
        assert all(same_operators(a, b)
                   for a, b in zip(pool["ops"], inline["ops"]))

    def test_machine_pool(self):
        # run_workers' own thread count, from the CPUs this process may use
        sig, priors = problem(fold_regress.POOL_FLOOR, 2)
        got = md.gmd_decompose(sig, list(priors))
        with pooled(None):
            want = md.gmd_decompose(sig, list(priors))
        assert got.report == want.report
        assert all(same_bits(a, b) for a, b in zip(
            outputs(got), outputs(want), strict=True))


def rises(sig, priors, threads):
    """How far the traced heap rose over a gmd run, and within each call
    of its three pooled kernels above its size on entry."""
    out = {"run": 0, "build": 0, "enter": 0, "finish": 0}

    def measured(name, fn):
        def wrapper(*args, **kwargs):
            size, peak = tracemalloc.get_traced_memory()
            out["run"] = max(out["run"], peak)
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                out["run"] = max(out["run"], peak)
                out[name] = max(out[name], peak - size)
        return wrapper

    with pooled(threads), \
            mock.patch.object(gmd, "band_operators",
                              measured("build", gmd.band_operators)), \
            mock.patch.object(BinPass, "_enter",
                              measured("enter", BinPass._enter)), \
            mock.patch.object(BinPass, "finish",
                              measured("finish", BinPass.finish)):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            md.gmd_decompose(sig, list(priors), bins=64)
            out["run"] = max(out["run"], tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    out["run"] -= start
    return out


class TestMemory:
    def test_pool_adds_only_its_workspaces(self):
        length, nb, threads = 2 ** 17, 64, 2
        sig, priors = problem(length, 2)
        inline = rises(sig, priors, None)
        # the least of three pooled runs per kernel: a run's heap peak may
        # hold a few kB more, by how its threads interleave
        runs = [rises(sig, priors, threads) for _ in range(3)]
        pool = {name: min(run[name] for run in runs) for name in inline}
        # an operator build's workspace: two float arrays, an int64 index
        # and a bool mask, one per thread; the other kernels use the float
        # arrays the build allocated
        wide = length * (2 * 8 + 8 + 1)
        # bin-sized arrays a second task may hold at once: a few B x B blocks
        blocks = 4 * 8 * nb * nb
        extra = threads - 1
        assert pool["run"] <= inline["run"] + extra * (wide + blocks)
        assert pool["build"] <= inline["build"] + extra * (wide + blocks)
        for kernel in ("enter", "finish"):
            assert pool[kernel] <= inline[kernel] + extra * blocks

    @pytest.mark.parametrize("threads", [1, 2])
    def test_operator_build_keeps_no_sample_arrays(self, threads):
        # a gmd pass forms its half slots in its workspaces, never through
        # the plans: no plan holds them after a bin-space gmd run, and an
        # operator build's traced heap rises by at most its workspaces and
        # a few B x B blocks a task, for gmd's factors and for an mmd pass
        # on plans that hold their half slots
        length, nb = 2 ** 17, 64
        sig, priors = problem(length, 2)
        built, build = [], fold_regress.band_operators

        def recorded(plans, *args, **kwargs):
            built.append(plans)
            return build(plans, *args, **kwargs)

        with pooled(threads), \
                mock.patch.object(gmd, "band_operators", recorded):
            md.gmd_decompose(sig, list(priors), bins=nb)
        [plans] = built
        assert all("half_slots" not in p.__dict__ for p in plans)

        def rise(pre, post, gain):
            with Workers(length, threads) as workers:
                tracemalloc.start()
                try:
                    start = tracemalloc.get_traced_memory()[0]
                    build(plans, pre, post, gain, workers)
                    return tracemalloc.get_traced_memory()[1] - start
                finally:
                    tracemalloc.stop()

        # two float arrays, an int64 index and a bool mask a thread; two
        # diagonal tasks, a Gram block and two cross blocks
        bound = threads * length * (2 * 8 + 8 + 1) + 5 * 4 * 8 * nb * nb
        pre, post = gmd.gmd_factors(plans, Workers(length))
        assert rise(pre, post, 1.0) <= bound
        assert all("half_slots" not in p.__dict__ for p in plans)
        g = [carrier(p.prior, 1, "cos") for p in plans]
        build(plans, g, g, 2.0)
        assert all("half_slots" in p.__dict__ for p in plans)
        assert rise(g, g, 2.0) <= bound

    def test_one_component_gmd_keeps_its_peak(self):
        # a K = 1 run takes no workspace for its preparation: its traced
        # peak is that of a preparation run as a plain loop, and no
        # Workspace exists before its operator build
        sig, priors = problem(fold_regress.POOL_FLOOR, 1)
        made = []

        def spaces(*args, **kwargs):
            made.append(args)
            return Workspace(*args, **kwargs)

        def peak():
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                md.gmd_decompose(sig, list(priors))
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        def plain_loop(self, fn, items):
            return [fn(item) for item in items]

        with mock.patch.object(fold_regress, "usable_cpus", lambda: 3):
            with mock.patch.object(Workers, "map", plain_loop):
                serial = peak()
            before_build = []
            build = gmd.band_operators

            def entered(*args, **kwargs):
                before_build.append(len(made))
                return build(*args, **kwargs)

            with mock.patch.object(fold_regress, "Workspace", spaces), \
                    mock.patch.object(gmd, "band_operators", entered):
                md.gmd_decompose(sig, list(priors))
            assert before_build == [0] and made
            pooled_peak = peak()
        # a few bin-sized arrays of slack, of the run's 200 bins
        assert pooled_peak <= serial + 4 * 8 * 200


@pytest.mark.parametrize("kind", ["uniform", "iid_uniform"])
def test_fundamental_peaks_below_one_array(kind):
    """Resolving a prior's fundamental on a run's pool holds block-sized
    temporaries only, up to nine on an uneven grid (half an array of
    ``2^20`` samples), and no whole derivative: its traced peak stays
    below one sample-length array."""
    length = 2 ** 20
    t = md.sample_grid(length, kind, 5)
    prior = md.make_prior(150.0 * (t + 0.006 * np.sin(2 * np.pi * t)))
    with Workers(length, 2) as workers:
        workers.map(abs, [1, 2])  # the helper thread started
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            [resolved] = workers.map(
                functools.partial(md.with_fundamental, grid=t), [prior])
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    assert resolved.fundamental == 150
    assert peak < 8 * length


class TestErrors:
    """The pool raises as the tasks would inline: the first failure in list
    order, after every running task has finished."""

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("method", ["run", "map"])
    def test_first_failure_in_list_order(self, method, threads):
        class First(Exception):
            pass

        class Second(Exception):
            pass

        second_failed = threading.Event()
        started, finished = set(), set()

        def task(i):
            started.add(i)
            try:
                if i == 1:
                    second_failed.set()
                    raise Second
                # task 0 fails after task 1 has, on a thread of its own;
                # the others outlast task 1's failure
                second_failed.wait(0.2)
                if i == 0:
                    raise First
                time.sleep(0.01)
                return i
            finally:
                finished.add(i)

        workers = Workers(16, threads)
        with workers, pytest.raises(First):
            if method == "map":
                workers.map(task, range(8))
            else:
                workers.run([functools.partial(lambda i, space: task(i), i)
                             for i in range(8)])
        assert finished == started
        # each thread took one task before task 1 failed, and none after
        assert 0 in started and started <= set(range(threads))

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("decompose", ["gmd", "mmd"])
    def test_stage_order_of_a_run(self, decompose, threads):
        # every fundamental, then every plan, then gmd's amplitudes: a
        # run raises the error of its earliest stage, not its first prior
        length = 512
        sig, (good, *_) = problem(length, 2)
        t = sig.times
        faint = md.make_prior(20.0 * t, np.full(length, 1e-9))
        off_grid = md.make_prior(40.0 * np.arange(length + 1) / length,
                                 fundamental=40)
        slow = md.make_prior(0.1 * t)
        run = {"gmd": lambda p: md.gmd_decompose(sig, p),
               "mmd": lambda p: md.mmd_decompose(sig, p, md.MmdConfig(m0=1))}
        cases = [([good, faint, off_grid], GridMismatch),
                 ([faint, off_grid, slow], DecompositionError),
                 ([], DecompositionError)]
        if decompose == "gmd":
            cases.append(([good, faint], AmplitudeTooSmall))
        for priors, error in cases:
            with pooled(None), pytest.raises(DecompositionError) as inline:
                run[decompose](priors)
            with pooled(threads), pytest.raises(DecompositionError) as pool:
                run[decompose](priors)
            assert type(inline.value) is type(pool.value) is error
            assert str(pool.value) == str(inline.value)


def test_package_import_leaves_executor_unloaded():
    """``import modedecomp`` in a fresh interpreter loads neither
    ``concurrent.futures`` nor the ``logging`` it imports: :class:`Workers`
    imports its executor on first use, as either adds milliseconds to every
    import of the package."""
    src = str(Path(md.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys, modedecomp; print(sorted(set(sys.modules) & "
             "{'concurrent.futures', 'logging'}))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
