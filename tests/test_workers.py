"""The per-run worker pool of the bin-space kernels: the same bytes on any
number of threads, and no sample-length arrays beyond its workspaces."""

import functools
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

import modedecomp as md
from modedecomp import fold_regress, gmd, mmd
from modedecomp.fold_regress import BinPass, Workers

from bitwise import same_bits


@functools.lru_cache(maxsize=None)
def problem(length, components):
    """Noisy ex4_1 against its two priors, or those and a spurious third."""
    ex = md.gen_example_4_1(length, 0.25, 5, "iid_uniform")
    t = ex.signal.times
    third = md.make_prior(97.0 * (t + 0.002 * np.sin(2 * np.pi * t)),
                          1.0 + 0.2 * np.cos(2 * np.pi * t))
    return ex.signal, [*ex.priors, third][:components]


@contextmanager
def pooled(threads):
    """Runs whose kernels map over ``threads`` threads at any length, or
    inline with ``threads=None`` (the floor out of reach). Yields the
    thread counts of the pools that ran tasks and the operators built."""
    seen = {"threads": set(), "ops": []}
    run, build = Workers.run, fold_regress.band_operators

    def counted(self, *args, **kwargs):
        seen["threads"].add(self.threads)
        return run(self, *args, **kwargs)

    def recorded(*args, **kwargs):
        seen["ops"].append(build(*args, **kwargs))
        return seen["ops"][-1]

    with mock.patch.object(fold_regress, "POOL_FLOOR",
                           2 ** 62 if threads is None else 0), \
            mock.patch.object(fold_regress, "usable_cpus",
                              lambda: threads or 1), \
            mock.patch.object(Workers, "run", counted), \
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


RUNS = {
    # K = 3 sweeps on bin sums at 2^16 with 100 bins, not with 200
    "gmd, K = 2": (2 ** 16, 2, lambda s, p, scheme: md.gmd_decompose(
        s, p, scheme=scheme)),
    "gmd, K = 3": (2 ** 16, 3, lambda s, p, scheme: md.gmd_decompose(
        s, p, bins=100, scheme=scheme)),
    "mmd, m0 = 2": (2 ** 15, 2, lambda s, p, scheme: md.mmd_decompose(
        s, p, md.MmdConfig(m0=2, scheme=scheme))),
}


class TestSameBytes:
    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("scheme", ["gauss_seidel", "jacobi"])
    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_pool_matches_inline(self, run, scheme, threads):
        length, components, decompose = RUNS[run]
        sig, priors = problem(length, components)
        with pooled(None) as inline:
            want = decompose(sig, list(priors), scheme)
        with pooled(threads) as pool:
            got = decompose(sig, list(priors), scheme)
        assert inline["threads"] == {1}
        # mmd forms its modes inline, after its outer loop
        assert max(pool["threads"]) == min(threads, components)
        assert got.report == want.report
        assert all(same_bits(a, b) for a, b in zip(
            outputs(got), outputs(want), strict=True))
        assert inline["ops"] and len(pool["ops"]) == len(inline["ops"])
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
        inline, pool = rises(sig, priors, None), rises(sig, priors, threads)
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
