"""Properties shared by both decompositions."""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import modedecomp as md
from modedecomp.errors import OutOfDomain


def run_gmd(signal, priors, bins=64):
    return md.gmd_decompose(signal, priors, bins=bins)


def run_mmd(signal, priors, bins=64):
    return md.mmd_decompose(signal, priors, md.MmdConfig(m0=1, j1=8, bins=bins))


SOLVERS = {"gmd": run_gmd, "mmd": run_mmd}


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


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_bins_below_two_rejected(solver):
    ex = md.gen_example_4_1(256, 0.0, 7)
    with pytest.raises(OutOfDomain, match="bins must be at least 2"):
        SOLVERS[solver](ex.signal, list(ex.priors), bins=1)
