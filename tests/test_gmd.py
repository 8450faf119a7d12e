import numpy as np
import pytest

import modedecomp as md
from modedecomp.errors import InvalidPartition


def single_mode_fixture(length=2 ** 13, fundamental=40):
    t = md.sample_grid(length)
    shape = md.ecg_like_shape(512, 1)
    sig = md.make_signal(t, md.eval_shape(shape, fundamental * t))
    prior = md.with_fundamental(md.make_prior(fundamental * t), t)
    return t, shape, sig, prior


class TestSweep:
    def test_single_component_one_sweep(self):
        t, shape, sig, prior = single_mode_fixture()
        incs, residual = md.rdbr_sweep(sig, [prior], bins=200)
        # the increment approximates the shape up to bin discretization
        fine = (np.arange(4096) + 0.5) / 4096
        rel = (md.signal_norm(md.eval_shape(incs[0], fine) - md.eval_shape(shape, fine))
               / shape.l2norm)
        assert rel <= 2e-2
        assert md.signal_norm(residual.values) / sig.l2norm <= 2e-2

    def test_zero_residual(self):
        t = md.sample_grid(256)
        sig = md.make_signal(t, np.zeros(256))
        prior = md.with_fundamental(md.make_prior(10.0 * t), t)
        incs, residual = md.rdbr_sweep(sig, [prior], bins=32)
        assert np.all(incs[0].bins == 0.0)
        assert np.array_equal(residual.values, sig.values)

    def test_identical_phases_order_dependence(self):
        # degenerate pair: the first component absorbs the shared structure
        t, shape, sig, prior = single_mode_fixture()
        incs, _ = md.rdbr_sweep(sig, [prior, prior], bins=100)
        assert incs[0].l2norm > 0.5
        assert incs[1].l2norm <= 1e-10 * max(1.0, incs[0].l2norm) + 5e-3


class TestDecompose:
    def test_single_gimf_converges(self):
        t, shape, sig, prior = single_mode_fixture()
        res = md.gmd_decompose(sig, [prior], eps=1e-4, max_iters=20, bins=200)
        assert res.report.stop_reason in (md.StopReason.RESIDUAL_SMALL,
                                          md.StopReason.STALLED,
                                          md.StopReason.INCREMENT_SMALL)
        assert res.report.residual_norms[-1] <= 1e-2

    def test_zero_signal(self):
        t = md.sample_grid(128)
        sig = md.make_signal(t, np.zeros(128))
        prior = md.with_fundamental(md.make_prior(5.0 * t), t)
        res = md.gmd_decompose(sig, [prior], eps=1e-6, max_iters=10, bins=16)
        assert res.report.stop_reason == md.StopReason.RESIDUAL_SMALL
        assert res.report.iterations == 1
        assert all(s.l2norm == 0.0 for s in res.shapes)
        assert all(np.all(m.values == 0.0) for m in res.modes)

    def test_bookkeeping_identity_every_iteration(self):
        ex = md.gen_example_4_1(2 ** 12, 0.0, 0)
        for iters in (1, 2, 3, 4):
            res = md.gmd_decompose(ex.signal, list(ex.priors), eps=1e-12,
                                   max_iters=iters, bins=100)
            total = (res.modes[0].values + res.modes[1].values
                     + res.residual.values)
            rel = md.signal_norm(total - ex.signal.values) / ex.signal.l2norm
            assert rel <= 1e-10

    def test_max_iter_stop(self):
        ex = md.gen_example_4_1(2 ** 12, 0.0, 0)
        res = md.gmd_decompose(ex.signal, list(ex.priors), eps=1e-9,
                               max_iters=2, bins=100)
        assert res.report.stop_reason == md.StopReason.MAX_ITER
        assert res.report.iterations == 2

    def test_missing_component_stalls(self):
        # an unmodeled component keeps the residual floor high, so the run
        # stalls quickly instead of converging
        ex = md.gen_example_4_1(2 ** 12, 0.0, 0)
        res = md.gmd_decompose(ex.signal, [ex.priors[0]], eps=1e-6,
                               max_iters=50, bins=100)
        assert res.report.stop_reason == md.StopReason.STALLED
        assert res.report.iterations < 20
        assert res.report.residual_norms[-1] > 0.5

    def test_missing_component_stops_at_first_rise(self):
        # against ex4_1's two components, one prior lowers the residual
        # once and raises it at the next sweep, which ends the run
        ex = md.gen_example_4_1(2 ** 16, 0.0, 1, "iid_uniform")
        res = md.gmd_decompose(ex.signal, [ex.priors[0]])
        norms = res.report.residual_norms
        assert res.report.stop_reason == md.StopReason.STALLED
        assert res.report.iterations == len(norms) == 2
        assert norms[0] < 1.0 and norms[1] > norms[0]

    def test_iid_grid_recovery(self):
        t = md.sample_grid(2 ** 13, "iid_uniform", 17)
        shape = md.ecg_like_shape(512, 2)
        sig = md.make_signal(t, md.eval_shape(shape, 35.0 * t))
        prior = md.with_fundamental(md.make_prior(35.0 * t), t)
        res = md.gmd_decompose(sig, [prior], eps=1e-6, max_iters=20, bins=100)
        fine = (np.arange(4096) + 0.5) / 4096
        rel = (md.signal_norm(md.eval_shape(res.shapes[0], fine)
                              - md.eval_shape(shape, fine)) / shape.l2norm)
        assert rel <= 5e-2

    def test_output_order_matches_input_order(self):
        # priors supplied high-fundamental first must come back the same way
        ex = md.gen_example_4_1(2 ** 12, 0.0, 0)
        swapped = [ex.priors[1], ex.priors[0]]
        res = md.gmd_decompose(ex.signal, swapped, eps=1e-6, max_iters=10,
                               bins=100)
        assert res.fundamentals == [220, 150]
        err = (md.signal_norm(res.modes[0].values - ex.components[1].values)
               / ex.components[1].l2norm)
        assert err <= 5e-2

    def test_accumulated_shapes_mean_zero(self):
        ex = md.gen_example_4_1(2 ** 12, 0.0, 0)
        res = md.gmd_decompose(ex.signal, list(ex.priors), eps=1e-6,
                               max_iters=8, bins=100)
        for s in res.shapes:
            assert abs(s.mean) <= 1e-10

    def test_determinism(self):
        ex = md.gen_example_4_1(2 ** 12, 0.0, 3)
        kw = dict(eps=1e-6, max_iters=6, bins=100)
        a = md.gmd_decompose(ex.signal, list(ex.priors), **kw)
        b = md.gmd_decompose(ex.signal, list(ex.priors), **kw)
        assert a.report.residual_norms == b.report.residual_norms
        assert all(np.array_equal(x.bins, y.bins)
                   for x, y in zip(a.shapes, b.shapes))

    def test_gauss_seidel_trace_decreasing_with_ratio_below_one(self):
        ex = md.gen_example_4_1(2 ** 13, 0.0, 0)
        res = md.gmd_decompose(ex.signal, list(ex.priors), eps=1e-6,
                               max_iters=50, bins=200)
        norms = res.report.residual_norms
        assert all(b <= a for a, b in zip(norms, norms[1:]))
        tail = [b / a for a, b in zip(norms, norms[1:]) if a > 1e-3]
        assert all(r < 1.0 for r in tail)

    def test_validation(self):
        t = md.sample_grid(64)
        sig = md.make_signal(t, np.ones(64))
        prior = md.with_fundamental(md.make_prior(4.0 * t), t)
        with pytest.raises(md.DecompositionError):
            md.gmd_decompose(sig, [], eps=1e-6)
        with pytest.raises(md.OutOfDomain):
            md.gmd_decompose(sig, [prior], eps=1.5)
        with pytest.raises(md.DecompositionError):
            md.gmd_decompose(sig, [prior], scheme="sor")


class TestGroupSums:
    def _result(self):
        ex = md.gen_example_4_1(2 ** 12, 0.0, 0)
        return md.gmd_decompose(ex.signal, list(ex.priors), eps=1e-6,
                                max_iters=6, bins=100)

    def test_singleton_groups_identity(self):
        res = self._result()
        sums = md.group_sum_shapes(res, [[0], [1]])
        for got, want in zip(sums, res.shapes):
            assert np.array_equal(got.bins, want.bins)

    def test_empty_group_is_zero(self):
        res = self._result()
        sums = md.group_sum_shapes(res, [[0, 1], []])
        assert sums[1].l2norm == 0.0

    def test_invalid_partitions(self):
        res = self._result()
        with pytest.raises(InvalidPartition):
            md.group_sum_shapes(res, [[0]])
        with pytest.raises(InvalidPartition):
            md.group_sum_shapes(res, [[0, 1, 1]])
        with pytest.raises(InvalidPartition):
            md.group_sum_shapes(res, [[0, 1, 2]])

    def test_harmonic_pair_group_sum(self):
        # one mode, priors at the fundamental and its double: the group sum
        # over both priors recovers the true shape
        length = 2 ** 13
        t = md.sample_grid(length)
        shape = md.ecg_like_shape(512, 2)
        phi = t + 0.004 * np.sin(2 * np.pi * t)
        sig = md.make_signal(t, md.eval_shape(shape, 50.0 * phi))
        p1 = md.make_prior(50.0 * phi)
        p2 = md.make_prior(100.0 * phi)
        res = md.gmd_decompose(sig, [p1, p2], eps=1e-4, max_iters=20, bins=100)
        total = md.group_sum_shapes(res, [[0, 1]])[0]
        fine = (np.arange(4096) + 0.5) / 4096
        rel = (md.signal_norm(md.eval_shape(total, fine) - md.eval_shape(shape, fine))
               / shape.l2norm)
        assert rel <= 5e-2
