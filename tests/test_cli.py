import inspect
import json
import math
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import modedecomp as md
from modedecomp import cli
from modedecomp.cli import (
    main,
    read_coefficients_csv,
    read_phases_csv,
    read_report,
    read_shape_csv,
    read_signal_csv,
    write_phases_csv,
    write_report,
    write_signal_csv,
)
from modedecomp.errors import (
    DecompositionError,
    IoError,
    LengthMismatch,
    NonMonotonePhase,
    ParseError,
)

from bitwise import same_bits


def run_synth(out, samples=2048, noise="0", seed="7", extra=()):
    return main(["synth", "--example", "ex4_1", "--samples", str(samples),
                 "--noise-var", noise, "--seed", seed, "--out", str(out),
                 *extra])


class TestCsvRoundTrip:
    def test_signal_roundtrip_lossless(self, tmp_path):
        ex = md.gen_example_4_1(512, 1.0, 3)
        path = tmp_path / "sig.csv"
        write_signal_csv(path, ex.signal)
        back = read_signal_csv(path)
        assert np.array_equal(back.times, ex.signal.times)
        assert np.array_equal(back.values, ex.signal.values)

    def test_phases_roundtrip(self, tmp_path):
        ex = md.gen_example_4_1(256, 0.0, 3)
        path = tmp_path / "phases.csv"
        write_phases_csv(path, ex.signal.times, list(ex.priors))
        times, priors = read_phases_csv(path)
        assert np.array_equal(times, ex.signal.times)
        for got, want in zip(priors, ex.priors):
            assert np.array_equal(got.phase, want.phase)
            assert np.array_equal(got.amplitude, want.amplitude)

    def test_phase_spanning_more_than_largest_double(self, tmp_path):
        path = tmp_path / "phases.csv"
        write_phases_csv(path, np.array([0.0, 1.0]),
                         [md.make_prior([-1e308, 1e308])])
        _, (prior,) = read_phases_csv(path)
        assert np.array_equal(prior.phase, [-1e308, 1e308])

    # finite doubles: subnormals, -0.0 and magnitudes up to 1.8e308
    @settings(max_examples=60, deadline=None)
    @given(times=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40),
           data=st.data())
    def test_signal_roundtrip_any_finite(self, tmp_path_factory, times, data):
        times = np.unique(np.abs(times))
        assume(times.size >= 2)
        values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=times.size, max_size=times.size))
        path = tmp_path_factory.mktemp("rt") / "sig.csv"
        write_signal_csv(path, md.make_signal(times, values))
        back = read_signal_csv(path)
        assert back.times.tobytes() == times.tobytes()
        assert back.values.tobytes() == np.array(values).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(times=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          min_size=2, max_size=30),
           data=st.data())
    def test_phases_roundtrip_any_finite(self, tmp_path_factory, times, data):
        n = len(times)
        finite = st.floats(allow_nan=False, allow_infinity=False)
        phases = [np.unique(data.draw(st.lists(finite, min_size=n,
                                               max_size=n)))
                  for _ in range(data.draw(st.integers(1, 2)))]
        assume(all(p.size == n for p in phases))
        positive = st.floats(min_value=5e-324, allow_infinity=False)
        priors = [md.make_prior(p, data.draw(st.lists(positive, min_size=n, max_size=n)))
                  for p in phases]
        path = tmp_path_factory.mktemp("rt") / "phases.csv"
        write_phases_csv(path, np.array(times), priors)
        back_times, back = read_phases_csv(path)
        assert back_times.tobytes() == np.array(times).tobytes()
        for got, want in zip(back, priors, strict=True):
            assert got.phase.tobytes() == want.phase.tobytes()
            assert got.amplitude.tobytes() == want.amplitude.tobytes()

    def test_minimal_signal_file(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("t,value\n0,1.5\n0.5,2\n")
        sig = read_signal_csv(path)
        assert len(sig) == 2

    def test_non_monotone_phase_column(self, tmp_path):
        path = tmp_path / "phases.csv"
        path.write_text("t,p1\n0,0.0\n0.5,1.0\n1.0,0.5\n")
        with pytest.raises(NonMonotonePhase):
            read_phases_csv(path)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,value\n0,1\nnope,2\n")
        with pytest.raises(ParseError) as err:
            read_signal_csv(path)
        assert ":3" in str(err.value)

    def test_parse_error_counts_blank_lines(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("t,value\n\n\n0,1\nnope,2\n")
        with pytest.raises(ParseError) as err:
            read_signal_csv(path)
        assert str(err.value).startswith(f"{path}:5: ")
        out = tmp_path / "diag"
        assert main(["diagnose", "--residual", str(path),
                     "--out", str(out)]) == 1
        assert f"{path}:5: " in capsys.readouterr().err


class TestSynthCommand:
    def test_writes_expected_files(self, tmp_path):
        out = tmp_path / "d"
        assert run_synth(out) == 0
        assert (out / "signal.csv").exists()
        assert (out / "phases.csv").exists()
        assert (out / "meta.json").exists()
        truth = out / "truth"
        assert (truth / "clean.csv").exists()
        assert (truth / "mode_1.csv").exists()
        assert (truth / "mode_2.csv").exists()
        assert (truth / "shape_c0_k1.csv").exists()
        meta = json.loads((out / "meta.json").read_text())
        assert meta["seed"] == 7
        assert "rng" in meta

    def test_spec_file_synth(self, tmp_path):
        spec = {"components": [
            {"fundamental": 24, "shape": {"variant": 1},
             "phase_wiggle": {"kind": "sin", "amp": 0.004},
             "amplitude": {"const": 1.0, "cos1": 0.1}},
            {"fundamental": 40, "shape": {"variant": 2}},
        ]}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "d"
        code = main(["synth", "--spec", str(spec_path), "--samples", "1024",
                     "--noise-var", "0", "--seed", "1", "--out", str(out)])
        assert code == 0
        sig = read_signal_csv(out / "signal.csv")
        assert len(sig) == 1024
        _, priors = read_phases_csv(out / "phases.csv")
        assert len(priors) == 2


class TestSynthSeeds:
    """A seed that is not a non-negative integer is exit 1, no directory."""

    @pytest.mark.parametrize("extra", [
        ["--grid", "iid", "--seed", "-1"],
        ["--noise-var", "0.5", "--seed", "-3"],
        ["--seed", "-1"],
    ])
    @pytest.mark.parametrize("source", ["example", "spec"])
    def test_negative_seed(self, tmp_path, capsys, extra, source):
        if source == "example":
            args = ["--example", "ex4_1"]
        else:
            spec = tmp_path / "spec.json"
            spec.write_text('{"components": [{"fundamental": 24}]}')
            args = ["--spec", str(spec)]
        out = tmp_path / "d"
        code = main(["synth", *args, "--samples", "512", *extra,
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: seed must be a non-negative integer")
        assert not out.exists()


class TestDecomposeCommands:
    def test_mmd_end_to_end(self, tmp_path):
        data = tmp_path / "data"
        run_synth(data, samples=4096)
        out = tmp_path / "fit"
        code = main(["mmd", "--signal", str(data / "signal.csv"),
                     "--phases", str(data / "phases.csv"),
                     "--m0", "2", "--j1", "5", "--j2", "5",
                     "--bins", "64", "--out", str(out)])
        assert code == 0
        for name in ("mode_1.csv", "mode_2.csv", "residual.csv",
                     "coefficients.csv", "report.json",
                     "shape_c0_k1.csv", "shape_c2_k2.csv", "shape_s-1_k1.csv"):
            assert (out / name).exists(), name
        # coefficient rows exist exactly for every band of every component
        rows = (out / "coefficients.csv").read_text().strip().splitlines()
        assert rows[0] == "k,n,a_n,b_n"
        assert len(rows) - 1 == 2 * 5  # two components, bands -2..2
        report = read_report(out / "report.json")
        assert report["stop_reason"] in ("ResidualSmall", "Stalled", "MaxIter")
        assert report["config"]["m0"] == 2
        assert "input_path" not in report["config"]
        assert report["gamma"] is not None

    def test_gmd_end_to_end(self, tmp_path):
        data = tmp_path / "data"
        run_synth(data, samples=4096)
        out = tmp_path / "fit"
        code = main(["gmd", "--signal", str(data / "signal.csv"),
                     "--phases", str(data / "phases.csv"),
                     "--max-iter", "5", "--bins", "64", "--out", str(out)])
        assert code == 0
        for name in ("mode_1.csv", "shape_1.csv", "shape_2.csv",
                     "residual.csv", "report.json"):
            assert (out / name).exists(), name
        # gmd has no extrapolated step
        report = read_report(out / "report.json")
        assert report["accelerated"] == [False] * report["iterations"]

    def test_zero_signal_run(self, tmp_path):
        t = md.sample_grid(256)
        zero = md.make_signal(t, np.zeros(256))
        prior = md.make_prior(20.0 * t)
        data = tmp_path / "data"
        data.mkdir()
        write_signal_csv(data / "signal.csv", zero)
        write_phases_csv(data / "phases.csv", t, [prior])
        out = tmp_path / "fit"
        code = main(["gmd", "--signal", str(data / "signal.csv"),
                     "--phases", str(data / "phases.csv"),
                     "--bins", "32", "--out", str(out)])
        assert code == 0
        report = read_report(out / "report.json")
        assert report["stop_reason"] == "ResidualSmall"
        residual = read_signal_csv(out / "residual.csv")
        assert np.all(residual.values == 0.0)

    def test_refusal_while_preparing_tables_leaves_no_directory(
            self, tmp_path, monkeypatch):
        data = tmp_path / "data"
        run_synth(data, samples=512)

        def refuse(est):
            raise md.OutOfDomain("shape bins must be finite")

        monkeypatch.setattr(cli, "normalize_estimate", refuse)
        out = tmp_path / "fit"
        code = main(["mmd", "--signal", str(data / "signal.csv"),
                     "--phases", str(data / "phases.csv"), "--m0", "1",
                     "--out", str(out)])
        assert code == 1
        assert not out.exists()

    def test_grid_mismatch_is_validation_error(self, tmp_path):
        data = tmp_path / "data"
        run_synth(data, samples=512)
        other = md.sample_grid(256)
        write_phases_csv(data / "phases2.csv", other,
                         [md.make_prior(10.0 * other)])
        code = main(["gmd", "--signal", str(data / "signal.csv"),
                     "--phases", str(data / "phases2.csv"),
                     "--out", str(tmp_path / "x")])
        assert code == 1


class TestDiagnoseCommand:
    def test_phase_statistics(self, tmp_path):
        data = tmp_path / "data"
        run_synth(data, samples=4096)
        out = tmp_path / "diag"
        code = main(["diagnose", "--phases", str(data / "phases.csv"),
                     "--h", "0.05", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "well_diff.json").read_text())
        assert payload["gamma"] >= 0
        assert "beta" in payload and "contraction_bound" in payload

    def test_residual_autocorrelation(self, tmp_path):
        data = tmp_path / "data"
        run_synth(data, samples=1024, noise="1.0")
        out = tmp_path / "diag"
        code = main(["diagnose", "--residual", str(data / "signal.csv"),
                     "--max-lag", "20", "--out", str(out)])
        assert code == 0
        lines = (out / "autocorrelation.csv").read_text().strip().splitlines()
        assert lines[0] == "lag,rho"
        assert len(lines) == 22

    def test_requires_exactly_one_input(self, tmp_path):
        assert main(["diagnose", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("inputs, code", [
        (["--residual", "{data}/signal.csv", "--phases", "{data}/phases.csv"],
         1),
        (["--residual", "{data}/bad.csv"], 1),
        (["--phases", "{data}/bad.csv"], 1),
        (["--residual", "{data}/missing.csv"], 2),
    ])
    def test_rejected_call_creates_no_directory(self, tmp_path, inputs, code):
        data = tmp_path / "data"
        run_synth(data, samples=512)
        (data / "bad.csv").write_text("t,value\n0,nope\n")
        out = tmp_path / "diag"
        argv = [arg.format(data=data) for arg in inputs]
        assert main(["diagnose", *argv, "--out", str(out)]) == code
        assert not out.exists()

    def test_step_finer_than_samples(self, tmp_path, capsys):
        # refused with a message, before any cell is counted or --out made
        data = tmp_path / "data"
        run_synth(data, samples=512)
        capsys.readouterr()
        out = tmp_path / "diag"
        assert main(["diagnose", "--phases", str(data / "phases.csv"),
                     "--h", "1e-300", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: 1/step = 1e+300 gives more pair cells than the 512 "
            "samples\n")
        assert not out.exists()


class TestReaderRefusals:
    """A malformed input file is refused by its reader with a message that
    names the file; read by a command, that is exit 1 before any output
    directory."""

    @pytest.mark.parametrize("flag, text, message", [
        ("--residual", "time,value\n0,1\n0.5,2\n",
         "expected header 't,value'"),
        ("--residual", "", "empty file"),
        ("--residual", "\n \n", "empty file"),
        ("--phases", "x,p1\n0,1\n0.5,2\n", "first column must be 't'"),
        ("--phases", "t,q1\n0,1\n0.5,2\n",
         "no phase columns (p1, p2, ...)"),
        ("--phases", "t,p1,p2,q1\n0,1,2,1\n0.5,2,3,1\n",
         "amplitude columns must match phase columns"),
        ("--phases", "t,p1\n0,1\n", "need at least 2 rows"),
    ])
    def test_diagnose_exits_one(self, tmp_path, capsys, flag, text, message):
        path = tmp_path / "in.csv"
        path.write_text(text)
        out = tmp_path / "diag"
        assert main(["diagnose", flag, str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not out.exists()

    def test_decompose_signal_header(self, tmp_path, capsys):
        data = tmp_path / "data"
        run_synth(data, samples=512)
        path = tmp_path / "signal.csv"
        path.write_text("t,v\n0,1\n0.5,2\n")
        out = tmp_path / "fit"
        assert main(["gmd", "--signal", str(path), "--phases",
                     str(data / "phases.csv"), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: expected header 't,value'\n")
        assert not out.exists()

    @pytest.mark.parametrize("read, header, message", [
        (read_shape_csv, "x,y", "expected header 'x,value'"),
        (read_shape_csv, "x,value,extra", "expected header 'x,value'"),
        (read_coefficients_csv, "k,n,a,b", "expected header 'k,n,a_n,b_n'"),
        (read_coefficients_csv, "k,n,a_n", "expected header 'k,n,a_n,b_n'"),
    ])
    def test_table_headers(self, tmp_path, read, header, message):
        path = tmp_path / "table.csv"
        width = header.count(",") + 1
        path.write_text(header + "\n" + ",".join(["0.25"] * width) + "\n")
        with pytest.raises(ParseError) as exc:
            read(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_report_invalid_json(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text('{"iterations": 3')
        with pytest.raises(ParseError) as exc:
            read_report(path)
        assert str(exc.value).startswith(f"{path}: ")


class TestShapeCsv:
    def test_roundtrip(self, tmp_path):
        from modedecomp.cli import read_shape_csv, write_shape_csv
        table = md.ecg_like_shape(128, 2)
        write_shape_csv(tmp_path / "s.csv", table)
        back = read_shape_csv(tmp_path / "s.csv")
        assert np.array_equal(back.bins, table.bins)

    def test_roundtrip_any_size(self, tmp_path):
        # every bin centre the writer prints lies in its own bin
        from modedecomp.cli import write_shape_csv
        rng = np.random.default_rng(3)
        for size in (2, 3, 7, 10, 49, 100, 199, 200, 1000, 4097, 65537):
            table = md.make_shape(rng.normal(size=size))
            write_shape_csv(tmp_path / "s.csv", table)
            back = read_shape_csv(tmp_path / "s.csv")
            assert np.array_equal(back.bins, table.bins), size

    @pytest.mark.parametrize("rows, bad_row", [
        ("0.75,2\n0.25,1\n", 1),
        ("0.1,1\n0.1,2\n0.1,3\n", 2),
        ("-0.25,1\n0.75,2\n", 1),
        ("0.25,1\n1.0,2\n", 2),
        ("0.25,1\nnan,2\n", 2),
        ("0.25,1\ninf,2\n", 2),
        ("0.25,1\n1e308,2\n", 2),
        ("0.125,1\n0.375,2\n0.625,3\n0.625,4\n", 4)],
        ids=["swapped", "one-x", "negative", "past-end", "nan", "inf",
             "huge", "repeated"])
    def test_misplaced_rows(self, tmp_path, rows, bad_row):
        # row j of a B-row table must lie in bin j: rows out of order or
        # off their bins are not read as a table in file order
        path = tmp_path / "shape.csv"
        path.write_text("x,value\n" + rows)
        with pytest.raises(ParseError, match=f"row {bad_row}:") as info:
            read_shape_csv(path)
        assert str(path) in str(info.value)

    def test_coefficients_readable(self, tmp_path):
        from modedecomp.cli import read_coefficients_csv
        data = tmp_path / "data"
        run_synth(data, samples=1024)
        out = tmp_path / "fit"
        main(["mmd", "--signal", str(data / "signal.csv"),
              "--phases", str(data / "phases.csv"),
              "--m0", "1", "--j1", "2", "--j2", "2", "--bins", "32",
              "--out", str(out)])
        coeffs = read_coefficients_csv(out / "coefficients.csv")
        assert set(coeffs) == {(k, n) for k in (1, 2) for n in (-1, 0, 1)}
        assert coeffs[(1, 0)][1] == 0.0  # no sine branch at band 0

    @pytest.mark.parametrize("rows, bad_row", [
        ("1,0,1.0,0.0\n1.7,1,0.5,0.5\n", 2),
        ("1,0,1.0,0.0\n1,-1,0.5,0.5\n1,0,2.0,0.0\n", 3),
        ("nan,0,1.0,0.0\n", 1),
        ("1,nan,1.0,0.0\n", 1),
        ("inf,0,1.0,0.0\n", 1),
        ("1,0,1.0,0.0\n1,-inf,1.0,0.0\n", 2)])
    def test_coefficients_bad_rows(self, tmp_path, rows, bad_row):
        # a fractional, repeated or non-finite k or n is not truncated,
        # overwritten or left to int()
        path = tmp_path / "coefficients.csv"
        path.write_text("k,n,a_n,b_n\n" + rows)
        with pytest.raises(ParseError, match=f"row {bad_row}:") as info:
            read_coefficients_csv(path)
        assert str(path) in str(info.value)


class TestIidGrid:
    def test_synth_iid_grid(self, tmp_path):
        out = tmp_path / "d"
        assert run_synth(out, samples=1024, extra=("--grid", "iid")) == 0
        sig = read_signal_csv(out / "signal.csv")
        assert np.all(np.diff(sig.times) > 0)
        assert not np.allclose(np.diff(sig.times), 1.0 / 1024)


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert main(["mmd", "--bogus"]) == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower()
        assert "modedecomp mmd: error:" in err

    def test_missing_file_is_io_error(self, tmp_path):
        code = main(["gmd", "--signal", str(tmp_path / "absent.csv"),
                     "--phases", str(tmp_path / "absent2.csv"),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_shape_beyond_float_range(self, tmp_path, capsys):
        """gmd's shape of ``(1 / q) r`` past the largest double is refused
        before ``--out`` is made, not written as ``inf``."""
        rows = [(i / 8, (-1) ** i * 1e306) for i in range(8)]
        (tmp_path / "signal.csv").write_text(
            "t,value\n" + "".join(f"{t!r},{v!r}\n" for t, v in rows))
        (tmp_path / "phases.csv").write_text(
            "t,p1,q1\n" + "".join(f"{t!r},{4 * t!r},0.001\n" for t, _ in rows))
        out = tmp_path / "fit"
        assert main(["gmd", "--signal", str(tmp_path / "signal.csv"),
                     "--phases", str(tmp_path / "phases.csv"), "--bins", "4",
                     "--out", str(out)]) == 1
        assert "shape bins must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_console_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "modedecomp", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "synth" in proc.stdout


class TestReportSchema:
    def test_report_round_trip_config(self, tmp_path):
        data = tmp_path / "data"
        run_synth(data, samples=2048)
        out = tmp_path / "fit"
        main(["mmd", "--signal", str(data / "signal.csv"),
              "--phases", str(data / "phases.csv"),
              "--m0", "1", "--j1", "3", "--j2", "3", "--bins", "32",
              "--out", str(out)])
        report = read_report(out / "report.json")
        for key in ("residual_norms", "shape_increment_norms", "stop_reason",
                    "iterations", "accelerated", "gamma", "beta",
                    "contraction_bound", "phase_stats_error", "config"):
            assert key in report
        assert len(report["accelerated"]) == report["iterations"]
        assert all(isinstance(a, bool) for a in report["accelerated"])
        assert report["phase_stats_error"] is None
        again = read_report(out / "report.json")
        assert again["config"] == report["config"]

    @settings(max_examples=60, deadline=None)
    @given(norms=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          min_size=1, max_size=6),
           flags=st.lists(st.booleans(), min_size=6, max_size=6),
           stats_error=st.none() | st.text(),
           reason=st.sampled_from(list(md.StopReason)),
           iterations=st.integers(min_value=1, max_value=10 ** 6),
           stats=st.none() | st.tuples(
               *[st.floats(allow_nan=False, allow_infinity=False)] * 3),
           config=st.one_of(
               st.none(),
               st.builds(lambda *a: asdict(md.MmdConfig(*a)),
                         st.integers(0, 50), st.floats(1e-300, 1.0),
                         st.floats(1e-300, 1.0), st.integers(1, 500),
                         st.integers(1, 50), st.integers(2, 10 ** 4),
                         st.sampled_from(["gauss_seidel", "jacobi"])),
               st.fixed_dictionaries({
                   "eps": st.floats(1e-300, 1.0),
                   "max_iters": st.integers(1, 500),
                   "bins": st.integers(2, 10 ** 4),
                   "scheme": st.sampled_from(["gauss_seidel", "jacobi"])})))
    def test_read_report_round_trip(self, tmp_path_factory, norms, flags,
                                    stats_error, reason, iterations, stats,
                                    config):
        accelerated = flags[:len(norms)]
        report = md.DecompositionReport(tuple(norms), tuple(norms[::-1]),
                                        reason, iterations,
                                        tuple(accelerated))
        if stats is not None:
            gamma, beta, bound = stats
            stats = md.WellDiffStats(0.05, np.zeros(2), {}, gamma, {}, beta,
                                     bound, True)
        path = write_report(tmp_path_factory.mktemp("report"), report, stats,
                            config, stats_error)
        got = read_report(path)
        want = {
            "residual_norms": norms, "shape_increment_norms": norms[::-1],
            "stop_reason": reason.value, "iterations": iterations,
            "accelerated": accelerated,
            "gamma": None if stats is None else stats.gamma,
            "beta": None if stats is None else stats.beta,
            "contraction_bound": None if stats is None
            else stats.contraction_bound,
            "phase_stats_error": stats_error,
            "config": config,
        }
        assert got == want
        # json.dumps tells -0.0 from 0.0, which == does not
        assert json.dumps(got, sort_keys=True) == json.dumps(want,
                                                             sort_keys=True)
        assert md.StopReason(got["stop_reason"]) is reason

    def test_pipeline_determinism(self, tmp_path):
        def run(idx):
            data = tmp_path / f"data{idx}"
            run_synth(data, samples=2048, noise="0.5")
            fit = tmp_path / f"fit{idx}"
            main(["mmd", "--signal", str(data / "signal.csv"),
                  "--phases", str(data / "phases.csv"),
                  "--m0", "1", "--j1", "3", "--j2", "3", "--bins", "32",
                  "--out", str(fit)])
            return ((data / "signal.csv").read_bytes(),
                    (fit / "report.json").read_bytes(),
                    (fit / "coefficients.csv").read_bytes())

        assert run(1) == run(2)


class TestPhaseColumnsByName:
    ROWS = "0,1,10,2,3\n0.5,2,20,4,5\n"

    def test_swapped_amplitude_columns(self, tmp_path):
        path = tmp_path / "phases.csv"
        path.write_text("t,p1,p2,q2,q1\n" + self.ROWS)
        _, priors = read_phases_csv(path)
        assert np.array_equal(priors[0].phase, [1.0, 2.0])
        assert np.array_equal(priors[0].amplitude, [3.0, 5.0])
        assert np.array_equal(priors[1].phase, [10.0, 20.0])
        assert np.array_equal(priors[1].amplitude, [2.0, 4.0])

    def test_phase_columns_in_any_order(self, tmp_path):
        path = tmp_path / "phases.csv"
        path.write_text("t,p2,p1\n0,10,1\n0.5,20,2\n")
        _, priors = read_phases_csv(path)
        assert np.array_equal(priors[0].phase, [1.0, 2.0])
        assert np.array_equal(priors[1].phase, [10.0, 20.0])

    @pytest.mark.parametrize("header", [
        "t,p1,p3,q1,q3",      # p2/q2 missing
        "t,p1,p1,q1,q2",      # duplicate phase column
        "t,p1,p2,q1,q1",      # duplicate amplitude column
        "t,p1,p2,q1,qx",      # unknown amplitude column
        "t,p1,p02,q1,q2",     # unknown phase column
        "t,p1,phase,q1,q2",   # unknown phase column
        "t,p1,p2,P3,Q3",      # names are case-sensitive
        "t,p1,q1,x,y",        # columns neither p nor q
        "t,p1,p2,t,x",        # a second t
    ])
    def test_bad_names_rejected(self, tmp_path, header):
        path = tmp_path / "phases.csv"
        path.write_text(header + "\n" + self.ROWS)
        with pytest.raises(ParseError):
            read_phases_csv(path)


class TestReportIsValidJson:
    def test_non_finite_norm_rejected(self, tmp_path):
        report = md.DecompositionReport((0.5, float("nan")), (0.1, 0.1),
                                        md.StopReason.MAX_ITER, 2,
                                        (False, False))
        with pytest.raises(DecompositionError):
            write_report(tmp_path, report)
        assert not (tmp_path / "report.json").exists()

    def test_huge_signal_gives_finite_report(self, tmp_path):
        # squaring a signal near 1e160 leaves the float range; the solver
        # runs it scaled by a power of two, so the report matches the
        # unscaled run's
        data = tmp_path / "data"
        run_synth(data, samples=512)
        sig = read_signal_csv(data / "signal.csv")
        write_signal_csv(data / "huge.csv",
                         md.make_signal(sig.times, sig.values * 1e160))
        reports = []
        for name in ("signal", "huge"):
            out = tmp_path / name
            assert main(["gmd", "--signal", str(data / f"{name}.csv"),
                         "--phases", str(data / "phases.csv"),
                         "--max-iter", "2", "--bins", "32",
                         "--out", str(out)]) == 0
            reports.append(read_report(out / "report.json"))
        plain, huge = reports
        assert huge["iterations"] == plain["iterations"]
        assert huge["stop_reason"] == plain["stop_reason"]
        assert np.allclose(huge["residual_norms"], plain["residual_norms"],
                           rtol=0.0, atol=1e-12)

    def test_report_parses_as_strict_json(self, tmp_path):
        data = tmp_path / "data"
        run_synth(data, samples=512)
        out = tmp_path / "fit"
        assert main(["gmd", "--signal", str(data / "signal.csv"),
                     "--phases", str(data / "phases.csv"),
                     "--max-iter", "2", "--bins", "32",
                     "--out", str(out)]) == 0

        def reject(token):
            raise ValueError(f"non-finite token {token}")
        text = (out / "report.json").read_text(encoding="utf-8")
        payload = json.loads(text, parse_constant=reject)
        assert "threads" not in payload


class TestPhaseStatsError:
    """``report.json`` says why its phase statistics are missing."""

    def test_reason_for_unusable_priors(self):
        # priors on another grid than the signal's: partition_counts raises
        t = md.sample_grid(256)
        other = md.sample_grid(128)
        stats, error = cli._phase_stats([md.make_prior(10.0 * other)], t)
        assert stats is None
        assert error == "prior and grid lengths differ"

    def test_reason_for_out_of_domain_statistics(self, monkeypatch):
        def refuse(counts, m_bound):
            raise md.OutOfDomain("m_bound must be positive and finite")
        monkeypatch.setattr(cli, "well_diff_stats", refuse)
        t = md.sample_grid(256)
        assert cli._phase_stats([md.make_prior(10.0 * t)], t) == (
            None, "m_bound must be positive and finite")

    @pytest.mark.parametrize("length", [399, 400])
    def test_reason_for_too_few_samples(self, length):
        # the default 0.05 gives 400 pair cells: two priors on fewer
        # samples leave one empty by counting
        t = md.sample_grid(length)
        priors = [md.make_prior(9.0 * t), md.make_prior(14.0 * t)]
        stats, error = cli._phase_stats(priors, t)
        if length < 400:
            assert stats is None and error == (
                f"1/step = 20 gives more pair cells than the {length} "
                "samples")
        else:
            assert stats is not None and error is None

    @pytest.mark.parametrize("command", ["gmd", "mmd"])
    def test_report_records_reason(self, tmp_path, monkeypatch, command):
        data = tmp_path / "data"
        run_synth(data, samples=1024)
        argv = [command, "--signal", str(data / "signal.csv"),
                "--phases", str(data / "phases.csv"), "--bins", "32"]
        argv += ["--max-iter", "2"] if command == "gmd" else ["--j1", "2"]
        assert main([*argv, "--out", str(tmp_path / "ok")]) == 0
        report = read_report(tmp_path / "ok" / "report.json")
        assert report["phase_stats_error"] is None
        assert report["gamma"] is not None

        counts = cli.partition_counts

        def mismatched(priors, grid, step):
            # the priors of a grid half as long as the signal's
            other = md.sample_grid(len(grid) // 2)
            return counts([md.make_prior(10.0 * other)], grid, step)
        monkeypatch.setattr(cli, "partition_counts", mismatched)
        assert main([*argv, "--out", str(tmp_path / "bad")]) == 0
        report = read_report(tmp_path / "bad" / "report.json")
        assert report["phase_stats_error"] == "prior and grid lengths differ"
        assert report["gamma"] is None and report["beta"] is None
        assert report["contraction_bound"] is None


class TestReportRecordsSolverParameters:
    """``config`` in report.json is exactly what the solver was called with."""

    def fit(self, tmp_path, argv):
        data = tmp_path / "data"
        run_synth(data, samples=1024, extra=("--grid", "iid"))
        out = tmp_path / "fit"
        assert main([*argv, "--signal", str(data / "signal.csv"),
                     "--phases", str(data / "phases.csv"),
                     "--out", str(out)]) == 0
        report = read_report(out / "report.json")
        assert not {"grid", "seed", "rng"} & (set(report) | set(report["config"]))
        return report["config"]

    def test_gmd(self, tmp_path):
        config = self.fit(tmp_path, ["gmd", "--eps", "1e-5", "--max-iter", "7",
                                     "--bins", "48", "--scheme", "jacobi"])
        assert config == {"bins": 48, "eps": 1e-5, "max_iters": 7,
                          "scheme": "jacobi"}

    def test_mmd(self, tmp_path):
        config = self.fit(tmp_path, ["mmd", "--m0", "1", "--j1", "3",
                                     "--eps2", "1e-4", "--bins", "32"])
        assert config == asdict(md.MmdConfig(m0=1, j1=3, eps2=1e-4, bins=32))


class TestParserDefaults:
    """Each command's defaults are the library's, written once."""

    PARSER = cli._build_parser()

    def parse(self, *argv):
        return self.PARSER.parse_args([*argv, "--out", "o"])

    def test_gmd(self):
        args = self.parse("gmd", "--signal", "s", "--phases", "p")
        params = inspect.signature(md.gmd_decompose).parameters
        assert {name: getattr(args, name)
                for name in ("eps", "max_iters", "bins", "scheme")} == {
            name: params[name].default
            for name in ("eps", "max_iters", "bins", "scheme")}

    def test_mmd(self):
        args = self.parse("mmd", "--signal", "s", "--phases", "p")
        assert {name: getattr(args, name)
                for name in asdict(md.MmdConfig())} == asdict(md.MmdConfig())

    @pytest.mark.parametrize("command", ["gmd", "mmd"])
    def test_scheme_choices(self, command, capsys):
        for scheme in md.gmd.SCHEMES:
            args = self.parse(command, "--signal", "s", "--phases", "p",
                              "--scheme", scheme)
            assert args.scheme == scheme
        with pytest.raises(SystemExit):
            self.parse(command, "--signal", "s", "--phases", "p",
                       "--scheme", "sor")

    def test_phase_stats_are_diagnose_defaults(self):
        # gmd and mmd report the statistics diagnose --phases gives by
        # default
        args = self.parse("diagnose", "--phases", "p")
        ex = md.gen_example_4_1(2 ** 12, 0.0, 3, "iid_uniform")
        stats, error = cli._phase_stats(list(ex.priors), ex.signal.times)
        want = md.well_diff_stats(md.partition_counts(
            list(ex.priors), ex.signal.times, args.h), args.m_bound)
        assert error is None
        assert stats.step == args.h
        assert (stats.gamma, stats.beta, stats.contraction_bound) == (
            want.gamma, want.beta, want.contraction_bound)


class TestMmdFilesRebuildModes:
    def test_coefficients_times_shapes_give_modes(self, tmp_path):
        data = tmp_path / "data"
        run_synth(data, samples=4096)
        out = tmp_path / "fit"
        assert main(["mmd", "--signal", str(data / "signal.csv"),
                     "--phases", str(data / "phases.csv"),
                     "--m0", "2", "--j1", "5", "--bins", "64",
                     "--out", str(out)]) == 0
        self.assert_rebuilds(data / "phases.csv", out)

    def test_tables_of_subnormal_norm(self, tmp_path):
        """A signal scaled by 1e-307 leaves band tables whose norm has no
        finite inverse; they are written as unit shapes all the same."""
        data = tmp_path / "data"
        run_synth(data, seed="3")
        signal = read_signal_csv(data / "signal.csv")
        write_signal_csv(data / "tiny.csv",
                         md.make_signal(signal.times, signal.values * 1e-307))
        out = tmp_path / "fit"
        assert main(["mmd", "--signal", str(data / "tiny.csv"),
                     "--phases", str(data / "phases.csv"),
                     "--m0", "2", "--out", str(out)]) == 0
        coeffs = read_coefficients_csv(out / "coefficients.csv")
        assert any(0.0 < c < 2.0 ** -1024 for pair in coeffs.values() for c in pair)
        self.assert_rebuilds(data / "phases.csv", out)

    @staticmethod
    def assert_rebuilds(phases, out):
        """The coefficients times the unit shapes of an ``mmd --m0 2`` run
        give its modes."""
        times, priors = read_phases_csv(phases)
        coeffs = read_coefficients_csv(out / "coefficients.csv")
        for k, prior in enumerate(priors, 1):
            cos_s, sin_s, cos_c, sin_c = {}, {}, {}, {}
            for n in range(-2, 3):
                cos_s[n] = read_shape_csv(out / f"shape_c{n}_k{k}.csv")
                cos_c[n] = coeffs[(k, n)][0]
                if n != 0:
                    sin_s[n] = read_shape_csv(out / f"shape_s{n}_k{k}.csv")
                    sin_c[n] = coeffs[(k, n)][1]
            for table in (*cos_s.values(), *sin_s.values()):
                assert table.l2norm == 0.0 or abs(table.l2norm - 1.0) <= 1e-12
            est = md.make_estimate(2, cos_s, sin_s, cos_c, sin_c,
                                   normalized=True)
            rebuilt = md.reconstruct_mimf(
                est, md.with_fundamental(prior, times), times)
            mode = read_signal_csv(out / f"mode_{k}.csv")
            gap = md.signal_norm(rebuilt.values - mode.values)
            assert gap <= 1e-12 * mode.l2norm


class TestNonFiniteParameters:
    """A NaN or infinite parameter is a validation error: exit 1, no file."""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_synth_noise_var(self, tmp_path, value):
        out = tmp_path / "d"
        assert run_synth(out, samples=512, noise=value) == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--h", "--m-bound"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_diagnose_phase_statistics(self, tmp_path, flag, value):
        data = tmp_path / "data"
        run_synth(data, samples=512)
        out = tmp_path / "diag"
        assert main(["diagnose", "--phases", str(data / "phases.csv"),
                     flag, value, "--out", str(out)]) == 1
        assert not [p for p in out.rglob("*") if p.is_file()]


class TestSpecFileErrors:
    """A malformed ``synth --spec`` file is exit 1 naming the field, no output."""

    @pytest.mark.parametrize("spec, field", [
        ({"components": [{"fundamental": "abc"}]}, "components[0].fundamental"),
        ({"components": [{"fundamental": 24, "shape": {"variant": "x"}}]},
         "components[0].shape.variant"),
        ([{"fundamental": 24}], "must be a JSON object"),
        ({"components": [3]}, "components[0]"),
        ({"components": [{"fundamental": 24, "phase_wiggle": [1]}]},
         "components[0].phase_wiggle"),
        ({"components": [{"fundamental": 24},
                         {"fundamental": 30, "amplitude": {"cos1": [0.1]}}]},
         "components[1].amplitude.cos1"),
        ({"components": [{"fundamental": 24, "phase_wiggle":
                          {"kind": "sin", "amp": float("inf")}}]},
         "components[0].phase_wiggle.amp"),
        ({"components": [{"fundamental": 24, "scale": float("nan")}]},
         "components[0].scale"),
        ({"components": [{"fundamental": 24, "shape":
                          {"values": [0.0, 1.0, float("-inf")]}}]},
         "components[0].shape.values"),
        # JSON values of the wrong type are not converted
        ({"components": [{"fundamental": "24"}]}, "components[0].fundamental"),
        ({"components": [{"fundamental": True}]}, "components[0].fundamental"),
        ({"components": [{"fundamental": 24.7}]}, "components[0].fundamental"),
        ({"components": [{"fundamental": 24.0}]}, "components[0].fundamental"),
        ({"components": [{"fundamental": 0}]}, "components[0].fundamental"),
        ({"components": [{"fundamental": -3}]}, "components[0].fundamental"),
        ({"components": [{"fundamental": 24, "scale": "2.5"}]},
         "components[0].scale"),
        ({"components": [{"fundamental": 24, "phase_wiggle":
                          {"kind": "sin", "amp": "0.1"}}]},
         "components[0].phase_wiggle.amp"),
        ({"components": [{"fundamental": 24, "shape": {"values": "123"}}]},
         "components[0].shape.values"),
        ({"components": [{"fundamental": 24, "shape":
                          {"values": [[1, 2], [3, 4]]}}]},
         "components[0].shape.values"),
        ({"components": [{"fundamental": 24, "shape":
                          {"variant": True}}]},
         "components[0].shape.variant"),
        # values of the right type outside their domain name the field too
        ({"components": [{"fundamental": 24, "shape": {"variant": 3}}]},
         "components[0].shape.variant"),
        ({"components": [{"fundamental": 24, "shape": {"values": [1.0]}}]},
         "components[0].shape.values"),
        ({"components": [{"fundamental": 24, "shape":
                          {"variant": 1, "bins": 10}}]},
         "components[0].shape.bins"),
        ({"components": [{"fundamental": 24, "phase_wiggle":
                          {"kind": "sin", "amp": 1.0}}]},
         "components[0].phase_wiggle"),
        ({"components": [{"fundamental": 24},
                         {"fundamental": 30, "amplitude": {"const": 0.0}}]},
         "components[1].amplitude"),
        ({"components": [{"fundamental": 24, "amplitude": {"const": -1.0}}]},
         "components[0].amplitude"),
        # a scale whose product overflows, without a numpy warning
        ({"components": [{"fundamental": 24, "scale": 10,
                          "shape": {"values": [1e308, -1e308]}}]},
         "components[0].scale"),
        # positions whose doubles are coarser than one bin of the shape,
        # up to integers beyond the doubles
        ({"components": [{"fundamental": 24},
                         {"fundamental": 10 ** 30}]},
         "components[1].fundamental"),
        ({"components": [{"fundamental": 10 ** 300}]},
         "components[0].fundamental"),
        ({"components": [{"fundamental": 10 ** 400}]},
         "components[0].fundamental"),
        # the file's structure
        ({"components": []}, "'components' must be a non-empty list"),
        ({"components": {"fundamental": 24}},
         "'components' must be a non-empty list"),
        ({"components": [{"shape": {"variant": 1}}]},
         "components[0]: missing 'fundamental'"),
        ({"components": [{"fundamental": 24, "shape": {"bins": 256}}]},
         "components[0].shape: needs 'variant' or 'values'"),
        ({"components": [{"fundamental": 24, "phase_wiggle":
                          {"kind": "tan", "amp": 0.004}}]},
         "components[0].phase_wiggle.kind"),
        # a present field that is not an object is not read as absent
        *(({"components": [{"fundamental": 24, key: value}]},
           f"components[0].{key}: must be a JSON object")
          for key in ("phase_wiggle", "amplitude")
          for value in ([], 0, False, "", None)),
        # an amplitude, mode or sum that overflows, without a numpy warning
        ({"components": [{"fundamental": 24, "amplitude":
                          {"const": 1e308, "cos1": 1e308}}]},
         "components[0].amplitude"),
        ({"components": [{"fundamental": 24, "amplitude": {"const": 10},
                          "shape": {"values": [1e308, -1e308]}}]},
         "components[0].amplitude: amplitude times shape overflows"),
        ({"components": [{"fundamental": 24,
                          "shape": {"values": [1e308, -1e308]}}] * 2},
         "the components' sum overflows"),
    ])
    def test_exit_one_naming_field(self, tmp_path, capsys, spec, field):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "d"
        code = main(["synth", "--spec", str(path), "--samples", "512",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {path}: ") and field in err
        assert not out.exists()

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text('{"components": [{"fundamental": 24,}]}')
        out = tmp_path / "d"
        code = main(["synth", "--spec", str(path), "--samples", "512",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
        assert not out.exists()

    def test_cos_phase_wiggle(self, tmp_path):
        # a "cos" wiggle is the phase t + amp cos(2 pi t), in cycles of the
        # fundamental
        path = tmp_path / "spec.json"
        out = {}
        for kind in ("cos", "sin"):
            path.write_text(json.dumps({"components": [
                {"fundamental": 24,
                 "phase_wiggle": {"kind": kind, "amp": 0.004}}]}))
            out[kind] = tmp_path / kind
            assert main(["synth", "--spec", str(path), "--samples", "512",
                         "--out", str(out[kind])]) == 0
        times, priors = read_phases_csv(out["cos"] / "phases.csv")
        want = 24 * (times + 0.004 * np.cos(2.0 * np.pi * times))
        assert np.array_equal(priors[0].phase, want)
        _, sin_priors = read_phases_csv(out["sin"] / "phases.csv")
        assert not np.array_equal(sin_priors[0].phase, want)

    def test_large_fundamental_accepted(self, tmp_path):
        # 10^6 cycles leave positions resolved far below one of 1,024 bins
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"components": [{"fundamental": 10 ** 6}]}))
        out = tmp_path / "d"
        assert main(["synth", "--spec", str(path), "--samples", "512",
                     "--out", str(out)]) == 0
        _, priors = read_phases_csv(out / "phases.csv")
        assert priors[0].phase[-1] > 0.99 * 10 ** 6

    def test_overflowing_scale_warns_not(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"components": [
            {"fundamental": 24, "scale": 10,
             "shape": {"values": [1e308, -1e308]}}]}))
        out = tmp_path / "d"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["synth", "--spec", str(path), "--samples", "512",
                         "--out", str(out)])
        assert code == 1 and not caught
        assert capsys.readouterr().err == (
            f"error: {path}: components[0].scale: shape bins must be finite\n")
        assert not out.exists()


# Example 4.1's two components as a spec file
EX41_SPEC = {"components": [
    {"fundamental": 150, "shape": {"variant": 1, "bins": 1024}, "scale": 0.32,
     "phase_wiggle": {"kind": "sin", "amp": 0.006},
     "amplitude": {"const": 1.0, "cos1": 0.2, "sin1": 0.1}},
    {"fundamental": 220, "shape": {"variant": 2, "bins": 1024}, "scale": 0.32,
     "phase_wiggle": {"kind": "cos", "amp": 0.006},
     "amplitude": {"const": 1.0, "cos1": 0.1, "sin1": 0.2}},
]}


@st.composite
def spec_components(draw):
    """A spec file entry whose phase increases and amplitude is positive."""
    shape = draw(st.one_of(
        st.builds(lambda v, b: {"variant": v, "bins": b},
                  st.sampled_from([1, 2]), st.integers(64, 2048)),
        st.builds(lambda v: {"values": v},
                  st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=40))))
    entry = {"fundamental": draw(st.integers(1, 500)), "shape": shape,
             "scale": draw(st.floats(0.01, 10.0)),
             "amplitude": {"const": draw(st.floats(1.0, 3.0)),
                           "cos1": draw(st.floats(-0.45, 0.45)),
                           "sin1": draw(st.floats(-0.45, 0.45))}}
    kind = draw(st.sampled_from(["none", "sin", "cos"]))
    if kind != "none":
        entry["phase_wiggle"] = {"kind": kind, "amp": draw(st.floats(-0.1, 0.1))}
    return entry


def reference_component(entry, t):
    """``entry``'s mode ``a(t) s(N phase(t))`` and prior, with the phase and
    amplitude written out here."""
    wiggle = entry.get("phase_wiggle", {"kind": "none"})
    trig = {"sin": np.sin, "cos": np.cos}.get(wiggle["kind"])
    phase = ((lambda tt: tt) if trig is None
             else (lambda tt: tt + wiggle["amp"] * trig(2.0 * np.pi * tt)))
    a = entry["amplitude"]

    def amplitude(tt):
        u = phase(tt)
        return (a["const"] + a["cos1"] * np.cos(2.0 * np.pi * u)
                + a["sin1"] * np.sin(2.0 * np.pi * u))

    shape = entry["shape"]
    unit = (md.ecg_like_shape(shape["bins"], shape["variant"])
            if "variant" in shape else md.make_shape(shape["values"]))
    mode = amplitude(t) * md.eval_shape(md.scale_shape(unit, entry["scale"]),
                                        entry["fundamental"] * phase(t))
    return (md.make_signal(t, mode), entry["fundamental"] * phase(t),
            amplitude(t))


class TestSpecComponents:
    """A spec file's components are generated as Example 4.1's are."""

    @pytest.mark.parametrize("noise", ["0", "0.25"])
    @pytest.mark.parametrize("grid", ["uniform", "iid"])
    def test_example_spec_writes_example_bytes(self, tmp_path, grid, noise):
        path = tmp_path / "ex41.json"
        path.write_text(json.dumps(EX41_SPEC))
        common = ["--samples", "3000", "--grid", grid, "--noise-var", noise,
                  "--seed", "4"]
        spec, example = tmp_path / "spec", tmp_path / "example"
        assert main(["synth", "--spec", str(path), *common,
                     "--out", str(spec)]) == 0
        assert main(["synth", "--example", "ex4_1", *common,
                     "--out", str(example)]) == 0
        for name in ("signal.csv", "phases.csv", "truth/clean.csv",
                     "truth/mode_1.csv", "truth/mode_2.csv"):
            assert (spec / name).read_bytes() == (example / name).read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(entries=st.lists(spec_components(), min_size=1, max_size=2),
           length=st.integers(2, 1500),
           grid=st.sampled_from(["uniform", "iid_uniform"]),
           seed=st.integers(0, 2 ** 32))
    def test_modes_match_reference(self, entries, length, grid, seed):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spec.json"
            path.write_text(json.dumps({"components": entries}))
            clean, modes, priors = cli._synth_from_spec(path, length, grid,
                                                        seed)
        t = md.sample_grid(length, grid, seed)
        wants = []
        for entry, mode, prior in zip(entries, modes, priors, strict=True):
            want, phase, amplitude = reference_component(entry, t)
            assert same_bits(mode.times, t)
            assert same_bits(mode.values, want.values)
            assert same_bits(prior.phase, phase)
            assert same_bits(prior.amplitude, amplitude)
            wants.append(want.values)
        assert same_bits(clean.values, sum(wants[1:], wants[0]))


# ---------------------------------------------------------------------------
# CSV primitives against per-value references

SPECIAL_FLOATS = st.sampled_from([
    0.0, -0.0, float("inf"), float("-inf"), float("nan"), 5e-324,
    2.2250738585072014e-308 / 3, 1e300, -1e-300, 1 / 3])
FLOATS = st.one_of(SPECIAL_FLOATS, st.floats(allow_nan=True, allow_infinity=True))
BLOCK = cli._BLOCK_ROWS


def reference_table_text(header, table) -> str:
    """The writer's output, formatted one value at a time."""
    rows = (",".join("{:.17g}".format(float(x)) for x in row) + "\n"
            for row in table)
    return ",".join(header) + "\n" + "".join(rows)


class TestWriteTable:
    @settings(max_examples=25, deadline=None)
    @given(values=st.lists(FLOATS, min_size=1, max_size=40),
           width=st.integers(1, 5),
           rows=st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1]))
    def test_bytes_match_per_value_format(self, tmp_path_factory, values,
                                          width, rows):
        table = np.resize(np.array(values), rows * width).reshape(rows, width)
        header = [f"c{i}" for i in range(width)]
        path = tmp_path_factory.mktemp("write") / "t.csv"
        cli._write_tables([(path, header, list(table.T))])
        want = reference_table_text(header, table).encode("utf-8")
        assert path.read_bytes() == want

    @staticmethod
    def assert_printf_bytes(path, values, width=1):
        """Both signs of ``values`` written ``width`` to a row, as ``%.17g``."""
        values = np.asarray(values, dtype=float)
        values = np.concatenate([values, -values])
        table = np.resize(values, (-(-values.size // width), width))
        header = [f"c{i}" for i in range(width)]
        cli._write_tables([(path, header, list(table.T))])
        lines = path.read_bytes().decode("ascii").split("\n")[1:-1]
        want = reference_table_text(header, table).split("\n")[1:-1]
        bad = [(row, got, ref) for row, got, ref in zip(table, lines, want) if got != ref]
        assert len(lines) == len(want) and not bad, bad[:5]

    @staticmethod
    def with_neighbours(values, steps=2):
        """``values`` and the doubles up to ``steps`` ulps either side."""
        values = np.asarray(values, dtype=float)
        out = [values]
        up = down = values
        with np.errstate(over="ignore"):
            for _ in range(steps):
                up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
                out += [up, down]
        return np.concatenate(out)

    def test_decimal_midpoints(self, tmp_path):
        """The doubles nearest 18-digit numbers ending in 5, halfway between
        two 17-digit decimals, over the whole exponent range."""
        rng = np.random.default_rng(11)
        exponents = np.repeat(np.arange(-323, 309), 3)
        heads = rng.integers(10 ** 16, 10 ** 17, exponents.size)
        mids = [float(f"{h}5e{x - 17}") for h, x in zip(heads, exponents)]
        self.assert_printf_bytes(tmp_path / "m.csv", self.with_neighbours(mids), 3)

    def test_exact_ties(self, tmp_path):
        """x = M / 2**(17 - X) with M odd lies exactly halfway between two
        17-digit decimals, |x| * 10**(16 - X) = M * 5**(16 - X) / 2; "%.17g"
        rounds those to even."""
        rng = np.random.default_rng(12)
        ties = []
        for x in range(-7, 16):
            scale = 2 ** (17 - x)
            lo = math.ceil(Fraction(10) ** x * scale)
            hi = min(10 * lo, 2 ** 53)
            for m in rng.integers(lo, hi, 40) | 1:
                t = Fraction(int(m), scale)
                if 10 ** x <= t < 10 ** (x + 1):
                    assert (t * Fraction(10) ** (16 - x)).denominator == 2
                    ties.append(float(t))
        assert len(ties) > 800
        self.assert_printf_bytes(tmp_path / "t.csv", self.with_neighbours(ties, 1), 2)

    def test_powers_of_ten_and_carries(self, tmp_path):
        """10**X, 9.99..9eX (17 nines) and the doubles nearest 9.99..95eX,
        which round up into the next decade, each +-2 ulp."""
        decades = range(-323, 309)
        values = ([float(f"1e{x}") for x in decades]
                  + [float(f"{'9' * 17}e{x - 16}") for x in decades]
                  + [float(f"{'9' * 17}5e{x - 17}") for x in decades])
        self.assert_printf_bytes(tmp_path / "p.csv", self.with_neighbours(values), 2)

    def test_fixed_exponent_switch(self, tmp_path):
        """X = -5, -4, 16, 17, where "%.17g" changes between fixed and
        exponent form: each decade's ends and random values inside it."""
        rng = np.random.default_rng(13)
        values = []
        for x in (-5, -4, 16, 17):
            values += [10.0 ** x, 10.0 ** (x + 1)]
            values += list(10.0 ** x * rng.uniform(1.0, 10.0, 200))
            values += list(np.round(10.0 ** x * rng.uniform(1.0, 10.0, 50), -x + 2))
        self.assert_printf_bytes(tmp_path / "s.csv", self.with_neighbours(values, 20), 1)

    def test_special_values(self, tmp_path):
        values = [0.0, np.nan, np.inf, 5e-324, 1.5e-323, 2.2250738585072009e-308,
                  2.2250738585072014e-308, 1e-300, 1e-280, 1e280, 1e300,
                  1.7976931348623157e308, 0.5, 1.0, 100.0, 1200.0, 0.1, 1 / 3]
        self.assert_printf_bytes(tmp_path / "z.csv", values, 1)
        self.assert_printf_bytes(tmp_path / "z3.csv", values, 3)

    @pytest.mark.parametrize("rows", [BLOCK - 1, BLOCK, BLOCK + 1])
    def test_random_bit_patterns(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        bits = rng.integers(0, 2 ** 64, rows * 3 // 2, dtype=np.uint64, endpoint=False)
        self.assert_printf_bytes(tmp_path / "r.csv", bits.view(np.float64), 3)

    def test_ordinary_signal_skips_printf(self, tmp_path, monkeypatch):
        ex = md.gen_example_4_1(4096, 1.0, 3)

        def refuse(values):
            raise AssertionError(f"values reached the %.17g fallback: {values}")

        monkeypatch.setattr(cli, "_printf_words", refuse)
        write_signal_csv(tmp_path / "sig.csv", ex.signal)  # t = 0 included
        write_phases_csv(tmp_path / "phases.csv", ex.signal.times, list(ex.priors))
        for k, mode in enumerate(ex.components):
            write_signal_csv(tmp_path / f"mode_{k}.csv", mode)
        assert read_signal_csv(tmp_path / "sig.csv").values.tobytes() == \
            ex.signal.values.tobytes()

    def test_header_wider_than_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(LengthMismatch):
            cli._write_tables([(path, ["a", "b"], [np.zeros(3)])])
        assert not path.exists()

    def test_unequal_columns(self, tmp_path):
        ex = md.gen_example_4_1(64, 0.0, 3)
        path = tmp_path / "phases.csv"
        with pytest.raises(LengthMismatch):
            write_phases_csv(path, ex.signal.times[:10], list(ex.priors))
        assert not path.exists()

    def test_bad_last_table_writes_no_file(self, tmp_path):
        good = (tmp_path / "a.csv", ["t", "value"], [np.zeros(3), np.ones(3)])
        bad = (tmp_path / "b.csv", ["t", "value"], [np.zeros(3), np.ones(2)])
        with pytest.raises(LengthMismatch, match="b.csv"):
            cli._write_tables([good, bad])
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_path_is_named_and_every_file_closed(self, tmp_path,
                                                            monkeypatch):
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(cli, "open", recording_open, raising=False)
        column = np.arange(3.0)
        directory = tmp_path / "dir.csv"
        directory.mkdir()
        tables = [(tmp_path / name, ["t"], [column])
                  for name in ("a.csv", "dir.csv", "c.csv")]
        with pytest.raises(IoError, match=f"^cannot write {re.escape(str(directory))}: "):
            cli._write_tables(tables)
        assert len(opened) == 1 and opened[0].closed


class TestWriteTables:
    """Several tables in one call share the words of equal first columns."""

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_each_file_matches_its_table_alone(self, tmp_path_factory, data):
        """1-4 tables: the first column of the first is a shared column,
        that of the last (of two or more) its copy with the zeros' signs
        flipped, equal by value but not by bits, and each other one a copy
        of the shared column or a column of its own."""
        sizes = st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1])
        base = np.array([0.0] + data.draw(st.lists(st.floats(allow_nan=False),
                                                    max_size=20)))
        values = np.array(data.draw(st.lists(FLOATS, min_size=1, max_size=40)))
        count = data.draw(st.integers(1, 4))
        kinds = ["shared"] + [data.draw(st.sampled_from(["shared", "own"]))
                              for _ in range(count - 2)] + ["twin"] * (count > 1)
        directory = tmp_path_factory.mktemp("tables")
        tables = []
        for i, kind in enumerate(kinds):
            if kind == "twin":  # the rows and width of the first table
                rows, width = tables[0][2][0].size, len(tables[0][1])
            else:
                rows, width = data.draw(sizes), data.draw(st.integers(1, 4))
            shared = np.resize(base, rows)
            first = {"shared": shared, "own": np.resize(values[::-1], rows),
                     "twin": np.where(shared == 0.0, -shared, shared)}[kind]
            rest = [np.resize(np.roll(values, j), rows) for j in range(1, width)]
            tables.append((directory / f"t{i}.csv", [f"c{j}" for j in range(width)],
                           [first] + rest))
        cli._write_tables(tables)
        for path, header, columns in tables:
            want = reference_table_text(header, np.column_stack(columns))
            assert path.read_bytes() == want.encode("utf-8"), path.name

    def test_memory_does_not_grow_with_rows(self, tmp_path):
        """The writer holds a block of rows, not the table."""
        rng = np.random.default_rng(5)

        def peak(rows):
            columns = list(rng.standard_normal((5, rows)))
            tracemalloc.start()
            try:
                cli._write_tables([(tmp_path / "m.csv", list("abcde"), columns)])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = peak(4 * BLOCK)
        assert peak(32 * BLOCK) <= 1.15 * small


def reference_read_table(path):
    """The line parser the CSV reader must agree with: blank lines skipped,
    every field read by ``float``, errors naming the line's number among
    all the lines ``str.splitlines`` finds."""
    text = path.read_text(encoding="utf-8")
    numbered = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1)
                if ln.strip() != ""]
    if not numbered:
        raise ParseError(f"{path}: empty file")
    header = [h.strip() for h in numbered[0][1].split(",")]
    width = len(header)
    rows = []
    for ln_no, line in numbered[1:]:
        parts = line.split(",")
        if len(parts) != width:
            raise ParseError(f"{path}:{ln_no}: expected {width} columns, "
                             f"got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ParseError(f"{path}:{ln_no}: {exc}") from exc
    return header, np.array(rows, dtype=float).reshape(len(rows), width)


DOUBLES = st.floats(allow_nan=False, allow_infinity=False)
GOOD_FIELDS = st.one_of(
    st.sampled_from(["1", " 1.5 ", "-0", "nan", "-inf", "1e400", "4.9e-324",
                     "+2E-3", "\t7"]),
    # the block parser's grammar, -?digits[.digits][(e|E)[+|-]digits]
    DOUBLES.map("{:.17g}".format), DOUBLES.map(repr),
    st.sampled_from(["1e5", "-0", "0.000012345678901234567", "7E+05", "00.50",
                     "123456789012345678", "-1234567890123456789e-300",
                     "12345678901234567.891e2", "1e0005"]))
ODD_FIELDS = st.sampled_from(
    ["1_0", "\u0663", "\xa02", "nope", "", "0x1p3", "1\x0b", "\x1f7", "\x00",
     "1\u2028", "2\x1c"])
FIELDS = st.one_of(GOOD_FIELDS, GOOD_FIELDS, GOOD_FIELDS, ODD_FIELDS)
BLANK_LINES = st.sampled_from(["", "   ", "\t", "\x1f", "\x0c", "\xa0"])
LINE_ENDS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\x0b", "\u2028"])


@st.composite
def csv_texts(draw):
    width = draw(st.integers(1, 3))
    lines = [",".join(f"c{i}" for i in range(width))]
    if draw(st.booleans()):
        lines.insert(0, draw(BLANK_LINES))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "ragged"]))
        if kind == "blank":
            lines.append(draw(BLANK_LINES))
            continue
        n = width if kind == "row" else width + draw(st.sampled_from([-1, 1]))
        lines.append(",".join(draw(st.lists(FIELDS, min_size=n, max_size=n))))
    ends = draw(st.lists(LINE_ENDS, min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


class TestReadTable:
    @settings(max_examples=300, deadline=None)
    @given(text=csv_texts())
    def test_agrees_with_line_parser(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("read") / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            want = reference_read_table(path)
        except ParseError as exc:
            with pytest.raises(ParseError) as err:
                cli._read_table(path)
            assert str(err.value) == str(exc)
            return
        header, data = cli._read_table(path)
        assert header == want[0]
        assert data.shape == want[1].shape
        assert data.tobytes() == want[1].tobytes()

    def test_plain_file_skips_line_parser(self, tmp_path, monkeypatch):
        ex = md.gen_example_4_1(256, 1.0, 3)
        path = tmp_path / "sig.csv"
        write_signal_csv(path, ex.signal)
        self.refuse_line_parser(monkeypatch)
        assert np.array_equal(read_signal_csv(path).values, ex.signal.values)

    @staticmethod
    def refuse_line_parser(monkeypatch):
        def refuse(path, text):
            raise AssertionError(f"{path} reached the line parser")

        monkeypatch.setattr(cli, "_parse_lines", refuse)

    @staticmethod
    def assert_reads_as_float(path, fields, width=1):
        """``fields``, written ``width`` to a row, read as ``float`` reads
        each of them."""
        rows = [",".join(fields[i:i + width]) + "\n"
                for i in range(0, len(fields), width)]
        path.write_text(",".join(f"c{i}" for i in range(width)) + "\n"
                        + "".join(rows))
        want = np.array([float(f) for f in fields]).reshape(-1, width)
        header, data = cli._read_table(path)
        bad = [(f, got) for f, got, ref in zip(fields, data.ravel(), want.ravel())
               if not same_bits(got, ref)]
        assert data.shape == want.shape and not bad, bad[:5]
        return data

    def test_reads_exact_ties(self, tmp_path):
        """Decimals of at most 17 digits halfway between two doubles, which
        round to even, in both signs and with the point in several places:
        the block parser declines them."""
        rng = np.random.default_rng(14)
        ties = ["9007199254740993", "9007199254740995"]
        for bits in range(52, 57):  # the doubles 2**bits <= x < 2**(bits + 1)
            half = Fraction(2 ** bits, 2 ** 53)  # half their spacing
            top = min(2 ** (bits + 1), 10 ** 17)
            for k in rng.integers(2 ** 52, (top / half - 1) // 2, 40):
                tie = (2 * int(k) + 1) * half
                assert abs(tie - Fraction(float(tie))) == half
                ties.append(str(tie.numerator) if tie.denominator == 1
                            else f"{tie.numerator // 2}.5")
        forms = []
        for tie in ties:
            digits, point = tie.replace(".", ""), len(tie.split(".")[0])
            forms += [tie, f"{digits}e{point - len(digits)}",
                      f"{digits[0]}.{digits[1:]}e+{point - 1}",
                      f"0.00{digits}e{point + 2}",
                      f"{digits[:point - 1]}.{digits[point - 1:]}E1"]
        forms += ["-" + f for f in forms]
        path = tmp_path / "ties.csv"
        data = self.assert_reads_as_float(path, forms, 5)
        assert cli._parse_blocks(path.read_bytes()) is None
        read = dict(zip(forms, data.ravel().tolist()))
        assert read["9007199254740993"] == 9007199254740992.0
        assert read["-9007199254740995"] == -9007199254740996.0

    def test_reads_near_ties(self, tmp_path):
        """17-digit decimals D / 10**n within 2**-96 of a midpoint between
        two doubles, a few of them on it. The midpoints of the binade
        [2**b, 2**(b + 1)) are the odd multiples of 2**(b - 53), so D / 10**n
        is one where D * 2**(52 - b - n) is an odd multiple of 5**n halved;
        D is taken within a unit of that, modulo 5**n."""
        near = []
        for n in range(20, 31):
            five = 5 ** n
            for b in range(-50, -10):
                lo = max(10 ** 16, -(-10 ** n // 2 ** -b))
                hi = min(10 ** 17, 10 ** n // 2 ** (-b - 1))
                if lo >= hi:
                    continue
                inverse = pow(2 ** (52 - b - n), -1, five)
                for delta in (-1, 0, 1):
                    r = ((five + 1) // 2 + delta) * inverse % five
                    near += [(d, n) for d in range(r + -(-(lo - r) // five) * five, hi, five)]
        fields = []
        for d, n in near:
            value = Fraction(d, 10 ** n)
            spacing = Fraction(math.ulp(float(value)))
            offset = (value - Fraction(float(value))) / spacing  # within 1/2
            assert 0.5 - abs(offset) < 2.0 ** -44
            fields += [f"{d}e-{n}", f"-{str(d)[0]}.{str(d)[1:]}E-{n - 16}"]
        assert len(fields) > 400
        path = tmp_path / "near.csv"
        self.assert_reads_as_float(path, fields)
        assert cli._parse_blocks(path.read_bytes()) is None

    def test_reads_long_mantissas(self, tmp_path):
        """Mantissas of 18 to 20 significant digits, and of 17 after leading
        zeros, in fields of up to 24 bytes and longer."""
        rng = np.random.default_rng(16)
        fields = []
        for digits in (17, 18, 19, 20):
            for head in rng.integers(10 ** 16, 10 ** 17, 30).tolist():
                mantissa = str(head) + "".join(rng.choice(list("0123456789"), digits - 17))
                for form in (mantissa, f"{mantissa[:3]}.{mantissa[3:]}e-7",
                             f"0.0000{mantissa}", f"-{mantissa[0]}.{mantissa[1:]}e+301"):
                    fields.append(form)
        path = tmp_path / "long.csv"
        self.assert_reads_as_float(path, fields, 4)
        assert cli._parse_blocks(path.read_bytes()) is None

    @pytest.mark.parametrize("field", [
        "0.123456789012345678", "123456789012345678", "-1234567890.12345678",
        "99999999999999999999999", "1.000000000000000001e-5"])
    def test_declines_over_17_digits(self, tmp_path, field):
        """A field of at most 24 bytes with 18 to 23 significant digits
        sends its file to the line parser, which reads it bit for bit as
        ``float`` does."""
        path = tmp_path / "digits.csv"
        self.assert_reads_as_float(path, ["0.5", field, "-3", field, "0.25"])
        assert cli._parse_blocks(path.read_bytes()) is None

    @pytest.mark.parametrize("rows", [6, 2 ** 17])
    def test_uncertain_field_declines_file(self, tmp_path, rows):
        """One field below the exact powers of ten sends a file the block
        parser reads without it to the line parser, which reads it bit for
        bit as ``float`` does: a short hand-written residual, and a long one
        as the CLI writes it."""
        path = tmp_path / "residual.csv"
        if rows == 6:
            field = b"2.5e-300"
            path.write_bytes(b"t,value\n0,0.5\n0.125,-1.2345678901234567e-05\n0.25,3\n"
                             b"0.375,-2.5\n0.5,2.5e-300\n0.625,0.10000000000000001\n")
        else:
            field = b"1.2345678901234567e-270"
            table = np.random.default_rng(18).uniform(-1e3, 1e3, (rows, 2))
            table[rows // 2, 1] = float(field)
            cli._write_tables([(path, ["t", "value"], list(table.T))])
        raw = path.read_bytes()
        assert raw.count(field) == 1
        assert cli._parse_blocks(raw) is None
        assert cli._parse_blocks(raw.replace(field, field[:-1])) is not None
        want = reference_read_table(path)
        header, data = cli._read_table(path)
        assert header == want[0] and data.tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("rows", [BLOCK - 1, BLOCK, BLOCK + 1])
    def test_random_bit_patterns(self, tmp_path, rows):
        """Finite doubles of any bits, written by ``_write_tables``, read
        back bit for bit."""
        rng = np.random.default_rng(rows + 1)
        bits = rng.integers(0, 2 ** 64, (rows, 3), dtype=np.uint64, endpoint=False)
        table = bits.view(np.float64)
        table[~np.isfinite(table)] = 1.0
        path = tmp_path / "r.csv"
        cli._write_tables([(path, ["a", "b", "c"], list(table.T))])
        header, data = cli._read_table(path)
        assert header == ["a", "b", "c"]
        assert data.tobytes() == table.tobytes()

    def test_cli_files_read_by_block_parser(self, tmp_path, monkeypatch):
        """Every table a synth, gmd, mmd and diagnose run writes is read by
        the block parser, values bit for bit as ``float`` reads them."""
        data, run = tmp_path / "data", tmp_path / "run"
        assert run_synth(data, samples=1024, noise="0.01") == 0
        inputs = ["--signal", str(data / "signal.csv"), "--phases", str(data / "phases.csv")]
        assert main(["gmd", *inputs, "--out", str(run / "gmd")]) == 0
        assert main(["mmd", *inputs, "--m0", "1", "--out", str(run / "mmd")]) == 0
        assert main(["diagnose", "--residual", str(run / "gmd" / "residual.csv"),
                     "--out", str(run / "acf")]) == 0
        tables = sorted(tmp_path.rglob("*.csv"))
        assert len(tables) > 10
        want = {path: reference_read_table(path) for path in tables}
        self.refuse_line_parser(monkeypatch)
        for path in tables:
            header, values = cli._read_table(path)
            assert header == want[path][0]
            assert values.tobytes() == want[path][1].tobytes(), path

    def test_declined_file_read_once(self, tmp_path):
        """A file the block parser declines is opened once: the line parser
        reads the bytes already read. Opens are seen by the "open" audit
        event, which also sees those of callers that hold their own
        reference to ``open``."""
        path = tmp_path / "residual.csv"
        path.write_bytes(b"x,value\r\n" + b"".join(b" %d,+%dE-1\r\n" % (i, i)
                                                   for i in range(6)))
        name, opened = str(path), []
        sys.addaudithook(lambda event, args: event == "open"
                         and str(args[0]) == name and opened.append(name))
        header, data = cli._read_table(path)
        assert header == ["x", "value"]
        assert data.tolist() == [[i, float(f"{i}E-1")] for i in range(6)]
        assert len(opened) == 1

    def test_header_only_file(self, tmp_path, recwarn):
        path = tmp_path / "empty.csv"
        path.write_text("t,p1,p2\n")
        header, data = cli._read_table(path)
        assert header == ["t", "p1", "p2"] and data.shape == (0, 3)
        assert not recwarn.list

    def test_non_utf8_file_is_parse_error(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"t,value\n0,\xe91\n")
        with pytest.raises(ParseError):
            read_signal_csv(path)
