import json
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
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
from modedecomp.errors import DecompositionError, NonMonotonePhase, ParseError


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


class TestShapeCsv:
    def test_roundtrip(self, tmp_path):
        from modedecomp.cli import read_shape_csv, write_shape_csv
        table = md.ecg_like_shape(128, 2)
        write_shape_csv(tmp_path / "s.csv", table)
        back = read_shape_csv(tmp_path / "s.csv")
        assert np.array_equal(back.bins, table.bins)

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
                    "iterations", "gamma", "beta", "contraction_bound",
                    "config"):
            assert key in report
        again = read_report(out / "report.json")
        assert again["config"] == report["config"]

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
    ])
    def test_bad_names_rejected(self, tmp_path, header):
        path = tmp_path / "phases.csv"
        path.write_text(header + "\n" + self.ROWS)
        with pytest.raises(ParseError):
            read_phases_csv(path)


class TestReportIsValidJson:
    def test_non_finite_norm_rejected(self, tmp_path):
        report = md.DecompositionReport((0.5, float("nan")), (0.1, 0.1),
                                        md.StopReason.MAX_ITER, 2)
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


class TestMmdFilesRebuildModes:
    def test_coefficients_times_shapes_give_modes(self, tmp_path):
        data = tmp_path / "data"
        run_synth(data, samples=4096)
        out = tmp_path / "fit"
        assert main(["mmd", "--signal", str(data / "signal.csv"),
                     "--phases", str(data / "phases.csv"),
                     "--m0", "2", "--j1", "5", "--bins", "64",
                     "--out", str(out)]) == 0
        times, priors = read_phases_csv(data / "phases.csv")
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
        cli._write_table(path, header, list(table.T))
        want = reference_table_text(header, table).encode("utf-8")
        assert path.read_bytes() == want


def reference_read_table(path):
    """The line parser the CSV reader must agree with: blank lines skipped,
    every field read by ``float``, errors naming the non-blank line."""
    text = path.read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip() != ""]
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    width = len(header)
    data = np.empty((len(lines) - 1, width))
    for ln_no, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != width:
            raise ParseError(f"{path}:{ln_no}: expected {width} columns, "
                             f"got {len(parts)}")
        try:
            data[ln_no - 2] = [float(p) for p in parts]
        except ValueError as exc:
            raise ParseError(f"{path}:{ln_no}: {exc}") from exc
    return header, data


GOOD_FIELDS = st.sampled_from(
    ["1", " 1.5 ", "-0", "nan", "-inf", "1e400", "4.9e-324", "+2E-3", "\t7"])
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

        def refuse(path, text):
            raise AssertionError("a plain file reached the line parser")

        monkeypatch.setattr(cli, "_parse_lines", refuse)
        assert np.array_equal(read_signal_csv(path).values, ex.signal.values)

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
