"""CSV/JSON serialization and the command-line surface.

Subcommands
-----------
``synth``     generate the built-in benchmark (or a spec-file signal) plus
              exact phase priors and ground truth.
``gmd``       decompose a signal into single-shape modes.
``mmd``       decompose a signal into band-structured modes.
``diagnose``  phase differentiation statistics or residual autocorrelation.

All CSV files carry a header row, UTF-8 text, '.' decimals and floats at 17
significant digits so a write/read round trip is lossless. Exit codes: 0 on
success, 1 on validation or usage errors, 2 on I/O failures.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import warnings
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path

import numpy as np

from .diagnostics import WellDiffStats, autocorrelation, partition_counts, well_diff_stats
from .errors import DecompositionError, IoError, NonMonotonePhase, ParseError
from .gmd import GmdResult, gmd_decompose
from .mmd import MmdConfig, MmdResult, mmd_decompose
from .signal_model import (
    MimfEstimate,
    PhasePrior,
    SampledSignal,
    ShapeTable,
    make_prior,
    make_shape,
    make_signal,
    normalize_estimate,
    scale_shape,
)
from .synth import (
    RNG_IDENTITY,
    BandSpec,
    ComponentSpec,
    add_noise,
    ecg_like_shape,
    gen_example_4_1,
    gen_mimf,
    sample_grid,
)

__all__ = [
    "read_signal_csv",
    "read_phases_csv",
    "write_signal_csv",
    "write_shape_csv",
    "write_decomposition",
    "write_report",
    "main",
]

# Rows per formatting operation: bounds the text held in memory at once.
_BLOCK_ROWS = 8192

# ASCII controls that numpy's parser strips from a field as whitespace, where
# ``str.splitlines`` ends a line at the first five and ``float`` rejects
# all but the first two.
_NUMPY_WHITESPACE = (b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_FIRST_LINE = re.compile(rb"[^\r\n]*")


# ---------------------------------------------------------------------------
# CSV / JSON primitives

def _write_table(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write a header row, then one row per sample at 17 significant digits.

    Each block of rows is formatted by one ``%`` operation; ``"%.17g"``
    prints a float exactly as ``"{:.17g}".format`` does.
    """
    table = np.column_stack([np.asarray(col, dtype=float) for col in columns])
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for start in range(0, len(table), _BLOCK_ROWS):
                block = table[start:start + _BLOCK_ROWS]
                fh.write(row * len(block) % tuple(block.ravel().tolist()))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _parse_lines(path: Path, text: str) -> tuple[list[str], np.ndarray]:
    """The line parser: blank lines skipped, each field read by ``float``.

    It alone decides what is an error; a ``ParseError`` names the line by
    its number in the file, blank lines included, as ``str.splitlines``
    splits it.
    """
    lines = [(ln_no, ln) for ln_no, ln in enumerate(text.splitlines(), 1)
             if ln.strip() != ""]
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = [h.strip() for h in lines[0][1].split(",")]
    width = len(header)
    data = np.empty((len(lines) - 1, width))
    for row, (ln_no, line) in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != width:
            raise ParseError(f"{path}:{ln_no}: expected {width} columns, "
                             f"got {len(parts)}")
        try:
            data[row] = [float(p) for p in parts]
        except ValueError as exc:
            raise ParseError(f"{path}:{ln_no}: {exc}") from exc
    return header, data


def _loadtxt_table(path: Path, raw: bytes) -> tuple[list[str], np.ndarray] | None:
    """numpy's C parser on an ASCII table; None when the line parser must judge.

    numpy splits lines and strips fields as the line parser does only in
    ASCII text without the controls in ``_NUMPY_WHITESPACE``.
    """
    if not raw.isascii() or any(c in raw for c in _NUMPY_WHITESPACE):
        return None
    first = _FIRST_LINE.match(raw).group().decode("ascii")
    if first.strip() == "":  # the header is the first non-blank line
        return None
    header = [h.strip() for h in first.split(",")]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a header-only file
            data = np.loadtxt(path, delimiter=",", comments=None, skiprows=1,
                              ndmin=2, dtype=float, encoding="ascii")
    except ValueError:
        return None
    return (header, data) if data.shape[1] == len(header) else None


def _read_table(path: Path) -> tuple[list[str], np.ndarray]:
    """Header names and float rows of a CSV table.

    numpy's parser reads the table when it can; whatever it rejects is
    re-read by :func:`_parse_lines`. So the accepted files, the values and
    the errors are the line parser's, which also reads what ``float``
    accepts and numpy does not (``1_0``, non-ASCII digits, whitespace-only
    lines).
    """
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    table = _loadtxt_table(path, raw)
    if table is not None:
        return table
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return _parse_lines(path, text)


def write_signal_csv(path, signal: SampledSignal) -> None:
    _write_table(Path(path), ["t", "value"], [signal.times, signal.values])


def read_signal_csv(path) -> SampledSignal:
    header, data = _read_table(Path(path))
    if header[:2] != ["t", "value"] or len(header) != 2:
        raise ParseError(f"{path}: expected header 't,value'")
    return make_signal(data[:, 0], data[:, 1])


def write_phases_csv(path, times: np.ndarray, priors: list[PhasePrior]) -> None:
    numbers = range(1, len(priors) + 1)
    header = ["t"] + [f"p{k}" for k in numbers] + [f"q{k}" for k in numbers]
    cols = ([np.asarray(times, dtype=float)] + [p.phase for p in priors]
            + [p.amplitude for p in priors])
    _write_table(Path(path), header, cols)


def _numbered_columns(path, header: list[str], prefix: str) -> list[int]:
    """Column positions of ``<prefix>1..<prefix>K``, ordered by number."""
    found: dict[int, int] = {}
    for col, name in enumerate(header):
        if not name.startswith(prefix):
            continue
        suffix = name[len(prefix):]
        if not (suffix.isascii() and suffix.isdigit() and suffix[0] != "0"):
            raise ParseError(f"{path}: unknown column {name!r}")
        if int(suffix) in found:
            raise ParseError(f"{path}: duplicate column {name!r}")
        found[int(suffix)] = col
    missing = sorted(set(range(1, len(found) + 1)) - set(found))
    if missing:
        raise ParseError(f"{path}: missing column {prefix}{missing[0]}")
    return [found[k] for k in range(1, len(found) + 1)]


def read_phases_csv(path) -> tuple[np.ndarray, list[PhasePrior]]:
    """Parse a phase-prior file: column t, then p1..pK, optionally q1..qK.

    Columns are matched by name, so ``qK`` is the amplitude of ``pK``
    wherever either column sits.
    """
    header, data = _read_table(Path(path))
    if not header or header[0] != "t":
        raise ParseError(f"{path}: first column must be 't'")
    p_cols = _numbered_columns(path, header, "p")
    q_cols = _numbered_columns(path, header, "q")
    if not p_cols:
        raise ParseError(f"{path}: no phase columns (p1, p2, ...)")
    if q_cols and len(q_cols) != len(p_cols):
        raise ParseError(f"{path}: amplitude columns must match phase columns")
    if data.shape[0] < 2:
        raise ParseError(f"{path}: need at least 2 rows")
    times = data[:, 0]
    priors = []
    for which, col in enumerate(p_cols):
        phase = data[:, col]
        if np.any(np.diff(phase) <= 0.0):
            raise NonMonotonePhase(
                f"{path}: column {header[col]} is not strictly increasing")
        amplitude = data[:, q_cols[which]] if q_cols else None
        priors.append(make_prior(phase, amplitude))
    return times, priors


def write_shape_csv(path, shape: ShapeTable) -> None:
    centers = (np.arange(shape.size) + 0.5) / shape.size
    _write_table(Path(path), ["x", "value"], [centers, shape.bins])


def _write_band_shapes(directory: Path, k: int, est: MimfEstimate) -> None:
    """One ``shape_{c|s}{n}_k{k}.csv`` per band table of component ``k``."""
    for kind, shapes in (("c", est.cos_shapes), ("s", est.sin_shapes)):
        for n, table in sorted(shapes.items()):
            write_shape_csv(directory / f"shape_{kind}{n}_k{k}.csv", table)


def read_shape_csv(path) -> ShapeTable:
    header, data = _read_table(Path(path))
    if header != ["x", "value"]:
        raise ParseError(f"{path}: expected header 'x,value'")
    return make_shape(data[:, 1])


def read_coefficients_csv(path) -> dict:
    """Coefficient rows keyed by (component, band) -> (a_n, b_n)."""
    header, data = _read_table(Path(path))
    if header != ["k", "n", "a_n", "b_n"]:
        raise ParseError(f"{path}: expected header 'k,n,a_n,b_n'")
    return {(int(row[0]), int(row[1])): (row[2], row[3]) for row in data}


def _write_json(path: Path, payload) -> Path:
    """Write ``payload`` as canonical JSON; returns the file path.

    Raises :class:`DecompositionError` rather than write a non-finite
    number, which JSON cannot represent.
    """
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise DecompositionError(f"cannot write {path}: {exc}") from exc
    try:
        path.write_text(text + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return path


def write_report(directory, report, stats: WellDiffStats | None = None,
                 config: dict | None = None,
                 stats_error: str | None = None) -> Path:
    """Serialize the run report as canonical JSON; returns the file path.

    ``config`` is recorded as given: the parameters the solver ran with.
    ``stats_error`` says why the phase statistics are missing, if they are.
    """
    return _write_json(Path(directory) / "report.json", {
        "residual_norms": list(report.residual_norms),
        "shape_increment_norms": list(report.shape_increment_norms),
        "stop_reason": report.stop_reason.value,
        "iterations": report.iterations,
        "accelerated": list(report.accelerated),
        "gamma": None if stats is None else stats.gamma,
        "beta": None if stats is None else stats.beta,
        "contraction_bound": None if stats is None else stats.contraction_bound,
        "phase_stats_error": stats_error,
        "config": config,
    })


def read_report(path) -> dict:
    """Parse a JSON file: a run report or a ``synth --spec`` file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def write_decomposition(directory, result, stats: WellDiffStats | None = None,
                        config: dict | None = None,
                        stats_error: str | None = None) -> None:
    """Write modes, shapes, coefficients, residual and the JSON report.

    The mmd shape files hold unit-norm shapes, so ``a_n`` and ``b_n`` from
    ``coefficients.csv`` times them rebuild each ``mode_k.csv``.
    """
    out = Path(directory)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out}: {exc}") from exc

    if isinstance(result, GmdResult):
        for k, (mode, shape) in enumerate(zip(result.modes, result.shapes), 1):
            write_signal_csv(out / f"mode_{k}.csv", mode)
            write_shape_csv(out / f"shape_{k}.csv", shape)
    elif isinstance(result, MmdResult):
        rows = []
        for k, est in enumerate(map(normalize_estimate, result.estimates), 1):
            write_signal_csv(out / f"mode_{k}.csv", est.mode)
            _write_band_shapes(out, k, est)
            rows += [(k, n, est.cos_coeffs.get(n, 0.0), est.sin_coeffs.get(n, 0.0))
                     for n in range(-est.bandwidth, est.bandwidth + 1)]
        _write_table(out / "coefficients.csv", ["k", "n", "a_n", "b_n"],
                     list(np.array(rows, dtype=float).T))
    else:
        raise DecompositionError(f"unknown result type {type(result)!r}")

    write_signal_csv(out / "residual.csv", result.residual)
    write_report(out, result.report, stats, config, stats_error)


# ---------------------------------------------------------------------------
# synth spec files

def _spec_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{where}: must be a JSON object")
    return value


def _spec_field(obj: dict, key: str, where: str, convert=float, default=None):
    """``convert(obj[key])``, which must be finite, or ``default`` when the
    key is absent."""
    if key not in obj:
        if default is None:
            raise ParseError(f"{where}: missing '{key}'")
        return default
    try:
        value = convert(obj[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}.{key}: {exc}") from exc
    # json reads NaN and Infinity; an int is always finite
    if not isinstance(value, int) and not np.all(np.isfinite(value)):
        raise ParseError(f"{where}.{key}: must be finite")
    return value


def _shape_from_json(value, where: str) -> ShapeTable:
    obj = _spec_object(value, where)
    if "variant" in obj:
        return ecg_like_shape(_spec_field(obj, "bins", where, int, 1024),
                              _spec_field(obj, "variant", where, int))
    if "values" in obj:
        return make_shape(_spec_field(obj, "values", where,
                                      partial(np.asarray, dtype=float)))
    raise ParseError(f"{where}: needs 'variant' or 'values'")


def _component_from_json(obj, where: str) -> ComponentSpec:
    """One ``components`` entry; a malformed field is a ``ParseError``
    naming it, ``where`` being the entry's place in the file."""
    obj = _spec_object(obj, where)
    fundamental = _spec_field(obj, "fundamental", where, int)
    at = f"{where}.phase_wiggle"
    wig = _spec_object(obj.get("phase_wiggle") or {}, at)
    w_kind = wig.get("kind", "none")
    w_amp = _spec_field(wig, "amp", at, default=0.0)
    if w_kind == "sin":
        phase = lambda t: t + w_amp * np.sin(2.0 * np.pi * t)  # noqa: E731
    elif w_kind == "cos":
        phase = lambda t: t + w_amp * np.cos(2.0 * np.pi * t)  # noqa: E731
    elif w_kind == "none":
        phase = lambda t: np.asarray(t, dtype=float)  # noqa: E731
    else:
        raise ParseError(f"{at}.kind: unknown kind {w_kind!r}")
    at = f"{where}.amplitude"
    amp = _spec_object(obj.get("amplitude") or {}, at)
    const = _spec_field(amp, "const", at, default=1.0)
    cos1 = _spec_field(amp, "cos1", at, default=0.0)
    sin1 = _spec_field(amp, "sin1", at, default=0.0)
    shape = _shape_from_json(obj.get("shape", {"variant": 1}), f"{where}.shape")
    shape = scale_shape(shape, _spec_field(obj, "scale", where, default=1.0))

    def amplitude(t, _c=const, _a=cos1, _b=sin1, _p=phase):
        u = _p(np.asarray(t, dtype=float))
        return _c + _a * np.cos(2.0 * np.pi * u) + _b * np.sin(2.0 * np.pi * u)

    bands = {0: BandSpec(const, 0.0, shape, None)}
    if cos1 != 0.0 or sin1 != 0.0:
        bands[1] = BandSpec(cos1, sin1, shape, shape)
    return ComponentSpec(amplitude=amplitude, phase=phase,
                         fundamental=fundamental, shape=shape, bands=bands)


def _synth_from_spec(path, length: int, grid_mode: str, seed: int):
    """Clean signal, modes and exact priors of a spec file's components."""
    comps = _spec_object(read_report(path), str(path)).get("components")
    if not isinstance(comps, list) or not comps:
        raise ParseError(f"{path}: 'components' must be a non-empty list")
    specs = [_component_from_json(c, f"{path}: components[{i}]")
             for i, c in enumerate(comps)]
    t = sample_grid(length, grid_mode, seed)
    modes = [gen_mimf(spec, t) for spec in specs]
    total = make_signal(t, np.sum([m.values for m in modes], axis=0))
    priors = [
        make_prior(spec.fundamental * spec.phase(t),
                   amplitude=np.broadcast_to(
                       np.asarray(spec.amplitude(t), dtype=float), t.shape))
        for spec in specs
    ]
    return total, modes, priors


# ---------------------------------------------------------------------------
# command-line surface

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="modedecomp",
                                     description="Decompose oscillatory series "
                                                 "into multiresolution modes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic signal")
    group = p_synth.add_mutually_exclusive_group(required=True)
    group.add_argument("--example", choices=["ex4_1"],
                       help="built-in two-component benchmark")
    group.add_argument("--spec", help="JSON component spec file")
    p_synth.add_argument("--samples", type=int, default=16384)
    p_synth.add_argument("--noise-var", type=float, default=0.0)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--grid", choices=["uniform", "iid"], default="uniform")
    p_synth.add_argument("--out", required=True)

    p_gmd = sub.add_parser("gmd", help="single-shape decomposition")
    p_gmd.add_argument("--signal", required=True)
    p_gmd.add_argument("--phases", required=True)
    p_gmd.add_argument("--eps", type=float, default=1e-6)
    p_gmd.add_argument("--max-iter", dest="max_iters", type=int, default=200)
    p_gmd.add_argument("--bins", type=int, default=200)
    p_gmd.add_argument("--scheme", choices=["gauss_seidel", "jacobi"],
                       default="gauss_seidel")
    p_gmd.add_argument("--out", required=True)

    p_mmd = sub.add_parser("mmd", help="multiresolution decomposition")
    p_mmd.add_argument("--signal", required=True)
    p_mmd.add_argument("--phases", required=True)
    p_mmd.add_argument("--m0", type=int)
    p_mmd.add_argument("--eps1", type=float)
    p_mmd.add_argument("--eps2", type=float)
    p_mmd.add_argument("--j1", type=int)
    p_mmd.add_argument("--j2", type=int)
    p_mmd.add_argument("--bins", type=int)
    p_mmd.add_argument("--scheme", choices=["gauss_seidel", "jacobi"])
    p_mmd.add_argument("--out", required=True)
    p_mmd.set_defaults(**asdict(MmdConfig()))

    p_diag = sub.add_parser("diagnose", help="phase or residual diagnostics")
    p_diag.add_argument("--phases")
    p_diag.add_argument("--h", type=float, default=0.05,
                        help="cell side for phase statistics (1/h integer)")
    p_diag.add_argument("--m-bound", type=float, default=1.0)
    p_diag.add_argument("--residual")
    p_diag.add_argument("--max-lag", type=int, default=100)
    p_diag.add_argument("--out", required=True)
    return parser


def _load_inputs(signal_path, phases_path):
    signal = read_signal_csv(signal_path)
    times, priors = read_phases_csv(phases_path)
    if times.size != len(signal) or not np.array_equal(times, signal.times):
        raise DecompositionError(
            "phases file is on a different grid than the signal")
    return signal, priors


def _phase_stats(priors, times) -> tuple[WellDiffStats | None, str | None]:
    """The priors' phase statistics and ``None``, or ``None`` and the reason
    they cannot be computed."""
    try:
        return well_diff_stats(partition_counts(priors, times, 0.05), 1.0), None
    except DecompositionError as exc:
        return None, str(exc)


def _cmd_synth(args) -> int:
    grid_mode = "iid_uniform" if args.grid == "iid" else "uniform"
    meta = {"samples": args.samples, "noise_var": args.noise_var,
            "seed": args.seed, "grid": args.grid, "rng": RNG_IDENTITY}
    if args.example == "ex4_1":
        ex = gen_example_4_1(args.samples, args.noise_var, args.seed, grid_mode)
        signal, clean, modes, priors, truth = (
            ex.signal, ex.clean, ex.components, ex.priors, ex.truth)
        meta["example"] = "ex4_1"
    else:
        clean, modes, priors = _synth_from_spec(
            args.spec, args.samples, grid_mode, args.seed)
        signal = add_noise(clean, args.noise_var, args.seed)
        truth = ()
        meta["spec"] = str(args.spec)
    out = Path(args.out)
    truth_dir = out / "truth"
    truth_dir.mkdir(parents=True, exist_ok=True)
    write_signal_csv(out / "signal.csv", signal)
    write_phases_csv(out / "phases.csv", signal.times, list(priors))
    write_signal_csv(truth_dir / "clean.csv", clean)
    for k, mode in enumerate(modes, 1):
        write_signal_csv(truth_dir / f"mode_{k}.csv", mode)
    for k, est in enumerate(truth, 1):
        _write_band_shapes(truth_dir, k, est)
    _write_json(out / "meta.json", meta)
    return 0


def _cmd_decompose(args) -> int:
    signal, priors = _load_inputs(args.signal, args.phases)
    if args.command == "gmd":
        config = {name: getattr(args, name)
                  for name in ("eps", "max_iters", "bins", "scheme")}
        result = gmd_decompose(signal, priors, **config)
    else:
        cfg = MmdConfig(**{f.name: getattr(args, f.name)
                           for f in fields(MmdConfig)})
        result = mmd_decompose(signal, priors, cfg)
        config = asdict(cfg)
    stats, stats_error = _phase_stats(priors, signal.times)
    write_decomposition(args.out, result, stats, config, stats_error)
    return 0


def _cmd_diagnose(args) -> int:
    # every input is read and checked before --out is created
    if (args.phases is None) == (args.residual is None):
        raise DecompositionError("diagnose needs exactly one of --phases "
                                 "or --residual")
    out = Path(args.out)
    if args.phases is not None:
        times, priors = read_phases_csv(args.phases)
        stats = well_diff_stats(
            partition_counts(priors, times, args.h), args.m_bound)
        payload = {
            "h": stats.step,
            "gamma": stats.gamma,
            "beta": stats.beta,
            "beta_per_pair": {f"{i + 1},{j + 1}": b
                              for (i, j), b in stats.beta_per_pair.items()},
            "contraction_bound": stats.contraction_bound,
            "well_differentiated": stats.well_differentiated,
            "marginals": stats.counts_single.tolist(),
        }
        write = partial(_write_json, out / "well_diff.json", payload)
    else:
        residual = read_signal_csv(args.residual)
        rho = autocorrelation(residual, args.max_lag)
        write = partial(_write_table, out / "autocorrelation.csv",
                        ["lag", "rho"], [np.arange(rho.size, dtype=float), rho])
    out.mkdir(parents=True, exist_ok=True)
    write()
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns the exit code instead of raising SystemExit."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on bad usage
        return 1 if exc.code else 0
    try:
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command in ("gmd", "mmd"):
            return _cmd_decompose(args)
        if args.command == "diagnose":
            return _cmd_diagnose(args)
        raise DecompositionError(f"unknown command {args.command!r}")
    except (IoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DecompositionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
