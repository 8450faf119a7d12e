"""One benchmark run of one workload, in a process of its own.

Started by ``run.py`` with the thread caps and ``PYTHONPATH`` already set;
prints its record as one JSON line on stdout and progress on stderr. The
library sees only the generated inputs, never the seed argument.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()
import numpy as np  # noqa: E402
import modedecomp as md  # noqa: E402
IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from modedecomp import cli  # noqa: E402
from tracer import MODULES, TRACED, Tracer, summarize  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".bench_run"

# Acceptance bounds of tests/test_acceptance.py, applied to every operation.
TRUTH_BOUND = 5e-2
IDENTITY_BOUND = 1e-10
FINE = (np.arange(16384) + 0.5) / 16384
# Set-up is repeated and its median reported: at least SETUP_REPEATS
# times, and more while under SETUP_MIN_S in total.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.5
IMPORT_PROBES = 5

# The speed of a shared VM changes by up to half over tens of seconds:
# a fixed kernel alternates between two speeds, and operations follow it.
# That is wider than any regression bound, so every time reported is
# scaled to one reference speed. A fixed kernel, with numpy work and
# Python text work like the library's, runs before and after each timed
# step; the step's time is multiplied by REF_S over the mean of the two
# kernel times around it. Raw times are kept in the run's record.
REF_S = 0.1
_REF_X = np.random.default_rng(0).random(2 ** 16)
_REF_TABLE = np.random.default_rng(1).random(200)


@dataclass(frozen=True)
class Workload:
    kind: str            # "mmd", "gmd" or "cli"
    samples: int
    m0: int = 0
    # Distinct inputs per run. Operations take them in turn and the run
    # reports medians over them, so one input does not set the figures.
    inputs: int = 2


WORKLOADS = {
    "mmd_long": Workload("mmd", 2 ** 17, m0=2),
    # its outer iteration count varies from 14 to 28 with the grid seed,
    # and its time with it: a median needs three inputs
    "mmd_wide": Workload("mmd", 2 ** 14, m0=4, inputs=3),
    "gmd_long": Workload("gmd", 2 ** 20),
    "cli_roundtrip": Workload("cli", 262144),
}
# smoke-test sizes: every code path, a second or two per operation
TINY = {
    "mmd_long": Workload("mmd", 2 ** 13, m0=2),
    "mmd_wide": Workload("mmd", 2 ** 13, m0=2, inputs=3),
    "gmd_long": Workload("gmd", 2 ** 13),
    "cli_roundtrip": Workload("cli", 2 ** 12),
}

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "iterations": "count",
    "final_residual": "ratio", "truth_err": "ratio",
}


def _per_layer_units() -> dict:
    units = {}
    for fn in ("carrier", "demodulate", "unwarp_samples", "fold",
               "partition_regress", "center_shape"):
        units[f"fold_regress.{fn}.calls"] = "count"
        units[f"fold_regress.{fn}.self_s"] = "s"
    units["fold_regress.carrier.samples"] = "count"
    units["fold_regress.fold.samples"] = "count"
    units.update({"signal_model.eval_shape.calls": "count",
                  "signal_model.eval_shape.self_s": "s",
                  "signal_model.eval_shape.samples": "count"})
    for fn in ("make_shape", "signal_norm"):
        units[f"signal_model.{fn}.calls"] = "count"
        units[f"signal_model.{fn}.self_s"] = "s"
    units.update({"mmd.modified_rdbr.calls": "count",
                  "mmd.modified_rdbr.self_s": "s",
                  "mmd.modified_rdbr.total_s": "s",
                  "mmd.mmd_decompose.self_s": "s",
                  "mmd.outer_iteration_s": "s",
                  "mmd.inner_sweeps": "count",
                  "mmd.useful_pass_frac": "ratio",
                  "gmd.rdbr_sweep.calls": "count",
                  "gmd.rdbr_sweep.self_s": "s",
                  "gmd.rdbr_sweep.total_s": "s",
                  "gmd.gmd_decompose.self_s": "s"})
    for fn in READERS + WRITERS:
        units[f"cli.{fn}.calls"] = "count"
        units[f"cli.{fn}.total_s"] = "s"
    units.update({"cli.bytes_read": "bytes", "cli.bytes_written": "bytes",
                  "cli.read_mb_per_s": "MB/s", "cli.write_mb_per_s": "MB/s"})
    for fn in ("partition_counts", "well_diff_stats", "autocorrelation"):
        units[f"diagnostics.{fn}.total_s"] = "s"
    units["synth.gen_example_4_1.total_s"] = "s"
    for mod in MODULES:
        units[f"{mod}.self_s"] = "s"
    units["trace.traced_wall_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


READERS = ("read_signal_csv", "read_phases_csv")
WRITERS = ("write_signal_csv", "write_phases_csv", "write_shape_csv",
           "write_report")
PER_LAYER = _per_layer_units()


# ---------------------------------------------------------------------------
# inputs, operations and their correctness checks

def generate(w: Workload, seed: int):
    return md.gen_example_4_1(w.samples, 0.0, seed, "iid_uniform")


def rel_gap(got, want) -> float:
    denom = md.signal_norm(want)
    return md.signal_norm(np.asarray(got) - want) / (denom if denom > 0 else 1.0)


def operate(w: Workload, ex, seed: int, out_dir: Path, step):
    """One operation; ``step()`` times each call into the library."""
    if w.kind == "mmd":
        cfg = md.MmdConfig(m0=w.m0, bins=200)
        with step():
            return md.mmd_decompose(ex.signal, list(ex.priors), cfg)
    if w.kind == "gmd":
        with step():
            return md.gmd_decompose(ex.signal, list(ex.priors), eps=1e-6, bins=200)
    data, gmd, diag = out_dir / "data", out_dir / "gmd", out_dir / "diag"
    commands = (
        ["synth", "--example", "ex4_1", "--samples", str(w.samples),
         "--grid", "iid", "--seed", str(seed), "--out", str(data)],
        ["gmd", "--signal", str(data / "signal.csv"),
         "--phases", str(data / "phases.csv"), "--out", str(gmd)],
        ["diagnose", "--residual", str(gmd / "residual.csv"),
         "--out", str(diag)],
    )
    for argv in commands:
        with step():
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"modedecomp {argv[0]} exited with {code}")
    return out_dir


def _band_product_error(res, ex) -> tuple[float, float]:
    """Largest band-product error and largest zero-band coefficient, as in
    the acceptance suite's mmd recovery criterion."""
    def ev(shapes, n):
        return md.eval_shape(shapes[n], FINE)
    errors, zero_coeffs = [], []
    for est, tru in zip(res.estimates, ex.truth):
        errors.append(rel_gap(ev(est.cos_shapes, 0), ev(tru.cos_shapes, 0)))
        errors.append(rel_gap(ev(est.cos_shapes, 1) + ev(est.cos_shapes, -1),
                              ev(tru.cos_shapes, 1) + ev(tru.cos_shapes, -1)))
        errors.append(rel_gap(ev(est.sin_shapes, 1) - ev(est.sin_shapes, -1),
                              ev(tru.sin_shapes, 1) - ev(tru.sin_shapes, -1)))
        zero_coeffs += [c for n, c in est.cos_coeffs.items() if n not in (0, 1)]
        zero_coeffs += [c for n, c in est.sin_coeffs.items() if n != 1]
    return max(errors), max(zero_coeffs, default=0.0)


def check(w: Workload, ex, out) -> tuple[dict, list[str]]:
    """Quality of one operation's output and the acceptance bounds it broke."""
    problems = []
    if w.kind == "cli":
        modes, residual, report = _read_cli_outputs(ex, out, problems)
        iterations = report["iterations"]
        stop = report["stop_reason"]
        final = report["residual_norms"][-1]
    else:
        report = out.report
        residual = out.residual.values
        iterations, stop = report.iterations, report.stop_reason.value
        final = report.residual_norms[-1]
        if w.kind == "gmd":
            modes = [m.values for m in out.modes]
        else:
            modes = [est.mode.values for est in out.estimates]
    if w.kind == "mmd":
        truth_err, zero_coeff = _band_product_error(out, ex)
        if zero_coeff > TRUTH_BOUND:
            problems.append(f"zero-band coefficient {zero_coeff:.3e} "
                            f"> {TRUTH_BOUND:g}")
    else:
        truth_err = max(rel_gap(m, c.values) for m, c in zip(modes, ex.components))
    identity = rel_gap(np.sum(modes, axis=0) + residual, ex.signal.values)
    if not truth_err <= TRUTH_BOUND:
        problems.append(f"truth error {truth_err:.3e} > {TRUTH_BOUND:g}")
    if not identity <= IDENTITY_BOUND:
        problems.append(f"modes + residual miss the signal by {identity:.3e}")
    quality = {"iterations": iterations, "stop_reason": stop,
               "final_residual": final, "truth_err": truth_err}
    return quality, problems


def _read_cli_outputs(ex, out: Path, problems: list[str]):
    data, gmd = out / "data", out / "gmd"
    signal = cli.read_signal_csv(data / "signal.csv")
    times, priors = cli.read_phases_csv(data / "phases.csv")
    exact = (np.array_equal(signal.times, ex.signal.times)
             and np.array_equal(signal.values, ex.signal.values)
             and np.array_equal(times, ex.signal.times)
             and len(priors) == len(ex.priors)
             and all(np.array_equal(p.phase, q.phase)
                     and np.array_equal(p.amplitude, q.amplitude)
                     for p, q in zip(priors, ex.priors)))
    if not exact:
        problems.append("signal.csv/phases.csv differ from the generator's arrays")
    modes = [cli.read_signal_csv(gmd / f"mode_{k}.csv").values
             for k in range(1, len(ex.priors) + 1)]
    residual = cli.read_signal_csv(gmd / "residual.csv").values
    report = cli.read_report(gmd / "report.json")
    rho = np.loadtxt(out / "diag" / "autocorrelation.csv", delimiter=",",
                     skiprows=1)
    if rho.shape != (101, 2) or rho[0, 1] != 1.0:
        problems.append(f"autocorrelation.csv malformed: shape {rho.shape}")
    return modes, residual, report


# ---------------------------------------------------------------------------
# measurement

def reference_s() -> float:
    """Time of the fixed reference kernel, about REF_S on a quiet machine."""
    x, table = _REF_X, _REF_TABLE
    start = time.perf_counter()
    for _ in range(20):
        u = np.mod(x * 7.3, 1.0)
        j = (u * table.size).astype(np.int64)
        np.bincount(j, weights=np.cos(2.0 * np.pi * 3.0 * x) * x,
                    minlength=table.size)
        w = u * table.size - j
        (1.0 - w) * table[j] + w * table[(j + 1) % table.size]
        text = ",".join(f"{v:.17g}" for v in x[:400])
        [float(part) for part in text.split(",")]
    return time.perf_counter() - start


class StepTimer:
    """Sums the raw and the scaled time of timed steps.

    The reference kernel runs after every step, so each step is scaled by
    the mean of the kernel times just before and just after it.
    """

    def __init__(self, ref: float):
        self.ref = ref
        self.raw = 0.0
        self.scaled = 0.0

    @contextmanager
    def step(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            raw = time.perf_counter() - start
            ref = reference_s()
            self.raw += raw
            self.scaled += raw * REF_S / ((self.ref + ref) / 2)
            self.ref = ref


def run_op(w, ex, seed, index, tracer: Tracer | None, ref_before: float):
    """One operation, timed and scaled step by step, then its checks.

    Returns the operation's record and the last reference kernel time.
    """
    rec = {"op": index, "seed": seed, "traced": tracer is not None}
    out_dir = RUN_DIR / "work" / f"op{index}"
    shutil.rmtree(out_dir, ignore_errors=True)
    problems, out = [], None
    timer = StepTimer(ref_before)
    try:
        if tracer is None:
            out = operate(w, ex, seed, out_dir, timer.step)
        else:
            with tracer.installed(), tracer.span("bench.op") as sid:
                out = operate(w, ex, seed, out_dir, timer.step)
            rec["root"] = sid
        rec["raw_wall_s"] = timer.raw
        rec["wall_s"] = timer.scaled
        rec["scale"] = timer.scaled / timer.raw
    except Exception as exc:  # a failed operation is counted, not fatal
        problems.append(f"{type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)
    if out is not None:
        try:
            rec["quality"], problems = check(w, ex, out)
        except Exception as exc:  # a check that cannot run fails the operation
            problems.append(f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
    shutil.rmtree(out_dir, ignore_errors=True)
    rec["problems"] = problems
    status = "ok" if not problems else "FAILED " + "; ".join(problems)
    print(f"op {index} seed={seed} traced={int(rec['traced'])} "
          f"wall_s={rec.get('wall_s', float('nan')):.4f} "
          f"raw_wall_s={rec.get('raw_wall_s', float('nan')):.4f} {status}",
          file=sys.stderr, flush=True)
    return rec, timer.ref


def measure(w, inputs, seconds: float, tracer: Tracer | None,
            ref: float) -> list[dict]:
    """Closed loop: one caller, each operation starts when the last ends.

    Runs until the next round would pass ``seconds``, but at least one
    round per input untraced, or one untraced-plus-traced pair traced.
    ``ref`` is the reference time taken just before the loop.
    """
    ops = []
    min_rounds = 1 if tracer else len(inputs)
    start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        seed, ex = inputs[rounds % len(inputs)]
        for t in (None, tracer) if tracer else (None,):
            rec, ref = run_op(w, ex, seed, len(ops), t, ref)
            ops.append(rec)
        rounds += 1
        now = time.perf_counter()
        if rounds >= min_rounds and (now - start) + (now - round_start) > seconds:
            return ops


def repeat_problems(ops) -> None:
    """Operations on one input must reproduce its first result exactly."""
    first = {}
    for rec in ops:
        if "quality" not in rec:
            continue
        seen = first.setdefault(rec["seed"], rec["quality"])
        if rec["quality"] != seen:
            rec["problems"].append(f"result differs from the first run on "
                                   f"seed {rec['seed']}: {rec['quality']}")


def import_probe_s() -> list[float]:
    probe = ("import time; t = time.perf_counter(); import modedecomp; "
             "print(time.perf_counter() - t)")
    return [float(subprocess.run([sys.executable, "-c", probe], check=True,
                                 capture_output=True, text=True,
                                 timeout=60).stdout)
            for _ in range(IMPORT_PROBES)]


def end_to_end(ops, setup_s: float) -> dict:
    walls = [rec["wall_s"] for rec in ops if "wall_s" in rec]
    per_input = {}
    for rec in ops:
        if "quality" in rec:
            per_input.setdefault(rec["seed"], rec["quality"])
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls) if walls else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for key in ("iterations", "final_residual", "truth_err"):
        got = [q[key] for q in per_input.values()]
        values[key] = statistics.median(got) if got else None
    return values


def scaled_summary(spans, roots) -> dict:
    """``{name: [calls, total_s, self_s, count]}`` over ``(root, scale)``
    pairs, each root's times multiplied by its scale."""
    out: dict[str, list] = {}
    for root, scale in roots:
        for name, (calls, total_ns, self_ns, count) in summarize(spans, [root]).items():
            entry = out.setdefault(name, [0, 0.0, 0.0, 0])
            entry[0] += calls
            entry[1] += total_ns * scale / 1e9
            entry[2] += self_ns * scale / 1e9
            entry[3] += count
    return out


def per_layer(ops, tracer: Tracer, components: int, setup: tuple) -> dict:
    traced = [rec for rec in ops if rec["traced"] and "wall_s" in rec]
    plain = [rec["wall_s"] for rec in ops if not rec["traced"] and "wall_s" in rec]
    n_ops = max(len(traced), 1)
    stats = scaled_summary(tracer.spans, [(rec["root"], rec["scale"]) for rec in traced])

    def get(name, field):
        calls, total_s, self_s, count = stats.get(name, (0, 0.0, 0.0, 0))
        return {"calls": calls, "total_s": total_s, "self_s": self_s,
                "samples": count}[field]

    values = {}
    for metric in PER_LAYER:
        parts = metric.rsplit(".", 1)
        if parts[0] in TRACED:
            values[metric] = get(*parts) / n_ops
    for mod in MODULES:
        values[f"{mod}.self_s"] = sum(
            s[2] for name, s in stats.items() if name.split(".")[0] == mod) / n_ops
    iterations = sum(rec["quality"]["iterations"] for rec in traced
                     if "quality" in rec)
    values["mmd.outer_iteration_s"] = (
        get("mmd.mmd_decompose", "total_s") / iterations if iterations else 0.0)
    values["mmd.inner_sweeps"] = get("fold_regress.demodulate", "calls") / components / n_ops
    useful, passes = tracer.passes
    values["mmd.useful_pass_frac"] = useful / passes if passes else 0.0
    read_b = sum(get(f"cli.{fn}", "samples") for fn in READERS)
    write_b = sum(get(f"cli.{fn}", "samples") for fn in WRITERS)
    read_s = sum(get(f"cli.{fn}", "total_s") for fn in READERS)
    write_s = sum(get(f"cli.{fn}", "total_s") for fn in WRITERS)
    values["cli.bytes_read"] = read_b / n_ops
    values["cli.bytes_written"] = write_b / n_ops
    values["cli.read_mb_per_s"] = read_b / read_s / 1e6 if read_s else 0.0
    values["cli.write_mb_per_s"] = write_b / write_s / 1e6 if write_s else 0.0
    # set-up generation counts too: it is the library workloads' set-up
    gen = scaled_summary(tracer.spans, [setup] + [(rec["root"], rec["scale"])
                                                  for rec in traced])
    calls, total_s, _, _ = gen.get("synth.gen_example_4_1", (0, 0.0, 0.0, 0))
    values["synth.gen_example_4_1.total_s"] = total_s / calls if calls else 0.0
    traced_wall = statistics.median([rec["wall_s"] for rec in traced]) if traced else 0.0
    values["trace.traced_wall_s"] = traced_wall
    values["trace.overhead_frac"] = (traced_wall / statistics.median(plain) - 1.0
                                     if plain and traced else 0.0)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    w = (TINY if args.tiny else WORKLOADS)[args.workload]
    seeds = [w.inputs * args.seed + j for j in range(w.inputs)]
    RUN_DIR.mkdir(exist_ok=True)

    tracer = Tracer() if args.trace else None
    import_s, gen_s = [IMPORT_S], []
    ref_before = reference_s()
    if tracer is None:
        import_s += import_probe_s()
        while len(gen_s) < SETUP_REPEATS or sum(gen_s) < SETUP_MIN_S:
            start = time.perf_counter()
            inputs = [(s, generate(w, s)) for s in seeds]
            gen_s.append(time.perf_counter() - start)
    else:
        with tracer.installed(), tracer.span("bench.setup") as setup_root:
            inputs = [(s, generate(w, s)) for s in seeds]
    ref_after = reference_s()
    setup_scale = REF_S / ((ref_before + ref_after) / 2)
    raw_setup_s = statistics.median(import_s) + (statistics.median(gen_s)
                                                 if gen_s else 0.0)

    ops = measure(w, inputs, args.seconds, tracer, ref_after)
    repeat_problems(ops)
    record = {
        "workload": args.workload, "seed": args.seed, "input_seeds": seeds,
        "samples": w.samples, "m0": w.m0, "tiny": args.tiny,
        "numpy": np.__version__, "ops": ops,
        "import_s": import_s, "gen_s": gen_s, "setup_scale": setup_scale,
    }
    if tracer is None:
        record["metrics"] = end_to_end(ops, raw_setup_s * setup_scale)
        record["units"] = END_TO_END
        raw = [rec["raw_wall_s"] for rec in ops if "raw_wall_s" in rec]
        record["raw"] = {"setup_s": raw_setup_s,
                         "wall_s": statistics.median(raw) if raw else None}
    else:
        metrics = per_layer(ops, tracer, len(inputs[0][1].priors),
                            (setup_root, setup_scale))
        record["metrics"] = {name: metrics[name] for name in PER_LAYER}
        record["units"] = PER_LAYER
        tracer.dump(RUN_DIR / f"trace_{args.workload}.jsonl")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
