"""modedecomp benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload mmd_long --seed 1 --seconds 20 --trace 0

Run from the repository root. The workload runs in a child process of its
own (``worker.py``) so that its peak resident memory is its own, with the
BLAS/OpenMP thread counts capped at the number of usable CPUs. With
``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run. The full record of
the run, with the environment, goes to ``.bench_run/``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".bench_run"
WORKLOADS = ("mmd_long", "mmd_wide", "gmd_long", "cli_roundtrip")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the whole run must end within 180 s
CHILD_TIMEOUT_S = 170


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        try:
            env[var] = str(max(1, min(int(env[var]), nproc)))
        except (KeyError, ValueError):
            env[var] = str(nproc)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def print_summary(record: dict, env_info: dict) -> None:
    name, seed = record["workload"], record["seed"]
    print(f"env {json.dumps(env_info, sort_keys=True)}")
    ops = record["ops"]
    for rec in ops:
        if rec["problems"]:
            print(f"FAILED {name} seed={seed} op {rec['op']} "
                  f"(input seed {rec['seed']}): {'; '.join(rec['problems'])}")
    seen = set()
    for rec in ops:
        if "quality" in rec and rec["seed"] not in seen:
            seen.add(rec["seed"])
            q = rec["quality"]
            print(f"{name} input seed {rec['seed']}: iterations={q['iterations']} "
                  f"stop={q['stop_reason']} final_residual={q['final_residual']:.6e} "
                  f"truth_err={q['truth_err']:.6e}")
    n_wall = sum(1 for rec in ops if "wall_s" in rec and not rec["traced"])
    failed = sum(1 for rec in ops if rec["problems"])
    print(f"{name} seed={seed} samples={record['samples']} m0={record['m0']} "
          f"operations={len(ops)} untraced={n_wall} failed_frac={failed / len(ops):g}")
    if "raw" in record:
        print(f"{name} unscaled: setup_s={record['raw']['setup_s']} s "
              f"wall_s={record['raw']['wall_s']} s")
    for metric, value in record["metrics"].items():
        unit = record["units"][metric]
        print(f"{name} {metric} = {value} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes; not a measurement")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "modedecomp" / "__init__.py").is_file():
        print(f"error: no modedecomp sources under {ROOT / 'src'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"error: workload did not finish in {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    if proc.returncode != 0 or not out.strip():
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    record = json.loads(out.strip().splitlines()[-1])

    env_info = {
        "python": platform.python_version(), "numpy": record["numpy"],
        "cpu": cpu_model(), "nproc": nproc, "seed": args.seed,
        "input_seeds": record["input_seeds"], "seconds": args.seconds,
        "trace": args.trace, **{var: env[var] for var in THREAD_VARS},
    }
    record["env"] = env_info
    RUN_DIR.mkdir(exist_ok=True)
    (RUN_DIR / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print_summary(record, env_info)

    ops = record["ops"]
    failed = sum(1 for rec in ops if rec["problems"])
    metrics = {name: {"value": value, "unit": record["units"][name]}
               for name, value in record["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
