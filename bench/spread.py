"""Run one workload over several seeds and report how steady each metric is.

    python3 bench/spread.py --workload mmd_wide --seeds 1 2 3 4 5

For every end-to-end metric it prints the median and the distance between
the first and third quartile as a share of the median, against the bound in
BENCHMARK.json. It also checks that every input stopped for the same reason
and that their iteration counts lie within one of each other. Exits 1 when a
spread (other than ``setup_s``) exceeds its bound or that check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {name: [] for name in bounds}
    unscaled: dict[str, list[float]] = {"setup_s": [], "wall_s": []}
    iterations, stops, ok = [], set(), True
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= result["failed"] == 0
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        record = json.loads((ROOT / ".bench_run" /
                             f"result_{args.workload}_seed{seed}_trace0.json"
                             ).read_text(encoding="utf-8"))
        for name in unscaled:
            unscaled[name].append(record["raw"][name])
        for rec in record["ops"]:
            if "quality" in rec:
                iterations.append(rec["quality"]["iterations"])
                stops.add(rec["quality"]["stop_reason"])
        print(f"seed {seed}: failed {result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}"
                         for k, v in result["metrics"].items()), flush=True)

    print(f"{args.workload}: stop reasons {sorted(stops)}, iterations "
          f"{min(iterations)}..{max(iterations)}")
    ok &= len(stops) == 1 and max(iterations) - min(iterations) <= 1
    for name, got in values.items():
        q1, median, q3 = statistics.quantiles(got, n=4)
        spread = (q3 - q1) / median
        steady = spread <= bounds[name] or name == "setup_s"
        ok &= steady
        print(f"{name:15s} median {median:.6g}  spread {spread:.4f}  "
              f"bound {bounds[name]}  {'ok' if steady else 'TOO WIDE'}"
              f"{'' if spread < bounds[name] / 3 else ' (above a third)'}")
    for name, got in unscaled.items():
        q1, median, q3 = statistics.quantiles(got, n=4)
        print(f"unscaled {name:6s} median {median:.6g}  spread {(q3 - q1) / median:.4f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
