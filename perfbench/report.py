"""Run every workload untraced and traced, then print one table.

    python3 perfbench/report.py [--seed 0] [--seconds N]

For each workload it prints every end-to-end metric with its unit, the
figures that only some workloads support (failed fraction, tail latency),
the tracing overhead (traced wall_s minus untraced wall_s) and the self time
of each layer.  Each run is a separate process, so peak memory is per
workload.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    json.loads(proc.stdout.strip().splitlines()[-1])  # the run printed a result
    return json.loads((HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args()

    for workload in workloads.WORKLOADS:
        plain = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        res, extra = plain["result"], plain["extra"]
        print(f"{workload}: correct {res['correct']}, {res['attempted']} jobs in {extra['passes']} passes, "
              f"failed_frac {extra['failed_frac']:.4f}")
        for name, m in res["metrics"].items():
            print(f"  {name:<14} {m['value']:.6g} {m['unit']}")
        if "job_tail_s" in extra:
            print(f"  {'job_tail_s':<14} {extra['job_tail_s']:.6g} s "
                  f"(p{extra['job_tail_percentile']:.2f} of {extra['successful_job_samples']} jobs)")
        layer = traced["result"]["metrics"]
        overhead = layer["trace.wall_s"]["value"] - res["metrics"]["wall_s"]["value"]
        print(f"  {'trace overhead':<14} {overhead:.6g} s (traced wall_s minus untraced wall_s)")
        print("  self time per pass: " + ", ".join(
            f"{name} {layer[f'{name}.self_s']['value']:.4g} s" for name in tracing.SPANNED))
    return 0


if __name__ == "__main__":
    sys.exit(main())
