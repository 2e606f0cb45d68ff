"""Run one workload of the end-to-end benchmark over several seeds and
print, per end-to-end metric, the median and the spread (interquartile
range over median, from statistics.quantiles) across the runs.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]
                                [--seconds 20] [--trace 0]

Run from the repository root.  Exits 1 if any run fails or reports an
incorrect answer.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", args.trace],
            capture_output=True, text=True, check=False)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stdout + out.stderr)
            print(f"seed {seed}: exit {out.returncode}")
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect answer")
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
            flush=True)

    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2 and med != 0:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = f"{(q3 - q1) / med:.4f}"
        else:
            spread = "n/a"
        print(f"{name:32s} median {med:.6g} {units[name]:6s} spread {spread}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
