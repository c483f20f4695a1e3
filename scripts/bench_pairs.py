"""Alternate perfbench runs of two checkouts and compare their end-to-end metrics.

    python scripts/bench_pairs.py PARENT CHANGE --workload sweep-128 --seed 1 --pairs 10

Each pair runs PARENT/perfbench/run.py and CHANGE/perfbench/run.py once with
--trace 0, in a fresh process each, the parent first in even pairs and the
change first in odd ones, so a slow stretch of the machine does not fall on
one side. Each run's last line of output is its JSON result. For every
end-to-end metric of PARENT/BENCHMARK.json it prints each side's median and
quartiles, how many pairs the change won (ties win nothing) and whether the
gap of the medians exceeds the parent's interquartile range, then every
run's value and both sides' fail counts.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def run(checkout: Path, args) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=args.timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: perfbench exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout measured as the baseline")
    parser.add_argument("change", type=Path, help="checkout measured against it")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--timeout", type=float, default=900.0, help="seconds per run")
    args = parser.parse_args(argv)

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"parent": [], "change": []}
    for k in range(args.pairs):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        for side in order:
            sides[side].append(run(getattr(args, side), args))
        print(f"pair {k + 1}/{args.pairs} done", file=sys.stderr, flush=True)

    def values(side, name):
        return np.array([r["metrics"][name]["value"] for r in sides[side]])

    print(f"{args.workload} seed {args.seed}, {args.pairs} alternating pairs, "
          f"--seconds {args.seconds:g}")
    print(f"{'metric':<22s} {'better':>6s}  {'parent p50 [p25, p75]':>30s}  "
          f"{'change p50 [p25, p75]':>30s}  {'won':>5s}  gap>IQR")
    for name, direction in better.items():
        p, c = values("parent", name), values("change", name)
        sign = 1.0 if direction == "higher" else -1.0
        won = int(np.sum(sign * (c - p) > 0))
        (p25, p50, p75), (c25, c50, c75) = (np.percentile(v, [25, 50, 75]) for v in (p, c))
        print(f"{name:<22s} {direction:>6s}  {p50:10.4g} [{p25:.4g}, {p75:.4g}]".ljust(62)
              + f"  {c50:10.4g} [{c25:.4g}, {c75:.4g}]".ljust(32)
              + f"  {won:2d}/{len(p):<2d}  {'yes' if abs(c50 - p50) > p75 - p25 else 'no'}")
    for name in better:
        for side in sides:
            print(f"values {name} {side} " + " ".join(f"{v:.6g}" for v in values(side, name)))
    for side, runs in sides.items():
        print(f"failed {side} " + " ".join(f"{r['failed']}/{r['attempted']}" for r in runs))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
