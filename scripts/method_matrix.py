"""Time and size every method at every image size, one process per cell.

    python scripts/method_matrix.py --out SIZES.json
    python scripts/method_matrix.py --parent ../parent --pairs 10 --methods uwt-bdct \
        --shapes 512x512 1024x1024
    python scripts/method_matrix.py --methods uwt --levels 5 --shapes 512x512

The protocol is fixed: Shepp-Logan at sigma 20, seed 0, cropped from the
phantom of the shape's larger side, with OMP_NUM_THREADS=1; --levels sets
the level count J of every method (3 by default). Each (method,
shape) cell runs in a fresh process of this script (--cell), which times
--reps calls of denoise_mr and reports the best wall time, its own peak RSS
(ru_maxrss) and minor page faults (ru_minflt), both whole-process, and, as
quality columns that a perf change must not move, the x-domain MSE against
(mu / sigma)^2 and the reported cure. The child imports
curelet from the measured checkout's src/ (this script's own by default).
With --out it writes JSON with the environment: Python, numpy, the commit
and the curelet package imported.

With --parent PATH, every pair runs each cell of PATH's src/ and of this
checkout's, the parent first in even pairs and the change first in odd ones,
and per cell reports each side's median and quartiles of the time, the RSS
and the minor faults, how many pairs the change won (ties win nothing) and
whether the gap of the medians exceeds the parent's interquartile range, then
every run.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import curelet
from curelet.chi2model import sample_rician
from curelet.pipeline import METHODS, denoise_mr, make_phantom

SHAPES = ("128x128", "256x256", "512x512", "511x383")
SIGMA, SEED = 20.0, 0
SRC = Path(curelet.__file__).resolve().parent.parent


def environment(src: Path) -> dict:
    def git(*args):
        run = subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True)
        return run.stdout.strip() if run.returncode == 0 else ""

    commit = git("rev-parse", "HEAD") or "unknown"
    dirty = bool(git("status", "--porcelain", "--", "."))
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "commit": commit + ("-dirty" if dirty else ""), "curelet": str(src / "curelet")}


def shape_of(text: str) -> tuple:
    rows, cols = (int(n) for n in text.lower().split("x"))
    return rows, cols


def data(shape: tuple) -> tuple:
    """The protocol's clean magnitude mu and its noisy magnitude m at shape."""
    mu = make_phantom("shepp-logan", max(shape))[:shape[0], :shape[1]]
    return mu, sample_rician(mu, SIGMA, SEED)


def xmse(xhat, mu) -> float:
    """The x-domain MSE of xhat against (mu / sigma)^2."""
    return float(((xhat - (mu / SIGMA) ** 2) ** 2).mean())


def quartiles(values) -> list:
    return [float(q) for q in np.percentile(values, [25, 50, 75])]


def wins(parent, change) -> int:
    """Pairs the change won, lower winning; ties win nothing."""
    return int(np.sum(np.asarray(change) < np.asarray(parent)))


def measure(method: str, shape: tuple, reps: int, levels: int) -> dict:
    """One cell, in this process: best-of-reps seconds, peak RSS, minor faults, x-MSE and cure."""
    mu, m = data(shape)
    seconds = []
    for _ in range(reps):
        start = time.perf_counter()
        result = denoise_mr(m, sigma=SIGMA, method=method, J=levels)
        seconds.append(time.perf_counter() - start)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"method": method, "shape": list(shape), "reps": reps, "seconds": min(seconds),
            "rss_mb": usage.ru_maxrss / 1024.0, "minflt": usage.ru_minflt,
            "xmse": xmse(result.xhat, mu), "cure": float(result.cure)}


def run_cell(src: Path, method: str, shape: str, reps: int, levels: int) -> dict:
    """measure() in a fresh process that imports curelet from src."""
    env = dict(os.environ, OMP_NUM_THREADS="1", PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, __file__, "--cell", method, shape, "--reps", str(reps),
                           "--levels", str(levels)], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{src}: cell {method} {shape} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def compare(parent: list, change: list) -> dict:
    """Medians, quartiles and change wins of the time, RSS and minor faults; lower wins."""
    out = {}
    for key in ("seconds", "rss_mb", "minflt"):
        p, c = ([r[key] for r in runs] for runs in (parent, change))
        (p25, p50, p75), (c25, c50, c75) = quartiles(p), quartiles(c)
        out[key] = {"parent": [p25, p50, p75], "change": [c25, c50, c75],
                    "won": wins(p, c), "gap_gt_iqr": bool(abs(c50 - p50) > p75 - p25)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--methods", nargs="+", default=list(METHODS), choices=METHODS)
    parser.add_argument("--shapes", nargs="+", default=list(SHAPES), help="ROWSxCOLS each")
    parser.add_argument("--reps", type=int, default=3, help="calls per cell, the best one counts")
    parser.add_argument("--levels", type=int, default=3, help="level count J of every method")
    parser.add_argument("--parent", type=Path, help="checkout measured as the baseline")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, help="write the cells as JSON here")
    parser.add_argument("--cell", nargs=2, metavar=("METHOD", "SHAPE"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.cell:
        print(json.dumps(measure(args.cell[0], shape_of(args.cell[1]), args.reps, args.levels)))
        return 0

    cells = [(method, shape) for shape in args.shapes for method in args.methods]
    protocol = {"phantom": "shepp-logan", "sigma": SIGMA, "seed": SEED, "reps": args.reps,
                "levels": args.levels, "methods": args.methods, "shapes": [list(shape_of(s)) for s in args.shapes]}
    if args.parent is None:
        print(f"{'method':<10s} {'shape':>9s} {'seconds':>9s} {'rss_mb':>8s} {'minflt':>8s} "
              f"{'xmse':>12s} {'cure':>12s}")
        results = []
        for method, shape in cells:
            r = run_cell(SRC, method, shape, args.reps, args.levels)
            results.append(r)
            print(f"{method:<10s} {shape:>9s} {r['seconds']:9.4f} {r['rss_mb']:8.1f} "
                  f"{r['minflt']:8d} {r['xmse']:12.6g} {r['cure']:12.6g}", flush=True)
        record = {"protocol": protocol, "env": environment(SRC), "cells": results}
    else:
        sides = {"parent": args.parent.resolve() / "src", "change": SRC}
        runs = {cell: {"parent": [], "change": []} for cell in cells}
        for k in range(args.pairs):
            for side in ["parent", "change"] if k % 2 == 0 else ["change", "parent"]:
                for method, shape in cells:
                    runs[method, shape][side].append(
                        run_cell(sides[side], method, shape, args.reps, args.levels))
            print(f"pair {k + 1}/{args.pairs} done", file=sys.stderr, flush=True)
        print(f"{'method':<10s} {'shape':>9s} {'metric':<8s} {'parent p50 [p25, p75]':>28s}  "
              f"{'change p50 [p25, p75]':>28s}  {'won':>5s}  gap>IQR")
        results = []
        for (method, shape), both in runs.items():
            stats = compare(both["parent"], both["change"])
            results.append({"method": method, "shape": list(shape_of(shape)), **stats, **both})
            for key, s in stats.items():
                (p25, p50, p75), (c25, c50, c75) = s["parent"], s["change"]
                print(f"{method:<10s} {shape:>9s} {key:<8s} {p50:10.4g} [{p25:.4g}, {p75:.4g}]"
                      .ljust(59) + f"  {c50:10.4g} [{c25:.4g}, {c75:.4g}]".ljust(30)
                      + f"  {s['won']:2d}/{args.pairs:<2d}  {'yes' if s['gap_gt_iqr'] else 'no'}")
        for (method, shape), both in runs.items():
            for key in ("seconds", "rss_mb", "minflt", "xmse", "cure"):
                for side, values in both.items():
                    print(f"values {method} {shape} {key} {side} "
                          + " ".join(f"{r[key]:.6g}" for r in values))
        record = {"protocol": dict(protocol, pairs=args.pairs),
                  "env": {side: environment(src) for side, src in sides.items()},
                  "cells": results}
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
