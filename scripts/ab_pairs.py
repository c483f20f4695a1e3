"""Time two checkouts' denoise_mr in one process, in alternating pairs.

    OMP_NUM_THREADS=1 python scripts/ab_pairs.py ../parent --methods uwt uwt-bdct \
        --shapes 256x256 --pairs 20 --out AB.json

PARENT/src/curelet is imported under the package name curelet_parent,
beside this checkout's curelet, and both run method_matrix.py's protocol
(Shepp-Logan at sigma 20, seed 0, --levels J; run it with OMP_NUM_THREADS=1)
on the same input. Per (method, shape) cell it first calls each side once, and
prints whether their xhat and cure are equal or else the largest relative
difference (max |change - parent| / max |parent|). It then times pairs of
calls, the parent first in even pairs and the change first in odd ones
(A B B A ...), and reports the median of the paired ratios change / parent,
their quartiles, how many pairs the change won (a ratio below 1), and a
bootstrap 95% interval of the median. Pairs within one process share the
machine's state, so their ratios spread far less than separate runs do.
Time only: peak RSS and minor faults stay with method_matrix.py, whose cells
run in processes of their own. With --out it writes JSON with both commits.
"""

import argparse
import importlib.util
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from curelet import pipeline

sys.path.insert(0, str(Path(__file__).resolve().parent))
import method_matrix as mm  # noqa: E402  (a sibling script, found through the path above)

BOOTSTRAP, BOOTSTRAP_SEED = 2000, 0


def load(src: Path, name: str):
    """The pipeline module of the curelet package under src, imported as name."""
    spec = importlib.util.spec_from_file_location(
        name, src / "curelet" / "__init__.py", submodule_search_locations=[str(src / "curelet")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return sys.modules[f"{name}.pipeline"]


def largest_difference(parent, change) -> float:
    """0.0 if equal, else max |change - parent| / max |parent|."""
    parent, change = np.asarray(parent, dtype=float), np.asarray(change, dtype=float)
    if np.array_equal(parent, change):
        return 0.0
    return float(np.abs(change - parent).max() / np.abs(parent).max())


def cell(pipelines: dict, method: str, shape: tuple, pairs: int, levels: int) -> dict:
    mu, m = mm.data(shape)

    def call(side):
        start = time.perf_counter()
        result = pipelines[side].denoise_mr(m, sigma=mm.SIGMA, method=method, J=levels)
        return time.perf_counter() - start, result

    (_, parent), (_, change) = call("parent"), call("change")
    seconds = {"parent": [], "change": []}
    for k in range(pairs):
        for side in ["parent", "change"] if k % 2 == 0 else ["change", "parent"]:
            seconds[side].append(call(side)[0])
    ratios = np.divide(seconds["change"], seconds["parent"])
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    medians = np.median(rng.choice(ratios, (BOOTSTRAP, len(ratios))), axis=1)
    return {"method": method, "shape": list(shape),
            "xhat_difference": largest_difference(parent.xhat, change.xhat),
            "cure_difference": largest_difference(parent.cure, change.cure),
            "xmse": {"parent": mm.xmse(parent.xhat, mu), "change": mm.xmse(change.xhat, mu)},
            "ratio": mm.quartiles(ratios),
            "interval": [float(q) for q in np.percentile(medians, [2.5, 97.5])],
            "won": mm.wins(seconds["parent"], seconds["change"]), "ratios": ratios.tolist(),
            "seconds": seconds}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout measured as the baseline")
    parser.add_argument("--methods", nargs="+", default=list(mm.METHODS), choices=mm.METHODS)
    parser.add_argument("--shapes", nargs="+", default=["128x128", "256x256"],
                        help="ROWSxCOLS each")
    parser.add_argument("--levels", type=int, default=3, help="level count J of every method")
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--out", type=Path, help="write the cells as JSON here")
    args = parser.parse_args(argv)

    parent = args.parent.resolve() / "src"
    pipelines = {"parent": load(parent, "curelet_parent"), "change": pipeline}
    print(f"{'method':<10s} {'shape':>9s} {'xhat diff':>10s} {'cure diff':>10s}  "
          f"{'ratio p50 [p25, p75]':>26s}  {'95% interval':>16s}  {'won':>5s}")
    cells = []
    for shape in args.shapes:
        for method in args.methods:
            c = cell(pipelines, method, mm.shape_of(shape), args.pairs, args.levels)
            cells.append(c)
            (r25, r50, r75), (lo, hi) = c["ratio"], c["interval"]
            print(f"{method:<10s} {shape:>9s} {c['xhat_difference']:10.2g} "
                  f"{c['cure_difference']:10.2g}  {r50:8.3f} [{r25:.3f}, {r75:.3f}]".ljust(66)
                  + f"  [{lo:.3f}, {hi:.3f}]  {c['won']:2d}/{args.pairs:<2d}", flush=True)
    record = {"protocol": {"phantom": "shepp-logan", "sigma": mm.SIGMA, "seed": mm.SEED,
                           "levels": args.levels, "pairs": args.pairs, "methods": args.methods,
                           "shapes": [list(mm.shape_of(s)) for s in args.shapes],
                           "omp_num_threads": os.environ.get("OMP_NUM_THREADS")},
              "env": {"parent": mm.environment(parent), "change": mm.environment(mm.SRC)},
              "cells": cells}
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
