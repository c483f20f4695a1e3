"""Trace risk estimate vs oracle MSE across threshold scales on one subband.

Sweeps the soft-threshold scale a for a single wavelet detail subband and
prints both curves plus their minimizers. The risk curve is computed from
the noisy data alone, the MSE curve needs the clean image, and the point of
the experiment is that their minima land on (nearly) the same a.
"""

import argparse

import numpy as np

from curelet.chi2model import sample_chi2
from curelet.pipeline import make_phantom
from curelet.risk import cure_subband
from curelet.shrinkage import cureshrink_evaluation
from curelet.transforms import haar_step


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=128)
    parser.add_argument("--scale", type=float, default=25.0,
                        help="divides the phantom before squaring")
    parser.add_argument("--level", type=int, default=1)
    parser.add_argument("--orientation", default="hh",
                        choices=("lh", "hl", "hh"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--steps", type=int, default=41,
                        help="grid points on a in [0, 4]")
    args = parser.parse_args(argv)
    if args.level < 1 or args.size % 2 ** args.level:
        parser.error("--level must be at least 1, with --size a multiple of 2^level")

    x = (make_phantom("shepp-logan", args.size) / args.scale) ** 2
    y = sample_chi2(x, 2, seed=args.seed).samples
    s, clean = y, x
    for _ in range(args.level):  # level j: the sums of level j - 1 split again
        s, details = haar_step(s)
        clean, clean_details = haar_step(clean)
    w, omega = details[args.orientation], clean_details[args.orientation]
    kj = 2.0 * 4 ** args.level  # the level's sums add 4^level pixels of dof 2

    grid = np.linspace(0.0, 4.0, args.steps)
    risks, mses = [], []
    print(f"{'a':>6s} {'risk_estimate':>14s} {'oracle_mse':>14s}")
    for a in grid:
        ev = cureshrink_evaluation(w, s, float(a))
        risks.append(cure_subband(w, s, kj, ev))
        mses.append(float(((ev.theta - omega) ** 2).mean()))
        print(f"{a:6.2f} {risks[-1]:14.4f} {mses[-1]:14.4f}")
    a_risk = grid[int(np.argmin(risks))]
    a_star = grid[int(np.argmin(mses))]
    ev = cureshrink_evaluation(w, s, float(a_risk))
    mse_at_risk = float(((ev.theta - omega) ** 2).mean())
    print(f"risk minimizer a={a_risk:.2f}, oracle minimizer a={a_star:.2f}, "
          f"mse ratio {mse_at_risk / min(mses):.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
