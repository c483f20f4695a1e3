"""Measure how cycle-spinning closes the gap to the shift-invariant method.

Runs the decimated joint-expansion denoiser at 1, 4, 8, and 16 spins plus
the undecimated pointwise method on the same noisy magnitude images, and
prints mean output PSNR per noise level.
"""

import argparse

import numpy as np

from curelet.chi2model import reconstruct_magnitude, rescale_squared, sample_rician
from curelet.pipeline import denoise_mr, make_phantom, psnr
from curelet.shrinkage import haar_curelet_denoise


def spun_estimate(m, sigma, n_spins, J):
    noisy = rescale_squared(m, sigma)
    xhat, _ = haar_curelet_denoise(noisy.samples, noisy.dof, J=J, spins=n_spins)
    return reconstruct_magnitude(xhat, sigma)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--phantom", default="shepp-logan",
                        choices=("shepp-logan", "piecewise", "constant"))
    parser.add_argument("--size", type=int, default=128)
    parser.add_argument("--sigmas", type=float, nargs="+",
                        default=[10.0, 30.0, 50.0])
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--levels", type=int, default=3)
    args = parser.parse_args(argv)

    mu = make_phantom(args.phantom, args.size)
    spins = (1, 4, 8, 16)
    header = ["sigma", "input"] + [f"spins={n}" for n in spins] + ["uwt"]
    print("  ".join(f"{h:>8s}" for h in header))
    for sigma in args.sigmas:
        cols = {h: [] for h in header[1:]}
        for seed in range(args.seeds):
            m = sample_rician(mu, sigma, seed=seed)
            cols["input"].append(psnr(m, mu))
            for n in spins:
                cols[f"spins={n}"].append(
                    psnr(spun_estimate(m, sigma, n, args.levels), mu))
            est = denoise_mr(m, sigma=sigma, method="uwt", J=args.levels)
            cols["uwt"].append(psnr(est.estimate, mu))
        row = [f"{sigma:8.1f}"]
        row += [f"{np.mean(cols[h]):8.2f}" for h in header[1:]]
        print("  ".join(row))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
