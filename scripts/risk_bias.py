"""Measure the bias of every method's reported risk against its true x-domain MSE.

    python scripts/risk_bias.py --out BIAS.json

The protocol is fixed: the Shepp-Logan and piecewise phantoms, sigma 10, 30
and 50, seeds 0 to --seeds - 1, the four METHODS and CUREshrink. Each seed
draws m = sample_rician(mu, sigma, seed); a method runs as denoise_mr(m,
sigma=sigma, method=...), CUREshrink as cureshrink_denoise((m / sigma)^2, K=2,
J=3). Against x = (mu / sigma)^2, mse = mean((xhat - x)^2). Per cell it
reports mean(cure - mse), its standard error over the seeds (ddof 1), that
bias in standard errors and as a share of the mean mse, and the mean PSNR of
the magnitude estimate. It prints a table and, with --out, writes JSON with
the environment: Python, numpy, the commit and the curelet package imported.
"""

import argparse
import json
import platform
import subprocess
from pathlib import Path

import numpy as np

import curelet
from curelet.chi2model import reconstruct_magnitude, sample_rician
from curelet.pipeline import METHODS, denoise_mr, make_phantom, psnr
from curelet.shrinkage import cureshrink_denoise

PHANTOMS = ("shepp-logan", "piecewise")
SIGMAS = (10.0, 30.0, 50.0)


def environment() -> dict:
    package = Path(curelet.__file__).resolve().parent

    def git(*args):
        run = subprocess.run(["git", "-C", str(package), *args], capture_output=True, text=True)
        return run.stdout.strip() if run.returncode == 0 else ""

    commit = git("rev-parse", "HEAD") or "unknown"
    dirty = bool(git("status", "--porcelain", "--", "."))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "commit": commit + ("-dirty" if dirty else ""), "curelet": str(curelet.__file__)}


def run_method(method, m, mu, sigma):
    """(cure, mse, psnr) of one method on the noisy magnitudes m."""
    if method == "cureshrink":
        xhat, report = cureshrink_denoise((m / sigma) ** 2, 2.0, J=3)
        cure, estimate = report.cure, reconstruct_magnitude(xhat, sigma)
    else:
        result = denoise_mr(m, sigma=sigma, method=method)
        xhat, cure, estimate = result.xhat, result.cure, result.estimate
    return float(cure), float(((xhat - (mu / sigma) ** 2) ** 2).mean()), psnr(estimate, mu)


def cell(phantom, sigma, method, runs) -> dict:
    cure, mse, quality = np.array(runs).T
    gap = cure - mse
    bias, se = float(gap.mean()), float(gap.std(ddof=1) / np.sqrt(len(gap)))
    return {"phantom": phantom, "sigma": sigma, "method": method, "seeds": len(gap),
            "bias": bias, "se": se, "bias_se": bias / se, "bias_share": bias / float(mse.mean()),
            "mse_mean": float(mse.mean()), "psnr_mean": float(quality.mean())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=128)
    parser.add_argument("--seeds", type=int, default=12)
    parser.add_argument("--out", type=Path, help="write the cells as JSON here")
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds must be at least 2 for a standard error")

    methods = METHODS + ("cureshrink",)
    cells = []
    print(f"{'phantom':<12s} {'sigma':>5s} {'method':<10s} {'bias':>9s} {'se':>8s} "
          f"{'bias/se':>8s} {'share':>7s} {'psnr':>6s}")
    for phantom in PHANTOMS:
        mu = make_phantom(phantom, args.size)
        for sigma in SIGMAS:
            runs = {method: [] for method in methods}
            for seed in range(args.seeds):
                m = sample_rician(mu, sigma, seed)
                for method in methods:
                    runs[method].append(run_method(method, m, mu, sigma))
            for method in methods:
                c = cell(phantom, sigma, method, runs[method])
                cells.append(c)
                print(f"{phantom:<12s} {sigma:5.0f} {method:<10s} {c['bias']:9.3f} {c['se']:8.3f} "
                      f"{c['bias_se']:8.1f} {c['bias_share']:7.1%} {c['psnr_mean']:6.2f}")
    if args.out:
        protocol = {"size": args.size, "seeds": args.seeds, "phantoms": list(PHANTOMS),
                    "sigmas": list(SIGMAS), "methods": list(methods)}
        args.out.write_text(json.dumps(
            {"protocol": protocol, "env": environment(), "cells": cells}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
