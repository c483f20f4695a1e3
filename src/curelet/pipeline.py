"""End-to-end magnitude MR denoising, quality metrics, and experiments.

The four-step chain: estimate sigma from a background region if needed,
square and rescale the magnitudes into the unitless chi-square domain,
run a risk-optimized denoiser there, and map the estimate back to
magnitudes through the blended square root. The rest of the module is
measurement plumbing: PSNR against the clean peak, its affine-corrected
variant, mean SSIM, deterministic phantoms, and a Monte Carlo driver
that emits CSV-ready rows.
"""
from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .chi2model import (
    _check_blend,
    estimate_sigma_background,
    reconstruct_magnitude,
    rescale_squared,
    sample_rician,
)
from .shrinkage import _check_levels, haar_curelet_denoise, uwt_curelet_denoise

__all__ = [
    "ImageBuffer",
    "QualityReport",
    "DenoiseResult",
    "ExperimentProtocol",
    "CSV_COLUMNS",
    "METHODS",
    "SIGMA_GRID",
    "PSNR_CAP",
    "psnr",
    "cipsnr",
    "ssim_mean",
    "quality_report",
    "make_phantom",
    "denoise_mr",
    "monte_carlo_experiment",
    "format_csv",
]

PSNR_CAP = 99.0
SIGMA_GRID = (5.0, 10.0, 20.0, 30.0, 50.0, 100.0)
METHODS = ("haar-cs1", "haar-cs16", "uwt", "uwt-bdct")
CSV_COLUMNS = (
    "method", "sigma", "seed_count",
    "psnr_mean", "psnr_se", "cipsnr_mean", "cipsnr_se",
    "ssim_mean", "ssim_se", "cure_mean", "mse_mean", "runtime_s",
)


@dataclass
class ImageBuffer:
    """Row-major 2-D scalar field with value semantics.

    semantics says what the numbers mean: "magnitude" (nonnegative MR
    magnitudes), "squared-rescaled" (chi-square domain samples), or
    "clean-reference".
    """

    width: int
    height: int
    data: np.ndarray
    semantics: str = "magnitude"

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64).ravel()
        if self.width <= 0 or self.height <= 0:
            raise ValueError("width and height must be positive")
        if self.data.size != self.width * self.height:
            raise ValueError("data length must equal width * height")
        if self.semantics == "magnitude" and self.data.size and self.data.min() < 0:
            raise ValueError("magnitude data must be nonnegative")

    @classmethod
    def from_array(cls, arr, semantics: str = "magnitude"):
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        return cls(width=arr.shape[1], height=arr.shape[0], data=arr.ravel(),
                   semantics=semantics)

    def as_array(self) -> np.ndarray:
        return self.data.reshape(self.height, self.width)


@dataclass
class QualityReport:
    """Full-reference scores of one estimate against its clean image."""

    psnr: float
    cipsnr: float
    ssim: float
    affine: tuple[float, float]

    def __post_init__(self):
        # least squares over (a, b) includes (1, 0), so the corrected
        # error can never exceed the raw one
        if self.cipsnr < self.psnr - 1e-9:
            raise ValueError("cipsnr below psnr: affine fit must not lose")
        if not -1.0 <= self.ssim <= 1.0:
            raise ValueError("ssim out of [-1, 1]")


def _as_image(value) -> np.ndarray:
    if isinstance(value, ImageBuffer):
        return value.as_array()
    return np.asarray(value, dtype=np.float64)


def _check_pair(est, ref) -> tuple[np.ndarray, np.ndarray]:
    est, ref = _as_image(est), _as_image(ref)
    if est.shape != ref.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {ref.shape}")
    return est, ref


def psnr(est, ref) -> float:
    """10 log10(N max(ref)^2 / ||est - ref||^2), capped at 99 dB."""
    est, ref = _check_pair(est, ref)
    peak = float(np.abs(ref).max())
    if peak == 0.0:
        raise ValueError("reference image is all zero")
    sse = float(((est - ref) ** 2).sum())
    if sse == 0.0:
        return PSNR_CAP
    return float(min(10.0 * np.log10(ref.size * peak ** 2 / sse), PSNR_CAP))


def cipsnr(est, ref) -> tuple[float, tuple[float, float]]:
    """PSNR after the best affine (contrast/brightness) correction.

    (a*, b*) minimize ||a est + b - ref||^2 in closed form. A constant
    estimate makes the fit degenerate; then a*=0 and b* is the plain
    mean, which is the limit of the general solution.
    """
    est, ref = _check_pair(est, ref)
    n = est.size
    se, sr = float(est.sum()), float(ref.sum())
    see = float((est * est).sum())
    sre = float((ref * est).sum())
    denom = n * see - se * se
    if denom <= 1e-12 * max(n * see, 1.0):
        a, b = 0.0, sr / n
    else:
        a = (n * sre - sr * se) / denom
        b = (sr * see - sre * se) / denom
    return psnr(a * est + b, ref), (a, b)


SSIM_WINDOW = 11  # side of the Gaussian SSIM window


def _ssim_window(size: int = SSIM_WINDOW, sigma: float = 1.5) -> np.ndarray:
    """The 1-D Gaussian g whose outer(g, g) is the unit-sum SSIM window."""
    half = (size - 1) / 2.0
    g = np.exp(-((np.arange(size) - half) ** 2) / (2.0 * sigma ** 2))
    return g / g.sum()


def ssim_mean(est, ref) -> float:
    """Mean structural similarity over the valid window positions.

    11x11 Gaussian window (sigma 1.5), C1=(0.01 L)^2, C2=(0.03 L)^2 with
    the dynamic range L = max|ref|; a fixed 255 would be wrong for 16-bit
    data. The window is separable, so the five local moments are taken
    together, one axis at a time, as valid-mode correlations by its 1-D
    factor. Images smaller than the window have no valid position and are
    rejected.
    """
    est, ref = _check_pair(est, ref)
    if min(est.shape) < SSIM_WINDOW:
        raise ValueError(f"ssim needs images of at least its {SSIM_WINDOW}x{SSIM_WINDOW} "
                         f"window, got {est.shape}")
    dynamic_range = float(np.abs(ref).max())
    if dynamic_range <= 0:
        raise ValueError("dynamic range must be positive")
    g = _ssim_window()
    c1 = (0.01 * dynamic_range) ** 2
    c2 = (0.03 * dynamic_range) ** 2
    moments = np.stack([est, ref, est * est, ref * ref, est * ref])
    for _ in range(2):  # along axis -2, then along the last axis swapped into its place
        n = moments.shape[-2] - g.size + 1
        moments = sum(gk * moments[..., k:k + n, :] for k, gk in enumerate(g)).swapaxes(-1, -2)
    mu1, mu2, e11, e22, e12 = moments
    s11, s22, s12 = e11 - mu1 ** 2, e22 - mu2 ** 2, e12 - mu1 * mu2
    num = (2.0 * mu1 * mu2 + c1) * (2.0 * s12 + c2)
    den = (mu1 ** 2 + mu2 ** 2 + c1) * (s11 + s22 + c2)
    return float(np.clip((num / den).mean(), -1.0, 1.0))


def quality_report(est, ref) -> QualityReport:
    ci, ab = cipsnr(est, ref)
    return QualityReport(psnr=psnr(est, ref), cipsnr=ci,
                         ssim=ssim_mean(est, ref), affine=ab)


# ----------------------------------------------------------------- phantoms

# Shepp-Logan ellipses: (intensity step, semi-axis a, semi-axis b,
# center x, center y, rotation degrees) in the [-1, 1]^2 frame.
_SHEPP_ELLIPSES = (
    (1.00, 0.6900, 0.9200, 0.00, 0.0000, 0.0),
    (-0.80, 0.6624, 0.8740, 0.00, -0.0184, 0.0),
    (-0.20, 0.1100, 0.3100, 0.22, 0.0000, -18.0),
    (-0.20, 0.1600, 0.4100, -0.22, 0.0000, 18.0),
    (0.10, 0.2100, 0.2500, 0.00, 0.3500, 0.0),
    (0.10, 0.0460, 0.0460, 0.00, 0.1000, 0.0),
    (0.10, 0.0460, 0.0460, 0.00, -0.1000, 0.0),
    (0.10, 0.0460, 0.0230, -0.08, -0.6050, 0.0),
    (0.10, 0.0230, 0.0230, 0.00, -0.6060, 0.0),
    (0.10, 0.0230, 0.0460, 0.06, -0.6050, 0.0),
)


def _shepp_logan(size: int) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size]
    u = (xx - (size - 1) / 2.0) / (size / 2.0)
    v = ((size - 1) / 2.0 - yy) / (size / 2.0)
    img = np.zeros((size, size))
    for val, a, b, x0, y0, deg in _SHEPP_ELLIPSES:
        t = np.deg2rad(deg)
        ur = (u - x0) * np.cos(t) + (v - y0) * np.sin(t)
        vr = -(u - x0) * np.sin(t) + (v - y0) * np.cos(t)
        img += val * ((ur / a) ** 2 + (vr / b) ** 2 <= 1.0)
    # float fuzz can leave values like -1e-14 where ellipses cancel
    return np.maximum(img, 0.0) * 255.0


def _piecewise(size: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, size)
    yy, xx = np.meshgrid(t, t, indexing="ij")
    img = 30.0 + 50.0 * xx + 30.0 * yy * (1.0 - xx)
    disc = (xx - 0.34) ** 2 + (yy - 0.38) ** 2 <= 0.23 ** 2
    img[disc] = 150.0 + 70.0 * np.sin(9.0 * np.pi * xx[disc]) * np.cos(7.0 * np.pi * yy[disc])
    band = (np.abs(xx - 0.72) <= 0.10) & (yy >= 0.15) & (yy <= 0.85)
    img[band] = 90.0 + 140.0 * (yy[band] - 0.15) / 0.70
    blob = ((xx - 0.62) / 0.18) ** 2 + ((yy - 0.78) / 0.10) ** 2 <= 1.0
    img[blob] = 225.0
    return np.clip(img, 0.0, 255.0)


def make_phantom(kind: str, size: int) -> np.ndarray:
    """Deterministic clean magnitude image with values in [0, 255]."""
    if size < 32:
        raise ValueError("phantom size must be at least 32")
    if kind == "constant":
        return np.full((size, size), 128.0)
    if kind == "shepp-logan":
        return _shepp_logan(size)
    if kind == "piecewise":
        return _piecewise(size)
    raise ValueError(f"unknown phantom kind {kind!r}")


# ----------------------------------------------------------------- denoising


@dataclass
class DenoiseResult:
    """Denoised magnitudes plus everything the run learned on the way."""

    estimate: np.ndarray
    xhat: np.ndarray
    sigma: float
    method: str
    cure: float
    runtime_s: float

    def __array__(self, dtype=None, copy=None):
        return np.array(self.estimate, dtype=dtype, copy=copy)


def denoise_mr(m, sigma="auto", method: str = "uwt-bdct", lam: float = 0.5,
               J: int = 3, mask=None, lambdas=None) -> DenoiseResult:
    """Denoise a magnitude MR image under the squared-chi-square model.

    sigma may be a known positive noise level or "auto", which moment-
    matches over the background mask (nonzero mask pixels are background).
    The x-domain estimate runs through the chosen risk-optimized method
    and comes back as magnitudes via the lambda-blended square root.
    lambdas overrides the method's atom shape pair, (3, 9) by default for
    the filterbank families and the joint inter-scale one alike. cure is
    the method's risk estimate; haar-cs16 reports its mean spin risk.
    """
    m = _as_image(m)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    _check_blend(lam)
    if (m < 0).any():
        raise ValueError("magnitude image must be nonnegative")
    if isinstance(sigma, str):
        if sigma != "auto":
            raise ValueError(f"sigma must be positive or 'auto', got {sigma!r}")
        if mask is None:
            raise ValueError("sigma='auto' requires a background mask")
        sigma = estimate_sigma_background(m, _as_image(mask) != 0)
    sigma = float(sigma)
    start = time.perf_counter()
    noisy = rescale_squared(m, sigma)
    y = noisy.samples.reshape(m.shape)
    kw = {"J": J} if lambdas is None else {"J": J, "lambdas": lambdas}
    if method in ("haar-cs1", "haar-cs16"):
        xhat, report = haar_curelet_denoise(
            y, noisy.dof, spins=16 if method == "haar-cs16" else 1, **kw)
    else:
        xhat, report = uwt_curelet_denoise(
            y, noisy.dof, transform="haar-uwt" if method == "uwt" else "mixed", **kw)
    estimate = reconstruct_magnitude(xhat, sigma, lam)
    return DenoiseResult(estimate=estimate, xhat=np.asarray(xhat),
                         sigma=sigma, method=method, cure=float(report.cure),
                         runtime_s=time.perf_counter() - start)


# ---------------------------------------------------------------- protocols


@dataclass
class ExperimentProtocol:
    """What to run: one phantom, a sigma sweep, methods, and seeds."""

    phantom: str = "shepp-logan"
    size: int = 128
    sigmas: tuple = SIGMA_GRID
    methods: tuple = ("haar-cs1", "uwt")
    seeds: tuple = tuple(range(10))
    lam: float = 0.5
    J: int = 3

    def validate(self):
        if not self.sigmas or not self.methods or not self.seeds:
            raise ValueError("protocol needs at least one sigma, method, and seed")
        for s in self.sigmas:
            if not 5.0 <= float(s) <= 100.0:
                raise ValueError(f"sigma {s} outside the studied range [5, 100]")
        for mth in self.methods:
            if mth not in METHODS:
                raise ValueError(f"unknown method {mth!r}")
        # runs are keyed by (method, float(sigma), seed): a repeat would be counted twice
        for name, values in (("sigma", [float(s) for s in self.sigmas]),
                             ("method", self.methods), ("seed", self.seeds)):
            if len(set(values)) != len(values):
                raise ValueError(f"protocol repeats a {name}: {tuple(values)}")
        _check_blend(self.lam)
        _check_levels(make_phantom(self.phantom, self.size).shape, self.J)


def _max_workers(n_jobs: int) -> int:
    cap = os.environ.get("CURE_THREADS")
    try:
        limit = int(cap) if cap else (os.cpu_count() or 1)
    except ValueError:
        limit = 0
    if limit < 1:
        raise ValueError(f"CURE_THREADS must be a whole number of at least 1, got {cap!r}")
    return max(1, min(n_jobs, limit))


def _mc_single(mu, protocol, method, sig, seed):
    m = sample_rician(mu, sig, seed)
    res = denoise_mr(m, sigma=sig, method=method, lam=protocol.lam, J=protocol.J)
    x = (mu / sig) ** 2
    return {
        "psnr": psnr(res.estimate, mu),
        "cipsnr": cipsnr(res.estimate, mu)[0],
        "ssim": ssim_mean(res.estimate, mu),
        "cure": res.cure,
        "mse": float(((res.xhat - x) ** 2).mean()),
        "runtime": res.runtime_s,
    }


def monte_carlo_experiment(protocol: ExperimentProtocol) -> list[dict]:
    """Mean and standard error of every metric per (method, sigma) cell.

    Runs are independent and pure, so they fan out over a thread pool
    (numpy releases the GIL in the heavy kernels); CURE_THREADS caps the
    pool. Results are keyed, not appended, so scheduling cannot change
    the table. cure and mse are both x-domain quantities: their means
    converge to each other by unbiasedness.
    """
    protocol.validate()
    mu = make_phantom(protocol.phantom, protocol.size)
    jobs = [(method, float(sig), seed)
            for method in protocol.methods
            for sig in protocol.sigmas
            for seed in protocol.seeds]
    with ThreadPoolExecutor(max_workers=_max_workers(len(jobs))) as pool:
        futures = {job: pool.submit(_mc_single, mu, protocol, *job) for job in jobs}
        outcomes = {job: fut.result() for job, fut in futures.items()}

    def cell(values):
        arr = np.asarray(values, dtype=np.float64)
        se = arr.std(ddof=1) / np.sqrt(arr.size) if arr.size > 1 else 0.0
        return float(arr.mean()), float(se)

    rows = []
    for method in protocol.methods:
        for sig in protocol.sigmas:
            runs = [outcomes[(method, float(sig), seed)] for seed in protocol.seeds]
            pm, ps = cell([r["psnr"] for r in runs])
            cm, cs = cell([r["cipsnr"] for r in runs])
            sm, ss = cell([r["ssim"] for r in runs])
            rows.append({
                "method": method,
                "sigma": float(sig),
                "seed_count": len(protocol.seeds),
                "psnr_mean": pm, "psnr_se": ps,
                "cipsnr_mean": cm, "cipsnr_se": cs,
                "ssim_mean": sm, "ssim_se": ss,
                "cure_mean": float(np.mean([r["cure"] for r in runs])),
                "mse_mean": float(np.mean([r["mse"] for r in runs])),
                "runtime_s": float(np.mean([r["runtime"] for r in runs])),
            })
    return rows


def format_csv(rows: list[dict]) -> str:
    """Render experiment rows in the fixed column order."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(
            f"{row[c]:.6g}" if isinstance(row[c], float) else str(row[c])
            for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"
