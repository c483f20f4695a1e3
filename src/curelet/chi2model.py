"""Noncentral chi-square observation model for squared-magnitude MR data.

Each observed sample y_n is the sum of K squared unit-variance Gaussians
whose means carry the clean signal energy x_n (the noncentrality parameter).
Squared-magnitude MR data divided by sigma^2 is exactly the K=2 case, which
is why the model, the MR-specific rescaling and the final magnitude
reconstruction live together here.

Key moment identities used throughout the package::

    E[y]      = x + K * 1
    Var(y_n)  = 2K + 4 x_n
    E[|y|^2]  = |x|^2 + 2(K+2) 1'x + N K (K+2)

All operations are pure; sampling uses the counter-based Philox generator so
a fixed seed gives identical output regardless of call order or platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NoisyField",
    "ComplexImage",
    "sample_chi2",
    "moments",
    "sample_complex",
    "sample_rician",
    "rescale_squared",
    "reconstruct_magnitude",
    "estimate_sigma_background",
]

MIN_BACKGROUND_PIXELS = 16


def _checked_sigma(sigma) -> float:
    sigma = float(sigma)
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"sigma must be finite and positive, got {sigma!r}")
    return sigma


def _check_blend(lam: float) -> None:
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")


@dataclass(frozen=True)
class NoisyField:
    """Chi-square samples bundled with their common degrees of freedom.

    Attributes
    ----------
    samples : ndarray
        Nonnegative observations, any shape.
    dof : float
        Degrees of freedom K > 0. Real-valued: analytic operations accept
        any positive K even though constructive sampling needs an integer.
    """

    samples: np.ndarray
    dof: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "dof", float(self.dof))
        if samples.size and np.min(samples) < 0:
            raise ValueError("chi-square samples must be nonnegative")
        if not np.isfinite(samples).all():
            raise ValueError("chi-square samples must be finite")
        if not self.dof > 0:
            raise ValueError("degrees of freedom must be positive")

    @property
    def shape(self) -> tuple:
        return self.samples.shape

    @property
    def size(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class ComplexImage:
    """Complex-valued measurements with the per-channel noise level sigma."""

    re: np.ndarray
    im: np.ndarray
    sigma: float

    def __post_init__(self):
        re = np.asarray(self.re, dtype=np.float64)
        im = np.asarray(self.im, dtype=np.float64)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        object.__setattr__(self, "sigma", _checked_sigma(self.sigma))
        if re.shape != im.shape:
            raise ValueError("re and im must have the same shape")

    @property
    def magnitude(self) -> np.ndarray:
        return np.hypot(self.re, self.im)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def sample_chi2(x, K: int, seed: int) -> NoisyField:
    """Draw y ~ chi-square with K dof and noncentrality field x.

    Constructive: y_n = (g_1 + sqrt(x_n))^2 + g_2^2 + ... + g_K^2 with g_i
    independent standard normals. The distribution depends only on the total
    noncentrality, so all of it is placed on the first component.

    Parameters
    ----------
    x : array_like
        Nonnegative noncentrality parameters.
    K : int
        Degrees of freedom; must be a positive integer (the constructive
        sampling path sums K squared Gaussians).
    seed : int
        Philox key; same seed gives identical output.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size and np.min(x) < 0:
        raise ValueError("noncentrality parameters must be nonnegative")
    K_int = int(K)
    if K_int != K or K_int < 1:
        raise ValueError("sampling requires an integer K >= 1")
    g = _rng(seed).standard_normal((K_int,) + x.shape)
    y = (g[0] + np.sqrt(x)) ** 2
    if K_int > 1:
        y = y + np.sum(g[1:] ** 2, axis=0)
    return NoisyField(samples=y, dof=float(K_int))


def moments(x, K: float) -> tuple[np.ndarray, float]:
    """Mean vector and expected squared norm of the chi-square observation.

    Returns (x + K*1, |x|^2 + 2(K+2) 1'x + N K (K+2)).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size and np.min(x) < 0:
        raise ValueError("noncentrality parameters must be nonnegative")
    if not K > 0:
        raise ValueError("K must be positive")
    mean = x + K
    total = float(np.sum(x))
    expected_sq_norm = float(np.sum(x * x) + 2.0 * (K + 2.0) * total + x.size * K * (K + 2.0))
    return mean, expected_sq_norm


def sample_complex(mu_magnitude, sigma: float, seed: int) -> ComplexImage:
    """Complex measurements m = mu + sigma*(g1 + j g2), mu taken real.

    The magnitude law depends only on |mu|, so the clean phase is dropped.
    """
    mu = np.asarray(mu_magnitude, dtype=np.float64)
    if mu.size and np.min(mu) < 0:
        raise ValueError("clean magnitudes must be nonnegative")
    sigma = _checked_sigma(sigma)
    g = _rng(seed).standard_normal((2,) + mu.shape)
    return ComplexImage(re=mu + sigma * g[0], im=sigma * g[1], sigma=sigma)


def sample_rician(mu_magnitude, sigma: float, seed: int) -> np.ndarray:
    """Magnitudes |m| of complex measurements around the clean magnitudes."""
    return sample_complex(mu_magnitude, sigma, seed).magnitude


def rescale_squared(m_magnitude, sigma: float) -> NoisyField:
    """Map magnitudes to the unitless chi-square domain: y = |m|^2 / sigma^2, K=2."""
    m = np.asarray(m_magnitude, dtype=np.float64)
    sigma = _checked_sigma(sigma)
    return NoisyField(samples=(m * m) / (sigma * sigma), dof=2.0)


def reconstruct_magnitude(xhat, sigma: float, lam: float = 0.5) -> np.ndarray:
    """Map a (possibly negative) noncentrality estimate back to magnitudes.

    mu_hat = sigma * (lam*sqrt(|xhat|) + (1-lam)*sqrt(max(xhat, 0))).
    lam blends the two ways of handling negative estimates: reflect (lam=1)
    versus clip to zero (lam=0).
    """
    xhat = np.asarray(xhat, dtype=np.float64)
    sigma = _checked_sigma(sigma)
    _check_blend(lam)
    return sigma * (lam * np.sqrt(np.abs(xhat)) + (1.0 - lam) * np.sqrt(np.maximum(xhat, 0.0)))


def estimate_sigma_background(m_magnitude, mask) -> float:
    """Estimate sigma by moment matching over a signal-free region.

    In background E|m|^2 = 2 sigma^2, so sigma_hat = sqrt(mean(|m|^2)/2)
    over the masked pixels.
    """
    m = np.asarray(m_magnitude, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != m.shape:
        raise ValueError("mask shape must match the image shape")
    selected = m[mask]
    if selected.size < MIN_BACKGROUND_PIXELS:
        raise ValueError(
            f"background mask selects {selected.size} pixels; need at least {MIN_BACKGROUND_PIXELS}"
        )
    return float(np.sqrt(np.mean(selected * selected) / 2.0))
