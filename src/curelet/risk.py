"""Unbiased risk estimates under noncentral chi-square noise.

Every estimate is one expression, formed only in cure_expression:
(|resid|^2 + 8 div - 4 sum(v - K/2)) / N, with resid the estimate minus
its unbiased target (y - K, or a Haar detail w), div the estimator's
divergence and v the variance channel (y, or the scaling field s with
K_j). A band's divergence dots theta's partials with five correlation
fields (BandDivergenceFields); shrinkage's fused ramp-atom kernel folds
them into a few fields per carrier, for every atom of all three
estimator families, and never forms a partial field. The fields have
two layouts, one constructor each: of_band for a stack of filterbank
bands (the walk's correlations of y with the taps to the powers 2..5
and the bank's tap sums, per unit synthesis gain, which scales the
divergence instead; no taps, no operator matrices) and of_subband for a
Haar DWT subband, whose s doubles as the variance channel: (s - K_j/2,
w, w, w, s). That layout holds for any subband whose coefficient is a
+-1 combination of a disjoint block of input samples summing to s (the
2-D LH/HL/HH bands, K_j = 4^j K); the risk's expectation then equals
the subband's mean squared error. The evaluators the tests trust as
references, atoms with all six partials, live in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RiskReport",
    "BandDivergenceFields",
    "cure_expression",
]


@dataclass(frozen=True)
class RiskReport:
    """Estimated risk and an optional per-band breakdown."""

    cure: float
    per_band: dict | None = None

    def __post_init__(self):
        if not np.isfinite(self.cure):
            raise ValueError("risk estimate must be finite")


def cure_expression(resid: np.ndarray, div: float, half: np.ndarray | float) -> float:
    """(|resid|^2 + 8 div - 4 sum(half)) / N, the risk every evaluator returns.

    resid is the estimate minus its unbiased target, div the estimator's
    divergence term and half the bias-shifted variance channel v - K/2, or
    its sum, for a caller that scores many estimates on one channel.
    """
    resid, total = resid.ravel(), half if np.isscalar(half) else half.sum()
    return (float(resid @ resid) + 8.0 * div - 4.0 * float(total)) / resid.size


@dataclass(frozen=True)
class BandDivergenceFields:
    """Correlations of y (and its bias-shifted copy) with one band's
    tap-product kernels; dotting them with theta's partials gives the
    band's contribution to the risk divergence."""

    z1: np.ndarray
    z2: np.ndarray
    z11: np.ndarray
    z22: np.ndarray
    z12: np.ndarray

    @classmethod
    def of_band(cls, sums, K: float, corr, out=None) -> "BandDivergenceFields":
        """Fields of a stack of bands with analysis taps d, per unit synthesis gain.

        corr, a (4, items, *field) stack, holds the correlations of y with
        d^p for p = 2..5 (d^2 are the variance taps), and they are the
        fields. Correlation is linear, so the (y - K/2) variants subtract K/2
        times sum(d^p), column p - 1 of sums, the stack's rows of its bank's
        tap_sums: z1 in place, overwriting corr[0] (read v before), z2 into
        out, if given. A band with synthesis taps g*d contributes g times
        these fields' divergence, linear in them.
        """
        shifts = 0.5 * K * sums[:, 1:].T.reshape((2, -1) + (1,) * (np.ndim(corr[0]) - 1))
        z1 = np.subtract(corr[0], shifts[0], out=corr[0])
        z2 = np.subtract(corr[1], shifts[1], out=out)
        return cls(z1=z1, z2=z2, z11=corr[1], z22=corr[3], z12=corr[2])

    @classmethod
    def of_subband(cls, w, s, K_j: float) -> "BandDivergenceFields":
        """(s - K_j/2, w, w, w, s): w is its own band, s its variance channel,
        so z1 is also the subband's bias-shifted variance field."""
        return cls(z1=s - K_j / 2, z2=w, z11=w, z22=w, z12=s)

