"""Unbiased risk estimates under noncentral chi-square noise.

Every estimate is one expression, formed only in cure_expression:
(|resid|^2 + 8 div - 4 sum(v - K/2)) / N, with resid the estimate minus
its unbiased target (y - K, or a Haar detail w), div the estimator's
divergence and v the variance channel (y, or the scaling field s with
K_j). A band's divergence dots theta's partials with five correlation
fields (BandDivergenceFields): atom_divergence for one evaluated atom,
shrinkage's fused ramp-atom kernel for every atom of both LET denoisers.
The fields have two layouts, one constructor each: of_band for a
filterbank band (correlations of y with the taps to the powers 2..5,
scaled by the synthesis gain; no operator matrices) and of_subband for a
Haar DWT subband, whose s doubles as the variance channel:
(s - K_j/2, w, w, w, s).
The LET denoisers in shrinkage fit their weights from per-atom
divergences and score through the same expression. cure_subband scores
a given estimate: the per-subband risk in the unnormalized Haar DWT,
valid for any subband whose coefficient is a +-1 combination of a
disjoint block of input samples summing to s (the 2-D LH/HL/HH bands,
K_j = 4^j K). Its expectation equals the subband's mean squared error.
The image-domain and filterbank evaluators the tests trust as
references live in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .transforms import Band

__all__ = [
    "SubbandEvaluation",
    "RiskReport",
    "BandDivergenceFields",
    "cure_expression",
    "cure_subband",
    "atom_divergence",
]


def _full(value, shape) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != shape:
        arr = np.broadcast_to(arr, shape).copy()
    return arr


@dataclass(frozen=True)
class SubbandEvaluation:
    """theta(w, s) with its five diagonal partials w.r.t. (w_n, s_n)."""

    theta: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d11: np.ndarray
    d22: np.ndarray
    d12: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=np.float64)
        object.__setattr__(self, "theta", theta)
        for name in ("d1", "d2", "d11", "d22", "d12"):
            arr = _full(getattr(self, name), theta.shape)
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class RiskReport:
    """Estimated risk and an optional per-band breakdown."""

    cure: float
    per_band: dict | None = None

    def __post_init__(self):
        if not np.isfinite(self.cure):
            raise ValueError("risk estimate must be finite")


def cure_expression(resid: np.ndarray, div: float, half: np.ndarray) -> float:
    """(|resid|^2 + 8 div - 4 sum(half)) / N, the risk every evaluator returns.

    resid is the estimate minus its unbiased target, div the estimator's
    divergence term and half the bias-shifted variance channel v - K/2.
    """
    resid = resid.ravel()
    return (float(resid @ resid) + 8.0 * div - 4.0 * float(half.sum())) / resid.size


def cure_subband(w, s, K_j: float, ev: SubbandEvaluation) -> float:
    """Per-subband unbiased risk estimate in the unnormalized Haar DWT.

    The data fit is theta - w; the divergence is that of the subband
    layout (BandDivergenceFields.of_subband):
    (s - K_j/2)' d1 + w' d2 - w'(d11 + d22) - 2 s' d12.
    """
    w = np.asarray(w, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if not (w.shape == s.shape == ev.theta.shape):
        raise ValueError("subband fields misaligned")
    if not K_j > 0:
        raise ValueError("K_j must be positive")
    fields = BandDivergenceFields.of_subband(w, s, K_j)
    return cure_expression(ev.theta - w, atom_divergence(fields, ev), fields.z1)


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
    def of_band(cls, band: Band, K: float, corr, out=None) -> "BandDivergenceFields":
        """Fields of a band with analysis taps d and synthesis taps g*d.

        corr holds the correlations of y with d^p for p = 2..5 (d^2 are
        the variance taps). The divergence sums need them scaled by g;
        correlation is linear, so the (y - K/2) variants subtract K/2
        times the kernel sum. out, a (5, *shape) stack, receives the fields.
        """
        g = band.synth_gain
        z = np.empty((5,) + np.shape(corr[0])) if out is None else out
        np.multiply(corr[0], g, out=z[0])
        np.multiply(corr[1:], g, out=z[2:])  # z11, z12, z22
        z[0] -= 0.5 * K * g * float((band.taps ** 2).sum())
        np.subtract(z[2], 0.5 * K * g * float((band.taps ** 3).sum()), out=z[1])
        return cls(z1=z[0], z2=z[1], z11=z[2], z22=z[4], z12=z[3])

    @classmethod
    def of_subband(cls, w, s, K_j: float) -> "BandDivergenceFields":
        """(s - K_j/2, w, w, w, s): w is its own band, s its variance channel,
        so z1 is also the subband's bias-shifted variance field."""
        return cls(z1=s - K_j / 2, z2=w, z11=w, z22=w, z12=s)


def atom_divergence(fields: BandDivergenceFields, ev: SubbandEvaluation) -> float:
    """Divergence of one atom (or band estimate): first - second order terms.

    The second-order terms, d12 included, enter negated by the chain rule.
    """
    first = float((fields.z1 * ev.d1).sum()) + float((fields.z2 * ev.d2).sum())
    second = (
        float((fields.z11 * ev.d11).sum())
        + float((fields.z22 * ev.d22).sum())
        + 2.0 * float((fields.z12 * ev.d12).sum())
    )
    return first - second
