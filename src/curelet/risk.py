"""Unbiased risk estimates under noncentral chi-square noise.

Every estimate is one expression, formed only in cure_expression:
(|resid|^2 + 8 div - 4 sum(v - K/2)) / N, with resid the estimate minus
its unbiased target (y - K, or a Haar detail w), div the estimator's
divergence and v the variance channel (y, or the scaling field s with
K_j). A band's divergence dots theta's partials with five correlation
fields (BandDivergenceFields), one atom at a time (atom_divergence). The
fields have two layouts, one constructor each: of_band for a filterbank
band (correlations of y with the taps to the powers 2..5, scaled by the
synthesis gain; no operator matrices) and of_subband for a Haar DWT
subband, whose s doubles as the variance channel: (s - K_j/2, w, w, w, s).
The LET denoisers in shrinkage fit their weights from per-atom
divergences and score through the same expression. The evaluators score
a given estimate and are the references the tests trust:

* cure_image: image-domain risk of any smooth estimator of the
  noncentrality field, from the estimate and its diagonal derivatives.
* cure_filterbank_divergence: the same risk for band-wise processing
  inside an undecimated filterbank, its fields formed from y.
* cure_subband: per-subband risk in the unnormalized Haar DWT, valid for
  any subband whose coefficient is a +-1 combination of a disjoint block
  of input samples summing to s (the 2-D LH/HL/HH bands, K_j = 4^j K).

Each evaluator's expectation equals the corresponding mean squared error;
the Monte Carlo tests pin this down to standard-error tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .transforms import Band, FilterBank

__all__ = [
    "EstimatorEvaluation",
    "SubbandEvaluation",
    "RiskReport",
    "BandDivergenceFields",
    "cure_expression",
    "cure_image",
    "mse_oracle",
    "cure_subband",
    "band_divergence_fields",
    "atom_divergence",
    "cure_filterbank_divergence",
    "combine_evaluations",
]


def _samples(y) -> np.ndarray:
    if hasattr(y, "samples"):
        return y.samples
    return np.asarray(y, dtype=np.float64)


def _full(value, shape) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != shape:
        arr = np.broadcast_to(arr, shape).copy()
    return arr


@dataclass(frozen=True)
class EstimatorEvaluation:
    """An estimate f(y) of x with its diagonal derivatives d f_n / d y_n."""

    f: np.ndarray
    df: np.ndarray
    d2f: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.f, dtype=np.float64)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "df", _full(self.df, f.shape))
        object.__setattr__(self, "d2f", _full(self.d2f, f.shape))
        if not (np.isfinite(self.df).all() and np.isfinite(self.d2f).all()):
            raise ValueError("derivatives must be finite")


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


def combine_evaluations(evs, weights) -> SubbandEvaluation:
    """Linear combination sum_k a_k * ev_k (all fields are linear in theta)."""
    weights = np.asarray(weights, dtype=np.float64)
    if len(evs) != weights.size:
        raise ValueError("one weight per evaluation required")
    fields = {}
    for name in ("theta", "d1", "d2", "d11", "d22", "d12"):
        fields[name] = sum(a * getattr(ev, name) for a, ev in zip(weights, evs))
    return SubbandEvaluation(**fields)


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


def cure_image(y, K: float, ev: EstimatorEvaluation) -> float:
    """Image-domain unbiased risk estimate of ev.f as an estimate of x.

    The divergence is (y - K/2)' df - y' d2f.
    """
    y = _samples(y)
    if ev.f.shape != y.shape:
        raise ValueError("estimate and observation shapes differ")
    if not K > 0:
        raise ValueError("K must be positive")
    half = y - K / 2
    div = float((half * ev.df).sum()) - float((y * ev.d2f).sum())
    return cure_expression(ev.f - (y - K), div, half)


def mse_oracle(f, x) -> float:
    """(1/N) |f - x|^2 against the known clean field."""
    f = np.asarray(f, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if f.shape != x.shape:
        raise ValueError("shape mismatch")
    return float(((f - x) ** 2).mean())


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
    def of_band(cls, band: Band, K: float, corr) -> "BandDivergenceFields":
        """Fields of a band with analysis taps d and synthesis taps g*d.

        corr holds the correlations of y with d^p for p = 2..5 (d^2 are
        the variance taps). The divergence sums need them scaled by g;
        correlation is linear, so the (y - K/2) variants subtract K/2
        times the kernel sum.
        """
        g = band.synth_gain
        c2, c3, c4, c5 = (g * c for c in corr)
        return cls(
            z1=c2 - 0.5 * K * g * float((band.taps ** 2).sum()),
            z2=c3 - 0.5 * K * g * float((band.taps ** 3).sum()),
            z11=c3,
            z22=c5,
            z12=c4,
        )

    @classmethod
    def of_subband(cls, w, s, K_j: float) -> "BandDivergenceFields":
        """(s - K_j/2, w, w, w, s): w is its own band, s its variance channel,
        so z1 is also the subband's bias-shifted variance field."""
        return cls(z1=s - K_j / 2, z2=w, z11=w, z22=w, z12=s)


def band_divergence_fields(y, K: float, bank: FilterBank) -> list[BandDivergenceFields]:
    """Divergence correlation fields of every band of the bank."""
    return [BandDivergenceFields.of_band(band, K, corr)
            for band, corr in zip(bank.bands, bank.walk(_samples(y), range(2, 6)))]


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


def cure_filterbank_divergence(y, K: float, evs, bank: FilterBank) -> float:
    """Image-domain risk of the full filterbank estimator f = sum_b R_b theta_b.

    evs holds one SubbandEvaluation per band (lowpass included), with
    partials taken w.r.t. that band's (w_b, wbar_b). The divergence sums
    reduce to per-band correlations (band_divergence_fields of y).
    """
    y = _samples(y)
    if len(evs) != len(bank.bands):
        raise ValueError("one evaluation per band required")
    f = bank.synthesize([ev.theta for ev in evs])
    div = sum(atom_divergence(fl, ev)
              for fl, ev in zip(band_divergence_fields(y, K, bank), evs))
    return cure_expression(f - (y - K), div, y - K / 2)
