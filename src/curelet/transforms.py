"""Redundant filterbanks and the unnormalized Haar pyramid.

Two transform families back the denoisers:

* Undecimated filterbanks (shift-invariant Haar wavelet frame, overlapping
  8x8 block DCT): every band is a periodic correlation of the image with a
  small tap array anchored at offset zero, the outer product of 1-D
  factors, and synthesis is the adjoint correlation scaled by a per-band
  gain. FilterBank owns the spectral format (no other module calls
  numpy.fft): walk streams each band's correlations with powers of its
  taps, by direct correlation or FFT, and synthesis_rows gives a band's
  synthesis as Parseval-weighted half spectra, real rows with the image
  domain's dot products, so a fit over all bands inverts only its result.
* The unnormalized Haar DWT: critically sampled pairwise sums/differences
  whose scaling chain preserves the chi-square family (sums of independent
  chi-squares stay chi-square, doubling the dof per 1-D split). haar_step,
  inverted by haar_unstep, is the one pyramid step, in 1-D and 2-D alike;
  level j is haar_step chained j times, and the pyramid denoisers
  (shrinkage._denoise_pyramid) own the padding, the crop and the dof
  2^(ndim j) K of the level-j sums.

Boundaries are periodic everywhere; the analysis operators are circulant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import groupby

import numpy as np
import numpy.fft  # loaded here, not by the first transform of a call

__all__ = [
    "Band",
    "FilterBank",
    "haar_uwt_bank",
    "bdct8_bank",
    "haar_step",
    "haar_unstep",
    "parent_field",
    "SPIN_SHIFTS",
    "SPIN_COUNTS",
]

DIRECT_TAPS = 8  # longest factor walked directly (measured crossover): its cost grows with taps
_FFT_OUT = np.lib.NumpyVersion(np.__version__) >= "2.0.0"  # numpy.fft takes out= from 2.0


def _tap_spectra(factors, powers, shape, axes=None) -> np.ndarray:
    """rfftn of outer(*factors) ** p zero-embedded in a field of the given
    shape, stacked over powers: the outer product of the 1-D spectra of
    factors ** p (rfft on the last axis, fft on the others) along axes, or all."""
    spectra = np.ones((len(powers),) + (1,) * len(shape))
    for axis in range(len(shape)) if axes is None else axes:
        f, n = factors[axis], shape[axis]
        fft = np.fft.rfft if axis == len(shape) - 1 else np.fft.fft
        spec = fft(np.stack([f ** p for p in powers]), n=n)
        spectra = spectra * np.expand_dims(spec, [1 + a for a in range(len(shape)) if a != axis])
    return spectra


def _fft_into(transform, a, axis, out) -> None:
    """out = transform(a, axis=axis), computed in out where numpy.fft takes out=."""
    if _FFT_OUT:
        transform(a, axis=axis, out=out)
    else:
        out[...] = transform(a, axis=axis)


def _parseval_weight(shape) -> np.ndarray:
    """sqrt(w / N) over the last axis of a real field's half spectrum: w = 2,
    but 1 on the DC and (even last axis) Nyquist columns, which have no mirror."""
    return np.sqrt((2.0 - (2 * np.arange(shape[-1] // 2 + 1) % shape[-1] == 0)) / np.prod(shape))


@dataclass(frozen=True)
class Band:
    """One analysis band: 1-D tap factors, synthesis gain, and metadata.

    The taps are the outer product of factors (one 1-D array per axis);
    the synthesis taps are ``synth_gain * taps`` (adjoint-scaled frame), so
    a single gain per band fully describes the reconstruction side.
    """

    factors: tuple
    synth_gain: float
    kind: str  # "lowpass" | "highpass"
    level: int
    label: str

    @property
    def taps(self) -> np.ndarray:
        return reduce(np.multiply.outer, self.factors)

    @property
    def tap_sum(self) -> float:
        return float(self.taps.sum())


class FilterBank:
    """Undecimated analysis/synthesis filterbank over full-size bands.

    bands[0] is the lowpass (bias-carrying) band. Every analysis quantity
    is a per-band correlation of the image with a power of the band's
    taps, and walk streams them one band at a time, each valid until the next
    (directly for factors of at most DIRECT_TAPS taps, else by FFT). Synthesis
    convolves a coefficient field (or a stack) with ``synth_gain * taps``:
    synthesis_rows gives it as Parseval rows and field_of_rows inverts rows.
    Kernel spectra come from the bands' 1-D factors (_tap_spectra). A bank
    caches nothing, so it is safe to share. The per-band analysis and full
    synthesis references live in tests/oracles.py.
    """

    def __init__(self, name: str, bands):
        self.name = name
        self.bands = tuple(bands)
        if self.bands[0].kind != "lowpass":
            raise ValueError("bands[0] must be the lowpass band")

    def _check_size(self, shape) -> None:
        # support and dimensionality come from the 1-D factors: no n-D taps
        support = np.max([[len(f) for f in b.factors] for b in self.bands], axis=0)
        if any(s < t for s, t in zip(shape, support)):
            raise ValueError(f"image shape {shape} smaller than filter support "
                             f"{tuple(support.tolist())}")
        if len(shape) != len(self.bands[0].factors):
            raise ValueError("image dimensionality does not match the band taps")

    def walk(self, y: np.ndarray, powers):
        """Yield, band by band, the correlations of y with taps ** p.

        Each yielded array has shape (len(powers), *y.shape); row k is the periodic
        correlation out[n] = sum_m taps[m] ** powers[k] * y[(n + m) mod shape]. It is
        valid until the next yield, which may reuse its buffer. Consecutive bands with
        the same leading factors share one pass along the leading axes. A bank with at
        most DIRECT_TAPS taps per factor is walked by direct correlation, any other by
        FFT. When every band's taps have one magnitude c (the Haar frame), only powers
        1 and 2 are correlated: taps^p = c^(p - b) taps^b, b = 1 (odd p) or 2.
        """
        y = np.asarray(y, dtype=np.float64)
        self._check_size(y.shape)
        base, pick = list(powers), None
        if set(base) - {1, 2} and all(np.ptp(np.abs(b.taps)) == 0 for b in self.bands):
            pick, picked = [2 - p % 2 for p in powers], np.empty((len(powers),) + y.shape)
            base, exps = sorted(set(pick)), np.subtract(powers, pick).reshape((-1,) + (1,) * y.ndim)
        groups = [[*g] for _, g in groupby(self.bands,
                                           lambda b: [f.tobytes() for f in b.factors[:-1]])]
        direct = all(len(f) <= DIRECT_TAPS for b in self.bands for f in b.factors)
        for band, corr in zip(self.bands, (_direct_walk if direct else _fft_walk)(y, groups, base)):
            if pick is not None:
                corr = np.take(corr, [base.index(b) for b in pick], 0, picked, "clip")
                corr *= np.abs(band.taps).flat[0] ** exps
            yield corr

    def synthesis_rows(self, i, coeffs, out=None) -> np.ndarray:
        """Band i's synthesis of a coefficient field, or of a stack of them
        along leading axes (for i None, the fields themselves), as real rows
        with the same dot products: the half spectrum rfftn(coeffs) times
        the band's kernel spectrum and _parseval_weight, viewed as reals
        (Parseval). out, if given, receives them; the transforms run in it,
        and each axis's 1-D kernel multiplies it in place."""
        coeffs = np.asarray(coeffs, dtype=np.float64)
        lead = coeffs.ndim - len(self.bands[0].factors)
        shape, half = coeffs.shape[lead:], coeffs.shape[:-1] + (coeffs.shape[-1] // 2 + 1,)
        dest = np.empty(half, complex) if out is None else out.view(np.complex128).reshape(half)
        _fft_into(np.fft.rfft, coeffs, -1, dest)
        for axis in range(lead, coeffs.ndim - 1):
            _fft_into(np.fft.fft, dest, axis, dest)
        band, last = None if i is None else self.bands[i], len(shape) - 1
        for axis in range(last) if band else ():
            dest *= _tap_spectra(band.factors, (1,), shape, [axis])[0]
        dest *= _parseval_weight(shape) * (1.0 if band is None else band.synth_gain
                                           * _tap_spectra(band.factors, (1,), shape, [last])[0])
        return dest.view(np.float64).reshape(half[:lead] + (-1,))

    @staticmethod
    def field_of_rows(rows, shape) -> np.ndarray:
        """The field, or stack of fields, whose synthesis_rows(None, .) are rows."""
        spectrum = np.ascontiguousarray(rows, dtype=np.float64).view(np.complex128)
        spectrum = spectrum.reshape(spectrum.shape[:-1] + tuple(shape[:-1]) + (-1,))
        return np.fft.irfftn(spectrum / _parseval_weight(shape), s=shape, axes=range(-len(shape), 0))


def _fft_walk(y, groups, powers):
    """FilterBank.walk by FFT: one transform of y, one inverse per group and per band."""
    y_fft, (*lead, last) = np.fft.rfftn(y), range(y.ndim)
    for group in groups:
        stack = np.fft.ifftn(y_fft * np.conj(_tap_spectra(group[0].factors, powers, y.shape, lead)),
                             axes=[1 + a for a in lead])
        for band in group:
            yield np.fft.irfft(stack * np.conj(_tap_spectra(band.factors, powers, y.shape, [last])),
                               n=y.shape[-1])


def _correlate(taps, field, axis, shifted, out) -> None:
    """out = taps @ shifted, row m the field rolled by -m along axis, in cache-sized blocks."""
    for m in range(taps.shape[-1]):
        np.concatenate(np.split(field, [m], axis)[::-1], axis, out=shifted[m].reshape(field.shape))
    for a in range(0, field.size, 8192):
        np.matmul(taps, shifted[:taps.shape[-1], a:a + 8192], out=out[..., a:a + 8192])


def _direct_walk(y, groups, powers):
    """FilterBank.walk on a 1-D or 2-D field: per group, one matmul of the
    leading factor's powers over row-shifted copies of y, then per power one
    (bands x taps) @ (taps x pixels) matmul over column-shifted copies of that.
    Buffer rows lie 64 doubles apart, so rows read together share no cache set."""
    p, field = np.reshape(powers, (-1, 1)), y.reshape(-1, y.shape[-1])
    shifted, led, out = (np.empty(shape + (y.size + 64,))[..., :y.size] for shape in [
        (max(len(f) for g in groups for b in g for f in b.factors),), (len(p),),
        (len(p), max(map(len, groups)))])
    for group in groups:
        f = group[0].factors[0] if y.ndim == 2 else np.ones(1)  # a 1-D field leads with itself
        _correlate(f ** p, field, 0, shifted, led)
        width = max(len(b.factors[-1]) for b in group)
        taps = np.stack([np.pad(b.factors[-1] ** p, [(0, 0), (0, width - len(b.factors[-1]))])
                         for b in group], 1)
        for k in range(len(p)):
            _correlate(taps[k], led[k].reshape(field.shape), 1, shifted, out[k, :len(group)])
        for g in range(len(group)):
            yield out[:, g].reshape((len(p),) + y.shape)


def haar_uwt_bank(levels: int, ndim: int = 2) -> FilterBank:
    """Shift-invariant Haar wavelet frame with J levels.

    2-D bands per level: "hl" (detail along rows, i.e. axis-1 differences),
    "lh" (detail along columns), "hh" (detail along both). Synthesis gains
    4^-j (2-D) or 2^-j (1-D) follow from the per-level identity
    (1/2)(h~ h + g~ g) = Id of the unit-norm Haar pair; the frame is not
    tight for J >= 2, so the gains are per-band, not global.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if ndim not in (1, 2):
        raise ValueError("only 1-D and 2-D supported")
    details = [np.repeat([-1.0, 1.0], 2 ** (j - 1)) / 2 ** (j / 2) for j in range(1, levels + 1)]
    lows = [np.ones(2 ** j) / 2 ** (j / 2) for j in range(1, levels + 1)]  # cumulative, like details
    if ndim == 1:
        bands = [Band((lows[-1],), 2.0 ** -levels, "lowpass", levels, "low")]
        bands += [Band((d,), 2.0 ** -j, "highpass", j, f"d{j}") for j, d in enumerate(details, 1)]
    else:
        bands = [Band((lows[-1],) * 2, 4.0 ** -levels, "lowpass", levels, "low")]
        for j, d, l in zip(range(1, levels + 1), details, lows):
            bands += [Band(f, 4.0 ** -j, "highpass", j, f"{o}{j}")
                      for o, f in (("lh", (d, l)), ("hl", (l, d)), ("hh", (d, d)))]
    return FilterBank(f"haar-uwt-J{levels}-{ndim}d", bands)


def bdct8_bank() -> FilterBank:
    """Fully overlapping 8x8 block DCT: 64 unit-norm bands, redundancy 64.

    The per-offset 8x8 DCT-II bases are complete and orthonormal, so the
    stacked analysis operator is a tight frame with constant 64; synthesis
    is the adjoint scaled by 1/64. The DC band (tap sum 8) plays the
    lowpass role for bias removal.
    """
    n = np.arange(8)
    basis = np.cos(np.pi * (2 * n[None, :] + 1) * n[:, None] / 16)
    basis[0] *= np.sqrt(1 / 8)
    basis[1:] *= np.sqrt(2 / 8)  # rows now orthonormal DCT-II vectors
    bands = [Band((basis[0], basis[0]), 1 / 64, "lowpass", 0, "dc")]
    for u in range(8):
        for v in range(8):
            if u == 0 and v == 0:
                continue
            bands.append(Band((basis[u], basis[v]), 1 / 64, "highpass", 0, f"ac{u}{v}"))
    return FilterBank("bdct8", bands)


# detail keys of one level, in the order haar_step makes them
_DETAIL_KEYS = {1: ("w",), 2: ("lh", "hl", "hh")}


def haar_step(c: np.ndarray) -> tuple[np.ndarray, dict]:
    """One level: sums and odd - even differences along the last axis, then
    along each earlier axis (1-D: s_i = c[2i] + c[2i+1], w_i = c[2i+1] - c[2i]).
    Returns the sums s and the details, keyed "w" in 1-D and "lh"/"hl"/"hh"
    in 2-D. Every side of c must be even."""
    if any(n % 2 for n in c.shape):
        raise ValueError(f"a Haar level step needs even sides, got shape {c.shape}")
    bands = [c]
    for axis in reversed(range(c.ndim)):
        lead = (slice(None),) * axis
        even, odd = lead + (slice(0, None, 2),), lead + (slice(1, None, 2),)
        bands = [f for b in bands for f in (b[even] + b[odd], b[odd] - b[even])]
    return bands[0], dict(zip(_DETAIL_KEYS[c.ndim], bands[1:]))


def haar_unstep(s: np.ndarray, details: dict) -> np.ndarray:
    """Exact inverse of haar_step."""
    bands = [s] + [details[key] for key in _DETAIL_KEYS[s.ndim]]
    for axis in range(s.ndim):  # interleave (t - d) / 2 and (t + d) / 2 along axis
        stacks = [np.stack([(t - d) / 2, (t + d) / 2], axis + 1)
                  for t, d in zip(bands[0::2], bands[1::2])]
        bands = [p.reshape(p.shape[:axis] + (-1,) + p.shape[axis + 2:]) for p in stacks]
    return bands[0]


def parent_field(s: np.ndarray, orientation: str) -> np.ndarray:
    """Group-delay compensated parent p_n = s_{n+shift} - s_{n-shift}.

    The shift direction follows the subband's detail axis: "hl" shifts
    along columns (axis 1), "lh" along rows (axis 0), "hh" along the
    diagonal, "w" is the 1-D case. Periodic boundaries.
    """
    s = np.asarray(s, dtype=np.float64)
    if orientation == "w":
        return np.roll(s, -1) - np.roll(s, 1)
    if orientation == "hl":
        return np.roll(s, -1, axis=1) - np.roll(s, 1, axis=1)
    if orientation == "lh":
        return np.roll(s, -1, axis=0) - np.roll(s, 1, axis=0)
    if orientation == "hh":
        return np.roll(s, (-1, -1), axis=(0, 1)) - np.roll(s, (1, 1), axis=(0, 1))
    raise ValueError(f"unknown orientation {orientation!r}")


# Deterministic cycle-spin shift schedule: the four diagonal shifts, then
# (0, 1), (1, 0), (0, 2), (2, 0), then the remaining offsets of {0..3}^2 in
# row-major order, so that every SPIN_COUNTS prefix is closed under swapping
# the axes and a spun 2-D denoise commutes with transposition.
SPIN_SHIFTS: tuple = tuple(dict.fromkeys(
    [(d, d) for d in range(4)] + [(0, 1), (1, 0), (0, 2), (2, 0)]
    + [(a, b) for a in range(4) for b in range(4)]
))

# Spin counts a cycle-spun denoiser accepts: prefixes of SPIN_SHIFTS.
SPIN_COUNTS = (1, 4, 8, 16)
