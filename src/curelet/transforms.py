"""Redundant filterbanks and the unnormalized Haar pyramid.

Two transform families back the denoisers:

* Undecimated filterbanks (shift-invariant Haar wavelet frame, overlapping
  8x8 block DCT): every band is a periodic correlation of the image with a
  small tap array anchored at offset zero, the outer product of 1-D
  factors, and synthesis is the adjoint correlation scaled by a per-band
  gain. FilterBank owns the spectral format (no other module calls
  numpy.fft): walk streams each band's correlations with its taps to the
  powers 1..5, by direct correlation or FFT, and synthesis_rows gives a band's
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

import math
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
BAND_STACK = 1 << 15  # coefficients per stack of walk (measured: 2 bands at 128^2, 1 from 256^2)


def _factor_spectra(bands, shape, powers) -> list:
    """Per axis of shape, the 1-D spectra of every band's factor ** p zero-embedded at
    offset zero, an (len(powers), len(bands), n) array: rfft on the last axis, fft on the
    others. The rfftn of a band's taps ** p is the outer product of its rows over the axes."""
    return [(np.fft.rfft if axis == len(shape) - 1 else np.fft.fft)(np.stack(
        [[np.pad(b.factors[axis] ** p, (0, n - len(b.factors[axis]))) for b in bands]
         for p in powers])) for axis, n in enumerate(shape)]


def _parseval_weight(shape) -> np.ndarray:
    """sqrt(w / N) over the last axis of a real field's half spectrum: w = 2,
    but 1 on the DC and (even last axis) Nyquist columns, which have no mirror."""
    return np.sqrt((2.0 - (2 * np.arange(shape[-1] // 2 + 1) % shape[-1] == 0)) / np.prod(shape))


@dataclass(frozen=True)
class Band:
    """One analysis band: 1-D tap factors, synthesis gain and label.

    The taps are the outer product of factors (one 1-D array per axis);
    the synthesis taps are ``synth_gain * taps`` (adjoint-scaled frame), so
    a single gain per band fully describes the reconstruction side.
    """

    factors: tuple
    synth_gain: float
    label: str


class FilterBank:
    """Undecimated analysis/synthesis filterbank over full-size bands.

    bands[0] is the lowpass (bias-carrying) band. Every analysis quantity is
    a per-band correlation of the image with a power of the band's taps, and
    walk streams them in stacks of bands, each valid until the next (directly
    for factors of at most DIRECT_TAPS taps, else by one inverse FFT per band).
    Synthesis convolves a coefficient field with ``synth_gain * taps``:
    synthesis_rows gives a stack of bands' as Parseval rows, with the bank's
    1-D kernel spectra (kernel_spectra), and field_of_rows inverts rows. A
    bank holds only values fixed at construction, so it is safe to share:
    read-only factors, the per-axis support and, formed once, what the risk
    needs of band b's taps: tap_sums[b, p - 1] = sum(taps ** p), p = 1..3,
    and magnitudes[b] = |taps| (None unless each band has one: Haar frame).
    References for analysis and synthesis live in tests/oracles.py.
    """

    def __init__(self, name: str, bands):
        self.name, self.bands = name, tuple(bands)
        if not self.bands:
            raise ValueError(f"filter bank {name!r} has no bands")
        sums, magnitudes, haar = [], [], True
        for band in self.bands:
            for f in band.factors:
                f.flags.writeable = False  # the tables below must not go stale
            taps = reduce(np.multiply.outer, band.factors)
            sums.append([float(taps.sum()), float((taps ** 2).sum()), float((taps ** 3).sum())])
            magnitudes.append(abs(taps.flat[0]))
            haar = haar and np.ptp(np.abs(taps)) == 0  # so far, one magnitude per band
        self.tap_sums = np.array(sums)
        self.magnitudes = np.array(magnitudes) if haar else None
        self.support = tuple(map(max, zip(*(map(len, b.factors) for b in self.bands))))

    def _check_size(self, shape) -> None:
        if any(s < t for s, t in zip(shape, self.support)):
            raise ValueError(f"image shape {shape} smaller than filter support {self.support}")
        if len(shape) != len(self.support):
            raise ValueError("image dimensionality does not match the band taps")

    def walk(self, y: np.ndarray):
        """Yield (band indices, correlations) a stack at a time: consecutive bands of at
        most BAND_STACK coefficients, or one band, the lowpass band 0 alone. Row [k, i] of
        the (5, len(indices), *y.shape) array is the periodic correlation out[n] = sum_m
        taps[m] ** (k + 1) * y[(n + m) mod shape] of band indices[i], for the risk's powers
        1..5; the caller may write in it, and the next yield may reuse it. A bank of at
        most DIRECT_TAPS taps per factor is walked by direct correlation, bands with equal
        leading factors sharing one pass, whose output their stacks view; any other by one
        rfftn of y and one irfftn per band. With magnitudes c (the Haar frame), only powers
        1 and 2 are correlated: taps^p = c^(p - b) taps^b, b = 1 (odd p) or 2."""
        y = np.asarray(y, dtype=np.float64)
        self._check_size(y.shape)
        n, c = max(1, BAND_STACK // y.size), self.magnitudes
        engine = _direct_walk if max(self.support) <= DIRECT_TAPS else _fft_walk
        picked = None if c is None else np.empty(5 * n * y.size)
        for indices, corr in engine(y, self.bands, [1, 2, 3, 4, 5] if c is None else [1, 2], n):
            if c is not None:  # into picked's head: a smaller stack touches no more of it
                head = picked[:5 * corr[0].size].reshape((5,) + corr.shape[1:])
                corr = np.take(corr, [0, 1, 0, 1, 0], 0, head, "clip")
                scale = c[indices] ** [[0], [0], [2], [2], [4]]  # c^(p - b), per power and band
                corr *= scale.reshape(scale.shape + (1,) * y.ndim)
            yield indices, corr

    def kernel_spectra(self, shape) -> list:
        """Per axis of shape, every band's 1-D synthesis kernel spectrum, stacked over bands:
        its factor's fft, or on the last axis its rfft times synth_gain and _parseval_weight."""
        self._check_size(shape)
        *spectra, last = (s[0] for s in _factor_spectra(self.bands, shape, [1]))
        return spectra + [_parseval_weight(shape) * ([[b.synth_gain] for b in self.bands] * last)]

    def synthesis_rows(self, bands, coeffs, out=None, spectra=None) -> np.ndarray:
        """Coefficient fields (len(bands), ..., *shape), coeffs[i] synthesized by band
        bands[i] (for bands None, any stack, unfiltered), as real rows with the same dot
        products (Parseval): rfftn(coeffs) times the bands' kernel_spectra (spectra, or
        formed here), or _parseval_weight alone, viewed as reals. out, if given, receives
        them; the transforms run in it (numpy.fft's out=), the kernels multiply it in place."""
        coeffs = np.asarray(coeffs, dtype=np.float64)
        ndim = len(self.support)
        lead = coeffs.ndim - ndim
        shape, half = coeffs.shape[lead:], coeffs.shape[:-1] + (coeffs.shape[-1] // 2 + 1,)
        dest = np.empty(half, complex) if out is None else out.view(np.complex128).reshape(half)
        np.fft.rfft(coeffs, out=dest)
        for axis in range(lead, coeffs.ndim - 1):
            np.fft.fft(dest, axis=axis, out=dest)
        if bands is None:
            dest *= _parseval_weight(shape)
        for axis, kernels in enumerate(spectra or self.kernel_spectra(shape) if bands else ()):
            dest *= kernels[bands].reshape(
                (len(bands),) + (1,) * (lead - 1 + axis) + (-1,) + (1,) * (ndim - 1 - axis))
        return dest.view(np.float64).reshape(half[:lead] + (-1,))

    @staticmethod
    def field_of_rows(rows, shape) -> np.ndarray:
        """The field, or stack of fields, whose synthesis_rows(None, .) are rows."""
        spectrum = np.ascontiguousarray(rows, dtype=np.float64).view(np.complex128)
        spectrum = spectrum.reshape(spectrum.shape[:-1] + tuple(shape[:-1]) + (-1,))
        return np.fft.irfftn(spectrum / _parseval_weight(shape), s=shape, axes=range(-len(shape), 0))


def _stacks(indices, n):
    """indices cut into stacks of at most n, the lowpass band 0 alone."""
    runs = [[i for i in indices if i == 0], [i for i in indices if i != 0]]
    return [run[k:k + n] for run in runs for k in range(0, len(run), n)]


def _fft_walk(y, bands, powers, n):
    """FilterBank.walk by FFT: one transform of y and the bands' 1-D factor spectra, then
    one inverse per band into its stack, of y's times their outer product's conjugate."""
    y_fft, out = np.fft.rfftn(y), np.empty((len(powers), n) + y.shape)
    spectra = [np.expand_dims(s, [2 + a for a in range(y.ndim) if a != axis])
               for axis, s in enumerate(_factor_spectra(bands, y.shape, powers))]
    for stack in _stacks(range(len(bands)), n):
        for k, i in enumerate(stack):
            kernel = math.prod(s[:, i] for s in spectra)  # the rfftn of band i's taps ** powers
            np.fft.irfftn(y_fft * np.conj(kernel), s=y.shape, axes=range(-y.ndim, 0), out=out[:, k])
        yield stack, out[:, :len(stack)]


def _correlate(taps, field, axis, shifted, out) -> None:
    """out = taps @ shifted, row m the field rolled by -m along axis, in cache-sized blocks."""
    along = field.swapaxes(0, axis)
    for m in range(taps.shape[-1]):
        rolled, rest = shifted[m].reshape(field.shape).swapaxes(0, axis), len(along) - m
        rolled[:rest], rolled[rest:] = along[m:], along[:m]
    for a in range(0, field.size, 8192):
        np.matmul(taps, shifted[:taps.shape[-1], a:a + 8192], out=out[..., a:a + 8192])


def _direct_walk(y, bands, powers, n):
    """FilterBank.walk on a 1-D or 2-D field: per group (run of bands with equal leading
    factors), one matmul of that factor's powers over row-shifted copies of y, then per
    power one (bands x taps) @ (taps x pixels) matmul over column-shifted copies of that,
    whose output the group's stacks view. Buffer rows lie 64 doubles apart, so rows read
    together share no cache set."""
    groups = [[*g] for _, g in groupby(range(len(bands)),
                                       lambda i: [f.tobytes() for f in bands[i].factors[:-1]])]
    p, field = np.reshape(powers, (-1, 1)), y.reshape(-1, y.shape[-1])
    shifted, led, out = (np.empty(shape + (y.size + 64,))[..., :y.size] for shape in [
        (max(len(f) for b in bands for f in b.factors),), (len(p),),
        (len(p), max(map(len, groups)))])
    for group in groups:
        f = bands[group[0]].factors[0] if y.ndim == 2 else np.ones(1)  # 1-D leads with itself
        _correlate(f ** p, field, 0, shifted, led)
        last = [bands[i].factors[-1] for i in group]
        width = max(map(len, last))
        taps = np.stack([np.pad(f ** p, [(0, 0), (0, width - len(f))]) for f in last], 1)
        for k in range(len(p)):
            _correlate(taps[k], led[k].reshape(field.shape), 1, shifted, out[k, :len(group)])
        for stack in _stacks(group, n):
            at = slice(stack[0] - group[0], stack[-1] + 1 - group[0])
            yield stack, out[:, at].reshape((len(p), -1) + y.shape)


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
        bands = [Band((lows[-1],), 2.0 ** -levels, "low")]
        bands += [Band((d,), 2.0 ** -j, f"d{j}") for j, d in enumerate(details, 1)]
    else:
        bands = [Band((lows[-1],) * 2, 4.0 ** -levels, "low")]
        for j, d, l in zip(range(1, levels + 1), details, lows):
            bands += [Band(f, 4.0 ** -j, f"{o}{j}")
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
    return FilterBank("bdct8", [Band((basis[u], basis[v]), 1 / 64, f"ac{u}{v}" if u or v else "dc")
                                for u in range(8) for v in range(8)])


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
