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

import functools
import math
import numbers
from dataclasses import dataclass
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
BAND_STACK = 1 << 15  # coefficients per walk stack of whole bands (measured: 2 bands at 128^2)
TILE = 1 << 14  # coefficients per LET working unit, a band's row tile or a Haar level stack (L2)


def _factor_spectra(bank, shape, powers) -> list:
    """Per axis of shape, the 1-D spectra of the bank's factor_powers rows for powers, an
    (len(powers), len(bands), n) array zero-padded to n by the transform: rfft on the last
    axis, fft on the others. The rfftn of a band's taps ** p is the outer product of its rows."""
    return [(np.fft.rfft if axis == len(shape) - 1 else np.fft.fft)(t[np.subtract(powers, 1)], n)
            for axis, (t, n) in enumerate(zip(bank.factor_powers, shape))]


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
    walk streams them in stacks of bands, or a large band's row tiles of at most
    TILE coefficients, each valid until the next (directly for factors of at most
    DIRECT_TAPS taps, else by one inverse FFT per band); energies sums each band's
    squares by Parseval. Synthesis convolves a coefficient field with
    ``synth_gain * taps``: synthesis_rows gives a stack of bands' as Parseval rows, with
    the bank's 1-D kernel spectra (kernel_spectra), and field_of_rows inverts rows. A
    bank holds only values fixed at construction, so it is safe to share, and the
    builders cache theirs: the per-axis support and, read-only, the factors,
    factor_powers[axis][p - 1, b] = band b's factor zero-padded to the support, ** p,
    p = 1..5, and from it what the risk needs of band b's taps: tap_sums[b, p - 1] =
    sum(taps ** p) = the product over axes of fsum(f ** p), p = 1..3, and magnitudes[b]
    = |taps| (None unless each has one: Haar). References for analysis and synthesis
    live in tests/oracles.py.
    """

    def __init__(self, name: str, bands):
        self.name, self.bands = name, tuple(bands)
        if not self.bands:
            raise ValueError(f"filter bank {name!r} has no bands")
        self.support = tuple(map(max, zip(*(map(len, b.factors) for b in self.bands))))
        padded = [np.zeros((len(self.bands), n)) for n in self.support]  # row b: band b's factor
        for b, band in enumerate(self.bands):
            for table, f in zip(padded, band.factors):
                table[b, :len(f)] = f
                f.flags.writeable = False  # the tables below must not go stale
        self.factor_powers = [t ** np.arange(1, 6)[:, None, None] for t in padded]
        self.tap_sums = math.prod(np.array([[math.fsum(r) for r in rows.tolist()] for rows in
                                            t[:3].swapaxes(0, 1)]) for t in self.factor_powers)
        haar = all(np.ptp(np.abs(f)) == 0 for b in self.bands for f in b.factors)  # one |tap| each
        self.magnitudes = math.prod(abs(t[0, :, 0]) for t in self.factor_powers) if haar else None
        for table in [*self.factor_powers, self.tap_sums] + [self.magnitudes] * haar:
            table.flags.writeable = False  # shared by every caller of a cached bank

    def _check_size(self, shape) -> None:
        if len(shape) != len(self.support):
            raise ValueError("image dimensionality does not match the band taps")
        if any(s < t for s, t in zip(shape, self.support)):
            raise ValueError(f"image shape {shape} smaller than filter support {self.support}")

    def walk(self, y: np.ndarray):
        """Yield (band indices, rows, correlations) a stack at a time: consecutive bands of
        at most BAND_STACK coefficients, or one band, the lowpass band 0 alone. Row [k, i] of
        the (5, len(indices), *y[rows].shape) array is the periodic correlation out[n] =
        sum_m taps[m] ** (k + 1) * y[(n + m) mod shape] of band indices[i], for the risk's
        powers 1..5, on the slice rows of axis 0: all of it, but a 2-D band of more than
        TILE coefficients comes in row tiles of near-equal height and at most TILE
        coefficients (or one row), its tiles in order, on either engine. The caller may
        write in it, and the next yield may reuse it. Banks of at most DIRECT_TAPS taps per
        factor take _direct_walk, others _fft_walk, both reading the powers off
        factor_powers. With magnitudes c (the Haar frame), only powers 1 and 2 are
        correlated: taps^p = c^(p - b) taps^b, b = 1 (odd p) or 2."""
        y = np.asarray(y, dtype=np.float64)
        self._check_size(y.shape)
        n, c, picked = max(1, BAND_STACK // y.size), self.magnitudes, np.empty(0)
        engine = _direct_walk if max(self.support) <= DIRECT_TAPS else _fft_walk
        for indices, rows, corr in engine(y, self, [1, 2, 3, 4, 5] if c is None else [1, 2], n):
            if c is not None:  # into picked's head: a smaller stack touches no more of it
                picked = picked if picked.size >= 5 * corr[0].size else np.empty(5 * corr[0].size)
                head = picked[:5 * corr[0].size].reshape((5,) + corr.shape[1:])
                corr = np.take(corr, [0, 1, 0, 1, 0], 0, head, "clip")
                scale = c[indices] ** [[0], [0], [2], [2], [4]]  # c^(p - b), per power and band
                corr *= scale.reshape(scale.shape + (1,) * y.ndim)
            yield indices, rows, corr

    def energies(self, y: np.ndarray) -> np.ndarray:
        """Every band's sum of its squared coefficients (walk's power 1) over y, by Parseval:
        y's power spectrum (synthesis_rows' Parseval weights) times the squared spectra of
        the band's 1-D factors, contracted one axis at a time."""
        power = np.abs(self.synthesis_rows(None, y).view(np.complex128)) ** 2
        *lead, last = (np.abs(s[0]) ** 2 for s in _factor_spectra(self, np.shape(y), [1]))
        return ((lead[0] @ power.reshape(len(y), -1) if lead else power) * last).sum(-1)

    def kernel_spectra(self, shape) -> list:
        """Per axis of shape, every band's 1-D synthesis kernel spectrum, stacked over bands:
        its factor's fft, or on the last axis its rfft times synth_gain and _parseval_weight."""
        self._check_size(shape)
        *spectra, last = (s[0] for s in _factor_spectra(self, shape, [1]))
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


def _row_cuts(field) -> list:
    """Row cuts of a 2-D field into near-equal tiles of at most TILE coefficients, or one row."""
    tiles = -(-len(field) // max(1, TILE // field.shape[1]))  # 1 up to TILE
    return [len(field) * t // tiles for t in range(tiles + 1)]


def _fft_walk(y, bank, powers, n):
    """FilterBank.walk by FFT: one transform of y and the bank's 1-D factor spectra, then one
    inverse per band into its stack, of y's times their outer product's conjugate, yielded
    as _row_cuts' tiles of the stack's whole output."""
    y_fft, out = np.fft.rfftn(y), np.empty((len(powers), n) + y.shape)
    cuts = _row_cuts(y) if y.ndim > 1 else [0, len(y)]
    spectra = [np.expand_dims(s, [2 + a for a in range(y.ndim) if a != axis])
               for axis, s in enumerate(_factor_spectra(bank, y.shape, powers))]
    for stack in _stacks(range(len(bank.bands)), n):
        for k, i in enumerate(stack):
            kernel = math.prod(s[:, i] for s in spectra)  # the rfftn of band i's taps ** powers
            np.fft.irfftn(y_fft * np.conj(kernel), s=y.shape, axes=range(-y.ndim, 0), out=out[:, k])
        for r0, r1 in zip(cuts, cuts[1:]):
            yield stack, slice(r0, r1), out[:, :len(stack), r0:r1]


def _correlate(taps, field, axis, shifted, out, start=0) -> None:
    """out = taps @ shifted, row m as many of the field's slices along axis as out holds from
    start + m on, wrapped (all: the field rolled by -start - m), in cache-sized blocks."""
    along, shifted, shape = field.swapaxes(0, axis), shifted[:, :out.shape[-1]], list(field.shape)
    shape[axis] = n = out.shape[-1] * len(along) // field.size
    for m in range(taps.shape[-1]):
        rolled, at = shifted[m].reshape(shape).swapaxes(0, axis), (start + m) % len(along)
        first = min(n, len(along) - at)
        rolled[:first], rolled[first:] = along[at:at + first], along[:n - first]
    for a in range(0, out.shape[-1], 8192):
        np.matmul(taps, shifted[:taps.shape[-1], a:a + 8192], out=out[..., a:a + 8192])


def _direct_walk(y, bank, powers, n):
    """FilterBank.walk on a 1-D or 2-D field: per group (run of bands with equal leading
    factors) and row tile (_row_cuts; a 1-D field is one row), one matmul of that factor's
    powers over row-shifted copies of the tile's rows of y (their halo: the support - 1 rows
    after them, wrapped), then per power one (bands x taps) @ (taps x pixels) matmul over
    column-shifted copies of that, whose output the group's stacks view; both tap matrices
    slice the bank's factor_powers.
    Buffer rows hold one tile and lie 64 doubles apart, so rows read together share no
    cache set."""
    bands, p, field = bank.bands, len(powers), y.reshape(-1, y.shape[-1])
    groups = [[*g] for _, g in groupby(range(len(bands)),
                                       lambda i: [f.tobytes() for f in bands[i].factors[:-1]])]
    *lead, last = (t[np.subtract(powers, 1)] for t in bank.factor_powers)
    lead = lead[0] if lead else np.ones((p, len(bands), 1))  # a 1-D bank leads with 1
    cuts = _row_cuts(field)
    size = -(-len(field) // (len(cuts) - 1)) * field.shape[1]
    shifted, led, out = (np.empty(shape + (size + 64,))[..., :size]
                         for shape in [(max(bank.support),), (p,), (p, max(map(len, groups)))])
    for group in groups:
        taps = last[:, group[0]:group[-1] + 1, :max(len(bands[i].factors[-1]) for i in group)]
        for r0, r1 in zip(cuts, cuts[1:]):
            h, rows = (r1 - r0) * field.shape[1], slice(r0, r1 if y.ndim > 1 else len(y))
            _correlate(lead[:, group[0], :len(bands[group[0]].factors[0])], field, 0, shifted,
                       led[:, :h], r0)
            for k in range(p):
                _correlate(taps[k], led[k, :h].reshape(r1 - r0, -1), 1, shifted,
                           out[k, :len(group), :h])
            for stack in _stacks(group, n):
                at = slice(stack[0] - group[0], stack[-1] + 1 - group[0])
                yield stack, rows, out[:, at, :h].reshape((p, -1) + y[rows].shape)


def _level_count(J) -> int:
    """J as an int, the one rule of a level count: a whole number, never a bool, at least 1."""
    if type(J) is bool or not (isinstance(J, numbers.Real) and J >= 1 and float(J).is_integer()):
        raise ValueError(f"J={J!r} must be a whole number of levels, at least 1")
    return int(J)


@functools.lru_cache(maxsize=None, typed=True)  # typed: True is refused, not taken for 1
def haar_uwt_bank(levels: int, ndim: int = 2) -> FilterBank:
    """Shift-invariant Haar wavelet frame with J levels.

    2-D bands per level: "hl" (detail along rows, i.e. axis-1 differences),
    "lh" (detail along columns), "hh" (detail along both). Synthesis gains
    4^-j (2-D) or 2^-j (1-D) follow from the per-level identity
    (1/2)(h~ h + g~ g) = Id of the unit-norm Haar pair; the frame is not
    tight for J >= 2, so the gains are per-band, not global.
    """
    levels = _level_count(levels)
    if ndim not in (1, 2):
        raise ValueError("only 1-D and 2-D supported")
    details = [np.repeat([-1.0, 1.0], 2 ** (j - 1)) / 2 ** (j / 2) for j in range(1, levels + 1)]
    lows = [np.ones(2 ** j) / 2 ** (j / 2) for j in range(1, levels + 1)]  # cumulative, like details
    bands = [Band((lows[-1],) * ndim, 2.0 ** -(ndim * levels), "low")]
    for j, d, l in zip(range(1, levels + 1), details, lows):
        kinds = [("d", (d,))] if ndim == 1 else [("lh", (d, l)), ("hl", (l, d)), ("hh", (d, d))]
        bands += [Band(f, 2.0 ** -(ndim * j), f"{o}{j}") for o, f in kinds]
    return FilterBank(f"haar-uwt-J{levels}-{ndim}d", bands)


@functools.cache
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
    axes = {"w": (0,), "lh": (0,), "hl": (1,), "hh": (0, 1)}.get(orientation)
    if axes is None:
        raise ValueError(f"unknown orientation {orientation!r}")
    s = np.asarray(s, dtype=np.float64)
    return np.roll(s, (-1,) * len(axes), axis=axes) - np.roll(s, (1,) * len(axes), axis=axes)


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
