"""Redundant filterbanks and the unnormalized Haar pyramid.

Two transform families back the denoisers:

* Undecimated filterbanks (shift-invariant Haar wavelet frame, overlapping
  8x8 block DCT): every band is a periodic correlation of the image with a
  small tap array anchored at offset zero, and synthesis is the adjoint
  correlation scaled by a per-band gain. FilterBank owns the spectral
  format (no other module calls numpy.fft): walk streams each band's
  correlations with powers of its taps from one transform of the image,
  and synthesize_band maps a stack of fields through one kernel spectrum.
* The unnormalized Haar DWT: critically sampled pairwise sums/differences
  whose scaling chain preserves the chi-square family (sums of independent
  chi-squares stay chi-square, doubling the dof per 1-D split).

Boundaries are periodic everywhere; the analysis operators are circulant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Band",
    "FilterBank",
    "HaarPyramid",
    "haar_uwt_bank",
    "bdct8_bank",
    "haar_dwt_analyze",
    "haar_dwt_synthesize",
    "parent_field",
    "cycle_spin",
    "SPIN_SHIFTS",
]


def _tap_spectra(taps: np.ndarray, shape) -> np.ndarray:
    """rfftn of tap arrays embedded at offset zero in a field of the given shape.

    Leading axes of taps beyond len(shape) stack independent tap arrays.
    """
    axes = tuple(range(-len(shape), 0))
    emb = np.zeros(taps.shape[: taps.ndim - len(shape)] + tuple(shape))
    emb[(...,) + tuple(slice(0, s) for s in taps.shape[taps.ndim - len(shape):])] = taps
    return np.fft.rfftn(emb, axes=axes)


@dataclass(frozen=True)
class Band:
    """One analysis band: tap array, synthesis gain, and metadata.

    The synthesis taps are ``synth_gain * taps`` (adjoint-scaled frame), so
    a single gain per band fully describes the reconstruction side.
    """

    taps: np.ndarray
    synth_gain: float
    kind: str  # "lowpass" | "highpass"
    level: int
    label: str

    @property
    def tap_sum(self) -> float:
        return float(self.taps.sum())


class FilterBank:
    """Undecimated analysis/synthesis filterbank over full-size bands.

    bands[0] is the lowpass (bias-carrying) band. Every analysis quantity
    is a per-band correlation of the image with a power of the band's
    taps, and walk streams them: it transforms the image once and yields
    one band's stacked correlations at a time, so only the current band
    is alive. Synthesis convolves a coefficient field (or a stack of them)
    with ``synth_gain * taps``; synthesize sums the bands. A bank holds
    only its bands and caches nothing, so it is safe to share.
    """

    def __init__(self, name: str, bands):
        self.name = name
        self.bands = tuple(bands)
        if self.bands[0].kind != "lowpass":
            raise ValueError("bands[0] must be the lowpass band")

    def _check_size(self, shape) -> None:
        support = np.max([b.taps.shape for b in self.bands], axis=0)
        if any(s < t for s, t in zip(shape, support)):
            raise ValueError(f"image shape {shape} smaller than filter support {tuple(support)}")
        if len(shape) != self.bands[0].taps.ndim:
            raise ValueError("image dimensionality does not match the band taps")

    def walk(self, y: np.ndarray, powers):
        """Yield, band by band, the correlations of y with taps ** p.

        y is transformed once; each yielded array has shape
        (len(powers), *y.shape) and row k is the periodic correlation
        out[n] = sum_m taps[m] ** powers[k] * y[(n + m) mod shape].
        """
        y = np.asarray(y, dtype=np.float64)
        self._check_size(y.shape)
        y_fft = np.fft.rfftn(y)
        for band in self.bands:
            # no local holds the kernel spectra, so they are freed before the band is consumed
            yield np.fft.irfftn(
                y_fft * np.conj(_tap_spectra(np.stack([band.taps ** p for p in powers]), y.shape)),
                s=y.shape, axes=range(-y.ndim, 0))

    def analyze(self, y: np.ndarray) -> list[np.ndarray]:
        """Per-band coefficient fields w_b = correlation(y, taps_b)."""
        return [corr[0] for corr in self.walk(y, (1,))]

    def analyze_variance(self, y: np.ndarray) -> list[np.ndarray]:
        """Variance-channel fields: correlation with the squared taps.

        For chi-square data these estimate coefficient variances via
        Var(w) = 4 (E[wbar] - K/2).
        """
        return [corr[0] for corr in self.walk(y, (2,))]

    def synthesize_band(self, i: int, coeffs: np.ndarray) -> np.ndarray:
        """Band i's synthesis of a coefficient field, or of a stack of them
        along leading axes, all through one transform of the band's kernel."""
        coeffs = np.asarray(coeffs, dtype=np.float64)
        band = self.bands[i]
        shape = coeffs.shape[coeffs.ndim - band.taps.ndim:]
        axes = range(-len(shape), 0)
        kernel = _tap_spectra(band.synth_gain * band.taps, shape)
        return np.fft.irfftn(np.fft.rfftn(coeffs, axes=axes) * kernel, s=shape, axes=axes)

    def synthesize(self, coeffs: list[np.ndarray]) -> np.ndarray:
        if len(coeffs) != len(self.bands):
            raise ValueError(f"expected {len(self.bands)} bands, got {len(coeffs)}")
        return sum(self.synthesize_band(i, c) for i, c in enumerate(coeffs))


def _haar_cumulative_1d(levels: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Cumulative detail filters for levels 1..J and the level-J lowpass."""
    details = []
    for j in range(1, levels + 1):
        half = 2 ** (j - 1)
        d = np.concatenate([-np.ones(half), np.ones(half)]) / 2 ** (j / 2)
        details.append(d)
    low = np.ones(2 ** levels) / 2 ** (levels / 2)
    return details, low


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
    details, low = _haar_cumulative_1d(levels)
    bands = []
    if ndim == 1:
        bands.append(Band(low, 2.0 ** -levels, "lowpass", levels, "low"))
        for j, d in enumerate(details, start=1):
            bands.append(Band(d, 2.0 ** -j, "highpass", j, f"d{j}"))
    else:
        lows = [_haar_cumulative_1d(j)[1] for j in range(1, levels + 1)]
        bands.append(Band(np.outer(low, low), 4.0 ** -levels, "lowpass", levels, "low"))
        for j in range(1, levels + 1):
            d, l = details[j - 1], lows[j - 1]
            gain = 4.0 ** -j
            bands.append(Band(np.outer(d, l), gain, "highpass", j, f"lh{j}"))
            bands.append(Band(np.outer(l, d), gain, "highpass", j, f"hl{j}"))
            bands.append(Band(np.outer(d, d), gain, "highpass", j, f"hh{j}"))
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
    bands = [Band(np.outer(basis[0], basis[0]), 1 / 64, "lowpass", 0, "dc")]
    for u in range(8):
        for v in range(8):
            if u == 0 and v == 0:
                continue
            bands.append(Band(np.outer(basis[u], basis[v]), 1 / 64, "highpass", 0, f"ac{u}{v}"))
    return FilterBank("bdct8", bands)


@dataclass
class HaarPyramid:
    """Unnormalized Haar DWT of a nonnegative field.

    detail[j-1] holds the level-j wavelet subbands ("lh"/"hl"/"hh" in 2-D,
    "w" in 1-D); smooth_levels[j-1] holds the same-scale scaling field s^j,
    which doubles as the variance channel of the level-j details. dof0 is
    the chi-square dof of the input when it is model data (None otherwise);
    s^j then carries dof0 * 4^j (2-D) or dof0 * 2^j (1-D) degrees of
    freedom, and its entries stay nonnegative.
    """

    levels: int
    detail: list
    smooth_levels: list
    orig_shape: tuple
    dof0: float | None = None

    @property
    def smooth(self) -> np.ndarray:
        return self.smooth_levels[-1]

    @property
    def ndim(self) -> int:
        return len(self.orig_shape)

    def dof(self, level: int) -> float:
        if self.dof0 is None:
            raise ValueError("pyramid carries no dof metadata")
        branch = 4.0 if self.ndim == 2 else 2.0
        return self.dof0 * branch ** level


def _dwt_step_1d(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    s = c[0::2] + c[1::2]
    w = c[1::2] - c[0::2]
    return s, w


def _idwt_step_1d(s: np.ndarray, w: np.ndarray) -> np.ndarray:
    c = np.empty(2 * s.size)
    c[0::2] = (s - w) / 2
    c[1::2] = (s + w) / 2
    return c


def _dwt_step_2d(c: np.ndarray):
    sc = c[:, 0::2] + c[:, 1::2]
    dc = c[:, 1::2] - c[:, 0::2]
    ll = sc[0::2] + sc[1::2]
    lh = sc[1::2] - sc[0::2]
    hl = dc[0::2] + dc[1::2]
    hh = dc[1::2] - dc[0::2]
    return ll, {"lh": lh, "hl": hl, "hh": hh}


def _idwt_step_2d(ll: np.ndarray, bands: dict) -> np.ndarray:
    lh, hl, hh = bands["lh"], bands["hl"], bands["hh"]
    sc = np.empty((2 * ll.shape[0], ll.shape[1]))
    dc = np.empty_like(sc)
    sc[0::2] = (ll - lh) / 2
    sc[1::2] = (ll + lh) / 2
    dc[0::2] = (hl - hh) / 2
    dc[1::2] = (hl + hh) / 2
    c = np.empty((sc.shape[0], 2 * sc.shape[1]))
    c[:, 0::2] = (sc - dc) / 2
    c[:, 1::2] = (sc + dc) / 2
    return c


def _pad_to_multiple(y: np.ndarray, multiple: int) -> np.ndarray:
    pads = [(0, (-s) % multiple) for s in y.shape]
    if any(p[1] for p in pads):
        return np.pad(y, pads, mode="wrap")
    return y


def haar_dwt_analyze(y, levels: int, dof: float | None = None) -> HaarPyramid:
    """Unnormalized Haar DWT: per level, pairwise sums (s) and differences (w).

    1-D pairs (2i, 2i+1): s_i = y[2i] + y[2i+1], w_i = y[2i+1] - y[2i];
    2-D applies the split separably (columns then rows). Non-dyadic sizes
    are padded periodically to the next multiple of 2^levels and cropped
    back on synthesis. Accepts a NoisyField (dof taken from it) or a plain
    array.
    """
    if hasattr(y, "samples"):
        dof = y.dof if dof is None else dof
        y = y.samples
    y = np.asarray(y, dtype=np.float64)
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if y.ndim not in (1, 2):
        raise ValueError("only 1-D and 2-D supported")
    orig_shape = y.shape
    c = _pad_to_multiple(y, 2 ** levels)
    detail, smooth_levels = [], []
    for _ in range(levels):
        if y.ndim == 1:
            c, w = _dwt_step_1d(c)
            detail.append({"w": w})
        else:
            c, bands = _dwt_step_2d(c)
            detail.append(bands)
        smooth_levels.append(c)
    return HaarPyramid(levels=levels, detail=detail, smooth_levels=smooth_levels,
                       orig_shape=orig_shape, dof0=dof)


def haar_dwt_synthesize(pyramid: HaarPyramid) -> np.ndarray:
    """Exact inverse of haar_dwt_analyze, cropped to the original shape."""
    c = pyramid.smooth
    for j in range(pyramid.levels, 0, -1):
        bands = pyramid.detail[j - 1]
        if pyramid.ndim == 1:
            c = _idwt_step_1d(c, bands["w"])
        else:
            c = _idwt_step_2d(c, bands)
    crop = tuple(slice(0, s) for s in pyramid.orig_shape)
    return c[crop]


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


# Deterministic cycle-spin shift schedule: the four diagonal shifts first,
# then the remaining offsets of {0..3}^2 in row-major order.
SPIN_SHIFTS: tuple = tuple(
    [(d, d) for d in range(4)]
    + [(a, b) for a in range(4) for b in range(4) if a != b]
)

_VALID_SPINS = (1, 4, 8, 16)


def cycle_spin(y: np.ndarray, K: float, denoiser, n_spins: int) -> np.ndarray:
    """Average a shift-variant denoiser over a fixed list of input shifts.

    denoiser(y_shifted, K) -> estimate array. Each spin shifts the input
    periodically, denoises, unshifts, and the results are averaged.
    """
    if n_spins not in _VALID_SPINS:
        raise ValueError(f"n_spins must be one of {_VALID_SPINS}")
    y = np.asarray(y, dtype=np.float64)
    axes = tuple(range(y.ndim))
    out = np.zeros_like(y)
    for shift in SPIN_SHIFTS[:n_spins]:
        sh = shift[: y.ndim]
        est = denoiser(np.roll(y, sh, axis=axes), K)
        out += np.roll(est, tuple(-v for v in sh), axis=axes)
    return out / n_spins
