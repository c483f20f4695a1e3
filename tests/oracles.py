"""Reference implementations used only by the tests.

The package scores every atom through one fused kernel and FFT
correlations. These rebuild the same quantities the long way, as
independent arbiters: atoms with all six partials (the soft threshold's
written out by hand), the per-subband, image-domain and filterbank risk
evaluators with per-band analysis and full synthesis,
explicit circulant matrices with the image-domain chain rule
(D[k, l] = taps[l - k] periodic, Dbar with squared taps,
R = synth_gain * D.T), the subband weight solve written out, the gamma
smoothing as a sum of rolls and SSIM as a direct window sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from curelet.risk import BandDivergenceFields, cure_expression
from curelet.shrinkage import (DEFAULT_BETA, LAMBDAS, _denoise_pyramid, _keep_ratio,
                               _smooth_pos3, gamma_kernel, solve_weights)
from curelet.transforms import SPIN_COUNTS, SPIN_SHIFTS, FilterBank

POINTWISE_LAMBDAS = (3.0, 9.0)


def taps(band) -> np.ndarray:
    """A band's analysis taps, the outer product of its 1-D factors."""
    return reduce(np.multiply.outer, band.factors)


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


def cureshrink_evaluation(w, s, a: float, beta: float | None = None,
                          delta: float | None = None) -> SubbandEvaluation:
    """Smoothed soft threshold theta = (w/|w|) ramp(|w| - a sqrt(s)), with
    its six partials written out: the reference for the fused kernel's
    soft threshold (shrinkage._soft_threshold).

    |w| is smoothed as sqrt(w^2 + beta^2) and the same beta rounds the
    ramp knee; beta defaults to 2% of the mean noise scale sqrt(s), so the
    smoothing bias stays proportional to the data scale.
    """
    w = np.asarray(w, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if a < 0:
        raise ValueError("threshold scale a must be nonnegative")
    if delta is None:
        delta = 1e-6 * (float(s.mean()) + 1.0)
    sigma = np.sqrt(s + delta)
    if beta is None:
        beta = DEFAULT_BETA * float(sigma.mean())
    rho = np.sqrt(w ** 2 + beta ** 2)
    h = w / rho
    t = rho - a * sigma
    g, dg, d2g = _smooth_pos3(t, beta)
    h_w = beta ** 2 / rho ** 3
    h_ww = -3.0 * beta ** 2 * w / rho ** 5
    t_w = w / rho
    t_ww = beta ** 2 / rho ** 3
    t_s = -a / (2.0 * sigma)
    t_ss = a / (4.0 * sigma ** 3)
    return SubbandEvaluation(
        theta=h * g,
        d1=h_w * g + h * dg * t_w,
        d2=h * dg * t_s,
        d11=h_ww * g + 2.0 * h_w * dg * t_w + h * (d2g * t_w ** 2 + dg * t_ww),
        d22=h * (d2g * t_s ** 2 + dg * t_ss),
        d12=h_w * dg * t_s + h * d2g * t_w * t_s,
    )


def dense_band_matrices(bank, shape):
    """Explicit (D, Dbar, R) per band for a small 2-D image shape."""
    h, w = shape
    n = h * w
    mats = []
    for band in bank.bands:
        d = taps(band)
        emb = np.zeros(shape)
        embbar = np.zeros(shape)
        emb[: d.shape[0], : d.shape[1]] = d
        embbar[: d.shape[0], : d.shape[1]] = d ** 2
        D = np.empty((n, n))
        Dbar = np.empty((n, n))
        idx = 0
        for k0 in range(h):
            for k1 in range(w):
                D[idx] = np.roll(emb, (k0, k1), axis=(0, 1)).ravel()
                Dbar[idx] = np.roll(embbar, (k0, k1), axis=(0, 1)).ravel()
                idx += 1
        mats.append((D, Dbar, band.synth_gain * D.T))
    return mats


def dense_filterbank_cure(y, K, evs, bank, mats=None):
    """Filterbank risk via explicit matrices and the image-domain formula.

    f = sum_b R_b theta_b, and the diagonal derivatives of f w.r.t. y come
    from the chain rule through w_b = D_b y and wbar_b = Dbar_b y:

      df_n  = sum_b sum_l R[n,l] (d1_l D[l,n] + d2_l Dbar[l,n])
      d2f_n = sum_b sum_l R[n,l] (d11_l D[l,n]^2 + d22_l Dbar[l,n]^2
                                   + 2 d12_l D[l,n] Dbar[l,n])

    mats, when given, must be dense_band_matrices(bank, y.shape); passing
    it skips rebuilding the circulant matrices for repeated inputs.
    """
    y = np.asarray(y, dtype=np.float64)
    shape = y.shape
    yv = y.ravel()
    if mats is None:
        mats = dense_band_matrices(bank, shape)
    f = np.zeros(yv.size)
    df = np.zeros(yv.size)
    d2f = np.zeros(yv.size)
    for (D, Dbar, R), ev in zip(mats, evs):
        th = ev.theta.ravel()
        d1, d2 = ev.d1.ravel(), ev.d2.ravel()
        d11, d22, d12 = ev.d11.ravel(), ev.d22.ravel(), ev.d12.ravel()
        f += R @ th
        df += np.einsum("nl,l,ln->n", R, d1, D)
        df += np.einsum("nl,l,ln->n", R, d2, Dbar)
        d2f += np.einsum("nl,l,ln->n", R, d11, D * D)
        d2f += np.einsum("nl,l,ln->n", R, d22, Dbar * Dbar)
        d2f += 2.0 * np.einsum("nl,l,ln->n", R, d12, D * Dbar)
    ev_img = EstimatorEvaluation(
        f.reshape(shape), df.reshape(shape), d2f.reshape(shape)
    )
    return cure_image(y, K, ev_img)


def subband_normal_weights(w, s, K_j, atoms):
    """Risk-optimal weights of a Haar-subband expansion, written out.

    The subband risk of sum_k a_k theta_k is (a'Ma - 2a'c + const)/N with
    M = Theta Theta' and, term by term from cure_subband,

      c_k = w'theta_k - 4 (s - K_j/2)'d1_k - 4 w'd2_k
            + 4 w'(d11_k + d22_k) + 8 s'd12_k.

    Atoms whose energy is at most 1e-12 of the larger of the largest atom
    energy and |w|^2 are dead and get weight zero; the live system goes
    through solve_weights.
    """
    energies = np.array([float((ev.theta ** 2).sum()) for ev in atoms])
    scale = max(float(energies.max()), float((w ** 2).sum()))
    live = energies > 1e-12 * scale
    a = np.zeros(len(atoms))
    if not live.any():
        return a
    kept = [ev for ev, ok in zip(atoms, live) if ok]
    theta = np.stack([ev.theta.ravel() for ev in kept])
    half = (s - K_j / 2).ravel()
    wv, sv = w.ravel(), s.ravel()
    c = np.array([
        float(wv @ ev.theta.ravel())
        - 4.0 * float(half @ ev.d1.ravel())
        - 4.0 * float(wv @ ev.d2.ravel())
        + 4.0 * float(wv @ (ev.d11 + ev.d22).ravel())
        + 8.0 * float(sv @ ev.d12.ravel())
        for ev in kept
    ])
    a[live] = solve_weights(theta @ theta.T, c)
    return a


def pointwise_let_evaluations(banks, y, K, weights):
    """One weighted SubbandEvaluation per band of the pointwise LET expansion
    over the bands of banks, a list of banks, in order.

    Each band's atoms are built on their own, in bank order: a bank's
    lowpass band 0 gets the bias-removing atom w - sum(taps) K (d1 = 1),
    labelled "<band>:bias"; any other band gets let_atom_pointwise(w, wbar,
    lam) for each lambda, labelled "<band>:l<lam>". weights receives the
    (band index, label) of every atom, in that order, band indices running
    over all banks' bands, and returns one weight per atom; each band's
    atoms are then combined with combine_evaluations.
    """
    atoms, bands = [], [(k, band) for bank in banks for k, band in enumerate(bank.bands)]
    coeffs = [c for bank in banks for c in zip(analyze(bank, y), analyze(bank, y, 2))]
    for i, ((k, band), (w, wbar)) in enumerate(zip(bands, coeffs)):
        if k == 0:
            atoms.append((i, f"{band.label}:bias", SubbandEvaluation(
                theta=w - taps(band).sum() * K, d1=1.0, d2=0.0, d11=0.0, d22=0.0, d12=0.0)))
        else:
            atoms += [(i, f"{band.label}:l{lam:g}", let_atom_pointwise(w, wbar, lam))
                      for lam in POINTWISE_LAMBDAS]
    a = np.asarray(weights([(i, label) for i, label, _ in atoms]), dtype=np.float64)
    band_of = np.array([i for i, _, _ in atoms])
    return [combine_evaluations([ev for j, _, ev in atoms if j == i], a[band_of == i])
            for i in range(len(bands))]


def smooth_pos(u, beta: float):
    """Smooth ramp approximating max(u, 0); returns (value, derivative)."""
    if not beta > 0:
        raise ValueError("beta must be positive")
    g, dg, _ = _smooth_pos3(np.asarray(u, dtype=np.float64), beta)
    return g, dg


def _first_item(r, partials):
    """Item 0 of a modulator (r, partials) computed on a stack of one."""
    return r[0], [d[0] if np.ndim(d) else d for d in partials]


def _ramp_atom(r, partials, lam: float, c, own: bool,
               beta: float = DEFAULT_BETA) -> SubbandEvaluation:
    """theta = ramp(1 - 4 lam r) * c with its six diagonal partials in (w, s).

    partials is (r_w, r_s, r_ww, r_ss, r_ws). own marks a carrier c that is
    the coefficient w itself, which adds the product-rule terms of the
    w-derivatives; any other carrier is held fixed. The reference for
    shrinkage._fused_atoms, which the denoisers call instead.
    """
    g, dg, d2g = _smooth_pos3(1.0 - 4.0 * lam * r, beta)
    u_w, u_s, u_ww, u_ss, u_ws = (-4.0 * lam * d for d in partials)
    d1 = dg * u_w * c
    d11 = (d2g * u_w ** 2 + dg * u_ww) * c
    d12 = (d2g * u_w * u_s + dg * u_ws) * c
    if own:
        d1 = d1 + g
        d11 = d11 + 2.0 * dg * u_w
        d12 = d12 + dg * u_s
    return SubbandEvaluation(theta=g * c, d1=d1, d2=dg * u_s * c, d11=d11,
                             d22=(d2g * u_s ** 2 + dg * u_ss) * c, d12=d12)


def let_atom_pointwise(w, wbar, lam: float, beta: float = DEFAULT_BETA,
                       eps: float | None = None) -> SubbandEvaluation:
    """Keep-factor atom theta = ramp(1 - 4 lam wbar / w^2) * w.

    wbar is the variance channel of the band: 4(E[wbar] - K/2) estimates
    Var(w), so 4 lam wbar / w^2 compares coefficient energy to lam times
    its noise level. All six diagonal partials are closed-form. The
    reference for the filterbank denoiser's fused atoms.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    w = np.asarray(w, dtype=np.float64)
    wbar = np.asarray(wbar, dtype=np.float64)
    r, partials = _first_item(*_keep_ratio(w[None], wbar[None], eps))
    return _ramp_atom(r, partials, lam, w, own=True, beta=beta)


def joint_modulators(w, s, p, deltas=None) -> list:
    """(r, partials) of one subband's two modulators, each ramp(1 - 4 lam r),
    written out: the keep factor r = s / w^2 (shrinkage._keep_ratio on a
    stack of one) and the parent energy r = gamma(s) / gamma(p)^2, gamma by
    gamma_fields, whose only dependence on (w_n, s_n) is gamma(s)'s center
    kernel term. deltas = (d_s, d_p) smooths the magnitudes inside gamma,
    by default 1e-3 times their RMS plus 1e-12."""
    d_s, d_p = (None, None) if deltas is None else deltas
    g1 = gamma_kernel(ndim=1)
    A, A_s, A_ss = (f[0] for f in gamma_fields(s[None], g1, d_s))
    Bp2 = gamma_fields(p[None], g1, d_p)[0][0] ** 2
    iqp = 1.0 / (Bp2 + 1e-12 * (float(Bp2.mean()) + 1.0))
    return [_first_item(*_keep_ratio(w[None], s[None])),
            (A * iqp, [0.0, A_s * iqp, 0.0, A_ss * iqp, 0.0])]


def joint_let_atoms(w, s, p, lambdas=LAMBDAS, deltas=None) -> list:
    """The 8 inter-/intra-scale atoms of one subband.

    Two modulators per lambda: the pointwise keep factor
    ramp(1 - 4 lam s / w^2), which reads the exact variance channel s of
    each coefficient (4(E[s] - K_j/2) = Var(w)) so one large coefficient
    survives among noisy neighbors, and the parent-energy factor
    ramp(1 - 4 lam gamma(s) / gamma(p)^2), with gamma the local magnitude
    smoothed by gamma_kernel. Every ramp is smoothed with DEFAULT_BETA.
    Carriers are w and p; atoms are ordered (modulator=w, carrier=w),
    (modulator=p, carrier=w), (modulator=w, carrier=p), (modulator=p,
    carrier=p), both lambdas within each. The first two atoms are exactly
    let_atom_pointwise(w, s, lam). The parent p is an exogenous predictor
    (built from neighboring scaling coefficients, never from (w_n, s_n)),
    so partials are taken w.r.t. (w_n, s_n) only; gamma's dependence on a
    coordinate is exactly its center kernel term. deltas = (d_s, d_p)
    smooths the magnitudes inside gamma (joint_modulators). The reference
    for the fused atoms of haar_curelet_denoise.
    """
    w, s, p = (np.asarray(u, dtype=np.float64) for u in (w, s, p))
    modulators = joint_modulators(w, s, p, deltas)
    return [_ramp_atom(r, partials, lam, carrier, own)
            for carrier, own in ((w, True), (p, False))
            for r, partials in modulators for lam in lambdas]


def combine_evaluations(evs, weights) -> SubbandEvaluation:
    """Linear combination sum_k a_k * ev_k (all fields are linear in theta)."""
    weights = np.asarray(weights, dtype=np.float64)
    if len(evs) != weights.size:
        raise ValueError("one weight per evaluation required")
    return SubbandEvaluation(**{name: sum(a * getattr(ev, name) for a, ev in zip(weights, evs))
                                for name in ("theta", "d1", "d2", "d11", "d22", "d12")})


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


def cure_image(y, K: float, ev: EstimatorEvaluation) -> float:
    """Image-domain unbiased risk estimate of ev.f as an estimate of x.

    The divergence is (y - K/2)' df - y' d2f.
    """
    y = np.asarray(y, dtype=np.float64)
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


def analyze(bank, y, power=1) -> list[np.ndarray]:
    """Per-band correlations of y with taps ** power, 1 <= power <= 5: the
    coefficients w_b for power 1, the variance channel wbar_b for power 2
    (for chi-square data, Var(w) = 4 (E[wbar] - K/2)), each whole from walk's tiles."""
    out = np.empty((len(bank.bands),) + np.shape(y))
    for indices, rows, corr in bank.walk(y):
        out[indices, rows] = corr[power - 1]
    return list(out)


def synthesize(bank, coeffs) -> np.ndarray:
    """sum_b R_b coeffs_b: the bands' synthesis rows added, inverted once."""
    return FilterBank.field_of_rows(
        sum(bank.synthesis_rows([i], c[None])[0] for i, c in enumerate(coeffs)),
        np.shape(coeffs[0]))


def pyramid_round_trip_error(y, J: int, K: float = 2.0) -> float:
    """Largest |out - (y - K)| over every spin count, out the production
    pyramid recursion (_denoise_pyramid: padding, rolls, shift weights,
    crop) with a level function that keeps every detail, and only the
    lowpass unbiased, which is y - K exactly in exact arithmetic."""
    worst = 0.0
    for spins in SPIN_COUNTS:
        shifts = list(dict.fromkeys(sh[: np.ndim(y)] for sh in SPIN_SHIFTS[:spins]))
        out, _ = _denoise_pyramid(y, K, J, lambda sums, details, kj, j: [
            dict.fromkeys(step, 0.0) for step in details], shifts)
        worst = max(worst, float(np.abs(out - (y - K)).max()))
    return worst


def band_divergence_fields(y, K: float, bank) -> list[BandDivergenceFields]:
    """Divergence correlation fields of every band of the bank, scaled by its
    synthesis gain g (of_band's, per unit gain, times g), so that a band's
    divergence is atom_divergence of its own fields."""
    out = np.empty((len(bank.bands), 5) + np.shape(y))  # per band, its fields whole
    for indices, rows, corr in bank.walk(y):
        fields = BandDivergenceFields.of_band(bank.tap_sums[indices], K, corr[1:])
        for f, z in enumerate(vars(fields).values()):
            out[indices, f, rows] = z
    return [BandDivergenceFields(*(band.synth_gain * out[i])) for i, band in enumerate(bank.bands)]


def cure_filterbank_divergence(y, K: float, evs, bank) -> float:
    """Image-domain risk of the full filterbank estimator f = sum_b R_b theta_b.

    evs holds one SubbandEvaluation per band (lowpass included), with
    partials taken w.r.t. that band's (w_b, wbar_b). The divergence sums
    reduce to per-band correlations (band_divergence_fields of y).
    """
    y = np.asarray(y, dtype=np.float64)
    if len(evs) != len(bank.bands):
        raise ValueError("one evaluation per band required")
    f = synthesize(bank, [ev.theta for ev in evs])
    div = sum(atom_divergence(fl, ev)
              for fl, ev in zip(band_divergence_fields(y, K, bank), evs))
    return cure_expression(f - (y - K), div, y - K / 2)


def rolled_correlation(u, g1, axis: int) -> np.ndarray:
    """Periodic correlation sum_m g1[R + m] u[(n + m) mod N] along axis,
    R = len(g1) // 2, as a weighted sum of len(g1) rolls (a roll by more
    than N wraps around N as often as it needs)."""
    R = len(g1) // 2
    return sum(g * np.roll(u, -m, axis=axis) for m, g in zip(range(-R, R + 1), g1))


def gamma_fields(u, g1, delta=None):
    """shrinkage._gamma_fields written out, per item of a stack u (items,
    *field): the smoothed magnitude sqrt(u^2 + delta^2), delta by default
    1e-3 times the item's RMS plus 1e-12, correlated with g1 along every
    field axis by rolled_correlation, and the center-weight self-term
    derivatives."""
    u = np.asarray(u, dtype=np.float64)
    if delta is None:
        delta = np.array([1e-3 * np.sqrt((item ** 2).mean()) + 1e-12 for item in u]).reshape(
            (-1,) + (1,) * (u.ndim - 1))
    absu = np.sqrt(u ** 2 + delta ** 2)
    gamma = absu
    for axis in range(1, u.ndim):
        gamma = rolled_correlation(gamma, g1, axis)
    g0 = float(g1[len(g1) // 2]) ** (u.ndim - 1)
    return gamma, g0 * u / absu, g0 * delta ** 2 / absu ** 3


def ssim_direct(est, ref, size: int = 11, sigma: float = 1.5) -> float:
    """Mean SSIM with every local moment a direct size x size weighted sum
    over sliding_window_view windows: the Gaussian window (sigma) of unit
    sum, C1 = (0.01 L)^2, C2 = (0.03 L)^2, L = max|ref|."""
    est, ref = (np.asarray(a, dtype=np.float64) for a in (est, ref))
    offsets = np.arange(size) - (size - 1) / 2.0
    window = np.exp(-(offsets[:, None] ** 2 + offsets[None, :] ** 2) / (2.0 * sigma ** 2))
    window /= window.sum()

    def local(a):
        return np.einsum("ijkl,kl->ij", np.lib.stride_tricks.sliding_window_view(a, window.shape),
                         window)

    mu1, mu2 = local(est), local(ref)
    s11, s22 = local(est * est) - mu1 ** 2, local(ref * ref) - mu2 ** 2
    s12 = local(est * ref) - mu1 * mu2
    c1, c2 = (0.01 * np.abs(ref).max()) ** 2, (0.03 * np.abs(ref).max()) ** 2
    ssim_map = ((2 * mu1 * mu2 + c1) * (2 * s12 + c2)
                / ((mu1 ** 2 + mu2 ** 2 + c1) * (s11 + s22 + c2)))
    return float(np.clip(ssim_map.mean(), -1.0, 1.0))
