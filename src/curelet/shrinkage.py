"""Thresholding atoms, risk-optimal weight solves, and the denoisers.

Estimators are linear expansions of fixed nonlinear atoms. Each atom is a
smooth function of a coefficient and its variance channel (or scaling
companion), with every diagonal partial derivative available in closed
form so the unbiased risk estimate is exact. The risk of an expansion is
a quadratic in its weights, so one fit (_fit_expansion) minimizes it by
least squares on a tiny normal system and returns the risk at the
minimizer; both expansion denoisers go through it.

Three denoisers:

* uwt_curelet_denoise: pointwise shrinkage atoms per undecimated band
  (Haar frame, overlapping block DCT, or both pooled), built band by band
  and kept only as synthesized rows; weights solved globally in the image
  domain.
* cureshrink_denoise: per-subband soft thresholding in the unnormalized
  Haar DWT, threshold = a * sqrt(s) with scalar a picked by risk search.
* haar_curelet_denoise: per-subband 8-atom expansion mixing the
  coefficient's pointwise keep factor, its parent's smoothed local
  energy, and the parent predictor itself.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .risk import (
    BandDivergenceFields,
    RiskReport,
    SubbandEvaluation,
    atom_divergence,
    cure_expression,
    cure_subband,
)
from .transforms import (
    bdct8_bank,
    haar_dwt_analyze,
    haar_dwt_synthesize,
    haar_uwt_bank,
    parent_field,
)

__all__ = [
    "smooth_pos",
    "let_atom_pointwise",
    "solve_weights",
    "uwt_curelet_denoise",
    "cureshrink_evaluation",
    "cureshrink_subband",
    "cureshrink_denoise",
    "gamma_kernel",
    "joint_let_atoms",
    "haar_curelet_denoise",
]

DEFAULT_BETA = 0.02
POINTWISE_LAMBDAS = (3.0, 9.0)
JOINT_LAMBDAS = POINTWISE_LAMBDAS
# solve_weights: ridge above this condition estimate, at this fraction of
# trace(M)/I, then drop eigenmodes below RCOND times the largest
COND_LIMIT = 1e12
RIDGE = 1e-9
RCOND = 1e-4
# cureshrink_subband: coarse grid of threshold scales, golden-section tolerance
GRID_MAX = 4.0
GRID_STEP = 0.05
GRID_TOL = 1e-3
# gamma_kernel: truncation radius and width of the Gaussian weights
GAMMA_RADIUS = 4
GAMMA_SIGMA = 1.0


# ------------------------------------------------------------ smooth atoms


def _smooth_pos3(u, beta: float):
    """(u + sqrt(u^2 + beta^2)) / 2 with first and second derivatives.

    The negative tail uses u + root = beta^2 / (root - u) (and likewise
    for the slope), since the direct sum cancels catastrophically there.
    """
    u = np.asarray(u, dtype=np.float64)
    root = np.sqrt(u ** 2 + beta ** 2)
    neg = u < 0
    # root - min(u, 0) never cancels and stays >= beta on both branches
    safe = root - np.minimum(u, 0.0)
    g = np.where(neg, 0.5 * beta ** 2 / safe, 0.5 * (u + root))
    dg = np.where(neg, 0.5 * beta ** 2 / (root * safe), 0.5 * (1.0 + u / root))
    d2g = 0.5 * beta ** 2 / root ** 3
    return g, dg, d2g


def smooth_pos(u, beta: float):
    """Smooth ramp approximating max(u, 0); returns (value, derivative)."""
    if not beta > 0:
        raise ValueError("beta must be positive")
    g, dg, _ = _smooth_pos3(np.asarray(u, dtype=np.float64), beta)
    return g, dg


def _keep_factor(w, v, lam: float, eps: float):
    """u = 1 - 4 lam v / (w^2 + eps) and its partials.

    Returns (u, u_w, u_v, u_ww, u_vv, u_wv); u is linear in v, so u_vv = 0.
    """
    q = w ** 2 + eps
    u = 1.0 - 4.0 * lam * v / q
    u_w = 8.0 * lam * v * w / q ** 2
    u_v = -4.0 * lam / q
    u_ww = 8.0 * lam * v * (eps - 3.0 * w ** 2) / q ** 3
    u_wv = 8.0 * lam * w / q ** 2
    return u, u_w, u_v, u_ww, 0.0, u_wv


def _ramp_atom(ramp, partials, carrier, own: bool) -> SubbandEvaluation:
    """theta = ramp(u) * carrier with its six diagonal partials in (w, s).

    ramp is (g, g', g'') at u and partials is (u_w, u_s, u_ww, u_ss, u_ws).
    own marks a carrier that is the coefficient w itself, which adds the
    product-rule terms of the w-derivatives; any other carrier is held
    fixed.
    """
    g, dg, d2g = ramp
    u_w, u_s, u_ww, u_ss, u_ws = partials
    c = carrier
    d1 = dg * u_w * c
    d11 = (d2g * u_w ** 2 + dg * u_ww) * c
    d12 = (d2g * u_w * u_s + dg * u_ws) * c
    if own:
        d1 = d1 + g
        d11 = d11 + 2.0 * dg * u_w
        d12 = d12 + dg * u_s
    return SubbandEvaluation(
        theta=g * c,
        d1=d1,
        d2=dg * u_s * c,
        d11=d11,
        d22=(d2g * u_s ** 2 + dg * u_ss) * c,
        d12=d12,
    )


def let_atom_pointwise(w, wbar, lam: float, beta: float = DEFAULT_BETA,
                       eps: float | None = None) -> SubbandEvaluation:
    """Keep-factor atom theta = ramp(1 - 4 lam wbar / w^2) * w.

    wbar is the variance channel of the band: 4(E[wbar] - K/2) estimates
    Var(w), so 4 lam wbar / w^2 compares coefficient energy to lam times
    its noise level. All six diagonal partials are closed-form.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    w = np.asarray(w, dtype=np.float64)
    v = np.asarray(wbar, dtype=np.float64)
    if eps is None:
        eps = 1e-12 * (float((w ** 2).mean()) + 1.0)
    u, *partials = _keep_factor(w, v, lam, eps)
    return _ramp_atom(_smooth_pos3(u, beta), partials, w, own=True)


# --------------------------------------------------------- weight solving


def solve_weights(M, c) -> np.ndarray:
    """Minimal-norm pseudo-inverse solve of the normal system Ma = c.

    The risk surface is a quadratic whose Hessian is the atom Gram matrix;
    its near-null eigenmodes belong to almost-collinear atom combinations,
    where the estimated gradient is dominated by sampling noise and the
    formal minimizer runs far from zero without lowering the true risk.
    Eigenmodes below RCOND * (largest eigenvalue) are therefore solved to
    zero weight. When the condition estimate exceeds COND_LIMIT,
    RIDGE * trace(M)/I is added to the diagonal first; the returned
    weights satisfy the regularized normal equations restricted to the
    kept subspace to 1e-8 * (|c| + 1).
    """
    M = np.asarray(M, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if not (np.isfinite(M).all() and np.isfinite(c).all()):
        raise ValueError("non-finite entries in the normal system")
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        M = M + (RIDGE * np.trace(M) / c.size) * np.eye(c.size)
    lam, V = np.linalg.eigh((M + M.T) / 2.0)
    keep = lam > RCOND * max(lam.max(), 0.0)
    if not keep.any():
        return np.zeros(c.size)
    V = V[:, keep]
    a = V @ ((V.T @ c) / lam[keep])
    residual = float(np.linalg.norm(V.T @ (M @ a - c)))
    if residual > 1e-8 * (float(np.linalg.norm(c)) + 1.0):
        raise RuntimeError(f"weight solve residual {residual:.3e} too large")
    return a


def _live_atoms(energies: np.ndarray, data_energy: float) -> np.ndarray:
    """Mask of atoms whose field energy is non-negligible.

    A numerically dead atom contributes nothing to the estimate, yet its
    divergence entry still lands in c; keeping it would pair a zero Gram
    row with a nonzero right-hand side and the risk would have no minimum
    along that direction. Dead atoms are solved out with weight zero.
    """
    scale = max(float(energies.max()), float(data_energy))
    if scale <= 0.0:
        return np.zeros(energies.size, dtype=bool)
    return energies > 1e-12 * scale


def _fit_expansion(rows: np.ndarray, target: np.ndarray, div: np.ndarray,
                   half: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Risk-optimal weights of a linear expansion and the risk at them.

    The risk of a @ rows is cure_expression(a @ rows - target, a'div, half),
    minimized by (rows rows') a = rows target - 4 div over the live atoms
    (dead ones get weight zero). The data fit comes from the residual
    itself, so no large terms cancel. Returns (a, estimate, cure).
    """
    a = np.zeros(rows.shape[0])
    live = _live_atoms(np.einsum("ij,ij->i", rows, rows), float(target @ target))
    if live.any():
        kept = rows if live.all() else rows[live]
        a[live] = solve_weights(kept @ kept.T, kept @ target - 4.0 * div[live])
    estimate = a @ rows
    return a, estimate, cure_expression(estimate - target, float(a @ div), half)


# ------------------------------------------------- filterbank LET denoiser


def _band_atoms(band, w, wbar, K: float, lambdas):
    """Labelled atoms of one band: (label, SubbandEvaluation) pairs.

    A lowpass band gets one bias-removing atom, which synthesizes to the
    unbiased lowpass of x (the band carries tap_sum * K of chi-square mean
    per coefficient); a highpass band gets one keep-factor atom per lambda.
    """
    if band.kind == "lowpass":
        w = np.asarray(w, dtype=np.float64)
        yield f"{band.label}:bias", SubbandEvaluation(
            theta=w - band.tap_sum * K, d1=1.0, d2=0.0, d11=0.0, d22=0.0, d12=0.0)
        return
    for lam in lambdas:
        yield f"{band.label}:l{lam:g}", let_atom_pointwise(w, wbar, lam)


def uwt_curelet_denoise(y, K: float, transform: str = "haar-uwt", J: int = 3,
                        lambdas=POINTWISE_LAMBDAS):
    """Risk-optimal linear expansion over undecimated-band atoms.

    One walk over the bands of each bank. A band's correlations with its
    taps to the powers 1..5 are its coefficients, its variance channel
    and (2..5) its divergence fields; its atoms are taken one at a time,
    each reduced to its divergence with only its theta kept, and the
    band's thetas are synthesized in one call into their rows of one
    (atoms x pixels) matrix. Nothing else of the band outlives it.
    _fit_expansion then solves the weights and scores the estimate of x.
    "mixed" pools the Haar-frame and block-DCT atoms into one joint
    system. The report's per_band maps "<bank>/<atom label>" to the atom's
    weight.
    """
    y = np.asarray(y, dtype=np.float64)
    if (y < 0).any():
        raise ValueError("squared-magnitude data must be nonnegative")
    names = {"haar-uwt", "bdct", "mixed"}
    if transform not in names:
        raise ValueError(f"transform must be one of {sorted(names)}")
    banks = []
    if transform in ("haar-uwt", "mixed"):
        banks.append(haar_uwt_bank(J, ndim=y.ndim))
    if transform in ("bdct", "mixed"):
        banks.append(bdct8_bank())
    # one row per atom: _band_atoms gives a lowpass band 1, any other band one per lambda
    n_atoms = sum(1 if band.kind == "lowpass" else len(lambdas)
                  for bank in banks for band in bank.bands)
    rows = np.empty((n_atoms, y.size))
    div, labels = [], []
    for bank in banks:
        for i, (band, corr) in enumerate(zip(bank.bands, bank.walk(y, range(1, 6)))):
            fields = BandDivergenceFields.of_band(band, K, corr[1:])
            thetas = []
            for label, ev in _band_atoms(band, corr[0], corr[1], K, lambdas):
                div.append(atom_divergence(fields, ev))
                labels.append(f"{bank.name}/{label}")
                thetas.append(ev.theta)
            rows[len(div) - len(thetas):len(div)] = bank.synthesize_band(
                i, np.stack(thetas)).reshape(len(thetas), -1)
    a, estimate, cure = _fit_expansion(rows, (y - K).ravel(), np.asarray(div), y - K / 2)
    weights = {label: float(ak) for label, ak in zip(labels, a)}
    return estimate.reshape(y.shape), RiskReport(cure=cure, per_band=weights)


# ------------------------------------------------------ subband CUREshrink


def cureshrink_evaluation(w, s, a: float, beta: float | None = None,
                          delta: float | None = None) -> SubbandEvaluation:
    """Smoothed soft threshold theta = (w/|w|) ramp(|w| - a sqrt(s)).

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


def _golden_section(fun, lo: float, hi: float, tol: float) -> tuple[float, float]:
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = fun(x1), fun(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = fun(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = fun(x2)
    mid = 0.5 * (lo + hi)
    return mid, fun(mid)


def cureshrink_subband(w, s, K_j: float, objective=None):
    """Pick the threshold scale a minimizing the subband risk estimate.

    Coarse grid {0, GRID_STEP, ..., GRID_MAX} followed by golden-section
    refinement of the best cell to GRID_TOL; cureshrink_evaluation's
    default smoothing throughout. objective(a, evaluation) -> float
    overrides the default objective, the subband risk cure_subband (used
    for oracle comparisons). Returns (theta field, chosen a, objective
    at a).
    """
    w = np.asarray(w, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)

    def score(a):
        ev = cureshrink_evaluation(w, s, a)
        if objective is not None:
            return float(objective(a, ev))
        return cure_subband(w, s, K_j, ev)

    grid = np.arange(0.0, GRID_MAX + 0.5 * GRID_STEP, GRID_STEP)
    values = [score(a) for a in grid]
    best = int(np.argmin(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.size - 1)]
    a_star, value = _golden_section(score, lo, hi, GRID_TOL)
    if values[best] < value:
        a_star, value = float(grid[best]), values[best]
    return cureshrink_evaluation(w, s, a_star).theta, float(a_star), value


# ----------------------------------------------- joint inter-/intra-scale


def gamma_kernel(ndim: int = 2) -> np.ndarray:
    """Truncated Gaussian density weights for local-magnitude smoothing.

    Weights exp(-|m|^2 / 2 GAMMA_SIGMA^2) / sqrt(2 pi GAMMA_SIGMA^2)^ndim
    on the integer offsets |m_i| <= GAMMA_RADIUS; the center weight is
    the density at zero (1/sqrt(2 pi) per axis), not renormalized after
    truncation.
    """
    if ndim not in (1, 2):
        raise ValueError("only 1-D and 2-D kernels supported")
    m = np.arange(-GAMMA_RADIUS, GAMMA_RADIUS + 1, dtype=np.float64)
    g1 = np.exp(-(m ** 2) / (2.0 * GAMMA_SIGMA ** 2)) / np.sqrt(2.0 * np.pi * GAMMA_SIGMA ** 2)
    return g1 if ndim == 1 else np.outer(g1, g1)


def _gamma_fields(u: np.ndarray, g1: np.ndarray, delta: float):
    """Smoothed local magnitude and its diagonal self-term derivatives.

    gamma_n = sum_m G(m) |u_{n+m}| with |.| smoothed to sqrt(u^2+delta^2)
    and G the separable gamma_kernel, applied as the 1-D weights g1 along
    each axis; only the m=0 term involves u_n, so the diagonal
    derivatives are the center weight times the smoothed-abs derivatives.
    """
    absu = np.sqrt(u ** 2 + delta ** 2)
    gamma = absu
    for axis in range(u.ndim):
        gamma = ndimage.correlate1d(gamma, g1, axis=axis, mode="wrap")
    g0 = float(g1[GAMMA_RADIUS]) ** u.ndim
    return gamma, g0 * u / absu, g0 * delta ** 2 / absu ** 3


def _field_delta(u: np.ndarray) -> float:
    return 1e-3 * float(np.sqrt((u ** 2).mean())) + 1e-12


def joint_let_atoms(w, s, p, lambdas=JOINT_LAMBDAS, deltas=None) -> list:
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
    coordinate is exactly its center kernel term.
    deltas = (d_w, d_s, d_p) smooths the magnitudes inside gamma; only
    d_s and d_p are read, since no gamma of w is formed.
    """
    w = np.asarray(w, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if deltas is None:
        deltas = (None, _field_delta(s), _field_delta(p))
    _, ds, dp = deltas

    g1 = gamma_kernel(ndim=1)
    A, A_s, A_ss = _gamma_fields(s, g1, ds)
    Bp, _, _ = _gamma_fields(p, g1, dp)
    eps_w = 1e-12 * (float((w ** 2).mean()) + 1.0)
    qp = Bp ** 2 + 1e-12 * (float((Bp ** 2).mean()) + 1.0)

    modulators = []
    for lam in lambdas:
        u, *partials = _keep_factor(w, s, lam, eps_w)
        modulators.append((_smooth_pos3(u, DEFAULT_BETA), partials))
    for lam in lambdas:
        u = 1.0 - 4.0 * lam * A / qp
        partials = (0.0, -4.0 * lam * A_s / qp, 0.0, -4.0 * lam * A_ss / qp, 0.0)
        modulators.append((_smooth_pos3(u, DEFAULT_BETA), partials))
    return [_ramp_atom(ramp, partials, carrier, own)
            for carrier, own in ((w, True), (p, False))
            for ramp, partials in modulators]


# ------------------------------------------------------- pyramid denoisers


def _denoise_pyramid(y: np.ndarray, K: float, J: int, subband_fn):
    """Shared pyramid loop: process details, unbias the lowpass, invert.

    subband_fn(w, s, K_j, orientation) -> (theta, per-coefficient risk).
    The report's total risk recombines subband risks with the synthesis
    energy weights (each 2-D level carries 1/4 of the finer level's
    energy) plus the unbiased lowpass error estimate 4 sum(s - K_J/2).
    """
    y = np.asarray(y, dtype=np.float64)
    if (y < 0).any():
        raise ValueError("squared-magnitude data must be nonnegative")
    pyr = haar_dwt_analyze(y, J, dof=K)
    branch = 4.0 if pyr.ndim == 2 else 2.0
    per_band = {}
    total_sse = 0.0
    for j in range(1, J + 1):
        s = pyr.smooth_levels[j - 1]
        kj = pyr.dof(j)
        for orient, w in list(pyr.detail[j - 1].items()):
            theta, risk_j = subband_fn(w, s, kj, orient)
            pyr.detail[j - 1][orient] = theta
            per_band[f"{orient}{j}"] = risk_j
            total_sse += branch ** -j * w.size * risk_j
    s_top = pyr.smooth_levels[-1]
    k_top = pyr.dof(J)
    lowpass_sse = 4.0 * float((s_top - k_top / 2).sum())
    per_band["lowpass"] = lowpass_sse / s_top.size
    pyr.smooth_levels[-1] = s_top - k_top
    total_sse += branch ** -J * lowpass_sse
    n_pad = s_top.size * branch ** J
    estimate = haar_dwt_synthesize(pyr)
    return estimate, RiskReport(cure=total_sse / n_pad, per_band=per_band)


def cureshrink_denoise(y, K: float, J: int = 3):
    """Soft-threshold every detail subband with its risk-picked scale."""

    def fn(w, s, kj, orient):
        theta, _, risk = cureshrink_subband(w, s, kj)
        return theta, risk

    return _denoise_pyramid(y, K, J, fn)


def haar_curelet_denoise(y, K: float, J: int = 3, lambdas=JOINT_LAMBDAS):
    """Per-subband 8-atom inter-/intra-scale expansion, weights by risk.

    Each detail subband is its own expansion fitted by _fit_expansion.
    The subband risk has the filterbank divergence form with the
    subband field layout (BandDivergenceFields.of_subband), as in
    cure_subband: the coefficient is its own band and s doubles as the
    variance channel. The lowpass is unbiased by its accumulated dof
    (4^J K in 2-D).
    """

    def fn(w, s, kj, orient):
        atoms = joint_let_atoms(w, s, parent_field(s, orient), lambdas=lambdas)
        fields = BandDivergenceFields.of_subband(w, s, kj)
        _, theta, risk = _fit_expansion(
            np.stack([ev.theta.ravel() for ev in atoms]), w.ravel(),
            np.array([atom_divergence(fields, ev) for ev in atoms]), fields.z1)
        return theta.reshape(w.shape), risk

    return _denoise_pyramid(y, K, J, fn)
