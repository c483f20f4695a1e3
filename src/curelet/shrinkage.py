"""Thresholding atoms, risk-optimal weight solves, and the denoisers.

Estimators are linear expansions of fixed nonlinear atoms. Every LET
atom is ramp(1 - 4 lam r) times a carrier, r a ratio of the coefficient
and its variance channel with closed-form partials, so the unbiased risk
estimate is exact. One fused kernel (_fused_atoms) gives both expansion
denoisers every atom's theta and divergence, and one fit (_fit_expansion)
minimizes the risk, a quadratic in the weights, on a tiny normal system.
The reference atoms, built with all six partials, are in tests/oracles.py.

Three denoisers:

* uwt_curelet_denoise: pointwise shrinkage atoms per undecimated band
  (Haar frame, overlapping block DCT, or both pooled), built band by band
  and kept only as Parseval rows of their synthesis; weights solved
  globally from those rows' dot products, which are the image domain's.
* cureshrink_denoise: per-subband soft thresholding in the unnormalized
  Haar DWT (_denoise_pyramid), threshold a sqrt(s), a picked by risk search.
* haar_curelet_denoise: the same pyramid, per-subband 8-atom expansions
  mixing the coefficient's pointwise keep factor, its parent's smoothed
  local energy and the parent predictor, cycle-spun by recursion over levels.
"""

from __future__ import annotations

import numbers

import numpy as np
from scipy import ndimage

from .risk import (
    BandDivergenceFields,
    RiskReport,
    SubbandEvaluation,
    cure_expression,
    cure_subband,
)
from .transforms import (
    SPIN_COUNTS,
    SPIN_SHIFTS,
    FilterBank,
    bdct8_bank,
    haar_step,
    haar_unstep,
    haar_uwt_bank,
    parent_field,
)

__all__ = [
    "solve_weights",
    "uwt_curelet_denoise",
    "cureshrink_evaluation",
    "cureshrink_subband",
    "cureshrink_denoise",
    "gamma_kernel",
    "haar_curelet_denoise",
]

DEFAULT_BETA = 0.02
LAMBDAS = (3.0, 9.0)
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


def _buffers(work, key: str, n: int, shape) -> list:
    """n new buffers of the given shape, or the rows of the (n, *shape) stack
    that the dict work keeps under (key, shape) for reuse."""
    if work is None:
        return [np.empty(shape) for _ in range(n)]
    shape = tuple(shape)
    if (key, shape) not in work:
        work[key, shape] = np.empty((n,) + shape)
    return [work[key, shape][k, ...] for k in range(n)]


def _smooth_pos3(u, beta: float, work=None):
    """(u + sqrt(u^2 + beta^2)) / 2 with first and second derivatives.

    With root = sqrt(u^2 + beta^2), g = max(u, 0) + beta^2 / (2 (root + |u|)),
    g' = g / root and g'' = beta^2 / (2 root^3): one branch; neither tail cancels.
    """
    u = np.asarray(u, dtype=np.float64)
    g, dg, d2g, root = _buffers(work, "ramp", 4, u.shape)
    np.multiply(u, u, out=d2g)  # root^2 until root^3 is formed
    d2g += beta ** 2
    np.sqrt(d2g, out=root)
    np.abs(u, out=g)
    g += root
    np.divide(0.5 * beta ** 2, g, out=g)
    np.maximum(u, 0.0, out=dg)
    g += dg
    np.divide(g, root, out=dg)
    d2g *= root
    np.divide(0.5 * beta ** 2, d2g, out=d2g)
    return g, dg, d2g


def _inverse_energy(e, eps=None, out=None):
    """1 / (e + eps) of an energy field e; eps defaults to 1e-12 (mean(e) + 1)."""
    out = np.add(e, 1e-12 * (float(e.mean()) + 1.0) if eps is None else eps, out=out)
    return np.divide(1.0, out, out=out)


def _keep_ratio(w, v, eps=None, work=None):
    """The keep factor's ratio r = v / (w^2 + eps), u = 1 - 4 lam r, and its partials.

    Returns (r, (r_w, r_v, r_ww, r_vv, r_wv)) with r_vv = 0, in work's
    buffers (_buffers); eps is _inverse_energy's. r_ww is nan where w^2
    overflows.
    """
    w2, iq, r, r_wv, r_w, r_ww = _buffers(work, "keep", 6, np.shape(w))
    _inverse_energy(np.square(w, out=w2), eps, out=iq)
    np.multiply(v, iq, out=r)
    np.multiply(-2.0, w, out=r_wv)  # r_wv = -2 w iq^2
    r_wv *= np.square(iq, out=r_w)
    np.multiply(v, r_wv, out=r_w)
    np.multiply(8.0, w2, out=w2)  # r_ww = r iq (8 w2 iq - 2)
    w2 *= iq
    w2 -= 2.0
    np.multiply(r, iq, out=r_ww)
    r_ww *= w2
    return r, (r_w, iq, r_ww, 0.0, r_wv)


def _signed_sum(out, tmp, terms):
    """out = sum of k f p over terms (k, f, p), in order, with k 1, -1 or -2
    (exact scalings); a p that is the scalar 0 makes no pass. tmp holds the
    later terms, and neither out nor tmp may be an f or a p."""
    live = [(k, f, p) for k, f, p in terms if np.ndim(p) or p != 0.0] or terms[:1]
    for i, (k, f, p) in enumerate(live):
        term = np.multiply(f, p, out=tmp if i else out)
        if abs(k) != 1 or (i == 0 and k < 0):
            term *= abs(k) if i else k
        if i:
            (np.add if k > 0 else np.subtract)(out, term, out=out)
    return out


def _fused_atoms(r, partials, carriers, fields: BandDivergenceFields, lambdas, work=None):
    """theta and divergence of every atom ramp(1 - 4 lam r) * c, at once.

    The production kernel of both LET denoisers. carriers is [(c, own)],
    own marking a carrier that is the coefficient w itself (it adds the
    product-rule terms of the w-derivatives; any other carrier is held
    fixed), and partials are r's. Every partial of u = 1 - 4 lam r
    is -4 lam times one of r, so an atom's divergence is [own] sum(z1 g)
    + 4 lam sum(g' P) + 16 lam^2 sum(g'' Q), with P and Q formed once per
    carrier and one ramp per lam, in work's buffers (_buffers); no partial
    field of an atom is formed, and a scalar-0 partial costs no pass.
    Returns thetas (carriers, lambdas, *r.shape) and divergences
    (carriers, lambdas), unchecked.
    """
    r_w, r_s, r_ww, r_ss, r_ws = partials
    z = fields
    shape = np.shape(r)
    T, A, B, tmp, u, *PQ = _buffers(work, "fused", 5 + 2 * len(carriers), shape)
    # P = [own] 2 T - c A and Q = -c B, B = r_w T + r_s (z12 r_w + z22 r_s)
    _signed_sum(T, tmp, [(1, z.z11, r_w), (1, z.z12, r_s)])
    _signed_sum(A, tmp, [(1, z.z1, r_w), (1, z.z2, r_s), (-1, z.z11, r_ww),
                         (-1, z.z22, r_ss), (-2, z.z12, r_ws)])
    _signed_sum(u, tmp, [(1, z.z12, r_w), (1, z.z22, r_s)])  # u is free until the ramps
    _signed_sum(B, tmp, [(1, u, r_s), (1, T, r_w)])  # a two-term sum rounds alike either way
    for (c, own), P, Q in zip(carriers, PQ[0::2], PQ[1::2]):
        _signed_sum(P, tmp, [(1, T, 2.0), (-1, c, A)] if own else [(-1, c, A)])
        _signed_sum(Q, tmp, [(-1, c, B)])
    thetas, = _buffers(work, "thetas", 1, (len(carriers), len(lambdas)) + shape)
    divs = np.empty((len(carriers), len(lambdas)))
    for k, lam in enumerate(lambdas):
        np.subtract(1.0, np.multiply(4.0 * lam, r, out=u), out=u)
        g, dg, d2g = _smooth_pos3(u, DEFAULT_BETA, work)
        for i, ((c, own), P, Q) in enumerate(zip(carriers, PQ[0::2], PQ[1::2])):
            np.multiply(g, c, out=thetas[i, k])
            divs[i, k] = ((np.vdot(z.z1, g) if own else 0.0) + 4.0 * lam * np.vdot(dg, P)
                          + 16.0 * lam ** 2 * np.vdot(d2g, Q))
    return thetas, divs


# --------------------------------------------------------- weight solving


def solve_weights(M, c) -> np.ndarray:
    """Minimal-norm pseudo-inverse solve of the normal system Ma = c.

    The risk surface is a quadratic whose Hessian is the atom Gram matrix;
    its near-null eigenmodes belong to almost-collinear atom combinations,
    where the estimated gradient is dominated by sampling noise and the
    formal minimizer runs far from zero without lowering the true risk.
    Eigenmodes below RCOND * (largest eigenvalue) are therefore solved to
    zero weight. When cond(M), read off the eigenvalues, exceeds COND_LIMIT,
    RIDGE * trace(M)/I is added to the diagonal first; the returned
    weights satisfy the regularized normal equations restricted to the
    kept subspace to 1e-8 * (|c| + 1).
    """
    M = np.asarray(M, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if not (np.isfinite(M).all() and np.isfinite(c).all()):
        raise ValueError("non-finite entries in the normal system")
    lam, V = np.linalg.eigh((M + M.T) / 2.0)
    if not np.abs(lam).max() <= COND_LIMIT * np.abs(lam).min():  # cond(M) > COND_LIMIT, or inf
        ridge = RIDGE * np.trace(M) / c.size  # eigh(M + ridge I) is (lam + ridge, V)
        M, lam = M + ridge * np.eye(c.size), lam + ridge
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


def _checked_data(y, K) -> np.ndarray:
    """y as float64 once it is finite and nonnegative, and its chi-square
    dof K finite and positive: the entry check of every denoiser."""
    if not (np.isfinite(K) and K > 0):
        raise ValueError(f"the chi-square dof K must be finite and positive, got K={K!r}")
    y = np.asarray(y, dtype=np.float64)
    if not np.isfinite(y).all():
        raise ValueError("squared-magnitude data must be finite")
    if (y < 0).any():
        raise ValueError("squared-magnitude data must be nonnegative")
    return y


def _check_levels(shape, J) -> int:
    """J as an int, the one check of a level count: a whole number, at least
    1, with 2^J at most the smallest side. A J-level Haar pyramid pads each
    side to a multiple of 2^J, and the undecimated bank's support check
    (FilterBank.walk) asks the same of the same J."""
    most = min(shape, default=0).bit_length() - 1  # no power of 2 is formed for a huge J
    if not (isinstance(J, numbers.Real) and float(J).is_integer() and 1 <= J <= most):
        raise ValueError(f"J={J} must be a whole number of levels, at least 1 and with 2^J "
                         f"at most the image's smallest side: shape {tuple(shape)} holds "
                         f"at most J={most}")
    return int(J)


def _checked_lambdas(lambdas) -> tuple:
    lambdas = tuple(float(lam) for lam in lambdas)
    if not lambdas or not all(np.isfinite(lam) and lam > 0 for lam in lambdas):
        raise ValueError(f"lambdas must be one or more finite positive numbers, got {lambdas!r}")
    return lambdas


def _fit_expansion(rows: np.ndarray, target: np.ndarray,
                   div: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Risk-optimal weights a of a linear expansion, and a @ rows.

    The risk of a @ rows is cure_expression(a @ rows - target, a'div, half),
    minimized by (rows rows') a = rows target - 4 div over the live atoms
    (dead ones get weight zero). Only the rows' and target's dot products
    enter (FilterBank.synthesis_rows keeps them); the caller forms the
    risk from the image-domain residual, so no large terms cancel.
    """
    a = np.zeros(rows.shape[0])
    live = _live_atoms(np.einsum("ij,ij->i", rows, rows), float(target @ target))
    if live.any():
        kept = rows if live.all() else rows[live]
        a[live] = solve_weights(kept @ kept.T, kept @ target - 4.0 * div[live])
    return a, a @ rows


# ------------------------------------------------- filterbank LET denoiser


def uwt_curelet_denoise(y, K: float, transform: str = "haar-uwt", J: int = 3,
                        lambdas=LAMBDAS):
    """Risk-optimal linear expansion over undecimated-band atoms.

    One walk over the bands of each bank. A band's correlations with its
    taps to the powers 1..5 are its coefficients, its variance channel
    and (2..5) its divergence fields. A lowpass band gets one bias atom,
    w - tap_sum K, which synthesizes to the unbiased lowpass of x; a
    highpass band gets one keep-factor atom per lambda, thetas and
    divergences from one fused pass (_fused_atoms, carrier w) in buffers
    that every band reuses. The band's thetas become their rows of one
    matrix of Parseval rows (FilterBank.synthesis_rows); nothing else of
    the band outlives it. _fit_expansion solves the weights on those rows,
    one inverse transform gives the estimate of x, and cure_expression
    scores its residual. "mixed" pools the Haar-frame and block-DCT atoms
    into one joint system. The report's per_band maps "<bank>/<band>:bias"
    and "<bank>/<band>:l<lambda>" to the atom's weight.
    """
    y = _checked_data(y, K)
    lambdas = _checked_lambdas(lambdas)
    names = {"haar-uwt", "bdct", "mixed"}
    if transform not in names:
        raise ValueError(f"transform must be one of {sorted(names)}")
    banks = []
    if transform in ("haar-uwt", "mixed"):
        banks.append(haar_uwt_bank(_check_levels(y.shape, J), ndim=y.ndim))
    if transform in ("bdct", "mixed"):
        banks.append(bdct8_bank())
    n_atoms = sum(1 if band.kind == "lowpass" else len(lambdas)
                  for bank in banks for band in bank.bands)
    target = banks[0].synthesis_rows(None, y - K)
    rows = np.empty((n_atoms, target.size))
    div, labels, work = np.empty(n_atoms), [], {}
    for bank in banks:
        for i, (band, corr) in enumerate(zip(bank.bands, bank.walk(y, range(1, 6)))):
            fields = BandDivergenceFields.of_band(band, K, corr[1:],
                                                  _buffers(work, "fields", 1, (5,) + y.shape)[0])
            name = f"{bank.name}/{band.label}"
            if band.kind == "lowpass":
                thetas, band_div = (corr[0] - band.tap_sum * K)[None], [fields.z1.sum()]
                labels.append(f"{name}:bias")
            else:
                thetas, band_div = (t[0] for t in _fused_atoms(
                    *_keep_ratio(corr[0], corr[1], work=work), [(corr[0], True)], fields,
                    lambdas, work))
                if not np.isfinite(band_div).all():
                    raise ValueError(f"divergence of band {name} is not finite")
                labels.extend(f"{name}:l{lam:g}" for lam in lambdas)
            at = slice(len(labels) - len(thetas), len(labels))
            div[at] = band_div
            bank.synthesis_rows(i, thetas, out=rows[at])
    a, combined = _fit_expansion(rows, target, div)
    estimate = FilterBank.field_of_rows(combined, y.shape)
    cure = cure_expression(estimate - (y - K), float(a @ div), y - K / 2)
    weights = {label: float(ak) for label, ak in zip(labels, a)}
    return estimate, RiskReport(cure=cure, per_band=weights)


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


def _joint_modulators(w, s, p, deltas=None) -> list:
    """(r, partials) of a subband's two modulators, each ramp(1 - 4 lam r).

    The keep factor r = s / w^2 (_keep_ratio) and the parent energy
    r = gamma(s) / gamma(p)^2, whose only dependence on (w_n, s_n) is
    gamma(s)'s center kernel term. deltas = (d_s, d_p) smooths the
    magnitudes inside gamma, by default 1e-3 times their RMS.
    """
    if deltas is None:
        deltas = [1e-3 * float(np.sqrt((u ** 2).mean())) + 1e-12 for u in (s, p)]
    g1 = gamma_kernel(ndim=1)
    A, A_s, A_ss = _gamma_fields(s, g1, deltas[0])
    Bp, _, _ = _gamma_fields(p, g1, deltas[1])
    iqp = _inverse_energy(Bp ** 2)
    return [_keep_ratio(w, s), (A * iqp, (0.0, A_s * iqp, 0.0, A_ss * iqp, 0.0))]


# ------------------------------------------------------- pyramid denoisers


def _denoise_pyramid(y, K: float, J: int, subband_fn, shifts):
    """y's J-level Haar denoise, averaged over the periodic shifts.

    subband_fn(w, s, K_j, orientation) -> (theta, per-coefficient risk)
    fits one detail subband. y (1-D or 2-D) is padded periodically to a
    multiple of 2^J once. A shift r + 2q is r = shift mod 2, then q one
    level coarser, so a recursion over levels steps the field rolled by
    each residue r once (haar_step), fits its details, recurses on its
    sums with the shifts q at dof 2^ndim K, unsteps, rolls back and
    weights by r's share of the shifts. The last sums are unbiased, s - K_J,
    with risk 4 sum(s - K_J/2). cure and per_band are the shift-weighted
    means of the padded field's risk; neither is the risk of the average.
    """
    y = _checked_data(y, K)
    if y.ndim not in (1, 2):
        raise ValueError(f"the Haar pyramid takes 1-D or 2-D data, got {y.ndim}-D")
    J = _check_levels(y.shape, J)
    pads = [(0, -n % 2 ** J) for n in y.shape]
    padded = np.pad(y, pads, mode="wrap") if any(p for _, p in pads) else y
    estimate, cure, per_band = _pyramid_levels(padded, K, 1, J, subband_fn, shifts)
    return estimate[tuple(map(slice, y.shape))], RiskReport(cure=cure, per_band=per_band)


def _pyramid_levels(c, K: float, j: int, J: int, subband_fn, shifts):
    """Levels j..J of _denoise_pyramid on field c of dof K, weighted over
    the shifts: (estimate, cure per entry of c, per_band). Not a closure:
    one recursing on itself is a reference cycle, and would keep
    subband_fn's buffers alive until the cycle collector runs."""
    if j > J:
        lowpass = 4.0 * float((c - K / 2).sum()) / c.size
        return c - K, lowpass, {"lowpass": lowpass}
    axes, branch = tuple(range(c.ndim)), 2 ** c.ndim
    coarse = {}
    for sh in shifts:
        coarse.setdefault(tuple(v % 2 for v in sh), []).append(tuple(v // 2 for v in sh))
    out, cure, per_band = 0.0, 0.0, {}
    for r, qs in coarse.items():
        weight = len(qs) / len(shifts)
        s, details = haar_step(np.roll(c, r, axis=axes))
        risks = {}
        for orient, w in details.items():
            details[orient], risks[f"{orient}{j}"] = subband_fn(w, s, K * branch, orient)
        s_hat, s_cure, rest = _pyramid_levels(s, K * branch, j + 1, J, subband_fn, qs)
        out = out + weight * np.roll(haar_unstep(s_hat, details), [-v for v in r], axis=axes)
        cure += weight * (sum(risks.values()) + s_cure) / branch ** 2
        for key, risk in {**risks, **rest}.items():
            per_band[key] = per_band.get(key, 0.0) + weight * risk
    return out, cure, per_band


def cureshrink_denoise(y, K: float, J: int = 3):
    """Soft-threshold every detail subband with its risk-picked scale.

    For a shape that is not a multiple of 2^J, cure is the risk of the
    periodically padded field, not of the cropped estimate returned.
    """

    def fn(w, s, kj, orient):
        theta, _, risk = cureshrink_subband(w, s, kj)
        return theta, risk

    return _denoise_pyramid(y, K, J, fn, [(0,) * np.ndim(y)])


def haar_curelet_denoise(y, K: float, J: int = 3, lambdas=LAMBDAS, spins: int = 1):
    """Per-subband 8-atom inter-/intra-scale expansion, weights by risk.

    Each detail subband is one expansion of 8 atoms: each modulator of
    _joint_modulators, ramped per lambda, carried by w and by the parent
    p (parent_field). Their thetas and divergences come from one
    _fused_atoms call per modulator (its buffers kept per subband shape
    for the whole call), fitted by _fit_expansion. The subband risk has
    the filterbank divergence form with the subband field layout
    (BandDivergenceFields.of_subband): the coefficient is its own band and
    s doubles as the variance channel. The lowpass is unbiased by its
    accumulated dof (4^J K in 2-D). J is a whole number from 1 to log2 of
    y's smallest side.

    spins (one of SPIN_COUNTS) cycle-spins the pyramid over the distinct
    shifts among SPIN_SHIFTS[:spins], truncated to y's axes, by
    _denoise_pyramid's recursion over levels: each level's subbands are
    fitted once per shift residue, not once per shift. The result is the
    cropped average of the periodically padded field denoised at each
    shift. cure is the mean of the per-shift risks (of the padded field,
    for a shape that is not a multiple of 2^J) and per_band the per-key
    mean; neither is the risk of the averaged, cropped estimate.
    """
    if spins not in SPIN_COUNTS:
        raise ValueError(f"spins must be one of {SPIN_COUNTS}, got {spins!r}")
    lambdas = _checked_lambdas(lambdas)
    work = {}

    def fn(w, s, kj, orient):
        p = parent_field(s, orient)
        fields = BandDivergenceFields.of_subband(w, s, kj)
        # atoms ordered (carrier, modulator, lambda)
        thetas, div = np.empty((2, 2, len(lambdas)) + w.shape), np.empty((2, 2, len(lambdas)))
        for m, (ratio, partials) in enumerate(_joint_modulators(w, s, p)):
            thetas[:, m], div[:, m] = _fused_atoms(ratio, partials, [(w, True), (p, False)],
                                                   fields, lambdas, work)
        a, theta = _fit_expansion(thetas.reshape(div.size, -1), w.ravel(), div.ravel())
        risk = cure_expression(theta - w.ravel(), float(a @ div.ravel()), fields.z1)
        return theta.reshape(w.shape), risk

    shifts = dict.fromkeys(shift[: np.ndim(y)] for shift in SPIN_SHIFTS[:spins])
    return _denoise_pyramid(y, K, J, fn, list(shifts))
