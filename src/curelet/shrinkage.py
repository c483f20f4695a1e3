"""Thresholding atoms, risk-optimal weight solves, and the denoisers.

Every atom is ramp(u0 - kappa q) times a carrier, each part a function
of the coefficient and its variance channel with closed-form partials,
so the unbiased risk estimate is exact: kappa = 4 lam for a LET atom,
the threshold scale for the soft threshold. One fused kernel
(_fused_atoms) gives all three estimator families every atom's theta and
divergence per item of a stack, and one fit (_fit_expansion) minimizes
each item's risk on a tiny normal system. The reference atoms, built
with all six partials, are in tests/oracles.py.

Three denoisers:

* uwt_curelet_denoise: pointwise shrinkage atoms per undecimated band
  (Haar frame, overlapping block DCT, or both pooled), built in stacks of
  bands and kept only as Parseval rows of their synthesis; weights solved
  globally from those rows' dot products, which are the image domain's.
* cureshrink_denoise: per-subband soft thresholding in the unnormalized
  Haar DWT (_denoise_pyramid), threshold a sqrt(s), a picked by risk
  search, each scale scored on the fused kernel.
* haar_curelet_denoise: the same pyramid, per-subband 8-atom expansions
  mixing the coefficient's pointwise keep factor, its parent's smoothed
  local energy and the parent predictor, cycle-spun by recursion over
  levels, fitted in stacks across a level's shift residues and orientations.
"""

from __future__ import annotations

import itertools
import math
import numbers

import numpy as np

from .risk import BandDivergenceFields, RiskReport, cure_expression
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
# haar_curelet_denoise: coefficients per stacked level fit, at least one level-1 subband
STACK_COEFFICIENTS = 1 << 14


# ------------------------------------------------------------ smooth atoms


def _buffers(work, key: str, n: int, shape) -> list:
    """The rows of an (n, *shape) view of the flat array that the dict work
    (or a new one) keeps under key for every shape, grown when too small:
    the workspace is the call's largest stack."""
    work, size = {} if work is None else work, n * math.prod(shape)
    if key not in work or work[key].size < size:
        work[key] = np.empty(size)
    stack = work[key][:size].reshape((n,) + tuple(shape))
    return [stack[k, ...] for k in range(n)]


def _dots(a, b) -> np.ndarray:
    """Per-item dot products of two stacks (items, ...), np.vdot's by one matmul."""
    return (a.reshape(len(a), 1, -1) @ b.reshape(len(b), -1, 1))[:, 0, 0]


def _smooth_pos3(u, beta: float, out=None):
    """(u + sqrt(u^2 + beta^2)) / 2 and its two derivatives, in out's four buffers or new ones.

    With root = sqrt(u^2 + beta^2), g = max(u, 0) + beta^2 / (2 (root + |u|)),
    g' = g / root and g'' = beta^2 / (2 root^3): one branch; neither tail cancels.
    """
    u = np.asarray(u, dtype=np.float64)
    g, dg, d2g, root = out or [np.empty(u.shape) for _ in range(4)]
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
    """1 / (e + eps) of a stack of energy fields e; eps defaults to 1e-12 (mean(e) + 1) per item."""
    mean = np.mean(e, axis=tuple(range(1, e.ndim)), keepdims=True)
    out = np.add(e, 1e-12 * (mean + 1.0) if eps is None else eps, out=out)
    return np.divide(1.0, out, out=out)


def _keep_ratio(w, v, eps=None, work=None):
    """The keep factor's ratio r = v / (w^2 + eps), u = 1 - 4 lam r, and its partials.

    w and v are stacks (items, *field). Returns (r, (r_w, r_v, r_ww, r_vv,
    r_wv)) with r_vv = 0, in work's buffers (_buffers); eps is
    _inverse_energy's, per item by default. r_ww is nan where w^2 overflows.
    """
    r_ww, iq, r, r_wv, r_w = _buffers(work, "keep", 5, np.shape(w))
    _inverse_energy(np.square(w, out=r_ww), eps, out=iq)  # r_ww holds w^2 until it is formed
    np.multiply(v, iq, out=r)
    np.multiply(8.0, r_ww, out=r_ww)  # r_ww = (8 w^2 iq - 2) r iq
    r_ww *= iq
    r_ww -= 2.0
    r_ww *= np.multiply(r, iq, out=r_w)  # r_w holds r iq until it is formed
    np.multiply(-2.0, w, out=r_wv)  # r_wv = -2 w iq^2
    r_wv *= np.square(iq, out=r_w)
    np.multiply(v, r_wv, out=r_w)
    return r, (r_w, iq, r_ww, 0.0, r_wv)


def _live(x) -> bool:
    """False for the scalar 0 that stands for a vanishing field."""
    return isinstance(x, np.ndarray) or x != 0.0


def _signed_sum(terms, buffers, tmp):
    """sum of k f p over the live terms (k, f, p), in order, with k 1, -1 or
    -2 (exact scalings), into the next of buffers, tmp holding the later
    terms: the scalar 0 when no term is live, f itself for a lone f * 1.
    Neither buffer may be an f or a p."""
    terms = [(k, f, p) for k, f, p in terms if _live(f) and _live(p)]
    if not terms:
        return 0.0
    (k, f, p), *rest = terms
    if not rest and not isinstance(p, np.ndarray) and k * p == 1.0:
        return f
    out = next(buffers)
    for i, (k, f, p) in enumerate(terms):
        term = np.multiply(f, p, out=tmp if i else out)
        if abs(k) != 1 or (i == 0 and k < 0):
            term *= abs(k) if i else k
        if i:
            (np.add if k > 0 else np.subtract)(out, term, out=out)
    return out


# u0 = 1, the LET atoms' modulator offset, with no partials
_UNIT = (1.0, (0.0,) * 5)


def _fused_atoms(u0, q, carriers, fields, work=None):
    """theta and divergence of every atom ramp(u0 - kappa q) * h: the
    production kernel of all three estimator families.

    On stacks (items, *field): u0 and q are (value, partials) pairs,
    partials (x_w, x_s, x_ww, x_ss, x_ws) in (w_n, s_n); carriers are
    [(h, h_w, h_ww)] (no carrier depends on s); fields are
    BandDivergenceFields. Grouped by the ramp's g, g' and g'', an atom's
    divergence is sum(G g) + sum((P0 + kappa P) g') + sum((Q0 + kappa Q1 +
    kappa^2 Q) g'') per item, with G = z1 h_w - z11 h_ww, P0 = h A(u0) - 2
    h_w T(u0), P = 2 h_w T(q) - h A(q), Q0 = -h B(u0, u0), Q1 = 2 h B(u0,
    q), Q = -h B(q, q), A(x) = z1 x_w + z2 x_s - z11 x_ww - z22 x_ss - 2
    z12 x_ws, T(x) = z11 x_w + z12 x_s and B(x, y) = x_w T(y) + x_s (z12 y_w
    + z22 y_s). These six fields per carrier are formed once, in work's
    buffers (_buffers), and the ramps reuse four that no folded field holds,
    topped up from the pool; no partial field of an atom is formed, and a
    scalar-0 partial costs no pass: the LET atoms (u0 = _UNIT, kappa = 4 lam,
    carrier (w, 1, 0) or a fixed (p, 0, 0)) form P and Q alone. Returns
    atoms(kappas, out=None): per kappa one ramp and, per carrier, theta and
    the dots with the live fields, giving thetas (items, carriers, kappas,
    *field), into out if given, and divergences (items, carriers, kappas), unchecked.
    """
    z, shape = fields, np.shape(q[0])
    tmp, u = _buffers(work, "fused", 2, shape)
    made = [tmp]  # and every buffer the pool hands out, for the ramps to reuse
    pool = (made.append(b) or b for n in itertools.count()
            for b in _buffers(work, f"field{n}", 1, shape))
    (T0, A0), (T, A) = ((_signed_sum([(1, z.z11, x_w), (1, z.z12, x_s)], pool, tmp),
                         _signed_sum([(1, z.z1, x_w), (1, z.z2, x_s), (-1, z.z11, x_ww),
                                      (-1, z.z22, x_ss), (-2, z.z12, x_ws)], pool, tmp))
                        for x_w, x_s, x_ww, x_ss, x_ws in (u0[1], q[1]))
    B = []  # V = z12 y_w + z22 y_s goes to u, which is free until the ramps
    for (x_w, x_s, *_), (y_w, y_s, *_), T_y in ((u0[1], u0[1], T0), (u0[1], q[1], T),
                                                (q[1], q[1], T)):
        V = _signed_sum([(1, z.z12, y_w), (1, z.z22, y_s)], iter([u]), tmp) if _live(x_s) else 0.0
        B.append(_signed_sum([(1, V, x_s), (1, T_y, x_w)], pool, tmp))
    folded = []
    for h, h_w, h_ww in carriers:
        fs = [_signed_sum(terms, pool, tmp) for terms in (
            [(1, z.z1, h_w), (-1, z.z11, h_ww)], [(1, h, A0), (-2, T0, h_w)],
            [(1, T, 2.0 * h_w), (-1, h, A)], [(-1, h, B[0])], [(1, h, 2.0 * B[1])],
            [(-1, h, B[2])])]
        folded.append((h, [(n, f) for n, f in enumerate(fs) if _live(f)]))
    # the buffers that hold no folded field are free: the ramps take four, from the pool if short
    spare = [b for b in made if not any(b is f for _, fs in folded for _, f in fs)][:4]
    spare += [next(pool) for _ in range(4 - len(spare))]

    def atoms(kappas, out=None):
        if out is None:
            out, = _buffers(work, "thetas", 1, (shape[0], len(folded), len(kappas)) + shape[1:])
        divs = np.empty((shape[0], len(folded), len(kappas)))
        for k, kappa in enumerate(kappas):
            np.subtract(u0[0], np.multiply(kappa, q[0], out=u), out=u)
            ramp = _smooth_pos3(u, DEFAULT_BETA, spare)  # g, g', g''
            scale = (1.0, 1.0, kappa, 1.0, kappa, kappa ** 2)
            for i, (h, fs) in enumerate(folded):
                np.multiply(ramp[0], h, out=out[:, i, k])
                divs[:, i, k] = sum(scale[n] * _dots(f, ramp[(0, 1, 1, 2, 2, 2)[n]])
                                    for n, f in fs)
        return out, divs

    return atoms


# --------------------------------------------------------- weight solving


def solve_weights(M, c) -> np.ndarray:
    """Minimal-norm pseudo-inverse solve of the normal system Ma = c, or of
    each of a stack M (..., I, I), c (..., I), by one batched eigh.

    The risk surface is a quadratic whose Hessian is the atom Gram matrix;
    its near-null eigenmodes belong to almost-collinear atom combinations,
    where the estimated gradient is dominated by sampling noise and the
    formal minimizer runs far from zero without lowering the true risk.
    Eigenmodes below RCOND * (largest eigenvalue) are therefore solved to
    zero weight. When cond(M), read off the eigenvalues, exceeds COND_LIMIT,
    RIDGE * trace(M)/I is added to the diagonal first; the returned
    weights satisfy the regularized normal equations restricted to the
    kept subspace to 1e-8 * (|c| + 1). A dead atom (zero row and column)
    gets weight zero: its diagonal is set to the live atoms' trace(M)/k,
    inside a Gram block's eigenvalue range, so cond, ridge and cut stay.
    """
    M = np.asarray(M, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if not (np.isfinite(M).all() and np.isfinite(c).all()):
        raise ValueError("non-finite entries in the normal system")
    dead = ~(M.any(axis=-1) | M.any(axis=-2))
    mean = np.trace(M, axis1=-2, axis2=-1) / np.maximum(c.shape[-1] - dead.sum(-1), 1)
    M, c = M + (dead * mean[..., None])[..., None] * np.eye(c.shape[-1]), np.where(dead, 0, c)
    lams, Vs = np.linalg.eigh((M + np.swapaxes(M, -1, -2)) / 2.0)
    ridge = ~(np.abs(lams).max(-1) <= COND_LIMIT * np.abs(lams).min(-1)) * (  # inf cond ridges too
        RIDGE * np.trace(M, axis1=-2, axis2=-1) / c.shape[-1])
    M, lams = M + ridge[..., None, None] * np.eye(c.shape[-1]), lams + ridge[..., None]
    keep = lams > RCOND * np.maximum(lams.max(axis=-1, keepdims=True), 0.0)
    a = np.zeros(c.shape)
    for i in np.ndindex(c.shape[:-1]):  # the kept modes of each system
        V = Vs[i][:, keep[i]]
        a[i] = V @ ((V.T @ c[i]) / lams[i][keep[i]])
    residual = (np.swapaxes(Vs, -1, -2) @ (M @ a[..., None] - c[..., None]))[..., 0]
    residual = np.linalg.norm(keep * residual, axis=-1)
    if (residual > 1e-8 * (np.linalg.norm(c, axis=-1) + 1.0)).any():
        raise RuntimeError(f"weight solve residual {residual.max():.3e} too large")
    a[dead] = 0.0
    return a


def _checked_data(y, K) -> np.ndarray:
    """y as C-ordered float64 (the half-spectrum rows view its last axis)
    once it is finite and nonnegative, and its chi-square dof K finite and
    positive: the entry check of every denoiser."""
    if not (np.isfinite(K) and K > 0):
        raise ValueError(f"the chi-square dof K must be finite and positive, got K={K!r}")
    y = np.asarray(y, dtype=np.float64, order="C")
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
    """Risk-optimal weights a of a linear expansion, and a @ rows, per item
    of a stack: rows (items, atoms, pixels), target (items, pixels) and div
    (items, atoms).

    The risk of a @ rows is cure_expression(a @ rows - target, a'div, half),
    minimized by (rows rows') a = rows target - 4 div over the live atoms.
    An atom with at most 1e-12 of the larger of the top atom energy and
    |target|^2 adds nothing, yet its divergence lands in c; its Gram row and
    column are zeroed, so solve_weights gives it weight zero. Only dot
    products enter (FilterBank.synthesis_rows keeps them); the caller forms
    the risk from the residual, so no large terms cancel.
    """
    gram = rows @ rows.swapaxes(1, 2)
    energies = np.diagonal(gram, axis1=1, axis2=2)
    live = energies > 1e-12 * np.maximum(energies.max(axis=1), _dots(target, target))[:, None]
    gram = gram * (live[:, :, None] & live[:, None, :])
    a = solve_weights(gram, (rows @ target[:, :, None])[:, :, 0] - 4.0 * div)
    return a, (a[:, None, :] @ rows)[:, 0]


# ------------------------------------------------- filterbank LET denoiser


def uwt_curelet_denoise(y, K: float, transform: str = "haar-uwt", J: int = 3,
                        lambdas=LAMBDAS):
    """Risk-optimal linear expansion over undecimated-band atoms.

    One walk over each bank's bands, in stacks (FilterBank.walk). A band's
    correlations with its taps to the powers 1..5 are its coefficients, its
    variance channel and (2..5) its divergence fields per unit synthesis gain,
    shifted by the bank's tap_sums. The lowpass band, band 0 of each bank,
    gets one bias atom, w - K sum(taps), which synthesizes to the unbiased
    lowpass of x; every other band gets one keep-factor atom per
    lambda, thetas and divergences from one fused pass per stack (_fused_atoms,
    carrier w) in buffers every stack reuses. A stack's thetas become its rows
    of one matrix of Parseval rows (synthesis_rows), its divergences times the
    gains its entries of div; nothing else of it outlives it. _fit_expansion
    solves the weights on those rows, one inverse transform gives the estimate
    of x, and cure_expression scores its residual. "mixed" pools the
    Haar-frame and block-DCT atoms into one joint system. per_band maps
    "<bank>/<band>:bias" and "<bank>/<band>:l<lambda>" to the atom's weight.
    """
    y = _checked_data(y, K)
    lambdas = _checked_lambdas(lambdas)
    kappas = [4.0 * lam for lam in lambdas]
    names = {"haar-uwt", "bdct", "mixed"}
    if transform not in names:
        raise ValueError(f"transform must be one of {sorted(names)}")
    banks = []
    if transform in ("haar-uwt", "mixed"):
        banks.append(haar_uwt_bank(_check_levels(y.shape, J), ndim=y.ndim))
    if transform in ("bdct", "mixed"):
        banks.append(bdct8_bank())
    n_atoms = sum(1 + (len(bank.bands) - 1) * len(lambdas) for bank in banks)
    target = banks[0].synthesis_rows(None, y - K)
    rows = np.empty((n_atoms, target.size))
    div, labels, work = np.empty(n_atoms), [], {}
    for bank in banks:
        spectra = bank.kernel_spectra(y.shape)
        for indices, corr in bank.walk(y):
            stack, sums = [bank.bands[i] for i in indices], bank.tap_sums[indices]
            if indices[0] == 0:  # the lowpass band, alone in its stack
                thetas, tags = (corr[0] - sums[0, 0] * K)[:, None], [":bias"]
                divs = [[(corr[1, 0] - 0.5 * K * sums[0, 1]).sum()]]  # of_band's z1
            else:
                ratio = _keep_ratio(corr[0], corr[1], work=work)  # before of_band shifts corr[1]
                fields = BandDivergenceFields.of_band(
                    sums, K, corr[1:], _buffers(work, "z2", 1, corr.shape[1:])[0])
                thetas, divs = (t[:, 0] for t in _fused_atoms(
                    _UNIT, ratio, [(corr[0], 1.0, 0.0)], fields, work)(kappas))
                tags = [f":l{lam:g}" for lam in lambdas]
            divs = np.multiply(divs, [[band.synth_gain] for band in stack])
            bad = [band.label for band, d in zip(stack, divs) if not np.isfinite(d).all()]
            if bad:
                raise ValueError(f"divergence of band {bank.name}/{bad[0]} is not finite")
            labels += [f"{bank.name}/{band.label}{tag}" for band in stack for tag in tags]
            at = slice(len(labels) - divs.size, len(labels))
            div[at] = divs.ravel()
            bank.synthesis_rows(indices, thetas, out=rows[at], spectra=spectra)
    (a,), (combined,) = _fit_expansion(rows[None], target[None], div[None])
    estimate = FilterBank.field_of_rows(combined, y.shape)
    cure = cure_expression(estimate - (y - K), float(a @ div), y - K / 2)
    weights = {label: float(ak) for label, ak in zip(labels, a)}
    return estimate, RiskReport(cure=cure, per_band=weights)


# ------------------------------------------------------ subband CUREshrink


def _soft_threshold(w, s, K_j: float, objective=None):
    """The scorer of one subband's smoothed soft threshold theta = (w/rho)
    ramp_beta(rho - a sigma): a -> (theta, objective(a, theta), by default
    the subband risk).

    rho = sqrt(w^2 + beta^2) smooths |w| with the beta that rounds the ramp
    knee, 2% of the mean noise scale S = mean(sigma), sigma = sqrt(s +
    delta) and delta = 1e-6 (mean(s) + 1), so the smoothing bias stays
    proportional to the data scale. As ramp_beta(t) = S ramp(t / S), with
    the kernel's ramp of width DEFAULT_BETA, theta is _fused_atoms' atom
    ramp(u0 - a q) h with u0 = rho/S, q = sigma/S and h = S w/rho: its
    fields are formed once, then each scale costs one ramp in one theta
    buffer, overwritten by the next call.
    """
    fields = BandDivergenceFields.of_subband(w[None], s[None], K_j)  # stacks of one
    sigma = np.sqrt(s[None] + 1e-6 * (float(s.mean()) + 1.0))
    S = float(sigma.mean())
    beta = DEFAULT_BETA * S
    rho = np.sqrt(w[None] ** 2 + beta ** 2)
    h, h_w = w[None] / rho, beta ** 2 / rho ** 3
    u0 = (rho / S, (h / S, 0.0, h_w / S, 0.0, 0.0))
    q = (sigma / S, (0.0, 0.5 / (S * sigma), 0.0, -0.25 / (S * sigma ** 3), 0.0))
    atoms = _fused_atoms(u0, q, [(S * h, S * h_w, -3.0 * S * h_w * h / rho)], fields, {})
    resid, half = np.empty_like(w), float(np.sum(fields.z1))  # one sum per subband

    def score(a):
        (theta,), (div,) = (t[0, 0] for t in atoms([a]))
        if objective is not None:
            return theta, float(objective(a, theta))
        return theta, cure_expression(np.subtract(theta, w, out=resid), div, half)

    return score


def _golden_section(fun, lo: float, hi: float, tol: float) -> float:
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
    return 0.5 * (lo + hi)


def cureshrink_subband(w, s, K_j: float, objective=None):
    """Pick the threshold scale a minimizing the subband risk estimate.

    Coarse grid {0, GRID_STEP, ..., GRID_MAX}, then golden-section
    refinement of the best cell to GRID_TOL, every scale scored on one
    fused kernel (_soft_threshold), and the result once more for theta.
    objective(a, theta) -> float overrides the default objective, the
    subband risk (used for oracle comparisons); theta is the soft
    threshold at a, valid during the call. Returns (theta field, chosen
    a, objective at a).
    """
    w = np.asarray(w, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if w.shape != s.shape:
        raise ValueError("subband fields misaligned")
    if not K_j > 0:
        raise ValueError("K_j must be positive")
    score = _soft_threshold(w, s, K_j, objective)
    grid = np.arange(0.0, GRID_MAX + 0.5 * GRID_STEP, GRID_STEP)
    values = [score(a)[1] for a in grid]
    best = int(np.argmin(values))
    a = _golden_section(lambda a: score(a)[1], grid[max(best - 1, 0)],
                        grid[min(best + 1, grid.size - 1)], GRID_TOL)
    theta, value = score(a)
    if values[best] < value:  # the grid point beats the refinement
        a = grid[best]
        theta, value = score(a)
    return theta.copy(), float(a), value


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


def _local_magnitude(u: np.ndarray, g1: np.ndarray, delta=None):
    """gamma(u) per item of a stack u (items, *field), with the smoothed
    |u| and the delta it used.

    gamma_n = sum_m G(m) |u_{n+m}| with |.| smoothed to sqrt(u^2+delta^2),
    delta by default 1e-3 times the item's RMS plus 1e-12, and G the
    separable gamma_kernel, applied as the odd symmetric 1-D weights g1
    along each field axis: a periodic correlation on the field padded by
    R = len(g1) // 2 wrapped entries a side (gathered by index, axis first:
    a side shorter than R wraps as often as it needs, each slice is one
    block), summing the center, then each symmetric pair from the outermost
    in.
    """
    if delta is None:
        delta = 1e-3 * np.sqrt(np.mean(u ** 2, axis=tuple(range(1, u.ndim)), keepdims=True)) + 1e-12
    absu = np.sqrt(u ** 2 + delta ** 2)
    gamma, R = absu, len(g1) // 2
    for axis in range(1, u.ndim):
        n = u.shape[axis]
        p = np.take(gamma.swapaxes(0, axis), np.arange(-R, n + R), axis=0, mode="wrap")
        gamma = g1[R] * p[R:R + n]
        for k in range(R):
            gamma += (p[k:k + n] + p[2 * R - k:2 * R - k + n]) * g1[k]
        gamma = gamma.swapaxes(0, axis)
    return gamma, absu, delta


def _gamma_fields(u: np.ndarray, g1: np.ndarray, delta=None):
    """_local_magnitude's gamma and its diagonal self-term derivatives. Only
    the m=0 term involves u_n, so they are the center weight times the
    smoothed-abs derivatives."""
    gamma, absu, delta = _local_magnitude(u, g1, delta)
    g0 = float(g1[len(g1) // 2]) ** (u.ndim - 1)
    return gamma, g0 * u / absu, g0 * delta ** 2 / (absu * absu * absu)  # products, not pow


# ------------------------------------------------------- pyramid denoisers


def _denoise_pyramid(y, K: float, J: int, level_fn, shifts):
    """y's J-level Haar denoise, averaged over the periodic shifts.

    level_fn(sums, details, K_j, j) replaces every detail subband of level
    j (sums and details: one per level step) by its estimate, and returns
    one {orientation: risk per coefficient} per step. y (1-D or 2-D) is
    padded periodically to a multiple of 2^J once. A shift r + 2q is r =
    shift mod 2, then q one level coarser, so a recursion over levels steps
    the field rolled by each residue r once (haar_step), fits its details,
    recurses on its sums with the shifts q at dof 2^ndim K, unsteps, rolls
    back and weights by r's share of the shifts. The last sums are
    unbiased, s - K_J, with risk 4 sum(s - K_J/2). cure and per_band are the
    shift-weighted means of the padded field's risk, not the average's.
    """
    y = _checked_data(y, K)
    if y.ndim not in (1, 2):
        raise ValueError(f"the Haar pyramid takes 1-D or 2-D data, got {y.ndim}-D")
    J = _check_levels(y.shape, J)
    pads = [(0, -n % 2 ** J) for n in y.shape]
    padded = np.pad(y, pads, mode="wrap") if any(p for _, p in pads) else y
    (estimate, cure, per_band), = _pyramid_levels([padded], K, 1, J, level_fn, [shifts])
    return estimate[tuple(map(slice, y.shape))], RiskReport(cure=cure, per_band=per_band)


def _pyramid_levels(cs, K: float, j: int, J: int, level_fn, shifts):
    """Levels j..J of _denoise_pyramid on the fields cs of dof K, each over
    its shifts: [(estimate, cure per entry, per_band)]. Breadth-first: one
    level_fn call fits every field's stepped residues, one recursion runs on
    all their sums (cs is emptied once stepped). Not a closure, which would
    keep level_fn's buffers in a reference cycle until collected."""
    if j > J:
        return [(c - K, lowpass, {"lowpass": lowpass})
                for c in cs for lowpass in [4.0 * float((c - K / 2).sum()) / c.size]]
    axes, branch = tuple(range(cs[0].ndim)), 2 ** cs[0].ndim
    residues = [{} for _ in cs]
    for rs, field_shifts in zip(residues, shifts):
        for sh in field_shifts:
            rs.setdefault(tuple(v % 2 for v in sh), []).append(tuple(v // 2 for v in sh))
    sums, details = map(list, zip(*[haar_step(np.roll(c, r, axis=axes))
                                    for c, rs in zip(cs, residues) for r in rs]))
    cs.clear()
    risks = level_fn(sums, details, K * branch, j)
    fitted = iter(zip(details, risks, _pyramid_levels(
        sums, K * branch, j + 1, J, level_fn, [qs for rs in residues for qs in rs.values()])))
    results = []
    for field_shifts, rs in zip(shifts, residues):
        out, cure, per_band = 0.0, 0.0, {}
        for (r, qs), (step, step_risks, (s_hat, s_cure, rest)) in zip(rs.items(), fitted):
            weight = len(qs) / len(field_shifts)
            out = out + weight * np.roll(haar_unstep(s_hat, step), [-v for v in r], axis=axes)
            cure += weight * (sum(step_risks.values()) + s_cure) / branch ** 2
            for key, risk in {**{f"{o}{j}": v for o, v in step_risks.items()}, **rest}.items():
                per_band[key] = per_band.get(key, 0.0) + weight * risk
        results.append((out, cure, per_band))
    return results


def cureshrink_denoise(y, K: float, J: int = 3):
    """Soft-threshold every detail subband with its risk-picked scale
    (cureshrink_subband). For a shape that is not a multiple of 2^J, cure
    is the risk of the padded field, not of the crop.
    """

    def fit_level(sums, details, kj, j):
        risks = [{} for _ in sums]
        for s, step, risk in zip(sums, details, risks):
            for o, w in step.items():
                step[o], _, risk[o] = cureshrink_subband(w, s, kj)
        return risks

    return _denoise_pyramid(y, K, J, fit_level, [(0,) * np.ndim(y)])


def haar_curelet_denoise(y, K: float, J: int = 3, lambdas=LAMBDAS, spins: int = 1):
    """Per-subband 8-atom inter-/intra-scale expansion, weights by risk.

    Each detail subband is one expansion of 8 atoms: two modulators
    ramp(1 - 4 lam r) per lambda, the keep factor r = s / w^2 (_keep_ratio)
    and the parent energy r = gamma(s) / gamma(p)^2 (_gamma_fields; only
    gamma(s)'s center term depends on (w_n, s_n), so gamma(p) is formed
    without derivatives, by _local_magnitude), each carried by w and by
    the parent p (parent_field). A level's subbands, across shift residues
    and orientations, are fitted in stacks of at most the larger of
    STACK_COEFFICIENTS and one level-1 subband's coefficients (the
    workspace), gamma(s) once per level step:
    per stack, _fused_atoms writes the thetas into one (items, atoms,
    pixels) rows buffer for _fit_expansion. The risk has the subband field
    layout (BandDivergenceFields.of_subband). The lowpass is unbiased by its
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
    g1, work, kappas = gamma_kernel(ndim=1), {}, [4.0 * lam for lam in lambdas]

    def fit_level(sums, details, kj, j):
        shape, risks, shared = sums[0].shape, [{} for _ in sums], (None,)
        items = [(t, o) for t, step in enumerate(details) for o in step]
        most = max(2 ** (len(shape) * (j - 1)), STACK_COEFFICIENTS // math.prod(shape))
        for stack in (items[k:k + most] for k in range(0, len(items), most)):
            w, s, p, *gamma_s = gathered = _buffers(work, "stack", 6, (n := len(stack),) + shape)
            for i, (t, o) in enumerate(stack):
                if shared[0] != t:
                    shared = t, [f[0] for f in _gamma_fields(sums[t][None], g1)]
                for f, item in zip(gathered, [details[t][o], sums[t], parent_field(sums[t], o),
                                              *shared[1]]):
                    f[i] = item
            fields = BandDivergenceFields.of_subband(w, s, kj)
            iqp = _inverse_energy(_local_magnitude(p, g1)[0] ** 2)
            A, A_s, A_ss = (np.multiply(f, iqp, out=f) for f in gamma_s)
            # atoms ordered (carrier, modulator, lambda)
            rows, = _buffers(work, "rows", 1, (n, 2, 2, len(lambdas)) + shape)
            div = np.empty(rows.shape[:4])
            for m, q in enumerate([_keep_ratio(w, s, work=work), (A, (0.0, A_s, 0.0, A_ss, 0.0))]):
                div[:, :, m] = _fused_atoms(_UNIT, q, [(w, 1.0, 0.0), (p, 0.0, 0.0)], fields,
                                            work)(kappas, out=rows[:, :, m])[1]
            div = div.reshape(n, -1)
            a, fit = _fit_expansion(rows.reshape(div.shape + (-1,)), w.reshape(n, -1), div)
            for i, (t, o) in enumerate(stack):
                details[t][o], risks[t][o] = fit[i].reshape(shape), cure_expression(
                    fit[i] - w[i].ravel(), float(a[i] @ div[i]), fields.z1[i])
        return risks

    shifts = dict.fromkeys(shift[: np.ndim(y)] for shift in SPIN_SHIFTS[:spins])
    return _denoise_pyramid(y, K, J, fit_level, list(shifts))
