"""Dense and written-out reference implementations used only by the tests.

The package computes filterbank risk divergences through FFT correlations
with tap-product kernels. These helpers rebuild the same quantities from
explicit circulant matrices and the image-domain chain rule, providing an
independent arbiter: D[k, l] = taps[l - k] (periodic), Dbar uses squared
taps, R = synth_gain * D.T. The subband weight solve is likewise rebuilt
from normal equations written out term by term.
"""

from __future__ import annotations

import numpy as np

from curelet.risk import EstimatorEvaluation, SubbandEvaluation, combine_evaluations, cure_image
from curelet.shrinkage import let_atom_pointwise, solve_weights

POINTWISE_LAMBDAS = (3.0, 9.0)


def dense_band_matrices(bank, shape):
    """Explicit (D, Dbar, R) per band for a small 2-D image shape."""
    h, w = shape
    n = h * w
    mats = []
    for band in bank.bands:
        emb = np.zeros(shape)
        embbar = np.zeros(shape)
        emb[: band.taps.shape[0], : band.taps.shape[1]] = band.taps
        embbar[: band.taps.shape[0], : band.taps.shape[1]] = band.taps ** 2
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


def pointwise_let_evaluations(bank, y, K, weights):
    """One weighted SubbandEvaluation per band of the pointwise LET expansion.

    Each band's atoms are built on their own, in bank order: a lowpass
    band gets the bias-removing atom w - tap_sum K (d1 = 1), labelled
    "<band>:bias"; a highpass band gets let_atom_pointwise(w, wbar, lam)
    for each lambda, labelled "<band>:l<lam>". weights receives the
    (band index, label) of every atom, in that order, and returns one
    weight per atom; each band's atoms are then combined with
    combine_evaluations.
    """
    atoms = []
    for i, (band, w, wbar) in enumerate(zip(bank.bands, bank.analyze(y),
                                            bank.analyze_variance(y))):
        if band.kind == "lowpass":
            atoms.append((i, f"{band.label}:bias", SubbandEvaluation(
                theta=w - band.tap_sum * K, d1=1.0, d2=0.0, d11=0.0, d22=0.0, d12=0.0)))
        else:
            atoms += [(i, f"{band.label}:l{lam:g}", let_atom_pointwise(w, wbar, lam))
                      for lam in POINTWISE_LAMBDAS]
    a = np.asarray(weights([(i, label) for i, label, _ in atoms]), dtype=np.float64)
    band_of = np.array([i for i, _, _ in atoms])
    return [combine_evaluations([ev for j, _, ev in atoms if j == i], a[band_of == i])
            for i in range(len(bank.bands))]
