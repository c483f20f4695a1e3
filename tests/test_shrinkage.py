"""Atom, solver, and denoiser tests: hand examples, finite-difference
derivative checks, risk-optimality spot checks, and phantom protocols."""

import gc
import math
import tracemalloc
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curelet import shrinkage, transforms
from curelet.chi2model import (
    rescale_squared,
    reconstruct_magnitude,
    sample_chi2,
    sample_rician,
)
from curelet.pipeline import make_phantom
from curelet.risk import BandDivergenceFields, cure_expression
from curelet.shrinkage import (
    cureshrink_denoise,
    cureshrink_subband,
    gamma_kernel,
    haar_curelet_denoise,
    solve_weights,
    uwt_curelet_denoise,
)
from curelet.transforms import (
    SPIN_COUNTS,
    SPIN_SHIFTS,
    FilterBank,
    bdct8_bank,
    haar_step,
    haar_uwt_bank,
    parent_field,
)

from oracles import (
    SubbandEvaluation,
    analyze,
    atom_divergence,
    band_divergence_fields,
    combine_evaluations,
    cure_filterbank_divergence,
    cure_subband,
    cureshrink_evaluation,
    gamma_fields,
    joint_let_atoms,
    joint_modulators,
    let_atom_pointwise,
    pointwise_let_evaluations,
    smooth_pos,
    subband_normal_weights,
    synthesize,
    taps,
)


def rng_of(seed):
    return np.random.Generator(np.random.Philox(seed))


def snr_level_field(mu, snr_db, K=2.0):
    """Scale mu^2 so the chi-square data has the requested input SNR.

    With x = t mu^2 the data y has signal energy sum x^2 and noise energy
    sum Var(y) = sum(4x + 2K); t solves the resulting quadratic.
    """
    g = 10.0 ** (snr_db / 10.0)
    m2 = float((mu ** 2).sum())
    m4 = float((mu ** 4).sum())
    n = mu.size
    disc = (4.0 * g * m2) ** 2 + 4.0 * m4 * g * 2.0 * K * n
    t = (4.0 * g * m2 + np.sqrt(disc)) / (2.0 * m4)
    return mu ** 2 * t


def rescaled_shepp_logan(size, sigma, seed=17):
    """Chi-square-domain data y and its dof K from a Rician phantom draw."""
    mu = make_phantom("shepp-logan", size)
    field = rescale_squared(sample_rician(mu, sigma, seed=seed), sigma)
    return field.samples.reshape(mu.shape), field.dof


def psnr_vs(ref, est):
    err = float(((est - ref) ** 2).mean())
    return 10.0 * np.log10(float(ref.max()) ** 2 / max(err, 1e-30))


# ----------------------------------------------------------- smooth ramp


def test_smooth_pos_at_zero():
    g, dg = smooth_pos(0.0, 0.02)
    assert g == pytest.approx(0.01, abs=1e-15)
    assert dg == pytest.approx(0.5, abs=1e-15)


def test_smooth_pos_asymptotics():
    g, dg = smooth_pos(10.0, 0.02)
    assert abs(g - 10.0) < 1e-5
    assert g == pytest.approx(10.00001, abs=1e-9)
    assert dg == pytest.approx(1.0, abs=1e-5)
    g_neg, dg_neg = smooth_pos(-10.0, 0.02)
    assert 0.0 < g_neg < 1e-5
    assert 0.0 < dg_neg < 1e-5


def test_smooth_pos_rejects_bad_beta():
    with pytest.raises(ValueError):
        smooth_pos(1.0, 0.0)
    with pytest.raises(ValueError):
        smooth_pos(1.0, -0.5)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_smooth_pos_antisymmetric_part_is_linear(u):
    # (u + root)/2 - (-u + root)/2 = u regardless of the smoothing
    gp, _ = smooth_pos(u, 0.02)
    gm, _ = smooth_pos(-u, 0.02)
    assert gp - gm == pytest.approx(u, rel=1e-12, abs=1e-12)
    assert gp >= 0.0


def two_branch_smooth_pos3(u, beta):
    """The two-branch reference ramp: np.where picks a branch per sign of u."""
    u = np.asarray(u, dtype=np.float64)
    root = np.sqrt(u ** 2 + beta ** 2)
    neg = u < 0
    safe = root - np.minimum(u, 0.0)
    g = np.where(neg, 0.5 * beta ** 2 / safe, 0.5 * (u + root))
    dg = np.where(neg, 0.5 * beta ** 2 / (root * safe), 0.5 * (1.0 + u / root))
    d2g = 0.5 * beta ** 2 / root ** 3
    return g, dg, d2g


def test_smooth_pos3_matches_the_two_branch_reference():
    beta = 0.02
    rng = np.random.default_rng(41)
    u = np.concatenate([
        [0.0, 1e-30, -1e-30, beta, -beta, 3.0, -3.0, 1e8, -1e8, -1e14],
        *(scale * rng.normal(size=200) for scale in (1e-3, 1.0, 1e3)),
    ])
    for got, ref in zip(shrinkage._smooth_pos3(u, beta), two_branch_smooth_pos3(u, beta)):
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)
    for got, ref in zip(shrinkage._smooth_pos3(np.float64(-2.5), beta),
                        two_branch_smooth_pos3(-2.5, beta)):
        assert np.ndim(got) == 0
        assert got == pytest.approx(float(ref), rel=1e-14, abs=0.0)


# ------------------------------------------------------- pointwise atoms


def test_let_atom_pointwise_hand_value():
    # keep factor 1 - 4*3*1/100 = 0.88 in the sharp-ramp limit
    ev = let_atom_pointwise(np.array([10.0]), np.array([1.0]), 3.0,
                            beta=1e-9, eps=1e-30)
    assert ev.theta[0] == pytest.approx(8.8, abs=1e-9)


def test_let_atom_pointwise_keeps_large_coefficients():
    ev = let_atom_pointwise(np.array([1e6]), np.array([1.0]), 9.0)
    assert ev.theta[0] / 1e6 == pytest.approx(1.0, abs=2e-4)


def test_let_atom_pointwise_rejects_bad_lambda():
    with pytest.raises(ValueError):
        let_atom_pointwise(np.ones(3), np.ones(3), 0.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_let_atom_shrinkage_factor_bounded(seed):
    rng = rng_of(seed)
    w = rng.normal(scale=5.0, size=64)
    v = rng.uniform(0.1, 20.0, size=64)
    for lam in (3.0, 9.0):
        ev = let_atom_pointwise(w, v, lam)
        assert (np.abs(ev.theta) <= np.abs(w) * (1.0 + 0.02) + 1e-12).all()


# ------------------------------------------------- finite-difference suite


def assert_partials_match(build, w, v, rtol=1e-5, h=1e-4):
    """Declared partials against central differences; the second-order
    fields are differenced from the closed-form first-order ones."""
    ev = build(w, v)
    checks = [
        (ev.d1, (build(w + h, v).theta - build(w - h, v).theta) / (2 * h)),
        (ev.d2, (build(w, v + h).theta - build(w, v - h).theta) / (2 * h)),
        (ev.d11, (build(w + h, v).d1 - build(w - h, v).d1) / (2 * h)),
        (ev.d22, (build(w, v + h).d2 - build(w, v - h).d2) / (2 * h)),
        (ev.d12, (build(w, v + h).d1 - build(w, v - h).d1) / (2 * h)),
    ]
    for declared, fd in checks:
        scale = float(np.abs(fd).max())
        np.testing.assert_allclose(
            np.broadcast_to(declared, fd.shape), fd,
            rtol=rtol, atol=rtol * max(scale, 1e-9),
        )


def fd_sample(seed, n=1000):
    # keep |w| away from 0: the keep factor varies on the scale of w
    # itself there, and a fixed step cannot resolve it
    rng = rng_of(seed)
    w = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.15, 12.0, size=n)
    v = rng.uniform(0.7, 15.0, size=n)
    return w, v


@pytest.mark.parametrize("lam", [3.0, 9.0])
def test_pointwise_partials_match_finite_differences(lam):
    w, v = fd_sample(101, 1000)
    assert_partials_match(
        lambda a, b: let_atom_pointwise(a, b, lam, eps=1e-9), w, v)


@pytest.mark.parametrize("a", [0.5, 1.5])
def test_cureshrink_partials_match_finite_differences(a):
    w, v = fd_sample(103, 1000)
    assert_partials_match(
        lambda wa, sa: cureshrink_evaluation(wa, sa, a, beta=0.05, delta=1e-6),
        w, v)


def test_joint_partials_match_finite_differences():
    # gamma couples neighbors, so the declared self-term partials are
    # probed one coordinate at a time
    rng = rng_of(107)
    shape = (16, 16)
    w = rng.normal(scale=3.0, size=shape)
    s = rng.uniform(2.0, 30.0, size=shape)
    p = rng.normal(scale=2.0, size=shape)
    deltas = (0.05, 0.05)

    def build(wf, sf):
        return joint_let_atoms(wf, sf, p, deltas=deltas)

    base = build(w, s)
    h = 1e-4
    coords = [tuple(c) for c in rng.integers(0, 16, size=(32, 2))]
    for n in coords:
        dw = np.zeros(shape)
        dw[n] = h
        wp, wm = build(w + dw, s), build(w - dw, s)
        sp, sm = build(w, s + dw), build(w, s - dw)
        for k in range(8):
            for declared, hi, lo in [
                (base[k].d1[n], wp[k].theta[n], wm[k].theta[n]),
                (base[k].d2[n], sp[k].theta[n], sm[k].theta[n]),
                (base[k].d11[n], wp[k].d1[n], wm[k].d1[n]),
                (base[k].d22[n], sp[k].d2[n], sm[k].d2[n]),
                (base[k].d12[n], sp[k].d1[n], sm[k].d1[n]),
            ]:
                fd = (hi - lo) / (2 * h)
                assert declared == pytest.approx(fd, rel=1e-5, abs=1e-6)


def test_joint_intra_scale_atoms_are_pointwise_keep_factors():
    # the (modulator=w, carrier=w) atoms read the exact variance channel
    # s pointwise, so they coincide with the filterbank keep-factor atoms
    rng = rng_of(109)
    shape = (16, 16)
    w = rng.normal(scale=6.0, size=shape)
    s = rng.uniform(1.0, 20.0, size=shape)
    p = rng.normal(scale=4.0, size=shape)
    atoms = joint_let_atoms(w, s, p)
    for k, lam in enumerate((3.0, 9.0)):
        ref = let_atom_pointwise(w, s, lam)
        for name in ("theta", "d1", "d2", "d11", "d22", "d12"):
            got, want = getattr(atoms[k], name), getattr(ref, name)
            np.testing.assert_allclose(
                got, want, rtol=0.0,
                atol=1e-12 * (float(np.abs(want).max()) + 1.0), err_msg=name)


def fused_let_atoms(q, carriers, fields, lambdas):
    """Thetas and divergences of the LET atoms ramp(1 - 4 lam q) * h from
    the production kernel, on stacks."""
    return shrinkage._fused_atoms(shrinkage._UNIT, q, carriers, fields)(
        [4.0 * lam for lam in lambdas])


def fused_and_reference_atoms(source, y, K, lambdas):
    """Per band of source (a FilterBank, or "haar-dwt"/"haar-dwt-p0" for the
    level-1 subbands of a Haar DWT, the latter with parent p = 0): its
    coefficients and fields, the fused thetas and divergences, and the
    reference atoms in the same order. Some coefficients are set to
    exactly 0."""
    if isinstance(source, FilterBank):
        scaled = band_divergence_fields(y, K, source)
        for indices, _, corr in source.walk(y):
            for k, i in enumerate(indices):
                band = source.bands[i]
                if i == 0:  # the lowpass band
                    continue
                w, v = corr[0, k].copy(), corr[1, k].copy()
                w[::5, ::3] = 0.0
                thetas, divs = fused_let_atoms(  # on a stack of one, per unit synthesis gain
                    shrinkage._keep_ratio(w[None], v[None]), [(w[None], 1.0, 0.0)],
                    BandDivergenceFields.of_band(
                        source.tap_sums[[i]], K, corr[1:, k:k + 1].copy()), lambdas)
                for lam in lambdas:
                    u = 1.0 - 4.0 * lam * v / (w ** 2 + 1e-12 * (float((w ** 2).mean()) + 1.0))
                    assert (u < -1e6).any() and (u > 0.5).any()
                yield (w, scaled[i], thetas[0, 0], band.synth_gain * divs[0, 0],
                       [let_atom_pointwise(w, v, lam) for lam in lambdas])
        return
    s, details = haar_step(y)
    for orient, w in details.items():
        w = w.copy()
        w[::5, ::3] = 0.0
        p = np.zeros_like(w) if source == "haar-dwt-p0" else parent_field(s, orient)
        fields = BandDivergenceFields.of_subband(w, s, 4 * K)
        fused = [fused_let_atoms(  # on a stack of one
            (r[None], [d[None] if np.ndim(d) else d for d in partials]),
            [(w[None], 1.0, 0.0), (p[None], 0.0, 0.0)],
            BandDivergenceFields.of_subband(w[None], s[None], 4 * K), lambdas)
            for r, partials in joint_modulators(w, s, p)]
        thetas, divs = (np.stack([part[0] for part in parts], axis=1) for parts in zip(*fused))
        yield (w, fields, thetas.reshape(-1, *w.shape), divs.ravel(),
               joint_let_atoms(w, s, p, lambdas=lambdas))


@pytest.mark.parametrize("lambdas", [(3.0, 9.0), (5.0,)], ids=["3-9", "5"])
@pytest.mark.parametrize("source", [haar_uwt_bank(3), bdct8_bank(), "haar-dwt", "haar-dwt-p0"],
                         ids=["haar-J3", "bdct8", "haar-dwt", "haar-dwt-p0"])
def test_fused_keep_factor_band_matches_the_reference_atoms(source, lambdas):
    # every highpass band of chi-square data, with some coefficients
    # exactly 0 and many deep in the ramp's negative tail (u << 0); on a
    # Haar DWT subband, all joint atoms against joint_let_atoms
    K = 2.0
    x = make_phantom("shepp-logan", 64) * 3.0 + 5.0
    y = sample_chi2(x, K, seed=41).samples
    for w, fields, thetas, divs, refs in fused_and_reference_atoms(source, y, K, lambdas):
        assert thetas.shape == (len(refs),) + w.shape and divs.shape == (len(refs),)
        for theta, div, ref in zip(thetas, divs, refs):
            np.testing.assert_allclose(theta, ref.theta, rtol=1e-12,
                                       atol=1e-12 * float(np.abs(ref.theta).max()))
            assert div == pytest.approx(atom_divergence(fields, ref), rel=1e-12, abs=0.0)


# ------------------------------------------------------------ weight solve


def test_solve_weights_identity_system():
    a = solve_weights(np.eye(2), np.array([2.0, -1.0]))
    np.testing.assert_allclose(a, [2.0, -1.0], atol=1e-12)


def test_solve_weights_degenerate_minimal_norm():
    a = solve_weights(np.ones((2, 2)), np.array([2.0, 2.0]))
    np.testing.assert_allclose(a, [1.0, 1.0], atol=1e-10)


def test_solve_weights_rejects_nonfinite():
    with pytest.raises(ValueError):
        solve_weights(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2))
    with pytest.raises(ValueError):
        solve_weights(np.eye(2), np.array([1.0, np.inf]))


def test_solve_weights_zero_system_returns_zero():
    a = solve_weights(np.zeros((3, 3)), np.zeros(3))
    np.testing.assert_allclose(a, np.zeros(3))


def test_solve_weights_ridges_from_the_eigenvalues_without_an_svd(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("solve_weights must not run an SVD")

    monkeypatch.setattr(np.linalg, "cond", forbidden)
    monkeypatch.setattr(np.linalg, "svd", forbidden)
    # condition 1e13 > COND_LIMIT: ridge, then the 1e-13 mode falls below RCOND
    M, c = np.diag([1.0, 1e-13]), np.array([2.0, 3.0])
    ridge = shrinkage.RIDGE * np.trace(M) / 2
    a = solve_weights(M, c)
    np.testing.assert_allclose(a, [2.0 / (1.0 + ridge), 0.0], rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(solve_weights(np.diag([2.0, 1e-3]), c), [1.0, 3e3], rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2 ** 31 - 1),
)
def test_solve_weights_residual_invariant(k, seed):
    rng = rng_of(seed)
    A = rng.normal(size=(k, k))
    M = A @ A.T + 0.5 * np.eye(k)
    c = rng.normal(size=k)
    a = solve_weights(M, c)
    assert np.linalg.norm(M @ a - c) <= 1e-8 * (np.linalg.norm(c) + 1.0)


def spectral_system(eigenvalues, seed):
    """A symmetric system with the given eigenvalues in a random basis."""
    V, _ = np.linalg.qr(rng_of(seed).normal(size=(len(eigenvalues),) * 2))
    return (V * eigenvalues) @ V.T, rng_of(seed + 1).normal(size=len(eigenvalues))


def test_stacked_solve_weights_solves_each_system_as_alone():
    # one batched eigh, the per-system contract: a well-conditioned system,
    # one ridged (cond 1e14 > COND_LIMIT), one cut by RCOND without a ridge
    # (cond 1e7), one with a dead atom and one with every atom dead
    systems = [spectral_system([3.0, 2.0, 1.0, 0.5], 1),
               spectral_system([1.0, 0.5, 1e-3, 1e-14], 3),
               spectral_system([1.0, 0.5, 1e-6, 1e-7], 5)]
    M, c = spectral_system([4.0, 1.0, 0.25], 7)
    dead = np.zeros((4, 4))
    dead[np.ix_([0, 1, 3], [0, 1, 3])] = M
    systems += [(dead, np.array([c[0], c[1], 5.0, c[2]])), (np.zeros((4, 4)), np.ones(4))]
    Ms, cs = (np.stack(parts) for parts in zip(*systems))
    a = solve_weights(Ms, cs)
    for got, (Mi, ci) in zip(a, systems):
        want = solve_weights(Mi, ci)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * (np.abs(want).max() + 1e-300))
    # the dead atom gets weight zero and the others are the live block's solve
    assert a[3, 2] == 0.0 and not a[4].any()
    np.testing.assert_allclose(a[3, [0, 1, 3]], solve_weights(M, c), rtol=1e-12)
    assert np.abs(a[1]).max() > 0.0 and np.abs(a[2]).max() > 0.0


def quadratic_risk_probe(w, s, kj, atoms):
    """Recover (M, c) of the risk quadratic from public evaluations only.

    N * risk(a) = a'Ma - 2a'c + const, so unit-vector probes of the risk
    against the Gram matrix determine c.
    """
    n = w.size
    M = np.array([[float((ai.theta * aj.theta).sum()) for aj in atoms]
                  for ai in atoms])
    base = cure_subband(w, s, kj, combine_evaluations(atoms, np.zeros(len(atoms))))
    c = np.empty(len(atoms))
    for i in range(len(atoms)):
        e = np.zeros(len(atoms))
        e[i] = 1.0
        risk_i = cure_subband(w, s, kj, combine_evaluations(atoms, e))
        c[i] = 0.5 * (M[i, i] - n * (risk_i - base))
    return M, c


def test_solved_weights_minimize_risk_against_perturbations():
    # well-conditioned two-atom family: the same soft threshold at two
    # distinct scales; no eigenmode is truncated, so the solve must sit
    # at the exact quadratic minimum
    rng = rng_of(211)
    x = rng.uniform(0.0, 40.0, size=(24, 24))
    y = sample_chi2(x, 2.0, seed=31).samples
    s, details = haar_step(y)
    w, kj = details["hh"], 8.0
    atoms = [cureshrink_evaluation(w, s, 0.5), cureshrink_evaluation(w, s, 2.5)]
    M, c = quadratic_risk_probe(w, s, kj, atoms)
    lam = np.linalg.eigvalsh(M)
    assert lam.min() > 1e-4 * lam.max()
    a = solve_weights(M, c)
    best = cure_subband(w, s, kj, combine_evaluations(atoms, a))
    for ai, atom_alone in zip(np.eye(2), atoms):
        assert best <= cure_subband(w, s, kj, atom_alone) + 1e-12
    for i in range(100):
        delta = rng.normal(size=2)
        delta *= 0.1 / np.linalg.norm(delta)
        perturbed = cure_subband(w, s, kj, combine_evaluations(atoms, a + delta))
        assert best <= perturbed + 1e-12


# ------------------------------------------------------------- joint atoms


def test_gamma_kernel_center_weights():
    k1 = gamma_kernel(ndim=1)
    assert k1[k1.size // 2] == pytest.approx(1.0 / np.sqrt(2.0 * np.pi))
    k2 = gamma_kernel(ndim=2)
    mid = k2.shape[0] // 2
    assert k2[mid, mid] == pytest.approx(1.0 / (2.0 * np.pi))
    with pytest.raises(ValueError):
        gamma_kernel(ndim=3)


@pytest.mark.parametrize("shape", [(n,) for n in range(1, 10)] + [(n, n) for n in range(1, 10)]
                         + [(5, 12), (12, 5)], ids=str)
def test_gamma_fields_are_the_periodic_correlation_on_every_small_side(shape):
    # a side shorter than the kernel's radius 4 wraps more than once: a
    # pad made of slices of the field is short there; a stack of two items
    # with their own deltas smooths each item alone
    u = rng_of(47).normal(size=shape)
    g1 = gamma_kernel(ndim=1)
    got = shrinkage._gamma_fields(np.stack([u, 3.0 * u]), g1, np.array([0.1, 0.3]).reshape(
        (2,) + (1,) * u.ndim))
    for k, (item, delta) in enumerate([(u, 0.1), (3.0 * u, 0.3)]):
        for field, want in zip(got, gamma_fields(item[None], g1, delta)):
            assert_rel_close(field[k], want[0])


@pytest.mark.parametrize("spins", [1, 16])
def test_haar_with_2x2_coarsest_subbands_keeps_the_rolled_gamma(monkeypatch, spins):
    # 16x16 at J=3 leaves 2x2 level-3 subbands, whose gamma wraps twice
    y = noisy_uniform((16, 16), 13)
    est, report = haar_curelet_denoise(y, 2.0, J=3, spins=spins)
    monkeypatch.setattr(shrinkage, "_gamma_fields", gamma_fields)
    monkeypatch.setattr(shrinkage, "_local_magnitude", lambda u, g1: gamma_fields(u, g1)[:1])
    want, want_report = haar_curelet_denoise(y, 2.0, J=3, spins=spins)
    assert_rel_close(est, want)
    assert report.cure == pytest.approx(want_report.cure, rel=1e-12, abs=0.0)


def test_joint_atoms_zero_parent_degenerates_to_intra_scale():
    # w energy above the local s level keeps the intra-scale atoms live
    rng = rng_of(23)
    w = rng.normal(scale=10.0, size=(12, 12))
    s = rng.uniform(2.0, 8.0, size=(12, 12))
    atoms = joint_let_atoms(w, s, np.zeros_like(w))
    assert len(atoms) == 8
    scale = float(np.abs(w).max())
    # parent-modulated and parent-carried atoms collapse; only the two
    # intra-scale (w-modulated, w-carried) atoms survive
    for k in (2, 3, 4, 5, 6, 7):
        assert float(np.abs(atoms[k].theta).max()) <= 1e-9 * scale
    assert float(np.abs(atoms[0].theta).max()) > 0.01 * scale


# -------------------------------------------------------------- cureshrink


def test_cureshrink_evaluation_hand_value():
    ev = cureshrink_evaluation(np.array([5.0]), np.array([4.0]), 1.0,
                               beta=1e-8, delta=1e-12)
    assert ev.theta[0] == pytest.approx(3.0, abs=1e-7)


def test_cureshrink_zero_threshold_is_identity():
    rng = rng_of(29)
    w = rng.normal(scale=5.0, size=200)
    s = rng.uniform(2.0, 40.0, size=200)
    ev = cureshrink_evaluation(w, s, 0.0)
    beta = 0.02 * float(np.sqrt(s + 1e-6 * (s.mean() + 1.0)).mean())
    assert float(np.abs(ev.theta - w).max()) <= 0.5 * beta


def test_cureshrink_rejects_negative_threshold():
    with pytest.raises(ValueError):
        cureshrink_evaluation(np.ones(3), np.ones(3), -0.1)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_cureshrink_magnitude_bound_and_monotone_in_a(seed):
    rng = rng_of(seed)
    w = rng.normal(scale=4.0, size=50)
    s = rng.uniform(1.0, 25.0, size=50)
    beta = 0.05
    lo = cureshrink_evaluation(w, s, 0.4, beta=beta, delta=1e-6)
    hi = cureshrink_evaluation(w, s, 1.8, beta=beta, delta=1e-6)
    assert (np.abs(lo.theta) <= np.abs(w) + 2.0 * beta).all()
    assert (np.abs(hi.theta) <= np.abs(lo.theta) + 1e-12).all()


def test_cureshrink_subband_search_respects_objective_override():
    rng = rng_of(41)
    x = rng.uniform(0.0, 30.0, size=(16, 16))
    y = sample_chi2(x, 2.0, seed=3).samples
    s, details = haar_step(y)
    w = details["hh"]
    target = 1.3

    def pin(a, ev):
        return (a - target) ** 2

    theta, a, value = cureshrink_subband(w, s, 8.0, objective=pin)
    assert a == pytest.approx(target, abs=2e-3)
    assert value == pin(a, None)


def test_cureshrink_pure_noise_picks_positive_threshold():
    y = sample_chi2(np.zeros((32, 32)), 2.0, seed=8).samples
    s, details = haar_step(y)
    theta, a, _ = cureshrink_subband(details["hh"], s, 8.0)
    assert a > 0.5
    assert float((theta ** 2).mean()) < float((details["hh"] ** 2).mean())


def test_cure_picked_threshold_tracks_oracle():
    # single-subband protocol: 128x128-coefficient level-1 detail band,
    # scaling dof 8, data at 15 dB input SNR; the risk-picked threshold
    # must land within 5% of the oracle's squared error
    mu = make_phantom("shepp-logan", 256)
    x = snr_level_field(mu, 15.0)
    omega = haar_step(x)[1]["hh"]
    for seed in (500, 501, 502):
        s, details = haar_step(sample_chi2(x, 2.0, seed=seed).samples)
        w = details["hh"]
        th_cure, _, _ = cureshrink_subband(w, s, 8.0)

        def oracle(a, theta):
            return float(((theta - omega) ** 2).mean())

        th_best, _, _ = cureshrink_subband(w, s, 8.0, objective=oracle)
        mse_cure = float(((th_cure - omega) ** 2).mean())
        mse_best = float(((th_best - omega) ** 2).mean())
        assert mse_cure <= 1.05 * mse_best


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_cureshrink_subband_value_is_risk_at_returned_scale(seed):
    # the returned value is, bit for bit, the kernel's subband risk at the
    # returned threshold scale, so cureshrink_denoise need not score it
    # again; it is the reference risk there to rounding
    y = sample_chi2(rng_of(seed).uniform(0.0, 30.0, size=(32, 32)), 2.0, seed=seed).samples
    s, details = haar_step(y)
    w, kj = details["hh"], 8.0
    theta, a, value = cureshrink_subband(w, s, kj)
    (want,), (risk,) = soft_threshold_scores(w, s, kj, [a])
    assert value == risk
    np.testing.assert_array_equal(theta, want)
    assert value == pytest.approx(cure_subband(w, s, kj, cureshrink_evaluation(w, s, a)),
                                  rel=1e-10, abs=0.0)


def soft_threshold_scores(w, s, kj, scales):
    """The production kernel's soft thresholds and subband risks at scales."""
    score = shrinkage._soft_threshold(w, s, kj)
    thetas, risks = zip(*[(theta.copy(), risk) for theta, risk in map(score, scales)])
    return np.stack(thetas), list(risks)


def soft_threshold_subbands():
    # lh/hl/hh at levels 1 and 2 of a 64x64 draw, and levels 1 and 2 of a
    # 1-D draw, each with its K_j
    y = sample_chi2(rng_of(61).uniform(0.0, 40.0, size=(64, 64)), 2.0, seed=61).samples
    y1 = sample_chi2(rng_of(62).uniform(0.0, 40.0, size=256), 2.0, seed=62).samples
    for c, branch in ((y, 4), (y1, 2)):
        for j in (1, 2):
            c, details = haar_step(c)
            for orient, w in details.items():
                yield f"{orient}{j}", w, c, 2.0 * branch ** j


@pytest.mark.parametrize("name, w, s, kj",
                         [pytest.param(*case, id=case[0]) for case in soft_threshold_subbands()])
def test_kernel_soft_threshold_matches_the_reference_evaluation(name, w, s, kj):
    # every grid scale and one off the grid, on one set of folded fields
    scales = list(np.arange(0.0, shrinkage.GRID_MAX + 0.5 * shrinkage.GRID_STEP,
                            shrinkage.GRID_STEP)) + [1.2345]
    thetas, risks = soft_threshold_scores(w, s, kj, scales)
    assert thetas.shape == (len(scales),) + w.shape
    for a, theta, risk in zip(scales, thetas, risks):
        ev = cureshrink_evaluation(w, s, a)
        assert_rel_close(theta, ev.theta, rel=1e-10)
        assert risk == pytest.approx(cure_subband(w, s, kj, ev), rel=1e-10, abs=0.0)


def test_cureshrink_subband_rejects_misaligned_fields():
    with pytest.raises(ValueError, match="misaligned"):
        cureshrink_subband(np.zeros(3), np.ones(4), 4.0)


@pytest.mark.parametrize("kj", [0.0, -4.0, np.nan])
def test_cureshrink_subband_rejects_a_nonpositive_dof(kj):
    with pytest.raises(ValueError, match="K_j"):
        cureshrink_subband(np.zeros(4), np.ones(4), kj)


def test_cureshrink_denoise_scores_on_the_fused_kernel(monkeypatch):
    # per subband, the kernel forms its fields once, then one single-scale
    # call of its atoms scores each grid point, each golden-section step and
    # the result (12 or 13 after the grid); the six-partial evaluation the
    # package once built per trial scale is gone from it
    kernels, calls = [], []
    fused = shrinkage._fused_atoms

    def counting(*args, **kwargs):
        atoms = fused(*args, **kwargs)
        kernels.append(atoms)

        def counted(kappas, out=None):
            calls.append(len(kappas))
            return atoms(kappas, out)

        return counted

    def forbidden(*args, **kwargs):
        raise AssertionError("a reference evaluation was built")

    monkeypatch.setattr(shrinkage, "_fused_atoms", counting)
    monkeypatch.setattr(shrinkage, "cureshrink_evaluation", forbidden, raising=False)
    monkeypatch.setattr(shrinkage, "SubbandEvaluation", forbidden, raising=False)
    cureshrink_denoise(noisy_uniform((32, 32), 7), 2.0, J=3)
    grid = round(shrinkage.GRID_MAX / shrinkage.GRID_STEP) + 1
    assert len(kernels) == 9 and set(calls) == {1}
    assert 9 * (grid + 12) <= len(calls) <= 9 * (grid + 13)


def test_cureshrink_subband_value_when_a_grid_point_wins():
    # an objective minimal only at a = 0 exactly: golden-section refinement
    # of the cell [0, GRID_STEP] cannot reach it, so the grid point and its
    # value must both be returned
    y = sample_chi2(np.full((16, 16), 10.0), 2.0, seed=4).samples
    s, details = haar_step(y)

    def spike(a, ev):
        return 0.0 if a == 0.0 else 1.0 + a

    _, a, value = cureshrink_subband(details["hh"], s, 8.0, objective=spike)
    assert (a, value) == (0.0, 0.0)


def test_pyramid_denoisers_reject_more_levels_than_the_image_holds():
    # 2^6 = 64 exceeds the short side: the pyramid would pad 48 to 64
    y = sample_chi2(np.full((64, 48), 20.0), 2.0, seed=3).samples
    for denoise in (cureshrink_denoise, haar_curelet_denoise):
        with pytest.raises(ValueError, match="J=6"):
            denoise(y, 2.0, J=6)


# --------------------------------------------------------- uwt denoiser


def test_uwt_denoise_rejects_bad_inputs():
    with pytest.raises(ValueError):
        uwt_curelet_denoise(-np.ones((8, 8)), 2.0)
    with pytest.raises(ValueError):
        uwt_curelet_denoise(np.ones((8, 8)), 2.0, transform="fourier")


def test_uwt_denoise_constant_phantom_stays_constant():
    # heavy noise on a flat field: whatever weights the risk picks, the
    # estimate must carry almost no spatial structure
    for seed in (11, 12, 13, 14):
        y = sample_chi2(np.full((64, 64), 500.0), 2.0, seed=seed).samples
        est, report = uwt_curelet_denoise(y, 2.0)
        deviation = ((est - est.mean()) ** 2).sum() / ((y - y.mean()) ** 2).sum()
        assert deviation < 0.01
        assert abs(est.mean() - 500.0) < 5.0


def test_uwt_denoise_noise_free_limit_does_not_hurt():
    # high-SNR regime: the atom family contains a near-identity member,
    # so the risk-optimal estimate cannot do worse than the data
    x = (make_phantom("shepp-logan", 64) + 30.0) * 20.0
    y = sample_chi2(x, 2.0, seed=77).samples
    est, report = uwt_curelet_denoise(y, 2.0)
    assert psnr_vs(x, est) >= psnr_vs(x, y - 2.0)


def test_mixed_bank_at_least_matches_haar_frame():
    # pooling block-DCT atoms enlarges the search space; on the textured
    # phantom protocol the mean gain over ten draws must not be negative
    mu = make_phantom("shepp-logan", 128)
    x = snr_level_field(mu, 15.0)
    gaps = []
    for seed in range(10):
        y = sample_chi2(x, 2.0, seed=3000 + seed).samples
        est_u, _ = uwt_curelet_denoise(y, 2.0, transform="haar-uwt")
        est_m, _ = uwt_curelet_denoise(y, 2.0, transform="mixed")
        gaps.append(psnr_vs(x, est_m) - psnr_vs(x, est_u))
    assert float(np.mean(gaps)) >= 0.0


def test_uwt_report_names_every_atom():
    y = sample_chi2(np.full((16, 16), 20.0), 2.0, seed=2).samples
    est, report = uwt_curelet_denoise(y, 2.0, J=2)
    bank = haar_uwt_bank(2)
    n_high = len(bank.bands) - 1  # all but the lowpass band 0
    assert len(report.per_band) == 1 + 2 * n_high
    assert est.shape == y.shape
    assert np.isfinite(report.cure)


@pytest.mark.parametrize("sigma", [10.0, 50.0])
@pytest.mark.parametrize("transform", ["haar-uwt", "bdct", "mixed"])
def test_uwt_fit_matches_filterbank_evaluator(transform, sigma):
    # the returned risk and estimate must be what the filterbank evaluator
    # gives for the reported weights; "mixed" is checked as one bank
    # holding both banks' bands, each bank's band 0 a lowpass
    y, K = rescaled_shepp_logan(64, sigma)
    est, report = uwt_curelet_denoise(y, K, transform=transform)
    banks = {"haar-uwt": [haar_uwt_bank(3)], "bdct": [bdct8_bank()],
             "mixed": [haar_uwt_bank(3), bdct8_bank()]}[transform]
    bank = FilterBank(transform, [band for b in banks for band in b.bands])
    bank_names = [b.name for b in banks for _ in b.bands]

    def reported_weights(atoms):
        keys = [f"{bank_names[i]}/{label}" for i, label in atoms]
        assert keys == list(report.per_band)
        return [report.per_band[key] for key in keys]

    evs = pointwise_let_evaluations(banks, y, K, reported_weights)
    assert report.cure == pytest.approx(
        cure_filterbank_divergence(y, K, evs, bank), rel=1e-10, abs=0.0)
    ref = synthesize(bank, [ev.theta for ev in evs])
    np.testing.assert_allclose(est, ref, rtol=0.0,
                               atol=1e-10 * float(np.abs(ref).max()))


def test_uwt_mixed_keeps_only_the_row_matrix():
    # the default method's traced peak stays within twice its
    # (atoms x pixels) row matrix: no band's fields or atoms outlive it
    y, K = rescaled_shepp_logan(128, 20.0)
    n_atoms = 1 + 2 * 9 + 1 + 2 * 63
    tracemalloc.start()
    try:
        _, report = uwt_curelet_denoise(y, K, transform="mixed")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.per_band) == n_atoms
    assert peak <= 2 * n_atoms * y.size * 8


def test_uwt_mixed_holds_one_tile_of_band_buffers():
    # at 256^2 each band is walked and fitted in row tiles of BAND_STACK
    # coefficients, and the thetas go straight into the row matrix: the traced
    # peak stays within that matrix and 100 tile-sized fields (a walk and LET
    # of whole bands held 39 MiB above it)
    y, K = rescaled_shepp_logan(256, 20.0)
    n_atoms = 1 + 2 * 9 + 1 + 2 * 63
    tracemalloc.start()
    try:
        uwt_curelet_denoise(y, K, transform="mixed")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = n_atoms * y.shape[0] * 2 * (y.shape[1] // 2 + 1) * 8
    assert peak <= rows + 100 * transforms.BAND_STACK * 8


def shepp_logan_512_crop(rows, cols):
    y, K = rescaled_shepp_logan(512, 20.0)
    return y[:rows, :cols].copy(), K


TILED = {"256x256": partial(rescaled_shepp_logan, 256, 20.0),
         "300x260": partial(shepp_logan_512_crop, 300, 260),
         "511x383": partial(shepp_logan_512_crop, 511, 383)}


@pytest.mark.parametrize("data, transform, J", [
    (data, transform, 3) for data in TILED.values() for transform in ("haar-uwt", "mixed")]
    + [(TILED["256x256"], "haar-uwt", 4)],
    ids=[f"{shape}-{transform}" for shape in TILED for transform in ("haar-uwt", "mixed")]
    + ["256x256-haar-uwt-J4"])
def test_uwt_row_tiles_match_one_tile(data, transform, J, monkeypatch):
    # bands above transforms.TILE coefficients are walked and fitted in row
    # tiles (4, 5 and 13 here), on the direct walk (J = 3) and the FFT walk
    # (J = 4) alike, their divergence dots summed over the tiles and their
    # thetas written into the row matrix; a budget of one band's
    # coefficients walks each band whole, one yield per band. Only summation
    # order may differ
    y, K = data()
    est, report = uwt_curelet_denoise(y, K, transform=transform, J=J)
    assert y.size > transforms.TILE
    walk, yields = FilterBank.walk, []

    def counting(bank, y):
        for stack in walk(bank, y):
            yields.append(stack[0])
            yield stack

    monkeypatch.setattr(FilterBank, "walk", counting)
    monkeypatch.setattr(transforms, "TILE", y.size)
    whole, whole_report = uwt_curelet_denoise(y, K, transform=transform, J=J)
    assert yields == [[i] for i in range(1 + 3 * J)] + [[i] for i in range(64)] * (
        transform == "mixed")
    np.testing.assert_allclose(est, whole, rtol=0.0, atol=1e-12 * float(np.abs(whole).max()))
    assert report.cure == pytest.approx(whole_report.cure, rel=1e-12, abs=0.0)
    assert list(report.per_band) == list(whole_report.per_band)
    weights, whole_weights = (np.array(list(r.per_band.values())) for r in (report, whole_report))
    np.testing.assert_allclose(weights, whole_weights, rtol=0.0,
                               atol=1e-10 * float(np.abs(whole_weights).max()))


def image_domain_fit(banks, y, K):
    """The risk minimizer fitted in the image domain: every atom of
    uwt_curelet_denoise's expansion, built by the reference atom and
    synthesized to the image domain (field_of_rows of its synthesis_rows),
    is one row of an (atoms x pixels) matrix; _fit_expansion solves on
    those rows and y - K, and the cure comes from the image-domain
    residual."""
    rows, div = [], []
    for bank in banks:
        for i, (band, fields, w, wbar) in enumerate(zip(
                bank.bands, band_divergence_fields(y, K, bank), analyze(bank, y),
                analyze(bank, y, 2))):
            if i == 0:  # the lowpass band
                evs = [SubbandEvaluation(theta=w - float(taps(band).sum()) * K, d1=1.0, d2=0.0,
                                         d11=0.0, d22=0.0, d12=0.0)]
            else:
                evs = [let_atom_pointwise(w, wbar, lam) for lam in shrinkage.LAMBDAS]
            rows += [FilterBank.field_of_rows(bank.synthesis_rows([i], ev.theta[None])[0],
                                              y.shape).ravel() for ev in evs]
            div += [atom_divergence(fields, ev) for ev in evs]
    rows, div, target = np.array(rows), np.array(div), (y - K).ravel()
    (a,), (estimate,) = shrinkage._fit_expansion(rows[None], target[None], div[None])
    return a, estimate.reshape(y.shape), cure_expression(estimate - target, float(a @ div),
                                                         y - K / 2)


def piecewise_1d(n, seed):
    x = np.repeat([40.0, 400.0, 90.0, 900.0], -(-n // 4))[:n]
    return sample_chi2(x, 2.0, seed=seed).samples, 2.0


def shepp_logan_crop(rows, cols):
    y, K = rescaled_shepp_logan(128, 20.0)
    return y[:rows, :cols], K


@pytest.mark.parametrize("transform, data", [
    ("haar-uwt", partial(shepp_logan_crop, 64, 64)),
    ("mixed", partial(shepp_logan_crop, 64, 64)),
    ("haar-uwt", partial(shepp_logan_crop, 117, 93)),
    ("mixed", partial(shepp_logan_crop, 117, 93)),
    ("haar-uwt", partial(shepp_logan_crop, 120, 100)),
    ("mixed", partial(shepp_logan_crop, 120, 100)),
    ("haar-uwt", partial(piecewise_1d, 37, 5)),
    ("haar-uwt", partial(piecewise_1d, 64, 6)),
], ids=["haar-64x64", "mixed-64x64", "haar-117x93", "mixed-117x93", "haar-120x100",
        "mixed-120x100", "haar-1d-37", "haar-1d-64"])
def test_uwt_fit_is_the_image_domain_risk_minimizer(transform, data):
    # the half-spectrum rows must give the Gram and right-hand side of the
    # image-domain rows: same weights, estimate and cure; a wrong Parseval
    # weight on the DC or Nyquist column moves all three
    y, K = data()
    est, report = uwt_curelet_denoise(y, K, transform=transform)
    banks = [haar_uwt_bank(3, ndim=y.ndim)] + ([bdct8_bank()] if transform == "mixed" else [])
    a, ref, cure = image_domain_fit(banks, y, K)
    weights = np.array(list(report.per_band.values()))
    np.testing.assert_allclose(weights, a, rtol=0.0, atol=1e-8 * float(np.abs(a).max()))
    np.testing.assert_allclose(est, ref, rtol=0.0, atol=1e-10 * float(np.abs(ref).max()))
    assert report.cure == pytest.approx(cure, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("transform, data, J", [
    ("mixed", partial(shepp_logan_crop, 64, 64), 3),
    ("mixed", partial(shepp_logan_crop, 128, 128), 3),
    ("mixed", partial(shepp_logan_crop, 117, 93), 3),
    ("haar-uwt", partial(piecewise_1d, 64, 6), 3),
    ("haar-uwt", partial(shepp_logan_crop, 128, 128), 4),
    ("mixed", partial(shepp_logan_crop, 64, 64), 4),
], ids=["mixed-64x64", "mixed-128x128", "mixed-117x93", "haar-1d-64", "haar-J4-128x128",
        "mixed-J4-64x64"])
def test_uwt_band_stacks_match_one_band_per_stack(transform, data, J, monkeypatch):
    # every step of a stack is per item, and the divergence is formed per
    # unit synthesis gain, a power of two, so stacking bands moves no bit:
    # the direct walk (J = 3) and the FFT walk with the Haar pick (J = 4).
    # A budget of one band's coefficients gives one band per stack, untiled
    y, K = data()
    est, report = uwt_curelet_denoise(y, K, transform=transform, J=J)
    assert transforms.BAND_STACK // y.size >= 2  # some stack holds two bands or more
    monkeypatch.setattr(transforms, "BAND_STACK", y.size)
    alone, alone_report = uwt_curelet_denoise(y, K, transform=transform, J=J)
    np.testing.assert_array_equal(est, alone)
    assert report.cure == alone_report.cure
    assert report.per_band == alone_report.per_band


@pytest.mark.parametrize("transform", ["haar-uwt", "bdct"])
def test_uwt_keep_ratio_reads_v_before_of_band_shifts_it(transform, monkeypatch):
    # of_band subtracts z1's K/2 offset in place in the walk's variance
    # rows, which the keep ratio reads first: an of_band that shifts a copy
    # instead must move no bit
    y, K = shepp_logan_crop(64, 64)
    est, report = uwt_curelet_denoise(y, K, transform=transform)
    of_band = BandDivergenceFields.of_band
    monkeypatch.setattr(BandDivergenceFields, "of_band", classmethod(
        lambda cls, sums, K, corr, out=None: of_band(sums, K, corr.copy(), out)))
    copied, copied_report = uwt_curelet_denoise(y, K, transform=transform)
    np.testing.assert_array_equal(est, copied)
    assert report.cure == copied_report.cure
    assert report.per_band == copied_report.per_band


@pytest.mark.parametrize("transform", ["haar-uwt", "bdct", "mixed"])
def test_uwt_denoise_makes_one_inverse_transform(transform, monkeypatch):
    # the fit runs on half spectra, so only its result goes back to the
    # image domain
    calls = []
    irfftn = np.fft.irfftn

    def counting(*args, **kwargs):
        calls.append(1)
        return irfftn(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfftn", counting)
    y, K = rescaled_shepp_logan(32, 20.0)
    uwt_curelet_denoise(y, K, transform=transform)
    assert len(calls) == 1


def test_uwt_denoise_forms_each_band_taps_once(monkeypatch):
    # the tap facts the fit needs (tap sums, the Haar magnitudes) are read
    # off each bank's factor-power tables, whose constructor sums every
    # band's factor powers 1..3 once per axis; no walk sums them again, and
    # the builders cache their banks, so a second call builds none
    y, K = rescaled_shepp_logan(32, 20.0)
    bands = len(haar_uwt_bank(3).bands) + len(bdct8_bank().bands)
    calls = []

    def counting(values):
        calls.append(1)
        return math.fsum(values)

    monkeypatch.setattr(transforms, "math", SimpleNamespace(fsum=counting, prod=math.prod))
    haar_uwt_bank.cache_clear()
    bdct8_bank.cache_clear()
    uwt_curelet_denoise(y, K, transform="mixed", J=3)
    assert len(calls) == y.ndim * 3 * bands == 444
    uwt_curelet_denoise(y, K, transform="mixed", J=3)
    assert len(calls) == 444


# ------------------------------------------------------- pyramid denoisers


def test_haar_denoise_pure_noise_mean_near_zero():
    for seed in (900, 901, 902):
        y = sample_chi2(np.zeros((64, 64)), 2.0, seed=seed).samples
        est, report = haar_curelet_denoise(y, 2.0)
        assert abs(float(est.mean())) < 0.15


def test_haar_denoise_noiseless_roundtrip():
    # noise-free observation of a dyadic-blocky field: keep factors
    # saturate and the expansion reproduces the input almost exactly
    rng = rng_of(42)
    x = np.kron(rng.uniform(50.0, 255.0, (8, 8)), np.ones((8, 8))) * 10.0
    est, report = haar_curelet_denoise(x + 2.0, 2.0)
    assert psnr_vs(x, est) >= 60.0


def test_haar_denoise_beats_plain_soft_threshold():
    mu = make_phantom("shepp-logan", 128)
    for sigma in (10.0, 50.0):
        gaps = []
        for seed in (7000, 7001):
            m = sample_rician(mu, sigma, seed=seed)
            field = rescale_squared(m, sigma)
            y = field.samples.reshape(mu.shape)
            est_h, _ = haar_curelet_denoise(y, field.dof)
            est_c, _ = cureshrink_denoise(y, field.dof)
            gap = psnr_vs(mu, reconstruct_magnitude(est_h, sigma)) \
                - psnr_vs(mu, reconstruct_magnitude(est_c, sigma))
            gaps.append(gap)
        assert float(np.mean(gaps)) >= 0.5


@pytest.mark.parametrize("sigma", [10.0, 50.0])
def test_haar_fit_matches_subband_evaluator(sigma):
    # every subband's reported risk is cure_subband of the expansion whose
    # weights solve the written-out normal equations
    y, K = rescaled_shepp_logan(64, sigma)
    est, report = haar_curelet_denoise(y, K, J=2)
    s = y
    for j in (1, 2):
        s, details = haar_step(s)
        kj = 4 ** j * K
        for orient, w in details.items():
            atoms = joint_let_atoms(w, s, parent_field(s, orient))
            a = subband_normal_weights(w, s, kj, atoms)
            expected = cure_subband(w, s, kj, combine_evaluations(atoms, a))
            assert report.per_band[f"{orient}{j}"] == pytest.approx(
                expected, rel=1e-10, abs=0.0)


def test_pyramid_denoisers_reject_negative_data():
    with pytest.raises(ValueError):
        cureshrink_denoise(-np.ones((8, 8)), 2.0)
    with pytest.raises(ValueError):
        haar_curelet_denoise(-np.ones((8, 8)), 2.0)


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("denoise", [
    uwt_curelet_denoise,
    partial(uwt_curelet_denoise, transform="mixed"),
    haar_curelet_denoise,
    cureshrink_denoise,
], ids=["uwt", "uwt-mixed", "haar", "cureshrink"])
def test_denoisers_reject_non_finite_data(denoise, bad):
    y = np.full((16, 16), 3.0)
    y[5, 7] = bad
    with pytest.raises(ValueError, match="data must be finite"):
        denoise(y, 2.0)


@pytest.mark.parametrize("lambdas", [(), (-1.0, 3.0), (0.0,), (3.0, np.nan), (np.inf,)],
                         ids=["empty", "negative", "zero", "nan", "inf"])
@pytest.mark.parametrize("denoise", [uwt_curelet_denoise, haar_curelet_denoise],
                         ids=["uwt", "haar"])
def test_denoisers_reject_bad_lambdas(denoise, lambdas):
    # a negative lambda once gave a finite but meaningless cure, and no
    # lambda at all failed deep inside the expansion
    with pytest.raises(ValueError, match="lambdas"):
        denoise(*rescaled_shepp_logan(64, 20.0, seed=0), lambdas=lambdas)


def test_uwt_denoise_names_the_band_whose_divergence_overflows():
    # finite data whose squares overflow: the fused kernel's divergence is
    # not finite, and the error says which band it came from
    y = rng_of(43).uniform(0.0, 1e200, size=(16, 16))
    with np.errstate(all="ignore"), pytest.raises(ValueError, match=r"band haar-uwt-J3-2d/lh1 "):
        uwt_curelet_denoise(y, 2.0)


def spun_passes(y, spins):
    """The spun average written out: roll y by each distinct shift of
    SPIN_SHIFTS[:spins] truncated to y's axes, denoise once, roll back.
    Returns the average and each pass's cure and per_band."""
    axes = tuple(range(y.ndim))
    shifts = {shift[:y.ndim] for shift in SPIN_SHIFTS[:spins]}
    out, cures, bands = np.zeros_like(y), [], []
    for sh in shifts:
        est, report = haar_curelet_denoise(np.roll(y, sh, axis=axes), 2.0, J=2)
        out += np.roll(est, tuple(-v for v in sh), axis=axes)
        cures.append(report.cure)
        bands.append(report.per_band)
    return out / len(shifts), cures, bands


def assert_rel_close(got, want, rel=1e-12):
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


def noisy_uniform(shape, seed):
    x = rng_of(seed).uniform(0.0, 60.0, size=shape)
    return sample_chi2(x, 2.0, seed=seed).samples.reshape(shape)


@pytest.mark.parametrize("shape", [(16, 16), (64,)], ids=["2d", "1d"])
@pytest.mark.parametrize("spins", SPIN_COUNTS)
def test_haar_spins_average_the_rolled_passes(shape, spins):
    # shared level-1 fits are roll-equivariant up to rounding; a wrong roll
    # sign would be an O(1) error
    y = noisy_uniform(shape, spins)
    out, cures, bands = spun_passes(y, spins)
    est, report = haar_curelet_denoise(y, 2.0, J=2, spins=spins)
    assert_rel_close(est, out)
    assert report.cure == pytest.approx(np.mean(cures), rel=1e-12, abs=0.0)
    assert report.per_band == pytest.approx(
        {k: np.mean([b[k] for b in bands]) for k in bands[0]}, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("spins", [8, 16])
def test_haar_1d_spins_weight_each_distinct_shift_once(spins):
    # a 1-D schedule truncates to the four shifts 0..3, each counted once
    y = noisy_uniform((64,), 5)
    est4, report4 = haar_curelet_denoise(y, 2.0, J=2, spins=4)
    est, report = haar_curelet_denoise(y, 2.0, J=2, spins=spins)
    assert_rel_close(est, est4)
    assert report.cure == pytest.approx(report4.cure, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("spins", [4, 16])
def test_haar_spins_cycle_one_padded_field(spins):
    # a non-dyadic input is padded once and every spin rolls that padded
    # field, so the result is the crop of the spun padded field
    y = noisy_uniform((18, 14), 7)
    yp = np.pad(y, [(0, 2), (0, 2)], mode="wrap")
    out, cures, _ = spun_passes(yp, spins)
    est, report = haar_curelet_denoise(y, 2.0, J=2, spins=spins)
    assert_rel_close(est, out[:18, :14])
    assert report.cure == pytest.approx(np.mean(cures), rel=1e-12, abs=0.0)


def test_haar_single_pass_on_a_non_dyadic_shape_is_the_padded_crop():
    y = noisy_uniform((18, 14), 7)
    yp = np.pad(y, [(0, 2), (0, 2)], mode="wrap")
    est, _ = haar_curelet_denoise(y, 2.0, J=2)
    assert np.array_equal(est, haar_curelet_denoise(yp, 2.0, J=2)[0][:18, :14])


def test_haar_spins_fit_each_level1_subband_once_per_shift_residue(monkeypatch):
    # level 1 is fitted once per shift mod 2 and orientation; here each
    # level-2 residue holds one shift, so coarser levels are fitted once per
    # spin. calls counts the fitted stacks, each item one subband
    calls = []
    fit = shrinkage._fit_expansion

    def counting(rows, *args):
        calls.append(len(rows))
        return fit(rows, *args)

    monkeypatch.setattr(shrinkage, "_fit_expansion", counting)
    haar_curelet_denoise(noisy_uniform((32, 32), 3), 2.0, J=3, spins=16)
    assert sum(calls) == 4 * 3 + 16 * 3 * 2
    calls.clear()
    haar_curelet_denoise(noisy_uniform((64,), 3), 2.0, J=2, spins=16)
    assert sum(calls) == 2 + 4


def test_haar_spins_unroll_the_stored_level1_fit(monkeypatch):
    # reversed, the schedule meets each shift residue first at q != 0, and
    # the shift-weighted sums of the recursion over levels add in another order
    y = noisy_uniform((16, 16), 11)
    out, _, _ = spun_passes(y, 16)
    monkeypatch.setattr(shrinkage, "SPIN_SHIFTS", SPIN_SHIFTS[::-1])
    assert_rel_close(haar_curelet_denoise(y, 2.0, J=2, spins=16)[0], out)


@pytest.mark.parametrize("spins, steps", [(1, 3), (4, 10), (8, 20), (16, 36)])
def test_haar_spins_share_each_level_step_across_shifts(monkeypatch, spins, steps):
    # shifts r + 2q share the level step of their residue r, and recurse
    # with q; one step per shift and level would make 3 spins steps
    calls = []
    step = shrinkage.haar_step

    def counting(c):
        calls.append(c.shape)
        return step(c)

    monkeypatch.setattr(shrinkage, "haar_step", counting)
    haar_curelet_denoise(noisy_uniform((32, 32), 3), 2.0, J=3, spins=spins)
    assert len(calls) == steps


@pytest.mark.parametrize("spins, smoothings", [(1, 3), (16, 36)])
def test_haar_smooths_each_level_steps_sums_once(monkeypatch, spins, smoothings):
    # gamma(s) is shared by a level step's orientations: one smoothing of
    # s per subband would make 3 per step
    sums, smoothed = [], []
    step, gamma = shrinkage.haar_step, shrinkage._gamma_fields

    def stepping(c):
        s, details = step(c)
        sums.append(s)
        return s, details

    def smoothing(u, g1, delta=None):
        smoothed.extend(item for item in u if any(
            item.shape == s.shape and np.array_equal(item, s) for s in sums))
        return gamma(u, g1, delta)

    monkeypatch.setattr(shrinkage, "haar_step", stepping)
    monkeypatch.setattr(shrinkage, "_gamma_fields", smoothing)
    haar_curelet_denoise(noisy_uniform((32, 32), 3), 2.0, J=3, spins=spins)
    assert len(smoothed) == smoothings


def test_haar_forms_gamma_derivatives_of_the_sums_alone(monkeypatch):
    # the parent needs gamma(p) only: every stack whose derivatives are
    # formed holds level-step sums
    sums, stacks = [], []
    step, gamma = shrinkage.haar_step, shrinkage._gamma_fields

    def stepping(c):
        s, details = step(c)
        sums.append(s)
        return s, details

    def smoothing(u, g1, delta=None):
        stacks.append(all(any(np.array_equal(item, s) for s in sums) for item in u))
        return gamma(u, g1, delta)

    monkeypatch.setattr(shrinkage, "haar_step", stepping)
    monkeypatch.setattr(shrinkage, "_gamma_fields", smoothing)
    haar_curelet_denoise(noisy_uniform((32, 32), 3), 2.0, J=3, spins=4)
    assert stacks and all(stacks)


def test_haar_solves_each_stack_with_one_batched_eigh(monkeypatch):
    # a stack holds at most the larger of transforms.TILE and one level-1
    # subband's coefficients: at 32x32 each level's subbands in one stack;
    # at 256x256 (a level-1 subband of 2^14) the twelve 128x128 subbands
    # one at a time, the 48 64x64 ones four at a time and the 48 32x32 ones
    # sixteen at a time
    stacks = []
    eigh = np.linalg.eigh

    def counting(M):
        stacks.append(M.shape[:-2])
        return eigh(M)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    haar_curelet_denoise(noisy_uniform((32, 32), 3), 2.0, J=3, spins=16)
    assert stacks == [(12,), (48,), (48,)]
    stacks.clear()
    haar_curelet_denoise(noisy_uniform((256, 256), 3), 2.0, J=3, spins=16)
    assert stacks == [(1,)] * 12 + [(4,)] * 12 + [(16,)] * 3


@pytest.mark.parametrize("shape", [(32, 32), (128, 128), (1024,)], ids=["32", "128", "1d"])
@pytest.mark.parametrize("spins", [1, 16])
def test_haar_stack_size_leaves_the_outputs_unchanged(monkeypatch, shape, spins):
    # every kernel of a stacked fit works per item, so a stack of one
    # subband per fit (transforms.TILE = 1) gives the same bits
    y = noisy_uniform(shape, 5)
    estimate, report = haar_curelet_denoise(y, 2.0, J=3, spins=spins)
    monkeypatch.setattr(transforms, "TILE", 1)
    single, single_report = haar_curelet_denoise(y, 2.0, J=3, spins=spins)
    assert np.array_equal(estimate, single)
    assert report.cure == single_report.cure
    assert report.per_band == single_report.per_band


def test_haar_spins_work_within_a_bounded_working_set():
    # the shared workspace is one stack of at most a level-1 subband, and
    # each field is released once stepped: the spun 256x256 call peaks
    # near 18 times its input
    y = noisy_uniform((256, 256), 9)
    tracemalloc.start()
    try:
        haar_curelet_denoise(y, 2.0, J=3, spins=16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 20 * y.nbytes


@pytest.mark.parametrize("denoise", [haar_curelet_denoise, cureshrink_denoise],
                         ids=["haar", "cureshrink"])
def test_pyramid_denoisers_reject_data_that_is_not_1d_or_2d(denoise):
    # a 3-D field once failed in a numpy broadcast deep in the pyramid
    with pytest.raises(ValueError, match="3-D"):
        denoise(np.ones((8, 8, 8)), 2.0, J=1)


ALL_DENOISERS = [cureshrink_denoise, haar_curelet_denoise, uwt_curelet_denoise,
                 partial(uwt_curelet_denoise, transform="mixed")]
ALL_DENOISER_IDS = ["cureshrink", "haar", "uwt", "mixed"]


@pytest.mark.parametrize("J", [0, -1, 2.5])
@pytest.mark.parametrize("denoise", ALL_DENOISERS, ids=ALL_DENOISER_IDS)
def test_denoisers_reject_levels_that_are_not_a_whole_positive_number(denoise, J):
    # J <= 0 once returned y - K undenoised with a cure, and J = 2.5 failed in np.pad
    with pytest.raises(ValueError, match=f"J={J}"):
        denoise(noisy_uniform((16, 16), 5), 2.0, J=J)


@pytest.mark.parametrize("J", [True, np.True_])
def test_a_bool_is_not_a_level_count(J):
    # True once ran as J = 1 through the level check, and haar_uwt_bank built
    # "haar-uwt-JTrue-2d"; one rule refuses it in both places
    with pytest.raises(ValueError, match="whole number"):
        shrinkage._check_levels((16, 16), J)
    with pytest.raises(ValueError, match="whole number"):
        haar_uwt_bank(J)
    with pytest.raises(ValueError, match="whole number"):
        uwt_curelet_denoise(noisy_uniform((16, 16), 5), 2.0, J=J)


def test_pyramid_lowpass_risk_is_formed_by_cure_expression(monkeypatch):
    # the last sums' risk 4 sum(s - K_J/2) / N comes from the risk module's one
    # expression (no residual, div = sum(s - K_J/2)), bit for bit the same value
    calls = []

    def spy(resid, div, half):
        calls.append(resid.copy())
        return cure_expression(resid, div, half)

    monkeypatch.setattr(shrinkage, "cure_expression", spy)
    c = sample_chi2(np.full((8, 8), 5.0), 32.0, seed=3).samples
    (estimate, risk, per_band), = shrinkage._pyramid_levels([c.copy()], 32.0, 3, 2, None, [[(0, 0)]])
    assert len(calls) == 1 and calls[0].shape == (c.size,) and not calls[0].any()
    assert risk == per_band["lowpass"] == 4.0 * float((c - 16.0).sum()) / c.size
    np.testing.assert_array_equal(estimate, c - 32.0)


def test_uwt_takes_a_whole_float_J():
    # the Haar pyramid took J = 2.0, while haar_uwt_bank raised a TypeError
    y = noisy_uniform((16, 16), 6)
    np.testing.assert_array_equal(uwt_curelet_denoise(y, 2.0, J=2.0)[0],
                                  uwt_curelet_denoise(y, 2.0, J=2)[0])


@pytest.mark.parametrize("K", [-1.0, 0.0, np.nan, np.inf])
@pytest.mark.parametrize("denoise", ALL_DENOISERS[:3], ids=ALL_DENOISER_IDS[:3])
def test_denoisers_reject_a_dof_that_is_not_finite_and_positive(denoise, K):
    # K <= 0 once gave an estimate and a cure; nan failed deep in the weight solve
    with pytest.raises(ValueError, match="K="):
        denoise(noisy_uniform((16, 16), 5), K, J=2)


@pytest.mark.parametrize("denoise", [partial(haar_curelet_denoise, spins=16), cureshrink_denoise],
                         ids=["haar", "cureshrink"])
def test_pyramid_denoisers_leave_no_reference_cycle(denoise):
    # a level recursion through a closure over itself kept each call's
    # subband buffers alive until the cycle collector ran, so a loop of
    # 256x256 haar-cs16 calls grew its peak RSS by about 1.4 MB per call
    y = noisy_uniform((32, 32), 3)
    gc.collect()
    gc.disable()
    try:
        denoise(y, 2.0, J=2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_haar_spins_must_prefix_the_shift_schedule():
    # True == 1, but a bool is no spin count
    for spins in (3, True):
        with pytest.raises(ValueError, match="spins"):
            haar_curelet_denoise(np.ones((8, 8)), 2.0, J=1, spins=spins)


def test_haar_denoise_report_structure():
    y = sample_chi2(np.full((32, 32), 30.0), 2.0, seed=6).samples
    est, report = haar_curelet_denoise(y, 2.0, J=2)
    expected = {"lh1", "hl1", "hh1", "lh2", "hl2", "hh2", "lowpass"}
    assert set(report.per_band) == expected
    assert est.shape == y.shape
