import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import hypothesis.extra.numpy as hnp

from curelet.chi2model import sample_chi2
from curelet import transforms as tr


PR_SIZES = [(8, 8), (16, 16), (64, 64), (17, 13)]


@pytest.mark.parametrize("shape", PR_SIZES)
@pytest.mark.parametrize("levels", [1, 2, 3])
def test_uwt_round_trip(shape, levels):
    rng = np.random.default_rng(levels * 100 + shape[0])
    y = rng.normal(size=shape)
    bank = tr.haar_uwt_bank(levels)
    assert np.max(np.abs(bank.synthesize(bank.analyze(y)) - y)) <= 1e-10


@pytest.mark.parametrize("shape", PR_SIZES)
def test_bdct_round_trip(shape, levels=None):
    if min(shape) < 8:
        pytest.skip("below minimum block size")
    rng = np.random.default_rng(shape[0])
    y = rng.normal(size=shape)
    bank = tr.bdct8_bank()
    assert np.max(np.abs(bank.synthesize(bank.analyze(y)) - y)) <= 1e-10


@pytest.mark.parametrize("shape", PR_SIZES)
@pytest.mark.parametrize("levels", [1, 2, 3])
def test_haar_dwt_round_trip(shape, levels):
    rng = np.random.default_rng(levels + shape[1])
    y = rng.normal(size=shape) ** 2
    pyr = tr.haar_dwt_analyze(y, levels)
    assert np.max(np.abs(tr.haar_dwt_synthesize(pyr) - y)) <= 1e-10


@pytest.mark.parametrize("bank", [tr.haar_uwt_bank(3), tr.haar_uwt_bank(2, ndim=1), tr.bdct8_bank()])
def test_band_norms_and_tap_sums(bank):
    for band in bank.bands:
        assert np.sqrt((band.taps ** 2).sum()) == pytest.approx(1.0, abs=1e-12)
        if band.kind == "highpass":
            assert band.tap_sum == pytest.approx(0.0, abs=1e-12)
    assert bank.bands[0].kind == "lowpass"


def test_uwt_constant_image():
    c = 3.0
    bank = tr.haar_uwt_bank(2)
    coeffs = bank.analyze(np.full((8, 8), c))
    # 2-D lowpass tap sum is 2^J, so the band carries 2^J * c
    np.testing.assert_allclose(coeffs[0], 4 * c, atol=1e-12)
    for w in coeffs[1:]:
        np.testing.assert_allclose(w, 0.0, atol=1e-12)


def test_uwt_level1_row_example():
    bank = tr.haar_uwt_bank(1, ndim=1)
    low, high = bank.analyze(np.array([3.0, 5.0]))
    assert high[0] == pytest.approx(np.sqrt(2.0))
    assert low[0] == pytest.approx(8.0 / np.sqrt(2.0))


def test_uwt_rejects_too_small_image():
    with pytest.raises(ValueError):
        tr.haar_uwt_bank(3).analyze(np.ones((4, 4)))


def test_bdct_rejects_small_image():
    with pytest.raises(ValueError):
        tr.bdct8_bank().analyze(np.ones((4, 4)))


def test_bdct_constant_image():
    c = 2.0
    coeffs = tr.bdct8_bank().analyze(np.full((8, 8), c))
    np.testing.assert_allclose(coeffs[0], 8 * c, atol=1e-10)
    for w in coeffs[1:]:
        np.testing.assert_allclose(w, 0.0, atol=1e-10)


def test_bdct_parseval():
    # tight frame with constant 64: sum of band energies = 64 * ||y||^2
    rng = np.random.default_rng(5)
    y = rng.normal(size=(8, 8))
    coeffs = tr.bdct8_bank().analyze(y)
    total = sum(float((w ** 2).sum()) for w in coeffs)
    assert total == pytest.approx(64 * float((y ** 2).sum()), rel=1e-12)


def test_variance_channel_examples():
    bank = tr.haar_uwt_bank(1, ndim=1)
    wbar = bank.analyze_variance(np.array([3.0, 5.0]))
    # squared taps are [1/2, 1/2]: wbar = 4 on both bands here
    assert wbar[1][0] == pytest.approx(4.0)
    # variance estimate 4(wbar - K/2) = 12 for K=2
    assert 4 * (wbar[1][0] - 1.0) == pytest.approx(12.0)
    const = tr.haar_uwt_bank(2).analyze_variance(np.full((8, 8), 7.0))
    for v in const:
        np.testing.assert_allclose(v, 7.0, atol=1e-12)


def test_variance_channel_monte_carlo():
    # empirical Var(w) matches 4(mean(wbar) - K/2) on every band
    x, K, M = 5.0, 2, 20_000
    bank = tr.haar_uwt_bank(1)
    y = sample_chi2(np.full((M, 8, 8), x), K=K, seed=77).samples
    Y = np.fft.rfft2(y, axes=(-2, -1))
    for i, band in enumerate(bank.bands):
        emb = np.zeros((8, 8))
        emb[: band.taps.shape[0], : band.taps.shape[1]] = band.taps
        W = np.fft.irfft2(Y * np.conj(np.fft.rfft2(emb))[None], s=(8, 8), axes=(-2, -1))
        emb2 = np.zeros((8, 8))
        emb2[: band.taps.shape[0], : band.taps.shape[1]] = band.taps ** 2
        Wbar = np.fft.irfft2(Y * np.conj(np.fft.rfft2(emb2))[None], s=(8, 8), axes=(-2, -1))
        # tie the batch path to the library path on one draw
        np.testing.assert_allclose(W[0], bank.analyze(y[0])[i], atol=1e-9)
        np.testing.assert_allclose(Wbar[0], bank.analyze_variance(y[0])[i], atol=1e-9)
        var_emp = W.var(axis=0)
        predicted = 4 * (Wbar.mean(axis=0) - K / 2)
        # SE of a sample variance from the empirical fourth moment
        centered = W - W.mean(axis=0)
        se = np.sqrt(((centered ** 4).mean(axis=0) - var_emp ** 2) / M)
        assert np.all(np.abs(var_emp - predicted) <= 6 * se + 1e-9)


def test_haar_dwt_1d_example():
    pyr = tr.haar_dwt_analyze(np.array([1.0, 3.0, 2.0, 2.0]), 1)
    np.testing.assert_allclose(pyr.smooth, [4.0, 4.0])
    np.testing.assert_allclose(pyr.detail[0]["w"], [2.0, 0.0])


def test_haar_dwt_2d_block_example():
    pyr = tr.haar_dwt_analyze(np.array([[1.0, 2.0], [3.0, 4.0]]), 1)
    assert pyr.smooth[0, 0] == pytest.approx(10.0)
    # the three zero-sum +-1 combinations of the block
    assert pyr.detail[0]["lh"][0, 0] == pytest.approx(4.0)
    assert pyr.detail[0]["hl"][0, 0] == pytest.approx(2.0)
    assert pyr.detail[0]["hh"][0, 0] == pytest.approx(0.0)
    np.testing.assert_allclose(tr.haar_dwt_synthesize(pyr), [[1.0, 2.0], [3.0, 4.0]])


def test_haar_dwt_zeroed_details_block_average():
    pyr = tr.haar_dwt_analyze(np.array([1.0, 3.0]), 1)
    pyr.detail[0]["w"][:] = 0.0
    np.testing.assert_allclose(tr.haar_dwt_synthesize(pyr), [2.0, 2.0])


def test_haar_dwt_dof_metadata():
    y = sample_chi2(np.full((8, 8), 2.0), K=2, seed=0)
    pyr = tr.haar_dwt_analyze(y, 2)
    assert pyr.dof0 == 2.0
    assert pyr.dof(1) == 8.0
    assert pyr.dof(2) == 32.0
    pyr1d = tr.haar_dwt_analyze(np.ones(8), 2)
    with pytest.raises(ValueError):
        pyr1d.dof(1)
    assert tr.haar_dwt_analyze(np.ones(8), 2, dof=2.0).dof(2) == 8.0


def test_haar_dwt_lowpass_bias_removal_pure_noise():
    # x = 0: removing 4^J K from s^J leaves a zero-mean residual
    K, J = 2, 2
    y = sample_chi2(np.zeros((64, 64)), K=K, seed=3)
    pyr = tr.haar_dwt_analyze(y, J)
    resid = pyr.smooth - 4.0 ** J * K
    se = resid.std() / np.sqrt(resid.size)
    assert abs(resid.mean()) <= 4 * se


@pytest.mark.parametrize("j", [1, 2])
def test_haar_dwt_scaling_chi2_conservation_smoke(j):
    # s^j moments match a chi-square with dof 4^j K and block-summed x
    K, M = 2, 20_000
    rng = np.random.default_rng(8)
    x = rng.uniform(0.0, 10.0, size=(4, 4))
    y = sample_chi2(np.broadcast_to(x, (M, 4, 4)).copy(), K=K, seed=21).samples
    c = y
    xs = np.broadcast_to(x, (M, 4, 4)).copy()
    for _ in range(j):
        c = c[:, :, 0::2] + c[:, :, 1::2]
        c = c[:, 0::2, :] + c[:, 1::2, :]
        xs = xs[:, :, 0::2] + xs[:, :, 1::2]
        xs = xs[:, 0::2, :] + xs[:, 1::2, :]
    dof_j = 4.0 ** j * K
    mean_pred = xs[0] + dof_j
    se = c.std(axis=0) / np.sqrt(M)
    assert np.all(np.abs(c.mean(axis=0) - mean_pred) <= 4 * se + 1e-9)
    var_pred = 2 * dof_j + 4 * xs[0]
    centered = c - c.mean(axis=0)
    se_var = np.sqrt(((centered ** 4).mean(axis=0) - c.var(axis=0) ** 2) / M)
    assert np.all(np.abs(c.var(axis=0) - var_pred) <= 5 * se_var)


def test_parent_field_examples():
    np.testing.assert_allclose(tr.parent_field(np.array([1.0, 2, 3, 4]), "w"), [-2, 2, 2, -2])
    np.testing.assert_allclose(tr.parent_field(np.full((4, 4), 3.0), "hl"), 0.0)
    ramp = np.arange(8.0)
    p = tr.parent_field(ramp, "w")
    np.testing.assert_allclose(p[1:-1], 2.0)


def test_parent_field_orientations():
    s = np.arange(16.0).reshape(4, 4)
    p_hl = tr.parent_field(s, "hl")
    p_lh = tr.parent_field(s, "lh")
    p_hh = tr.parent_field(s, "hh")
    # interior columns differ by 1 per step along axis 1, rows by 4
    assert p_hl[0, 1] == pytest.approx(2.0)
    assert p_lh[1, 0] == pytest.approx(8.0)
    assert p_hh[1, 1] == pytest.approx(10.0)
    with pytest.raises(ValueError):
        tr.parent_field(s, "xx")


def test_cycle_spin_single_is_plain():
    rng = np.random.default_rng(4)
    y = rng.uniform(1, 10, size=(8, 8))
    denoise = lambda z, K: z * 0.5
    np.testing.assert_allclose(tr.cycle_spin(y, 2, denoise, 1), denoise(y, 2))


def test_cycle_spin_shift_invariant_denoiser():
    rng = np.random.default_rng(9)
    y = rng.uniform(1, 10, size=(8, 8))
    denoise = lambda z, K: z - z.mean()  # commutes with periodic shifts
    base = tr.cycle_spin(y, 2, denoise, 1)
    for n in (4, 8, 16):
        np.testing.assert_allclose(tr.cycle_spin(y, 2, denoise, n), base, atol=1e-12)


def test_cycle_spin_rejects_bad_count():
    with pytest.raises(ValueError):
        tr.cycle_spin(np.ones((8, 8)), 2, lambda z, K: z, 3)


def test_spin_shift_schedule():
    assert tr.SPIN_SHIFTS[:4] == ((0, 0), (1, 1), (2, 2), (3, 3))
    assert len(tr.SPIN_SHIFTS) == 16
    assert len(set(tr.SPIN_SHIFTS)) == 16
    assert all(0 <= a < 4 and 0 <= b < 4 for a, b in tr.SPIN_SHIFTS)


@given(
    y=hnp.arrays(np.float64, (8, 8), elements=st.floats(-100, 100)),
    levels=st.integers(1, 3),
)
@settings(max_examples=25, deadline=None)
def test_uwt_round_trip_property(y, levels):
    bank = tr.haar_uwt_bank(levels)
    np.testing.assert_allclose(bank.synthesize(bank.analyze(y)), y, atol=1e-9)


@given(
    y=hnp.arrays(np.float64, (6, 10), elements=st.floats(0, 1000)),
    levels=st.integers(1, 2),
)
@settings(max_examples=25, deadline=None)
def test_haar_dwt_round_trip_property(y, levels):
    pyr = tr.haar_dwt_analyze(y, levels)
    np.testing.assert_allclose(tr.haar_dwt_synthesize(pyr), y, atol=1e-9)


@pytest.mark.parametrize("bank", [tr.haar_uwt_bank(2), tr.haar_uwt_bank(2, ndim=1), tr.bdct8_bank()],
                         ids=["haar-2d", "haar-1d", "bdct8"])
def test_band_synthesis_is_scaled_adjoint_and_stacks(bank):
    rng = np.random.default_rng(13)
    shape = (12, 10)[: bank.bands[0].taps.ndim]
    y = rng.normal(size=shape)
    z = rng.normal(size=(3,) + shape)
    for i, (band, w) in enumerate(zip(bank.bands, bank.analyze(y))):
        # <R_i z, y> == g_i <z, A_i y>
        lhs = float((bank.synthesize_band(i, z[0]) * y).sum())
        rhs = band.synth_gain * float((z[0] * w).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        stacked = bank.synthesize_band(i, z)
        assert stacked.shape == z.shape
        for k in range(len(z)):
            np.testing.assert_allclose(stacked[k], bank.synthesize_band(i, z[k]), rtol=0, atol=1e-14)
