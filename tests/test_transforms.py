import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import hypothesis.extra.numpy as hnp

from curelet.chi2model import sample_chi2
from curelet import transforms as tr

from oracles import analyze, pyramid_round_trip_error, synthesize


PR_SIZES = [(8, 8), (16, 16), (64, 64), (17, 13)]


@pytest.mark.parametrize("shape", PR_SIZES)
@pytest.mark.parametrize("levels", [1, 2, 3])
def test_uwt_round_trip(shape, levels):
    rng = np.random.default_rng(levels * 100 + shape[0])
    y = rng.normal(size=shape)
    bank = tr.haar_uwt_bank(levels)
    assert np.max(np.abs(synthesize(bank, analyze(bank, y)) - y)) <= 1e-10


@pytest.mark.parametrize("shape", PR_SIZES)
def test_bdct_round_trip(shape, levels=None):
    if min(shape) < 8:
        pytest.skip("below minimum block size")
    rng = np.random.default_rng(shape[0])
    y = rng.normal(size=shape)
    bank = tr.bdct8_bank()
    assert np.max(np.abs(synthesize(bank, analyze(bank, y)) - y)) <= 1e-10


@pytest.mark.parametrize("shape", PR_SIZES + [(100,), (37,)])
@pytest.mark.parametrize("levels", [1, 2, 3])
def test_haar_dwt_round_trip(shape, levels):
    # the pyramid the denoisers run, at every spin count, details kept
    rng = np.random.default_rng(levels + shape[-1])
    y = rng.normal(size=shape) ** 2
    assert pyramid_round_trip_error(y, levels) <= 1e-10


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
    coeffs = analyze(bank, np.full((8, 8), c))
    # 2-D lowpass tap sum is 2^J, so the band carries 2^J * c
    np.testing.assert_allclose(coeffs[0], 4 * c, atol=1e-12)
    for w in coeffs[1:]:
        np.testing.assert_allclose(w, 0.0, atol=1e-12)


def test_uwt_level1_row_example():
    bank = tr.haar_uwt_bank(1, ndim=1)
    low, high = analyze(bank, np.array([3.0, 5.0]))
    assert high[0] == pytest.approx(np.sqrt(2.0))
    assert low[0] == pytest.approx(8.0 / np.sqrt(2.0))


def test_uwt_rejects_too_small_image():
    with pytest.raises(ValueError):
        analyze(tr.haar_uwt_bank(3), np.ones((4, 4)))


def test_bdct_rejects_small_image():
    with pytest.raises(ValueError):
        analyze(tr.bdct8_bank(), np.ones((4, 4)))


def test_support_check_forms_no_band_taps():
    # twelve levels need a 4096-wide support: the check reads it off the
    # 1-D factors, where a band's 4096x4096 taps would take 134 MB
    bank = tr.haar_uwt_bank(12)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="smaller than filter support"):
            next(bank.walk(np.zeros((64, 64)), (1,)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_bdct_constant_image():
    c = 2.0
    coeffs = analyze(tr.bdct8_bank(), np.full((8, 8), c))
    np.testing.assert_allclose(coeffs[0], 8 * c, atol=1e-10)
    for w in coeffs[1:]:
        np.testing.assert_allclose(w, 0.0, atol=1e-10)


def test_bdct_parseval():
    # tight frame with constant 64: sum of band energies = 64 * ||y||^2
    rng = np.random.default_rng(5)
    y = rng.normal(size=(8, 8))
    coeffs = analyze(tr.bdct8_bank(), y)
    total = sum(float((w ** 2).sum()) for w in coeffs)
    assert total == pytest.approx(64 * float((y ** 2).sum()), rel=1e-12)


def test_variance_channel_examples():
    bank = tr.haar_uwt_bank(1, ndim=1)
    wbar = analyze(bank, np.array([3.0, 5.0]), 2)
    # squared taps are [1/2, 1/2]: wbar = 4 on both bands here
    assert wbar[1][0] == pytest.approx(4.0)
    # variance estimate 4(wbar - K/2) = 12 for K=2
    assert 4 * (wbar[1][0] - 1.0) == pytest.approx(12.0)
    const = analyze(tr.haar_uwt_bank(2), np.full((8, 8), 7.0), 2)
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
        np.testing.assert_allclose(W[0], analyze(bank, y[0])[i], atol=1e-9)
        np.testing.assert_allclose(Wbar[0], analyze(bank, y[0], 2)[i], atol=1e-9)
        var_emp = W.var(axis=0)
        predicted = 4 * (Wbar.mean(axis=0) - K / 2)
        # SE of a sample variance from the empirical fourth moment
        centered = W - W.mean(axis=0)
        se = np.sqrt(((centered ** 4).mean(axis=0) - var_emp ** 2) / M)
        assert np.all(np.abs(var_emp - predicted) <= 6 * se + 1e-9)


def test_haar_dwt_1d_example():
    s, details = tr.haar_step(np.array([1.0, 3.0, 2.0, 2.0]))
    np.testing.assert_allclose(s, [4.0, 4.0])
    np.testing.assert_allclose(details["w"], [2.0, 0.0])


def test_haar_dwt_2d_block_example():
    s, details = tr.haar_step(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert s[0, 0] == pytest.approx(10.0)
    # the three zero-sum +-1 combinations of the block
    assert details["lh"][0, 0] == pytest.approx(4.0)
    assert details["hl"][0, 0] == pytest.approx(2.0)
    assert details["hh"][0, 0] == pytest.approx(0.0)
    np.testing.assert_allclose(tr.haar_unstep(s, details), [[1.0, 2.0], [3.0, 4.0]])


def test_haar_dwt_zeroed_details_block_average():
    s, details = tr.haar_step(np.array([1.0, 3.0]))
    details["w"][:] = 0.0
    np.testing.assert_allclose(tr.haar_unstep(s, details), [2.0, 2.0])


@pytest.mark.parametrize("shape", [(3,), (5, 4), (4, 5)])
def test_haar_step_rejects_an_odd_side(shape):
    # an odd 1-D length once broadcast its last pair into a wrong, short result
    with pytest.raises(ValueError, match="even sides"):
        tr.haar_step(np.ones(shape))


def test_haar_dwt_lowpass_bias_removal_pure_noise():
    # x = 0: removing 4^J K from s^J leaves a zero-mean residual
    K, J = 2, 2
    s = sample_chi2(np.zeros((64, 64)), K=K, seed=3).samples
    for _ in range(J):
        s, _ = tr.haar_step(s)
    resid = s - 4.0 ** J * K
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
    np.testing.assert_allclose(synthesize(bank, analyze(bank, y)), y, atol=1e-9)


@given(
    y=hnp.arrays(np.float64, (6, 10), elements=st.floats(0, 1000)),
    levels=st.integers(1, 2),
)
@settings(max_examples=25, deadline=None)
def test_haar_dwt_round_trip_property(y, levels):
    assert pyramid_round_trip_error(y, levels) <= 1e-9


@pytest.mark.parametrize("bank", [tr.haar_uwt_bank(2), tr.haar_uwt_bank(2, ndim=1), tr.bdct8_bank()],
                         ids=["haar-2d", "haar-1d", "bdct8"])
def test_band_synthesis_is_scaled_adjoint_and_stacks(bank):
    rng = np.random.default_rng(13)
    shape = (12, 10)[: bank.bands[0].taps.ndim]
    y = rng.normal(size=shape)
    z = rng.normal(size=(3,) + shape)
    for i, (band, w) in enumerate(zip(bank.bands, analyze(bank, y))):
        # <R_i z, y> == g_i <z, A_i y>
        lhs = float((tr.FilterBank.field_of_rows(bank.synthesis_rows(i, z[0]), shape) * y).sum())
        rhs = band.synth_gain * float((z[0] * w).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        stacked = tr.FilterBank.field_of_rows(bank.synthesis_rows(i, z), shape)
        assert stacked.shape == z.shape
        for k in range(len(z)):
            single = tr.FilterBank.field_of_rows(bank.synthesis_rows(i, z[k]), shape)
            np.testing.assert_allclose(stacked[k], single, rtol=0, atol=1e-14)


@pytest.mark.parametrize("fft_out", [True, False], ids=["transforms-in-out", "transforms-copied"])
@pytest.mark.parametrize("bank", [tr.bdct8_bank(), tr.haar_uwt_bank(2, ndim=1)], ids=["bdct8", "haar-1d"])
def test_synthesis_rows_are_the_weighted_kernel_product(bank, fft_out, monkeypatch):
    # rows are rfftn(coeffs) times the band's kernel spectrum and the Parseval
    # weight, whether the transforms run in out (numpy >= 2) or are copied in
    monkeypatch.setattr(tr, "_FFT_OUT", fft_out and tr._FFT_OUT)
    shape = (12, 10)[: len(bank.bands[0].factors)]
    z = np.random.default_rng(17).normal(size=(3,) + shape)
    for i in (None, 0, len(bank.bands) - 1):
        kernel = tr._parseval_weight(shape) * (1.0 if i is None else bank.bands[i].synth_gain
                                               * tr._tap_spectra(bank.bands[i].factors, (1,), shape)[0])
        spectrum = np.fft.rfftn(z, axes=range(1, len(shape) + 1)) * kernel
        want = spectrum.view(np.float64).reshape(3, -1)
        out = np.full_like(want, np.nan)
        got = bank.synthesis_rows(i, z, out=out)
        assert np.shares_memory(got, out)
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-13 * np.abs(want).max())
        np.testing.assert_allclose(bank.synthesis_rows(i, z), want, rtol=0,
                                   atol=1e-13 * np.abs(want).max())


def dense_tap_spectra(taps, powers, shape):
    """The n-D reference: zero-embed taps ** p at offset zero, then rfftn."""
    emb = np.zeros((len(powers),) + tuple(shape))
    for k, p in enumerate(powers):
        emb[(k,) + tuple(slice(0, t) for t in taps.shape)] = taps ** p
    return np.fft.rfftn(emb, axes=tuple(range(1, len(shape) + 1)))


SEPARABLE_BANKS = {f"haar-J{J}-{nd}d": tr.haar_uwt_bank(J, ndim=nd)
                   for J in (1, 2, 3) for nd in (1, 2)} | {"bdct8": tr.bdct8_bank()}


@pytest.mark.parametrize("bank", SEPARABLE_BANKS.values(), ids=SEPARABLE_BANKS.keys())
def test_separable_tap_spectra_match_the_dense_transform(bank):
    ndim = len(bank.bands[0].factors)
    shapes = [(37,)] if ndim == 1 else [(256, 256), (12, 10), (117, 93)]
    powers = (1, 2, 3, 4, 5)
    for band in bank.bands:
        assert len(band.factors) == ndim and all(f.ndim == 1 for f in band.factors)
        outer = band.factors[0] if ndim == 1 else np.outer(*band.factors)
        np.testing.assert_array_equal(band.taps, outer)
        for shape in shapes:
            np.testing.assert_allclose(
                tr._tap_spectra(band.factors, powers, shape),
                dense_tap_spectra(band.taps, powers, shape), rtol=0, atol=1e-12,
                err_msg=f"{band.label} at {shape}")


def direct_periodic_correlations(taps, powers, y):
    """sum_m taps[m] ** p * roll(y, -m), stacked over powers."""
    out = np.zeros((len(powers),) + y.shape)
    for m in np.ndindex(*taps.shape):
        rolled = np.roll(y, [-k for k in m], axis=range(y.ndim))
        for k, p in enumerate(powers):
            out[k] += taps[m] ** p * rolled
    return out


@pytest.mark.parametrize("bank", SEPARABLE_BANKS.values(), ids=SEPARABLE_BANKS.keys())
def test_walk_matches_direct_periodic_correlation(bank):
    rng = np.random.default_rng(29)
    ndim = len(bank.bands[0].factors)
    for shape in [(37,)] if ndim == 1 else [(12, 10), (117, 93)]:
        y = rng.normal(size=shape)
        for powers in [(1, 2, 3, 4, 5), (2,)]:
            for band, corr in zip(bank.bands, bank.walk(y, powers)):
                assert corr.shape == (len(powers),) + shape
                ref = direct_periodic_correlations(band.taps, powers, y)
                for k, p in enumerate(powers):
                    np.testing.assert_allclose(
                        corr[k], ref[k], rtol=0, atol=1e-12 * float(np.abs(ref[k]).max()),
                        err_msg=f"{band.label}, power {p}, at {shape}")


@pytest.mark.parametrize("bank", [tr.bdct8_bank(), tr.haar_uwt_bank(3), tr.haar_uwt_bank(3, ndim=1)],
                         ids=["bdct8", "haar-J3-2d", "haar-J3-1d"])
def test_walk_engines_agree(bank, monkeypatch):
    # factors of at most DIRECT_TAPS taps take the direct walk; with
    # DIRECT_TAPS = 0 every bank takes the FFT walk
    rng = np.random.default_rng(31)
    shapes = [(37,)] if len(bank.bands[0].factors) == 1 else [(12, 10), (117, 93)]
    cases = [(y, powers, [corr.copy() for corr in bank.walk(y, powers)])
             for y in [rng.normal(size=shape) for shape in shapes]
             for powers in [(1, 2, 3, 4, 5), (2,), (4, 1)]]
    monkeypatch.setattr(tr, "DIRECT_TAPS", 0)
    for y, powers, direct in cases:
        for band, got, want in zip(bank.bands, direct, bank.walk(y, powers), strict=True):
            for k, p in enumerate(powers):
                np.testing.assert_allclose(
                    got[k], want[k], rtol=0, atol=1e-12 * float(np.abs(want[k]).max()),
                    err_msg=f"{band.label}, power {p}, at {y.shape}")


@pytest.mark.parametrize("bank, passes, direct", [(tr.bdct8_bank(), 8, True),
                                                  (tr.haar_uwt_bank(3), 10, True),
                                                  (tr.haar_uwt_bank(4), 13, False)],
                         ids=["bdct8", "haar-J3-2d", "haar-J4-2d"])
def test_walk_shares_leading_axis_inverse_transforms(bank, passes, direct, monkeypatch):
    # bdct8 and Haar J <= 3 (at most DIRECT_TAPS taps per factor) are walked
    # directly, with no transform. The FFT walk (Haar J = 4, or any bank with
    # DIRECT_TAPS = 0) makes one leading-axis inverse transform per run of
    # bands with the same leading factor: bdct8's bands run u-major, so its
    # 64 bands make 8; consecutive Haar bands never share theirs
    calls = {"ifftn": 0, "irfft": 0}

    def counting(name):
        inner = getattr(np.fft, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapped

    for name in calls:
        monkeypatch.setattr(np.fft, name, counting(name))
    y = np.random.default_rng(3).normal(size=(64, 64))

    def walked():
        calls.update(dict.fromkeys(calls, 0))
        assert sum(1 for _ in bank.walk(y, range(1, 6))) == len(bank.bands)
        return dict(calls)

    fft = {"ifftn": passes, "irfft": len(bank.bands)}
    assert walked() == ({"ifftn": 0, "irfft": 0} if direct else fft)
    monkeypatch.setattr(tr, "DIRECT_TAPS", 0)
    assert walked() == fft


@pytest.mark.parametrize("bank", [tr.haar_uwt_bank(J, ndim=nd) for J in (3, 4) for nd in (2, 1)],
                         ids=[f"haar-J{J}-{nd}d" for J in (3, 4) for nd in (2, 1)])
def test_walk_transforms_two_power_rows_per_haar_band(bank, monkeypatch):
    # every Haar-frame tap has one magnitude c per band, so taps^3..5 are
    # c^2 taps, c^2 taps^2 and c^4 taps: either engine correlates 2 power
    # rows, and each inverse transform of the FFT walk (J = 4) sees 2 rows
    rows = {"ifftn": [], "irfft": []}
    asked = []

    def recording(name):
        inner = getattr(np.fft, name)

        def wrapped(a, *args, **kwargs):
            rows[name].append(len(a))
            return inner(a, *args, **kwargs)
        return wrapped

    def spying(name):
        engine = getattr(tr, name)

        def spy(y, groups, powers):
            asked.append((name, list(powers)))
            return engine(y, groups, powers)
        return spy

    for name in rows:
        monkeypatch.setattr(np.fft, name, recording(name))
    for name in ("_direct_walk", "_fft_walk"):
        monkeypatch.setattr(tr, name, spying(name))
    shape = (64, 64)[: len(bank.bands[0].factors)]
    y = np.random.default_rng(5).normal(size=shape)
    assert all(corr.shape == (5,) + shape for corr in bank.walk(y, range(1, 6)))
    fft = max(len(f) for band in bank.bands for f in band.factors) > tr.DIRECT_TAPS
    assert asked == [("_fft_walk" if fft else "_direct_walk", [1, 2])]
    # a 1-D bank has no leading axis to refresh: its one ifftn is the first
    assert rows["ifftn"] == [2] * (len(bank.bands) if len(shape) == 2 else 1) * fft
    assert rows["irfft"] == [2] * len(bank.bands) * fft
