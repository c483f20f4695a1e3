import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import hypothesis.extra.numpy as hnp

from curelet.chi2model import sample_chi2
from curelet import transforms as tr

from oracles import analyze, pyramid_round_trip_error, synthesize, taps


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
    # band 0 is the lowpass, the one band whose taps do not sum to zero
    for band in bank.bands:
        assert np.sqrt((taps(band) ** 2).sum()) == pytest.approx(1.0, abs=1e-12)
    for band in bank.bands[1:]:
        assert taps(band).sum() == pytest.approx(0.0, abs=1e-12)
    assert taps(bank.bands[0]).sum() >= 1.0


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
    # twelve levels need a 4096-wide support: walk's check reads the bank's
    # support table, where a band's 4096x4096 taps would take 134 MB
    bank = tr.haar_uwt_bank(12)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="smaller than filter support"):
            next(bank.walk(np.zeros((64, 64))))
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
        d = taps(band)
        emb = np.zeros((8, 8))
        emb[: d.shape[0], : d.shape[1]] = d
        W = np.fft.irfft2(Y * np.conj(np.fft.rfft2(emb))[None], s=(8, 8), axes=(-2, -1))
        emb2 = np.zeros((8, 8))
        emb2[: d.shape[0], : d.shape[1]] = d ** 2
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
    # a stack of every band, each with a stack of three fields, synthesizes
    # each field by its band alone
    rng = np.random.default_rng(13)
    shape = (12, 10)[: len(bank.bands[0].factors)]
    y = rng.normal(size=shape)
    z = rng.normal(size=(len(bank.bands), 3) + shape)
    stacked = tr.FilterBank.field_of_rows(bank.synthesis_rows(range(len(bank.bands)), z), shape)
    assert stacked.shape == z.shape
    for i, (band, w) in enumerate(zip(bank.bands, analyze(bank, y))):
        # <R_i z, y> == g_i <z, A_i y>
        alone = bank.synthesis_rows([i], z[i, :1])[0]
        lhs = float((tr.FilterBank.field_of_rows(alone, shape) * y).sum())
        rhs = band.synth_gain * float((z[i, 0] * w).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        for k in range(len(z[i])):
            single = tr.FilterBank.field_of_rows(bank.synthesis_rows([i], z[i, k][None])[0], shape)
            np.testing.assert_allclose(stacked[i, k], single, rtol=0, atol=1e-14)


@pytest.mark.parametrize("bank", [tr.bdct8_bank(), tr.haar_uwt_bank(2, ndim=1)],
                         ids=["bdct8-transforms-in-out", "haar-1d-transforms-in-out"])
def test_synthesis_rows_are_the_weighted_kernel_product(bank):
    # rows are rfftn(coeffs) times each band's kernel spectrum and the Parseval
    # weight (only the weight for bands None), computed in out when one is
    # given, from the bank's kernel_spectra whether passed in or formed
    shape = (12, 10)[: len(bank.bands[0].factors)]
    z = np.random.default_rng(17).normal(size=(3,) + shape)
    spectrum = np.fft.rfftn(z, axes=range(1, len(shape) + 1))
    factor_spectra = tr._factor_spectra(bank.bands, shape, [1])
    for bands in (None, [0, len(bank.bands) - 1, 0]):
        kernels = [tr._parseval_weight(shape) * (1.0 if i is None else bank.bands[i].synth_gain
                                                 * outer_spectrum(factor_spectra, i)[0])
                   for i in bands or [None] * len(z)]
        want = (spectrum * np.array([np.broadcast_to(kernel, spectrum.shape[1:])
                                     for kernel in kernels])).view(np.float64).reshape(3, -1)
        for spectra in (None, bank.kernel_spectra(shape)):
            out = np.full_like(want, np.nan)
            got = bank.synthesis_rows(bands, z, out=out, spectra=spectra)
            assert np.shares_memory(got, out)
            np.testing.assert_allclose(out, want, rtol=0, atol=1e-13 * np.abs(want).max())
        np.testing.assert_allclose(bank.synthesis_rows(bands, z), want, rtol=0,
                                   atol=1e-13 * np.abs(want).max())


def outer_spectrum(factor_spectra, i):
    """Band i's (powers, *half spectrum) array from _factor_spectra: per power,
    the outer product of its 1-D factor spectra over the axes."""
    return np.array([reduce(np.multiply.outer, [s[k, i] for s in factor_spectra])
                     for k in range(len(factor_spectra[0]))])


BANKS_OF_EVERY_J = {f"haar-J{J}-{nd}d": tr.haar_uwt_bank(J, ndim=nd)
                    for J in range(1, 8) for nd in (1, 2)} | {"bdct8": tr.bdct8_bank()}


@pytest.mark.parametrize("bank", BANKS_OF_EVERY_J.values(), ids=BANKS_OF_EVERY_J.keys())
def test_synthesis_gains_are_powers_of_two(bank):
    # uwt_curelet_denoise forms divergences per unit gain and scales them
    # after, which is exact only when every gain is a power of two
    for band in bank.bands:
        mantissa, _ = np.frexp(band.synth_gain)
        assert mantissa == 0.5, band.label


@pytest.mark.parametrize("bank", BANKS_OF_EVERY_J.values(), ids=BANKS_OF_EVERY_J.keys())
def test_bank_tables_are_the_outer_product_taps_facts(bank):
    # the tables a bank forms once hold, bit for bit, what the outer-product
    # taps give: sums of taps ** 1..3, the one magnitude of each Haar band's
    # taps (bdct8 bands have none) and the largest tap extent per axis
    reference = [taps(band) for band in bank.bands]
    assert bank.tap_sums.shape == (len(bank.bands), 3)
    for row, d in zip(bank.tap_sums, reference):
        for p in (1, 2, 3):
            assert row[p - 1] == (d ** p).sum()
    if bank.name == "bdct8":
        assert bank.magnitudes is None
        assert bank.support == (8, 8)
    else:
        np.testing.assert_array_equal(bank.magnitudes, [np.abs(d).flat[0] for d in reference])
        assert all((np.abs(d) == c).all() for d, c in zip(reference, bank.magnitudes))
        ndim = reference[0].ndim
        levels = (len(bank.bands) - 1) // (2 ** ndim - 1)  # detail bands per level
        assert bank.support == (2 ** levels,) * ndim
    assert bank.support == tuple(np.max([d.shape for d in reference], axis=0).tolist())


def test_empty_bank_is_refused():
    with pytest.raises(ValueError, match="filter bank 'empty' has no bands"):
        tr.FilterBank("empty", [])


def test_band_factors_are_read_only():
    # the tables are formed from the factors once, so no factor may change after
    factor = np.array([0.5, 0.5])
    user = tr.FilterBank("user", [tr.Band((factor, factor), 1.0, "low")])
    for bank in (user, tr.haar_uwt_bank(2), tr.haar_uwt_bank(2, ndim=1), tr.bdct8_bank()):
        for band in bank.bands:
            for f in band.factors:
                with pytest.raises(ValueError, match="read-only"):
                    f[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        factor[1] = 1.0


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
    spectra = {shape: tr._factor_spectra(bank.bands, shape, powers) for shape in shapes}
    for i, band in enumerate(bank.bands):
        assert len(band.factors) == ndim and all(f.ndim == 1 for f in band.factors)
        outer = band.factors[0] if ndim == 1 else np.outer(*band.factors)
        np.testing.assert_array_equal(taps(band), outer)
        for shape in shapes:
            np.testing.assert_allclose(
                outer_spectrum(spectra[shape], i),
                dense_tap_spectra(taps(band), powers, shape), rtol=0, atol=1e-12,
                err_msg=f"{band.label} at {shape}")


def direct_periodic_correlations(taps, powers, y):
    """sum_m taps[m] ** p * roll(y, -m), stacked over powers."""
    out = np.zeros((len(powers),) + y.shape)
    for m in np.ndindex(*taps.shape):
        rolled = np.roll(y, [-k for k in m], axis=range(y.ndim))
        for k, p in enumerate(powers):
            out[k] += taps[m] ** p * rolled
    return out


WALKED_BANKS = SEPARABLE_BANKS | {f"haar-J4-{nd}d": tr.haar_uwt_bank(4, ndim=nd) for nd in (1, 2)}


def walked(bank, y):
    """Per band, in bank order, a copy of its (5, *y.shape) rows of walk's stacks."""
    bands = []
    for indices, corr in bank.walk(y):
        assert corr.shape == (5, len(indices)) + y.shape
        bands += [(i, corr[:, k].copy()) for k, i in enumerate(indices)]
    assert [i for i, _ in bands] == list(range(len(bank.bands)))
    return [rows for _, rows in bands]


@pytest.mark.parametrize("bank", WALKED_BANKS.values(), ids=WALKED_BANKS.keys())
def test_walk_matches_direct_periodic_correlation(bank):
    # bdct8 and Haar J <= 3 take the direct walk, Haar J = 4 (16 taps) the FFT walk
    rng = np.random.default_rng(29)
    ndim, support = len(bank.bands[0].factors), len(bank.bands[0].factors[0])
    for shape in [(37,)] if ndim == 1 else [(12, 10) if support <= 10 else (20, 18), (117, 93)]:
        y = rng.normal(size=shape)
        powers = (1, 2, 3, 4, 5)
        for band, corr in zip(bank.bands, walked(bank, y)):
            ref = direct_periodic_correlations(taps(band), powers, y)
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
    cases = [(y, walked(bank, y)) for y in [rng.normal(size=shape) for shape in shapes]]
    monkeypatch.setattr(tr, "DIRECT_TAPS", 0)
    for y, direct in cases:
        for band, got, want in zip(bank.bands, direct, walked(bank, y), strict=True):
            for k, p in enumerate((1, 2, 3, 4, 5)):
                np.testing.assert_allclose(
                    got[k], want[k], rtol=0, atol=1e-12 * float(np.abs(want[k]).max()),
                    err_msg=f"{band.label}, power {p}, at {y.shape}")


@pytest.mark.parametrize("bank, groups", [(tr.bdct8_bank(), 8), (tr.haar_uwt_bank(3), 10),
                                          (tr.haar_uwt_bank(4), 13)],
                         ids=["bdct8", "haar-J3-2d", "haar-J4-2d"])
def test_walk_shares_leading_axis_inverse_transforms(bank, groups, monkeypatch):
    # the direct walk (factors of at most DIRECT_TAPS taps: bdct8, Haar J <= 3)
    # makes one leading-axis correlation per run of bands with the same leading
    # factor: bdct8's bands run u-major, so its 64 bands make 8; consecutive
    # Haar bands never share theirs. The FFT walk (Haar J = 4, or any bank with
    # DIRECT_TAPS = 0) makes one irfftn per band and no other inverse transform
    calls = {"irfftn": 0, "ifftn": 0, "irfft": 0, "axis-0": 0}

    def counting(name):
        inner = getattr(np.fft, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapped

    correlate = tr._correlate

    def correlating(taps, field, axis, shifted, out):
        calls["axis-0"] += axis == 0
        correlate(taps, field, axis, shifted, out)

    for name in ("irfftn", "ifftn", "irfft"):
        monkeypatch.setattr(np.fft, name, counting(name))
    monkeypatch.setattr(tr, "_correlate", correlating)
    y = np.random.default_rng(3).normal(size=(64, 64))

    def walked():
        calls.update(dict.fromkeys(calls, 0))
        assert sum(len(indices) for indices, _ in bank.walk(y)) == len(bank.bands)
        return dict(calls)

    fft = {"irfftn": len(bank.bands), "ifftn": 0, "irfft": 0, "axis-0": 0}
    direct = {"irfftn": 0, "ifftn": 0, "irfft": 0, "axis-0": groups}
    long = max(len(f) for band in bank.bands for f in band.factors) > tr.DIRECT_TAPS
    assert walked() == (fft if long else direct)
    monkeypatch.setattr(tr, "DIRECT_TAPS", 0)
    assert walked() == fft
    monkeypatch.setattr(tr, "DIRECT_TAPS", 16)
    assert walked() == direct


@pytest.mark.parametrize("bank", [tr.haar_uwt_bank(J, ndim=nd) for J in (3, 4) for nd in (2, 1)],
                         ids=[f"haar-J{J}-{nd}d" for J in (3, 4) for nd in (2, 1)])
def test_walk_transforms_two_power_rows_per_haar_band(bank, monkeypatch):
    # every Haar-frame tap has one magnitude c per band, so taps^3..5 are
    # c^2 taps, c^2 taps^2 and c^4 taps: either engine correlates 2 power
    # rows, and each irfftn of the FFT walk (J = 4) sees 2 rows
    rows = []
    asked = []
    irfftn = np.fft.irfftn

    def recording(a, *args, **kwargs):
        rows.append(len(a))
        return irfftn(a, *args, **kwargs)

    def spying(name):
        engine = getattr(tr, name)

        def spy(y, bands, powers, n):
            asked.append((name, list(powers)))
            return engine(y, bands, powers, n)
        return spy

    monkeypatch.setattr(np.fft, "irfftn", recording)
    for name in ("_direct_walk", "_fft_walk"):
        monkeypatch.setattr(tr, name, spying(name))
    shape = (64, 64)[: len(bank.bands[0].factors)]
    y = np.random.default_rng(5).normal(size=shape)
    assert all(corr.shape == (5, len(indices)) + shape
               for indices, corr in bank.walk(y))
    fft = max(len(f) for band in bank.bands for f in band.factors) > tr.DIRECT_TAPS
    assert asked == [("_fft_walk" if fft else "_direct_walk", [1, 2])]
    assert rows == [2] * len(bank.bands) * fft


@pytest.mark.parametrize("bank, shape, stacks", [
    (tr.bdct8_bank(), (64, 64), 9), (tr.bdct8_bank(), (128, 128), 33),
    (tr.bdct8_bank(), (256, 256), 64), (tr.bdct8_bank(), (117, 93), 25),
    (tr.haar_uwt_bank(3), (64, 64), 10), (tr.haar_uwt_bank(4), (64, 64), 3),
    (tr.haar_uwt_bank(4), (128, 128), 7), (tr.haar_uwt_bank(4, ndim=1), (37,), 2),
], ids=["bdct8-64", "bdct8-128", "bdct8-256", "bdct8-117x93", "haar-J3-64", "haar-J4-64",
        "haar-J4-128", "haar-J4-1d-37"])
def test_walk_stacks_fill_the_coefficient_budget(bank, shape, stacks):
    # a stack holds consecutive bands, the lowpass band 0 alone, at most
    # BAND_STACK coefficients unless it is one band, and is cut only after
    # band 0 or where (direct walk: factors of at most DIRECT_TAPS taps) the leading factor
    # changes or the budget is full; direct stacks of a bank without the
    # Haar pick view one buffer
    y = np.random.default_rng(7).normal(size=shape)
    n = max(1, tr.BAND_STACK // y.size)
    direct = max(len(f) for band in bank.bands for f in band.factors) <= tr.DIRECT_TAPS
    picked = all(np.ptp(np.abs(taps(band))) == 0 for band in bank.bands)

    def lead(i):
        return bank.bands[i].factors[0].tobytes() if direct and y.ndim == 2 else None

    walk, previous, first = list(enumerate(bank.walk(y))), None, None
    assert len(walk) == stacks
    for k, (indices, corr) in walk:
        assert 1 <= len(indices) <= n
        assert len({i == 0 for i in indices}) == len({lead(i) for i in indices}) == 1
        if previous is not None:
            assert indices[0] == previous[-1] + 1
            lowpass = {i == 0 for i in (previous[-1], indices[0])}
            assert len(previous) == n or len(lowpass) == 2 or lead(previous[-1]) != lead(indices[0])
        while corr.base is not None:
            corr = corr.base
        if direct and not picked:
            first = corr if first is None else first
            assert corr is first
        previous = indices
