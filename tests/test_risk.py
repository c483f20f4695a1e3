"""Risk estimator tests: worked examples, dense-matrix equivalence, and
Monte Carlo unbiasedness at standard-error tolerances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curelet.chi2model import sample_chi2
from curelet.risk import BandDivergenceFields, RiskReport, cure_expression
from curelet.transforms import bdct8_bank, haar_step, haar_uwt_bank

from oracles import (
    EstimatorEvaluation,
    SubbandEvaluation,
    analyze,
    atom_divergence,
    band_divergence_fields,
    combine_evaluations,
    cure_filterbank_divergence,
    cure_image,
    cure_subband,
    dense_band_matrices,
    dense_filterbank_cure,
    mse_oracle,
    synthesize,
    taps,
)


def rng_of(seed):
    return np.random.Generator(np.random.Philox(seed))


def nonlinear_evaluation(w, wbar):
    """theta = w exp(-w^2/50) + 0.1 w wbar / (wbar + 10), with exact partials.

    Chosen so every one of the five partials is nonzero somewhere."""
    e = np.exp(-w ** 2 / 50.0)
    a = w * e
    da = e * (1.0 - w ** 2 / 25.0)
    d2a = e * (-w / 25.0) * (3.0 - w ** 2 / 25.0)
    q = wbar + 10.0
    b = 0.1 * w * wbar / q
    b_w = 0.1 * wbar / q
    b_v = w / q ** 2
    b_vv = -2.0 * w / q ** 3
    b_wv = 1.0 / q ** 2
    return SubbandEvaluation(a + b, da + b_w, b_v, d2a, b_vv, b_wv)


def ratio_evaluation(w, s, c=100.0):
    """theta = w s / (s + c): smooth in both arguments, zero d11."""
    q = s + c
    return SubbandEvaluation(
        theta=w * s / q,
        d1=s / q,
        d2=w * c / q ** 2,
        d11=np.zeros_like(w),
        d22=-2.0 * c * w / q ** 3,
        d12=c / q ** 2,
    )


# ---------------------------------------------------------------- examples


def test_cure_image_identity_shift_example():
    y = np.array([3.0, 5.0])
    ev = EstimatorEvaluation(f=y - 2.0, df=1.0, d2f=0.0)
    assert cure_image(y, 2.0, ev) == pytest.approx(12.0, abs=1e-12)


def test_cure_image_zero_estimator_example():
    y = np.array([3.0, 5.0])
    ev = EstimatorEvaluation(f=np.zeros(2), df=0.0, d2f=0.0)
    assert cure_image(y, 2.0, ev) == pytest.approx(-7.0, abs=1e-12)


def test_cure_image_bias_shift_identity_general():
    # f = y - K has zero residual, so only the linear terms survive:
    # CURE = (4/N) sum(y - K/2).
    rng = rng_of(7)
    y = rng.uniform(0.5, 40.0, size=(9, 13))
    K = 2.0
    ev = EstimatorEvaluation(f=y - K, df=1.0, d2f=0.0)
    expect = 4.0 * (y - K / 2).sum() / y.size
    assert cure_image(y, K, ev) == pytest.approx(expect, rel=1e-12)


def test_cure_expression_takes_the_half_term_or_its_sum():
    # a scorer of many estimates on one channel passes sum(half) once
    rng = rng_of(11)
    resid, half = rng.normal(size=(17, 23)), rng.uniform(-1.0, 40.0, size=(17, 23))
    value = cure_expression(resid, 3.25, half)
    assert cure_expression(resid, 3.25, float(np.sum(half))) == value
    assert value == pytest.approx(((resid ** 2).sum() + 26.0 - 4.0 * half.sum()) / resid.size,
                                  rel=1e-12)


def test_mse_oracle_example():
    assert mse_oracle(np.array([1.0, 2.0]), np.array([0.0, 0.0])) == pytest.approx(2.5)


def test_cure_subband_zero_estimator_example():
    ev = SubbandEvaluation(
        theta=np.zeros(1), d1=0.0, d2=0.0, d11=0.0, d22=0.0, d12=0.0
    )
    value = cure_subband(np.array([2.0]), np.array([6.0]), 4.0, ev)
    assert value == pytest.approx(-12.0, abs=1e-12)


def test_cure_subband_keep_all_identity():
    # theta = w cancels the residual; d1-term flips the sign of the
    # constant: CURE = (4/N) sum(s - K_j/2).
    rng = rng_of(3)
    w = rng.normal(size=50)
    s = rng.uniform(1.0, 30.0, size=50)
    K_j = 4.0
    ev = SubbandEvaluation(theta=w, d1=1.0, d2=0.0, d11=0.0, d22=0.0, d12=0.0)
    expect = 4.0 * (s - K_j / 2).sum() / 50
    assert cure_subband(w, s, K_j, ev) == pytest.approx(expect, rel=1e-12)


def test_cure_subband_zero_estimator_energy_form():
    # theta = 0 reduces to the coefficient-energy estimate
    # (|w|^2 - 4 sum(s - K_j/2)) / N.
    rng = rng_of(4)
    w = rng.normal(size=40)
    s = rng.uniform(2.0, 9.0, size=40)
    ev = SubbandEvaluation(theta=np.zeros(40), d1=0.0, d2=0.0, d11=0.0, d22=0.0, d12=0.0)
    expect = ((w ** 2).sum() - 4.0 * (s - 1.0).sum()) / 40
    assert cure_subband(w, s, 2.0, ev) == pytest.approx(expect, rel=1e-12)


# ------------------------------------------------------------- validation


def test_cure_image_rejects_shape_mismatch():
    ev = EstimatorEvaluation(f=np.zeros(3), df=0.0, d2f=0.0)
    with pytest.raises(ValueError):
        cure_image(np.zeros(4), 2.0, ev)


def test_cure_image_rejects_bad_dof():
    ev = EstimatorEvaluation(f=np.zeros(3), df=0.0, d2f=0.0)
    with pytest.raises(ValueError):
        cure_image(np.zeros(3), 0.0, ev)


def test_cure_subband_rejects_misaligned_fields():
    ev = SubbandEvaluation(theta=np.zeros(3), d1=0.0, d2=0.0, d11=0.0, d22=0.0, d12=0.0)
    with pytest.raises(ValueError):
        cure_subband(np.zeros(3), np.zeros(4), 4.0, ev)


def test_evaluation_rejects_nonfinite():
    with pytest.raises(ValueError):
        EstimatorEvaluation(f=np.zeros(2), df=np.array([np.nan, 0.0]), d2f=0.0)
    with pytest.raises(ValueError):
        SubbandEvaluation(
            theta=np.zeros(2), d1=0.0, d2=np.array([np.inf, 0.0]),
            d11=0.0, d22=0.0, d12=0.0,
        )


def test_risk_report_rejects_nonfinite():
    with pytest.raises(ValueError):
        RiskReport(cure=float("nan"))
    report = RiskReport(cure=1.5)
    assert report.per_band is None


def test_combine_evaluations_linearity():
    rng = rng_of(11)
    evs = [nonlinear_evaluation(rng.normal(size=6), rng.uniform(1, 5, size=6)) for _ in range(3)]
    a = np.array([0.4, -1.2, 2.0])
    combo = combine_evaluations(evs, a)
    for name in ("theta", "d1", "d2", "d11", "d22", "d12"):
        manual = sum(ai * getattr(ev, name) for ai, ev in zip(a, evs))
        np.testing.assert_allclose(getattr(combo, name), manual, rtol=1e-13)
    with pytest.raises(ValueError):
        combine_evaluations(evs, [1.0, 2.0])


def test_helper_partials_match_finite_differences():
    # The oracle below trusts these hand partials; pin them to central
    # finite differences first.
    rng = rng_of(21)
    w = rng.normal(scale=4.0, size=200)
    v = rng.uniform(0.5, 20.0, size=200)
    h = 1e-5
    for maker in (nonlinear_evaluation, ratio_evaluation):
        ev = maker(w, v)
        fd1 = (maker(w + h, v).theta - maker(w - h, v).theta) / (2 * h)
        fd2 = (maker(w, v + h).theta - maker(w, v - h).theta) / (2 * h)
        fd11 = (maker(w + h, v).theta - 2 * ev.theta + maker(w - h, v).theta) / h ** 2
        fd22 = (maker(w, v + h).theta - 2 * ev.theta + maker(w, v - h).theta) / h ** 2
        fd12 = (
            maker(w + h, v + h).theta - maker(w + h, v - h).theta
            - maker(w - h, v + h).theta + maker(w - h, v - h).theta
        ) / (4 * h ** 2)
        np.testing.assert_allclose(ev.d1, fd1, rtol=1e-6, atol=1e-7)
        np.testing.assert_allclose(ev.d2, fd2, rtol=1e-6, atol=1e-7)
        np.testing.assert_allclose(ev.d11, fd11, rtol=1e-3, atol=1e-4)
        np.testing.assert_allclose(ev.d22, fd22, rtol=1e-3, atol=1e-4)
        np.testing.assert_allclose(ev.d12, fd12, rtol=1e-3, atol=1e-4)


# ------------------------------------------- filterbank divergence checks


def identity_evaluations(bank, coeffs, K):
    """theta_b = w_b for details, theta_0 = w_0 - sum(taps_0)*K for the lowpass.

    Synthesizing these gives exactly y - K on a perfect-reconstruction bank.
    """
    evs = []
    for i, (band, w) in enumerate(zip(bank.bands, coeffs)):
        shift = float(taps(band).sum()) * K if i == 0 else 0.0
        evs.append(
            SubbandEvaluation(theta=w - shift, d1=1.0, d2=0.0, d11=0.0, d22=0.0, d12=0.0)
        )
    return evs


@pytest.mark.parametrize("make_bank", [lambda: haar_uwt_bank(2), bdct8_bank])
def test_filterbank_identity_estimator_reduces_to_linear_term(make_bank):
    bank = make_bank()
    rng = rng_of(31)
    K = 2.0
    y = rng.uniform(0.5, 30.0, size=(16, 16))
    evs = identity_evaluations(bank, analyze(bank, y), K)
    value = cure_filterbank_divergence(y, K, evs, bank)
    expect = 4.0 * (y - K / 2).sum() / y.size
    assert value == pytest.approx(expect, rel=1e-10)


def test_filterbank_rejects_wrong_band_count():
    bank = haar_uwt_bank(1)
    y = np.ones((8, 8))
    with pytest.raises(ValueError):
        cure_filterbank_divergence(y, 2.0, [], bank)


def test_band_divergence_fields_shift_structure():
    # z2 and z11 share the cubed-tap kernel; they differ by exactly K/2
    # times that kernel's sum, per band.
    bank = haar_uwt_bank(1)
    rng = rng_of(5)
    y = rng.uniform(0.1, 10.0, size=(8, 8))
    K = 2.0
    fields = band_divergence_fields(y, K, bank)
    for band, fl in zip(bank.bands, fields):
        sum3 = band.synth_gain * (taps(band) ** 3).sum()
        np.testing.assert_allclose(fl.z2, fl.z11 - 0.5 * K * sum3, rtol=1e-10, atol=1e-12)
        assert fl.z12.shape == y.shape
        assert isinstance(fl, BandDivergenceFields)


@pytest.mark.parametrize("make_bank", [lambda: haar_uwt_bank(2), bdct8_bank],
                         ids=["haar-J2", "bdct8"])
def test_of_band_fields_are_the_walk_rows(make_bank):
    # of_band copies nothing: on a walk stack, z11, z12 and z22 are its rows
    # of the taps^3, ^4 and ^5 correlations, z1 is its taps^2 row less K/2
    # times the kernel sum, in place, and z2 alone lands in out; the fields
    # carry no synthesis gain
    bank, K = make_bank(), 2.0
    y = rng_of(9).uniform(0.1, 10.0, size=(16, 16))
    for indices, walked in bank.walk(y):
        corr = walked[1:]  # the taps^2..5 rows
        rows, out = corr.copy(), np.empty(corr.shape[1:])
        fields = BandDivergenceFields.of_band(bank.tap_sums[indices], K, corr, out)
        for name, row in (("z1", 0), ("z11", 1), ("z12", 2), ("z22", 3)):
            assert np.shares_memory(getattr(fields, name), corr[row]), name
        assert fields.z2 is out
        for k, band in enumerate(bank.bands[i] for i in indices):
            for z, row, p in ((fields.z1, 0, 2), (fields.z2, 1, 3)):
                np.testing.assert_array_equal(
                    z[k], rows[row, k] - 0.5 * K * float((taps(band) ** p).sum()))
            np.testing.assert_array_equal(fields.z11[k], rows[1, k])


@pytest.mark.parametrize(
    "make_bank,shape",
    [
        (lambda: haar_uwt_bank(1), (8, 8)),
        (lambda: haar_uwt_bank(2), (8, 8)),
        (lambda: haar_uwt_bank(2), (12, 16)),
        (bdct8_bank, (8, 8)),
        (bdct8_bank, (16, 16)),
    ],
)
def test_filterbank_divergence_matches_dense_matrices(make_bank, shape):
    bank = make_bank()
    rng = rng_of(hash(shape) % (2 ** 31))
    x = rng.uniform(0.0, 25.0, size=shape)
    y = sample_chi2(x, 2.0, seed=9).samples
    coeffs = analyze(bank, y)
    variances = analyze(bank, y, 2)
    evs = [nonlinear_evaluation(w, v) for w, v in zip(coeffs, variances)]
    fast = cure_filterbank_divergence(y, 2.0, evs, bank)
    dense = dense_filterbank_cure(y, 2.0, evs, bank)
    assert fast == pytest.approx(dense, rel=1e-9)


def test_dense_matrices_agree_with_fft_analysis():
    bank = haar_uwt_bank(2)
    rng = rng_of(13)
    y = rng.uniform(0.0, 10.0, size=(8, 8))
    mats = dense_band_matrices(bank, y.shape)
    coeffs = analyze(bank, y)
    variances = analyze(bank, y, 2)
    for (D, Dbar, R), w, v, band in zip(mats, coeffs, variances, bank.bands):
        np.testing.assert_allclose(D @ y.ravel(), w.ravel(), atol=1e-10)
        np.testing.assert_allclose(Dbar @ y.ravel(), v.ravel(), atol=1e-10)
        np.testing.assert_allclose(R, band.synth_gain * D.T)


def test_atom_divergence_matches_dot_products():
    bank = bdct8_bank()
    rng = rng_of(17)
    y = rng.uniform(0.5, 20.0, size=(8, 8))
    fields = band_divergence_fields(y, 2.0, bank)
    ev = nonlinear_evaluation(analyze(bank, y)[3], analyze(bank, y, 2)[3])
    manual_first = (fields[3].z1 * ev.d1).sum() + (fields[3].z2 * ev.d2).sum()
    manual_second = (
        (fields[3].z11 * ev.d11).sum()
        + (fields[3].z22 * ev.d22).sum()
        + 2 * (fields[3].z12 * ev.d12).sum()
    )
    assert atom_divergence(fields[3], ev) == pytest.approx(
        manual_first - manual_second, rel=1e-12)


# ------------------------------------------------- Monte Carlo unbiasedness


def test_cure_image_unbiased_smooth_estimator():
    # f_n = y_n tanh(y_n / 10): elementwise, smooth, bounded derivatives.
    rng = rng_of(101)
    x = rng.uniform(0.0, 30.0, size=(12, 12))
    K = 2.0
    draws = 600
    deltas = np.empty(draws)
    for i in range(draws):
        y = sample_chi2(x, K, seed=1000 + i).samples
        u = y / 10.0
        t = np.tanh(u)
        sech2 = 1.0 - t ** 2
        f = y * t
        df = t + u * sech2
        d2f = 0.2 * sech2 * (1.0 - u * t)
        deltas[i] = cure_image(y, K, EstimatorEvaluation(f, df, d2f)) - mse_oracle(f, x)
    se = deltas.std(ddof=1) / np.sqrt(draws)
    assert abs(deltas.mean()) <= 4.0 * se


def test_cure_image_unbiased_linear_estimator():
    rng = rng_of(103)
    x = rng.uniform(0.0, 20.0, size=(10, 10))
    K = 2.0
    draws = 600
    deltas = np.empty(draws)
    for i in range(draws):
        y = sample_chi2(x, K, seed=40_000 + i).samples
        f = 0.8 * (y - K)
        ev = EstimatorEvaluation(f, 0.8, 0.0)
        deltas[i] = cure_image(y, K, ev) - mse_oracle(f, x)
    se = deltas.std(ddof=1) / np.sqrt(draws)
    assert abs(deltas.mean()) <= 4.0 * se


def test_cure_subband_unbiased_1d():
    # Level-1 detail of the 1-D pyramid: w = y_odd - y_even, s = y_odd +
    # y_even, dof doubles. The estimator mixes both arguments.
    rng = rng_of(107)
    x = rng.uniform(0.0, 30.0, size=32)
    K = 2.0
    omega = haar_step(x)[1]["w"]
    draws = 600
    deltas = np.empty(draws)
    for i in range(draws):
        s, details = haar_step(sample_chi2(x, K, seed=70_000 + i).samples)
        w = details["w"]
        ev = ratio_evaluation(w, s)
        deltas[i] = cure_subband(w, s, 2 * K, ev) - ((ev.theta - omega) ** 2).mean()
    se = deltas.std(ddof=1) / np.sqrt(draws)
    assert abs(deltas.mean()) <= 4.0 * se


@pytest.mark.parametrize("key", ["lh", "hh"])
def test_cure_subband_unbiased_2d(key):
    # 2-D level-1 subbands: each coefficient is a +-1 combination of a
    # 2x2 block whose sum is s, so the same risk formula applies with
    # K_1 = 4K.
    rng = rng_of(109)
    x = rng.uniform(0.0, 25.0, size=(8, 8))
    K = 2.0
    omega = haar_step(x)[1][key]
    draws = 500
    deltas = np.empty(draws)
    for i in range(draws):
        s, details = haar_step(sample_chi2(x, K, seed=90_000 + i).samples)
        w = details[key]
        ev = ratio_evaluation(w, s)
        deltas[i] = cure_subband(w, s, 4 * K, ev) - ((ev.theta - omega) ** 2).mean()
    se = deltas.std(ddof=1) / np.sqrt(draws)
    assert abs(deltas.mean()) <= 4.0 * se


def test_cure_filterbank_unbiased_fixed_shrinker():
    # A y-independent nonlinear band processor through the level-1 frame:
    # expectation of the divergence form must match the oracle MSE of the
    # synthesized estimate.
    bank = haar_uwt_bank(1)
    rng = rng_of(113)
    x = rng.uniform(0.0, 25.0, size=(8, 8))
    K = 2.0
    draws = 500
    deltas = np.empty(draws)
    for i in range(draws):
        y = sample_chi2(x, K, seed=120_000 + i).samples
        coeffs = analyze(bank, y)
        variances = analyze(bank, y, 2)
        evs = []
        for i, (band, w, v) in enumerate(zip(bank.bands, coeffs, variances)):
            if i == 0:
                evs.append(
                    SubbandEvaluation(
                        theta=w - float(taps(band).sum()) * K, d1=1.0, d2=0.0,
                        d11=0.0, d22=0.0, d12=0.0,
                    )
                )
            else:
                evs.append(nonlinear_evaluation(w, v))
        f = synthesize(bank, [ev.theta for ev in evs])
        deltas[i] = cure_filterbank_divergence(y, K, evs, bank) - mse_oracle(f, x)
    se = deltas.std(ddof=1) / np.sqrt(draws)
    assert abs(deltas.mean()) <= 4.0 * se


# ------------------------------------------------------------- properties


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=8, max_value=12),
    st.integers(min_value=8, max_value=12),
    st.integers(min_value=0, max_value=2 ** 31 - 1),
)
def test_identity_reduction_property(h, w, seed):
    bank = haar_uwt_bank(1)
    rng = rng_of(seed)
    y = rng.uniform(0.1, 50.0, size=(h, w))
    K = 2.0
    evs = identity_evaluations(bank, analyze(bank, y), K)
    value = cure_filterbank_divergence(y, K, evs, bank)
    expect = 4.0 * (y - K / 2).sum() / y.size
    assert value == pytest.approx(expect, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_cure_subband_scale_of_theta_quadratic(seed):
    # Scaling theta (and its partials) by t makes the risk quadratic in t
    # with the fidelity cross terms linear; check against a direct
    # evaluation at t = 2.
    rng = rng_of(seed)
    w = rng.normal(size=16)
    s = rng.uniform(1.0, 12.0, size=16)
    ev = ratio_evaluation(w, s)
    doubled = combine_evaluations([ev], [2.0])
    direct = cure_subband(w, s, 4.0, doubled)
    base0 = cure_subband(w, s, 4.0, combine_evaluations([ev], [0.0]))
    base1 = cure_subband(w, s, 4.0, ev)
    # quadratic interpolation through t = 0, 1 plus the pure quadratic
    # coefficient |theta|^2/N
    quad = (ev.theta ** 2).sum() / w.size
    expect = base0 + 2.0 * (base1 - base0 - quad) + 4.0 * quad
    assert direct == pytest.approx(expect, rel=1e-9)
