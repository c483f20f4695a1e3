"""Metric hand cases, phantom regressions, and end-to-end denoising runs."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curelet import pipeline
from curelet.chi2model import sample_rician
from curelet.pipeline import (
    CSV_COLUMNS,
    METHODS,
    PSNR_CAP,
    DenoiseResult,
    ExperimentProtocol,
    ImageBuffer,
    QualityReport,
    cipsnr,
    denoise_mr,
    format_csv,
    make_phantom,
    monte_carlo_experiment,
    psnr,
    quality_report,
    ssim_mean,
)

from oracles import ssim_direct


def rng_of(seed):
    return np.random.Generator(np.random.Philox(seed))


# ------------------------------------------------------------------ metrics


def test_psnr_hand_value():
    ref = np.array([[0.0, 10.0]])
    est = np.array([[0.0, 8.0]])
    # N peak^2 / sse = 2 * 100 / 4 = 50
    assert psnr(est, ref) == pytest.approx(10.0 * np.log10(50.0), abs=1e-12)


def test_psnr_exact_match_hits_cap():
    ref = np.arange(12.0).reshape(3, 4) + 1.0
    assert psnr(ref, ref) == PSNR_CAP
    assert isinstance(psnr(ref, ref), float)


def test_psnr_rejects_degenerate_input():
    with pytest.raises(ValueError):
        psnr(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        psnr(np.zeros((2, 2)), np.zeros((2, 3)))


def test_cipsnr_undoes_affine_distortion():
    rng = rng_of(3)
    ref = rng.uniform(1.0, 100.0, size=(16, 16))
    value, (a, b) = cipsnr(2.0 * ref + 5.0, ref)
    assert value == PSNR_CAP
    assert a == pytest.approx(0.5, rel=1e-9)
    assert b == pytest.approx(-2.5, rel=1e-9)


def test_cipsnr_constant_estimate_falls_back_to_mean():
    ref = np.array([[1.0, 2.0], [3.0, 6.0]])
    value, (a, b) = cipsnr(np.full((2, 2), 7.0), ref)
    assert a == 0.0
    assert b == pytest.approx(3.0)
    assert value == pytest.approx(psnr(np.full((2, 2), 3.0), ref))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_cipsnr_never_below_psnr(seed):
    rng = rng_of(seed)
    ref = rng.uniform(0.5, 50.0, size=(8, 8))
    est = ref + rng.normal(scale=5.0, size=(8, 8))
    value, _ = cipsnr(est, ref)
    assert value >= psnr(est, ref) - 1e-9


def test_ssim_identical_images():
    img = make_phantom("shepp-logan", 64)
    assert ssim_mean(img, img) == pytest.approx(1.0)


def test_ssim_degrades_monotonically_with_noise():
    ref = make_phantom("shepp-logan", 64)
    rng = rng_of(9)
    noise = rng.normal(size=ref.shape)
    values = [ssim_mean(ref + s * noise, ref) for s in (5.0, 20.0, 60.0)]
    assert values[0] > values[1] > values[2]
    assert all(-1.0 <= v <= 1.0 for v in values)


@pytest.mark.parametrize("shape", [(32, 32), (40, 23)])
def test_ssim_is_the_direct_window_sum(shape):
    # the non-square pair shows a window run along the wrong axis
    rng = rng_of(34)
    ref = rng.uniform(0.0, 255.0, size=shape)
    est = ref + rng.normal(scale=30.0, size=shape)
    assert ssim_mean(est, ref) == pytest.approx(ssim_direct(est, ref), rel=1e-12, abs=0.0)


def test_ssim_rejects_zero_dynamic_range():
    with pytest.raises(ValueError):
        ssim_mean(np.zeros((16, 16)), np.zeros((16, 16)))


def test_ssim_rejects_images_smaller_than_its_window():
    # no 11x11 window fits in an 8x8 image; a valid-mode convolution that
    # swaps its operands when the kernel is larger would average a meaningless map
    rng = rng_of(33)
    est, ref = rng.uniform(0.0, 255.0, size=(2, 8, 8))
    with pytest.raises(ValueError, match="11x11"):
        ssim_mean(est, ref)
    with pytest.raises(ValueError, match="11x11"):
        quality_report(est, ref)


def test_quality_report_consistency():
    ref = make_phantom("shepp-logan", 64)
    rng = rng_of(21)
    est = ref + rng.normal(scale=10.0, size=ref.shape)
    report = quality_report(est, ref)
    assert report.cipsnr >= report.psnr - 1e-9
    assert -1.0 <= report.ssim <= 1.0
    assert report.affine[0] == pytest.approx(1.0, abs=0.05)


def test_quality_report_validation():
    with pytest.raises(ValueError):
        QualityReport(psnr=30.0, cipsnr=20.0, ssim=0.5, affine=(1.0, 0.0))
    with pytest.raises(ValueError):
        QualityReport(psnr=20.0, cipsnr=30.0, ssim=1.5, affine=(1.0, 0.0))


# ------------------------------------------------------------- image buffer


def test_image_buffer_roundtrip():
    arr = np.arange(12.0).reshape(3, 4)
    buf = ImageBuffer.from_array(arr)
    assert (buf.width, buf.height) == (4, 3)
    np.testing.assert_array_equal(buf.as_array(), arr)


def test_image_buffer_validation():
    with pytest.raises(ValueError):
        ImageBuffer(width=2, height=2, data=np.zeros(3))
    with pytest.raises(ValueError):
        ImageBuffer(width=0, height=2, data=np.zeros(0))
    with pytest.raises(ValueError):
        ImageBuffer(width=2, height=1, data=np.array([1.0, -1.0]))
    # chi-square-domain estimates may go negative
    ImageBuffer(width=2, height=1, data=np.array([1.0, -1.0]),
                semantics="squared-rescaled")
    with pytest.raises(ValueError):
        ImageBuffer.from_array(np.zeros(4))


# ---------------------------------------------------------------- phantoms


def test_phantoms_deterministic_and_bounded():
    for kind in ("constant", "shepp-logan", "piecewise"):
        a = make_phantom(kind, 64)
        b = make_phantom(kind, 64)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (64, 64)
        assert float(a.min()) >= 0.0
        assert float(a.max()) <= 255.0


def test_constant_phantom_value():
    assert (make_phantom("constant", 32) == 128.0).all()


def test_shepp_logan_structure():
    img = make_phantom("shepp-logan", 128)
    # skull boundary is the brightest ring; corners are empty
    assert img[0, 0] == 0.0
    assert float(img.max()) == pytest.approx(255.0)
    assert 0.1 < (img > 0).mean() < 0.9


def test_phantom_validation():
    with pytest.raises(ValueError):
        make_phantom("shepp-logan", 16)
    with pytest.raises(ValueError):
        make_phantom("brain", 64)


def test_piecewise_phantom_edge_density_regression():
    # frozen: structural edge content must not drift silently
    img = make_phantom("piecewise", 128)
    grad = (np.abs(np.diff(img, axis=0, append=img[-1:, :]))
            + np.abs(np.diff(img, axis=1, append=img[:, -1:])))
    assert (grad > 16.0).mean() == pytest.approx(0.0303955078125, abs=1e-12)


# ---------------------------------------------------------------- denoising


def test_denoise_mr_validation():
    m = make_phantom("constant", 32)
    with pytest.raises(ValueError):
        denoise_mr(m, sigma=20.0, method="median")
    with pytest.raises(ValueError):
        denoise_mr(-m, sigma=20.0)
    with pytest.raises(ValueError):
        denoise_mr(m, sigma="auto")
    with pytest.raises(ValueError):
        denoise_mr(m, sigma=0.0)
    with pytest.raises(ValueError):
        denoise_mr(m, sigma="twenty")


def test_denoise_mr_near_clean_input_passes_through():
    mu = make_phantom("shepp-logan", 64) + 20.0
    res = denoise_mr(mu, sigma=0.01, method="uwt")
    assert psnr(res.estimate, mu) >= 60.0


def test_denoise_mr_improves_noisy_phantom():
    mu = make_phantom("shepp-logan", 64)
    m = sample_rician(mu, 20.0, seed=5)
    res = denoise_mr(m, sigma=20.0, method="uwt-bdct")
    gain = psnr(res.estimate, mu) - psnr(m, mu)
    assert gain >= 4.0
    assert res.method == "uwt-bdct"
    assert res.sigma == 20.0
    assert np.isfinite(res.cure)
    assert res.runtime_s > 0.0
    np.testing.assert_array_equal(np.asarray(res), res.estimate)


def test_denoise_mr_auto_sigma_matches_known_level():
    mu = make_phantom("shepp-logan", 64)
    m = sample_rician(mu, 20.0, seed=11)
    mask = mu == 0.0
    res = denoise_mr(m, sigma="auto", mask=mask, method="uwt")
    assert res.sigma == pytest.approx(20.0, rel=0.1)


def test_denoise_mr_lambda_blend_is_linear():
    mu = make_phantom("shepp-logan", 64)
    m = sample_rician(mu, 50.0, seed=13)
    est0 = denoise_mr(m, sigma=50.0, method="uwt", lam=0.0).estimate
    est1 = denoise_mr(m, sigma=50.0, method="uwt", lam=1.0).estimate
    est_mid = denoise_mr(m, sigma=50.0, method="uwt", lam=0.5).estimate
    assert float(np.abs(est1 - est0).max()) > 0.0
    np.testing.assert_allclose(est_mid, 0.5 * (est0 + est1), atol=1e-10)


def test_denoise_mr_lambdas_override_changes_estimate():
    mu = make_phantom("shepp-logan", 64)
    m = sample_rician(mu, 20.0, seed=17)
    default = denoise_mr(m, sigma=20.0, method="uwt")
    tweaked = denoise_mr(m, sigma=20.0, method="uwt", lambdas=(1.0, 4.0))
    assert float(np.abs(default.estimate - tweaked.estimate).max()) > 0.0


def test_denoise_mr_accepts_image_buffer():
    mu = make_phantom("constant", 32)
    m = sample_rician(mu, 10.0, seed=19)
    res = denoise_mr(ImageBuffer.from_array(m), sigma=10.0, method="haar-cs1")
    assert res.estimate.shape == (32, 32)


@pytest.mark.parametrize("method", METHODS)
def test_denoise_mr_rejects_more_levels_than_the_image_holds(method):
    # 2^7 = 128 exceeds a 64x64 image's side: the Haar pyramid would pad
    # it to 128x128, the undecimated bank's support would not fit
    m = sample_rician(make_phantom("shepp-logan", 64), 20.0, seed=29)
    with pytest.raises(ValueError, match=r"J=7|\(128, 128\)"):
        denoise_mr(m, sigma=20.0, method=method, J=7)


def test_denoise_mr_checks_the_levels_before_building_the_haar_bank():
    # haar_uwt_bank(20) would form factors of 2^20 taps before walk refused J
    m = sample_rician(make_phantom("shepp-logan", 64), 20.0, seed=29)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="J=20"):
            denoise_mr(m, sigma=20.0, method="uwt", J=20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_denoise_mr_rejects_a_3d_image():
    with pytest.raises(ValueError, match="3-D"):
        denoise_mr(np.ones((8, 8, 8)), sigma=1.0, method="haar-cs1", J=1)


def test_denoise_mr_rejects_a_sigma_that_is_not_finite_and_positive():
    # sigma=inf once returned an all-NaN estimate with a finite cure
    m = sample_rician(make_phantom("constant", 32), 10.0, seed=19)
    for sigma in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="sigma"):
            denoise_mr(m, sigma=sigma, method="uwt")


def test_denoise_mr_checks_the_blend_before_it_denoises(monkeypatch):
    def denoiser_must_not_run(*args, **kwargs):
        raise AssertionError("denoised before checking lambda")

    monkeypatch.setattr(pipeline, "uwt_curelet_denoise", denoiser_must_not_run)
    m = sample_rician(make_phantom("constant", 32), 10.0, seed=19)
    with pytest.raises(ValueError, match="lambda"):
        denoise_mr(m, sigma=10.0, method="uwt-bdct", lam=2.0)


def test_cycle_spin_method_runs_and_reports_mean_cure():
    mu = make_phantom("shepp-logan", 32)
    m = sample_rician(mu, 20.0, seed=23)
    res1 = denoise_mr(m, sigma=20.0, method="haar-cs1")
    res16 = denoise_mr(m, sigma=20.0, method="haar-cs16")
    assert np.isfinite(res16.cure)
    assert psnr(res16.estimate, mu) >= psnr(res1.estimate, mu)


# -------------------------------------------------------------- experiments


def small_protocol():
    return ExperimentProtocol(phantom="shepp-logan", size=64,
                              sigmas=(10.0,), methods=("haar-cs1", "uwt"),
                              seeds=(0, 1))


def test_protocol_validation():
    with pytest.raises(ValueError):
        ExperimentProtocol(sigmas=()).validate()
    with pytest.raises(ValueError):
        ExperimentProtocol(sigmas=(3.0,)).validate()
    with pytest.raises(ValueError):
        ExperimentProtocol(methods=("fourier",)).validate()
    with pytest.raises(ValueError):
        ExperimentProtocol(phantom="brain").validate()
    small_protocol().validate()


def test_protocol_validation_builds_no_phantom(monkeypatch):
    # monte_carlo_experiment builds the phantom; validate checks its kind
    # and size without one
    def forbidden(size):
        raise AssertionError("validate built a phantom")

    for name in ("_shepp_logan", "_piecewise"):
        monkeypatch.setattr(pipeline, name, forbidden)
    small_protocol().validate()
    replace(small_protocol(), phantom="piecewise").validate()
    with pytest.raises(ValueError, match="unknown phantom kind"):
        ExperimentProtocol(phantom="brain").validate()
    with pytest.raises(ValueError, match="at least 32"):
        replace(small_protocol(), size=16).validate()


@pytest.mark.parametrize("repeat", [{"seeds": (0, 0, 1)}, {"sigmas": (20.0, 20)},
                                    {"methods": ("haar-cs1", "haar-cs1")}],
                         ids=["seeds", "sigmas", "methods"])
def test_protocol_rejects_repeated_entries(repeat):
    # runs are keyed by (method, sigma, seed): a repeat would be counted twice
    with pytest.raises(ValueError, match="repeats"):
        replace(small_protocol(), **repeat).validate()


@pytest.mark.parametrize("bad", [{"J": 0}, {"J": -1}, {"J": 2.5}, {"J": 7}, {"lam": 1.5}],
                         ids=["J0", "J-1", "J2.5", "J7", "lam"])
def test_protocol_rejects_levels_and_blend_before_any_run(bad, monkeypatch):
    # 2^7 exceeds the 64x64 phantom; a bad setting once surfaced from the pool's jobs
    monkeypatch.setattr(pipeline, "_mc_single", lambda *args: pytest.fail("a run started"))
    with pytest.raises(ValueError, match="J=" if "J" in bad else "lambda"):
        monte_carlo_experiment(replace(small_protocol(), **bad))


def test_monte_carlo_rows_and_schema():
    rows = monte_carlo_experiment(small_protocol())
    assert len(rows) == 2
    for row in rows:
        assert tuple(row) == CSV_COLUMNS
        assert row["seed_count"] == 2
        assert row["psnr_se"] >= 0.0
    by_method = {row["method"] for row in rows}
    assert by_method == {"haar-cs1", "uwt"}


def test_monte_carlo_unbiasedness_of_reported_risk():
    # the risk column estimates the x-domain squared error, so the two
    # means must track each other on average
    rows = monte_carlo_experiment(small_protocol())
    for row in rows:
        assert row["cure_mean"] == pytest.approx(row["mse_mean"], rel=0.15)


def test_monte_carlo_deterministic_modulo_runtime():
    first = monte_carlo_experiment(small_protocol())
    second = monte_carlo_experiment(small_protocol())
    for a, b in zip(first, second):
        for key in CSV_COLUMNS:
            if key == "runtime_s":
                continue
            assert a[key] == b[key]


def test_format_csv_layout():
    rows = monte_carlo_experiment(small_protocol())
    text = format_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(rows)
    assert len(lines[1].split(",")) == len(CSV_COLUMNS)


def test_denoise_result_array_protocol_takes_the_copy_keyword():
    mu = make_phantom("shepp-logan", 32)
    res = denoise_mr(sample_rician(mu, 20.0, seed=3), sigma=20.0, method="uwt")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plain = np.array(res)
        copied = np.array(res, copy=True)
        single = np.asarray(res, dtype=np.float32)
    np.testing.assert_array_equal(plain, res.estimate)
    np.testing.assert_array_equal(copied, res.estimate)
    assert not np.shares_memory(copied, res.estimate)
    assert single.dtype == np.float32
    np.testing.assert_array_equal(single, res.estimate.astype(np.float32))
