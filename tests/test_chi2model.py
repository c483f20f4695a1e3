import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import hypothesis.extra.numpy as hnp

from curelet.chi2model import (
    ComplexImage,
    NoisyField,
    estimate_sigma_background,
    moments,
    reconstruct_magnitude,
    rescale_squared,
    sample_chi2,
    sample_complex,
    sample_rician,
)


def test_noisy_field_rejects_negative_samples():
    with pytest.raises(ValueError):
        NoisyField(samples=np.array([1.0, -0.5]), dof=2)


def test_noisy_field_rejects_nonpositive_dof():
    with pytest.raises(ValueError):
        NoisyField(samples=np.array([1.0]), dof=0)


def test_complex_image_shape_and_sigma_validation():
    with pytest.raises(ValueError):
        ComplexImage(re=np.zeros(3), im=np.zeros(4), sigma=1.0)
    with pytest.raises(ValueError):
        ComplexImage(re=np.zeros(3), im=np.zeros(3), sigma=0.0)


def test_sample_chi2_central_mean():
    # E[y] = x + K; x = 0, K = 2: sample mean within 3 SE at 1e5 draws
    y = sample_chi2(np.zeros(100_000), K=2, seed=7).samples
    se = y.std() / np.sqrt(y.size)
    assert abs(y.mean() - 2.0) <= 3 * se


def test_sample_chi2_variance_x4():
    # Var(y) = 2K + 4x = 20 at x=4, K=2; 4-SE tolerance at 1e6 draws
    # (SE of the sample variance measured once at ~0.041)
    y = sample_chi2(np.full(1_000_000, 4.0), K=2, seed=11).samples
    assert abs(y.var() - 20.0) <= 0.17


def test_sample_chi2_deterministic():
    a = sample_chi2(np.full((8, 8), 3.0), K=4, seed=123).samples
    b = sample_chi2(np.full((8, 8), 3.0), K=4, seed=123).samples
    np.testing.assert_array_equal(a, b)
    c = sample_chi2(np.full((8, 8), 3.0), K=4, seed=124).samples
    assert not np.array_equal(a, c)


def test_sample_chi2_rejects_non_integer_dof():
    with pytest.raises(ValueError):
        sample_chi2(np.ones(4), K=2.5, seed=0)
    with pytest.raises(ValueError):
        sample_chi2(np.ones(4), K=0, seed=0)


def test_moments_zero_field():
    mean, esq = moments(np.array([0.0, 0.0]), K=2)
    np.testing.assert_allclose(mean, [2.0, 2.0])
    assert esq == pytest.approx(16.0)


def test_moments_single_sample():
    mean, esq = moments(np.array([4.0]), K=2)
    np.testing.assert_allclose(mean, [6.0])
    assert esq == pytest.approx(56.0)
    # implied variance 56 - 36 = 20 equals 2K + 4x
    assert esq - mean[0] ** 2 == pytest.approx(2 * 2 + 4 * 4)


@pytest.mark.parametrize("x_val,K", [(0.0, 2), (4.0, 2), (2.5, 4), (10.0, 1)])
def test_sampling_matches_moments(x_val, K):
    n = 100_000
    y = sample_chi2(np.full(n, x_val), K=K, seed=int(x_val * 10 + K)).samples
    mean, esq = moments(np.full(n, x_val), K=K)
    se_mean = y.std() / np.sqrt(n)
    assert abs(y.mean() - mean[0]) <= 4 * se_mean
    sq = y * y
    se_sq = sq.std() / np.sqrt(n)
    assert abs(sq.mean() - esq / n) <= 4 * se_sq


def test_sample_rician_central_case():
    m = sample_rician(np.zeros(200_000), sigma=1.0, seed=3)
    sq = m * m
    se = sq.std() / np.sqrt(sq.size)
    assert abs(sq.mean() - 2.0) <= 4 * se


def test_sample_rician_mean_high_snr():
    # E|m| at mu=10, sigma=1 is 10.0501269367 (confluent hypergeometric
    # closed form evaluated numerically, frozen)
    m = sample_rician(np.full(1_000_000, 10.0), sigma=1.0, seed=5)
    se = m.std() / np.sqrt(m.size)
    assert abs(m.mean() - 10.0501269367) <= 4 * se


def test_rescale_after_rician_matches_chi2_mean():
    mu, sigma = 6.0, 2.0
    m = sample_rician(np.full(400_000, mu), sigma=sigma, seed=9)
    y = rescale_squared(m, sigma)
    assert y.dof == 2.0
    se = y.samples.std() / np.sqrt(y.size)
    assert abs(y.samples.mean() - (mu**2 / sigma**2 + 2.0)) <= 4 * se


def test_sample_complex_carries_sigma():
    img = sample_complex(np.full((4, 4), 3.0), sigma=1.5, seed=2)
    assert img.sigma == 1.5
    assert img.magnitude.shape == (4, 4)


def test_rescale_squared_examples():
    np.testing.assert_allclose(rescale_squared(np.array([5.0]), 1.0).samples, [25.0])
    np.testing.assert_allclose(rescale_squared(np.array([3.0, 4.0]), 2.0).samples, [2.25, 4.0])


@given(
    m=hnp.arrays(np.float64, 8, elements=st.floats(0, 100)),
    sigma=st.floats(0.1, 50),
)
def test_rescale_squared_scale_identity(m, sigma):
    y = rescale_squared(m, sigma)
    np.testing.assert_allclose(y.samples * sigma**2, m * m, atol=1e-9)


def test_rescale_squared_rejects_bad_sigma():
    for sigma in (0.0, np.inf):
        with pytest.raises(ValueError):
            rescale_squared(np.array([1.0]), sigma)


def test_reconstruct_magnitude_examples():
    assert reconstruct_magnitude(np.array([9.0]), 1.0, 0.5)[0] == pytest.approx(3.0)
    assert reconstruct_magnitude(np.array([-4.0]), 1.0, 0.5)[0] == pytest.approx(1.0)
    assert reconstruct_magnitude(np.array([-4.0]), 2.0, 0.0)[0] == pytest.approx(0.0)


def test_reconstruct_magnitude_rejects_bad_lambda():
    with pytest.raises(ValueError):
        reconstruct_magnitude(np.array([1.0]), 1.0, 1.5)


@given(
    xhat=hnp.arrays(np.float64, 16, elements=st.floats(0, 1e6)),
    lam=st.floats(0, 1),
    sigma=st.floats(0.01, 100),
)
def test_reconstruct_magnitude_positive_branch(xhat, lam, sigma):
    # for xhat >= 0 both branches agree: output is sigma*sqrt(xhat), any lambda
    out = reconstruct_magnitude(xhat, sigma, lam)
    np.testing.assert_allclose(out, sigma * np.sqrt(xhat), rtol=1e-12, atol=1e-12)


@given(data=st.data())
@settings(max_examples=50)
def test_reconstruct_magnitude_monotone(data):
    vals = data.draw(hnp.arrays(np.float64, 32, elements=st.floats(0, 1e4)))
    lam = data.draw(st.floats(0, 1))
    xs = np.sort(vals)
    out = reconstruct_magnitude(xs, 1.0, lam)
    assert np.all(np.diff(out) >= -1e-12)


def test_estimate_sigma_background_exact():
    m = np.array([2.0, 2.0] + [99.0] * 30)
    mask = np.array([True, True] + [False] * 30)
    # only 2 masked pixels: below the floor, must raise
    with pytest.raises(ValueError):
        estimate_sigma_background(m, mask)
    m16 = np.full(16, 2.0)
    assert estimate_sigma_background(m16, np.ones(16, bool)) == pytest.approx(np.sqrt(2.0))


def test_estimate_sigma_background_monte_carlo():
    # sigma=3 background, |S|=4096: estimate lands in [2.9, 3.1]
    # (100-trial check run once; worst deviation was well inside)
    for seed in range(5):
        m = sample_rician(np.zeros(4096), sigma=3.0, seed=seed)
        est = estimate_sigma_background(m, np.ones(4096, bool))
        assert 2.9 <= est <= 3.1


def test_estimate_sigma_background_empty_mask():
    with pytest.raises(ValueError):
        estimate_sigma_background(np.ones(64), np.zeros(64, bool))


@given(c=st.floats(0.1, 10))
@settings(max_examples=25)
def test_estimate_sigma_scale_equivariant(c):
    m = sample_rician(np.zeros(1024), sigma=2.0, seed=42)
    mask = np.ones(1024, bool)
    base = estimate_sigma_background(m, mask)
    scaled = estimate_sigma_background(c * m, mask)
    assert scaled == pytest.approx(c * base, rel=1e-12)
