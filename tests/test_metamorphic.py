"""Exact symmetries of the whole denoisers: periodic rolls, transposition,
and the scale of the magnitudes.

Each holds in exact arithmetic, so rounding leaves ~1e-14 relative, while
a swapped axis, a mislabeled orientation or a roll in the wrong direction
deviates at O(1e-3) or more. The data is one piecewise 64x64 chi-square
draw; the pyramid denoisers are rolled by multiples of 2^J only, since
their decimation fixes a grid.
"""

from functools import partial

import numpy as np
import pytest

from curelet.chi2model import sample_chi2, sample_rician
from curelet.pipeline import METHODS, denoise_mr, make_phantom
from curelet.shrinkage import cureshrink_denoise, haar_curelet_denoise, uwt_curelet_denoise
from curelet.transforms import SPIN_COUNTS

REL = 1e-12
SIZE, SIGMA, J = 64, 20.0, 3

UWT = {transform: partial(uwt_curelet_denoise, K=2.0, transform=transform, J=J)
       for transform in ("haar-uwt", "bdct", "mixed")}
PYRAMID = {**{f"haar-cs{n}": partial(haar_curelet_denoise, K=2.0, J=J, spins=n)
              for n in SPIN_COUNTS},
           "cureshrink": partial(cureshrink_denoise, K=2.0, J=J)}


@pytest.fixture(scope="module")
def y():
    x = (make_phantom("piecewise", SIZE) / SIGMA) ** 2
    return sample_chi2(x, 2, seed=61).samples.reshape(x.shape)


def transpose(a):
    # a column-major view: the filterbank denoisers once raised on one
    return a.T


def roll_by(shift):
    return partial(np.roll, shift=shift, axis=(0, 1))


def assert_equivariant(denoise, y, move):
    # denoise(move(y)) == move(denoise(y)), and the risk does not move
    est, report = denoise(y)
    moved, moved_report = denoise(move(y))
    assert np.abs(moved - move(est)).max() <= REL * np.abs(est).max()
    assert moved_report.cure == pytest.approx(report.cure, rel=REL, abs=0.0)


@pytest.mark.parametrize("name", list(UWT))
@pytest.mark.parametrize("move", [roll_by((3, 5)), transpose], ids=["roll", "transpose"])
def test_filterbank_denoiser_commutes_with_rolls_and_transpose(y, name, move):
    assert_equivariant(UWT[name], y, move)


@pytest.mark.parametrize("name", list(PYRAMID))
@pytest.mark.parametrize("move", [roll_by((2 ** J, 2 * 2 ** J)), transpose],
                         ids=["roll", "transpose"])
def test_pyramid_denoiser_commutes_with_grid_rolls_and_transpose(y, name, move):
    # spins=8 once spun over a schedule prefix that was not closed under
    # swapping the axes, and its transpose deviated 0.2 relative
    assert_equivariant(PYRAMID[name], y, move)


@pytest.mark.parametrize("method", METHODS)
def test_denoise_mr_is_invariant_to_the_scale_of_the_magnitudes(method):
    # (m, sigma) -> (c m, c sigma) leaves the chi-square data m^2 / sigma^2,
    # so the estimate scales by c and xhat and cure stay
    m = sample_rician(make_phantom("piecewise", SIZE), SIGMA, seed=62)
    base = denoise_mr(m, sigma=SIGMA, method=method)
    for c in (1e-3, 7.0, 1e4):
        got = denoise_mr(c * m, sigma=c * SIGMA, method=method)
        assert np.abs(got.estimate - c * base.estimate).max() <= REL * c * base.estimate.max()
        assert np.abs(got.xhat - base.xhat).max() <= REL * np.abs(base.xhat).max()
        assert got.cure == pytest.approx(base.cure, rel=REL, abs=0.0)
