"""Risk-optimized denoising of squared-magnitude MR images.

The noise model is a scaled noncentral chi square per pixel; the risk
statistic is unbiased for the mean squared error without the clean
image, so estimator weights and thresholds can be tuned on the data
alone. `denoise_mr` is the one-call entry point; the submodules expose
the model, the transforms, the risk machinery, and the estimators.
"""

from .chi2model import (
    NoisyField,
    estimate_sigma_background,
    moments,
    reconstruct_magnitude,
    rescale_squared,
    sample_chi2,
    sample_complex,
    sample_rician,
)
from .pipeline import (
    METHODS,
    SIGMA_GRID,
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
from .risk import RiskReport
from .shrinkage import (
    cureshrink_denoise,
    cureshrink_subband,
    haar_curelet_denoise,
    solve_weights,
    uwt_curelet_denoise,
)
from .transforms import (
    FilterBank,
    bdct8_bank,
    haar_uwt_bank,
    parent_field,
)

__all__ = [
    "METHODS",
    "SIGMA_GRID",
    "DenoiseResult",
    "ExperimentProtocol",
    "FilterBank",
    "ImageBuffer",
    "NoisyField",
    "QualityReport",
    "RiskReport",
    "bdct8_bank",
    "cipsnr",
    "cureshrink_denoise",
    "cureshrink_subband",
    "denoise_mr",
    "estimate_sigma_background",
    "format_csv",
    "haar_curelet_denoise",
    "haar_uwt_bank",
    "make_phantom",
    "moments",
    "monte_carlo_experiment",
    "parent_field",
    "psnr",
    "quality_report",
    "reconstruct_magnitude",
    "rescale_squared",
    "sample_chi2",
    "sample_complex",
    "sample_rician",
    "solve_weights",
    "ssim_mean",
    "uwt_curelet_denoise",
]

__version__ = "0.1.0"
