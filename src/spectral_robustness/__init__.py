"""Spectral analysis and robustness statistics for model evaluation.

Submodules:

- ``spectral``: 2D DFT, amplitude/phase decomposition, radial masks, the
  image-stack validator, PSDs, the paired and class-averaged shift maps and
  their summaries: radial profiles, band fractions
- ``paths``: Fourier amplitude/phase and pixel interpolation paths
- ``corruptions``: synthetic corruption families
- ``path_metrics``: high frequency fraction, consistent distance, summaries
- ``jacobian``: random-projection Jacobian norm estimation, built-in predictors
- ``regression``: Clopper-Pearson, probit, grouped probit-domain regression
- ``tensorio`` / ``tables`` / ``render``: file formats and plot emission
- ``cli``: the ``specrob`` command surface
"""

from .errors import (
    DegenerateFitError,
    InvalidInputError,
    TensorFormatError,
    TraceParseError,
    UndefinedMetricError,
)
from .spectral import (
    BandFractions,
    FourierDecomposition,
    PsdMap,
    RadialMask,
    band_fractions,
    class_averaged_shift_psd,
    decompose,
    dft2,
    image_stack,
    normalized_radius,
    paired_shift_psd,
    psd,
    radial_mask,
    radial_profile,
)
from .paths import (
    InterpolationPath,
    PathSpec,
    amplitude_path,
    build_path,
    phase_path,
    pixel_path,
    sample_path_specs,
    wrap_angle,
)
from .corruptions import CorruptionSpec, corrupt_batch
from .path_metrics import (
    MetricSummary,
    PathMetrics,
    PredictionTrace,
    compute_path_metrics,
    consistent_distance,
    hff,
    summarize_gaussian,
)
from .jacobian import (
    CallablePredictor,
    JacobianConfig,
    JacobianEstimate,
    LinearPredictor,
    MlpPredictor,
    Predictor,
    estimate_jacobian_norm,
    fit_mlp,
    pack_mlp_weights,
)
from .regression import (
    AccuracyRecord,
    GroupFit,
    MetricRecord,
    ModelPoint,
    ProbitRegression,
    clopper_pearson,
    effective_robustness,
    fit_line,
    grouped_regression,
    probit,
)
from .synthetic import make_blobs, powerlaw_images

__version__ = "0.1.0"
