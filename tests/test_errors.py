"""The real-argument rule at every float argument of the package."""

import numpy as np
import pytest

from spectral_robustness import (
    CorruptionSpec,
    InvalidInputError,
    PathSpec,
    clopper_pearson,
    make_blobs,
    powerlaw_images,
    radial_mask,
    sample_path_specs,
)

# (argument name, call with the argument set to v)
REAL_ARGUMENTS = [
    ("noise", lambda v: make_blobs((1, 4, 4), 2, 2, noise=v)),
    ("slope", lambda v: powerlaw_images((1, 4, 4), 2, slope=v)),
    ("param", lambda v: CorruptionSpec("brightness", v)),
    ("rho", lambda v: radial_mask(4, 4, v)),
    ("cutoff", lambda v: PathSpec("amplitude", 0, 1, "between", v, 10, 0)),
    ("rho", lambda v: sample_path_specs([0, 1, 0, 1], 2, "amplitude", "between", v)),
    ("alpha", lambda v: clopper_pearson(3, 10, v)),
]
REAL_IDS = ["make_blobs-noise", "powerlaw_images-slope", "CorruptionSpec-param", "radial_mask-rho",
            "PathSpec-cutoff", "sample_path_specs-rho", "clopper_pearson-alpha"]


@pytest.mark.parametrize("value", [True, "0.4", None], ids=["bool", "str", "None"])
@pytest.mark.parametrize("name, call", REAL_ARGUMENTS, ids=REAL_IDS)
def test_non_real_argument_rejected(name, call, value):
    with pytest.raises(InvalidInputError) as info:
        call(value)
    assert str(info.value) == f"{name} must be a real number, got {value!r}"


@pytest.mark.parametrize("value", [np.float32(0.25), np.float64(0.25)], ids=["float32", "float64"])
@pytest.mark.parametrize("name, call", REAL_ARGUMENTS, ids=REAL_IDS)
def test_numpy_reals_accepted(name, call, value):
    call(value)
