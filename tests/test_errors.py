"""The real-argument rule at every float argument, and the count and shape rules where they were missing."""

import numpy as np
import pytest

from spectral_robustness import (
    CallablePredictor,
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


# (argument name, least value, call with the argument set to v)
COUNT_ARGUMENTS = [
    ("n_outputs", 1, lambda v: CallablePredictor(np.tanh, v, (1, 4, 4))),
    ("source_index", 0, lambda v: PathSpec("pixel", v, 5, "between", 0.4, 10, 0)),
    ("target_index", 0, lambda v: PathSpec("pixel", 5, v, "between", 0.4, 10, 0)),
]


@pytest.mark.parametrize("value", [1.5, True, "2", -1, None], ids=["float", "bool", "str", "negative", "None"])
@pytest.mark.parametrize("name, least, call", COUNT_ARGUMENTS, ids=[name for name, _, _ in COUNT_ARGUMENTS])
def test_non_count_argument_rejected(name, least, call, value):
    with pytest.raises(InvalidInputError) as info:
        call(value)
    assert str(info.value) == f"{name} must be an int >= {least}, got {value!r}"


def test_zero_outputs_rejected():
    with pytest.raises(InvalidInputError, match="^n_outputs must be an int >= 1, got 0$"):
        CallablePredictor(np.tanh, 0, (1, 4, 4))


@pytest.mark.parametrize("value", [np.int32(3), np.int64(3)], ids=["int32", "int64"])
def test_numpy_counts_stored_as_int(value):
    spec = PathSpec("pixel", value, np.int64(0), "between", 0.4, 10, 0)
    assert type(spec.source_index) is int and type(spec.target_index) is int
    assert type(CallablePredictor(np.tanh, value, (1, 4, 4)).n_outputs) is int


@pytest.mark.parametrize("image_shape", [5, None, "188", b"188", np.array(5)], ids=repr)
@pytest.mark.parametrize(
    "generate",
    [
        lambda shape: powerlaw_images(shape, 2),
        lambda shape: make_blobs(shape, 2, 2),
    ],
    ids=["powerlaw_images", "make_blobs"],
)
def test_non_sequence_image_shape_rejected(generate, image_shape):
    with pytest.raises(InvalidInputError) as info:
        generate(image_shape)
    assert str(info.value) == f"image_shape must be three ints >= 1, got {image_shape!r}"
