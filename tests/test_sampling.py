import numpy as np
import pytest

from evmeshflow import seeded_rng
from evmeshflow.sampling import bilinear_sample


@pytest.mark.parametrize("positions", ["grid", "broadcast", "scattered"])
def test_channel_stack_is_c_contiguous_and_equals_per_channel(positions):
    """(C, H, W) input samples to a C-ordered stack of the 2-D samples."""
    rng = seeded_rng(3)
    values = rng.standard_normal((5, 23, 31))
    if positions == "grid":
        gy, gx = np.mgrid[0:23, 0:31].astype(np.float64)
        x, y = gx + rng.uniform(-3, 3, (23, 31)), gy + rng.uniform(-3, 3, (23, 31))
    elif positions == "broadcast":
        x, y = rng.uniform(-2, 33, (1, 40)), rng.uniform(-2, 25, (17, 1))
    else:
        x, y = rng.uniform(-2, 33, 50), rng.uniform(-2, 25, 50)
    out = bilinear_sample(values, x, y)
    assert out.flags.c_contiguous
    expected = np.stack([bilinear_sample(plane, x, y) for plane in values])
    assert out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()
