import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import scalar_bilinear_sample
from evmeshflow import seeded_rng
from evmeshflow.sampling import bilinear_sample, bilinear_sample_wrapped


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


@st.composite
def _grid_and_positions(draw):
    """A small non-square grid and positions inside, on the edge of and off it."""
    height, width = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    values = draw(
        st.lists(
            st.floats(-1e3, 1e3, allow_nan=False),
            min_size=height * width,
            max_size=height * width,
        )
    )

    def coord(size):
        return st.one_of(
            st.integers(-2 * size, 2 * size).map(float),
            st.sampled_from([size - 1.0, size - 0.5, -0.5, -1e-9, size - 1e-12]),
            st.floats(-3.0 * size, 3.0 * size, allow_nan=False),
        )

    n = draw(st.integers(1, 30))
    xs = draw(st.lists(coord(width), min_size=n, max_size=n))
    ys = draw(st.lists(coord(height), min_size=n, max_size=n))
    return np.array(values).reshape(height, width), np.array(xs), np.array(ys)


@pytest.mark.parametrize("wrap", [False, True], ids=["clamped", "wrapped"])
@settings(max_examples=150, deadline=None)
@given(case=_grid_and_positions())
def test_matches_scalar_oracle_bytes(wrap, case):
    values, xs, ys = case
    sample = bilinear_sample_wrapped if wrap else bilinear_sample
    out = sample(values, xs, ys)
    assert out.tobytes() == scalar_bilinear_sample(values, xs, ys, wrap).tobytes()
