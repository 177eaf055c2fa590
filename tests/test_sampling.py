import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import scalar_bilinear_sample
from evmeshflow import (
    AttentionOperator,
    MeshGridSpec,
    cdc_fuse,
    downsample_to_mesh,
    seeded_rng,
    upsample_flow_bilinear,
)
from evmeshflow.sampling import bilinear_sample
from evmeshflow.scene import _sample_torus, _wrap_pad


@pytest.mark.parametrize("positions", ["grid", "broadcast", "scattered"])
def test_channel_stack_is_c_contiguous_and_equals_per_channel(positions):
    """(C, H, W) input samples to a C-ordered stack of the 2-D samples."""
    rng = seeded_rng(3)
    if positions == "grid":
        gy, gx = np.mgrid[0:23, 0:31].astype(np.float64)
        x, y = gx + rng.uniform(-3, 3, (23, 31)), gy + rng.uniform(-3, 3, (23, 31))
    elif positions == "broadcast":
        x, y = rng.uniform(-2, 33, (1, 40)), rng.uniform(-2, 25, (17, 1))
    else:
        x, y = rng.uniform(-2, 33, 50), rng.uniform(-2, 25, 50)
    for channels in (5, 32):
        values = rng.standard_normal((channels, 23, 31))
        out = bilinear_sample(values, x, y)
        assert out.flags.c_contiguous
        expected = np.stack([bilinear_sample(plane, x, y) for plane in values])
        assert out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()


def _per_component(field, x, y):
    """One bilinear_sample per flow component, stacked channels last."""
    return np.stack([bilinear_sample(field[..., c], x, y) for c in (0, 1)], axis=-1)


@pytest.mark.parametrize("height, width", [(23, 37), (40, 17)])
def test_one_call_field_sampling_equals_per_component_bytes(height, width):
    """Sites that sample both flow components in one call match two calls."""
    rng = seeded_rng(11)
    flow = rng.normal(size=(height, width, 2))
    spec = MeshGridSpec(5, 3)
    gx, gy = np.meshgrid(
        np.arange(spec.vertices_x) * (width / spec.cells_x),
        np.arange(spec.vertices_y) * (height / spec.cells_y),
    )
    want_mesh = _per_component(flow, gx, gy)

    factor = 3
    gx, gy = np.meshgrid(
        (np.arange(width * factor) + 0.5) / factor - 0.5,
        (np.arange(height * factor) + 0.5) / factor - 0.5,
    )
    want_up = _per_component(flow, gx, gy) * factor

    delta = rng.uniform(-2, 2, size=(height, width, 2))
    weights = rng.random((9, height, width))
    attention = AttentionOperator(3, weights / weights.sum(axis=0))
    gy, gx = np.mgrid[0:height, 0:width].astype(np.float64)
    warped = _per_component(flow, gx + delta[..., 0], gy + delta[..., 1])
    alpha = 0.6
    want_fused = alpha * warped + (1.0 - alpha) * attention.apply(flow)

    for got, want in (
        (downsample_to_mesh(flow, spec), want_mesh),
        (upsample_flow_bilinear(flow, factor), want_up),
        (cdc_fuse(flow, delta, attention, alpha), want_fused),
    ):
        assert got.flags.c_contiguous and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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
# np.mod rounds -5e-324 up to the width: the torus then reads columns 0
# and 1, and the sum of signed zeros shows which one was read.
@example(case=(np.array([[-0.0, 1.0], [-1.0, 2.0]]), np.array([-5e-324]), np.array([0.0])))
def test_matches_scalar_oracle_bytes(wrap, case):
    """bilinear_sample, and the scene's reader of wrap-padded grids."""
    values, xs, ys = case
    if wrap:
        out = _sample_torus(_wrap_pad(values), xs, ys)
    else:
        out = bilinear_sample(values, xs, ys)
    assert out.tobytes() == scalar_bilinear_sample(values, xs, ys, wrap).tobytes()
