from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import scalar_bilinear_sample
from _peak import traced_peak
from evmeshflow import (
    AttentionOperator,
    MeshGridSpec,
    cdc_fuse,
    downsample_to_mesh,
    propagate,
    seeded_rng,
    upsample_flow_bilinear,
)
from evmeshflow import sampling
from evmeshflow.sampling import _pixel_axes, _sample_channels_last, bilinear_sample
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

    n = draw(st.integers(1, 30))
    xs = draw(st.lists(_coord(width), min_size=n, max_size=n))
    ys = draw(st.lists(_coord(height), min_size=n, max_size=n))
    return np.array(values).reshape(height, width), np.array(xs), np.array(ys)


def _coord(size):
    """Positions on, at the edge of and off an axis of `size` pixels."""
    return st.one_of(
        st.integers(-2 * size, 2 * size).map(float),
        st.sampled_from([size - 1.0, size - 0.5, -0.5, -1e-9, -0.0, size - 1e-12]),
        st.floats(-3.0 * size, 3.0 * size, allow_nan=False),
    )


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


# (x shape, y shape) per position layout; h and w are drawn per case.
_LAYOUTS = {
    "flat": lambda h, w: ((h * w,), (h * w,)),
    "dense": lambda h, w: ((h, w), (h, w)),
    "rows-cols": lambda h, w: ((h, 1), (1, w)),
    "cols-rows": lambda h, w: ((1, w), (h, 1)),
    "one-row": lambda h, w: ((1, w), (1, 1)),
    "0-d": lambda h, w: ((), ()),
    "empty-rows": lambda h, w: ((0, w), (1, w)),
    "empty-cols": lambda h, w: ((h, 0), (h, 1)),
}


@st.composite
def _stack_and_layout(draw):
    """A (C, H, W) stack, C = 1 or 3, and positions in one of _LAYOUTS."""
    channels = draw(st.sampled_from([1, 3]))
    height, width = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    size = channels * height * width
    values = draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=size, max_size=size))
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 9))
    x_shape, y_shape = _LAYOUTS[draw(st.sampled_from(sorted(_LAYOUTS)))](h, w)

    def positions(shape, axis_size):
        count = int(np.prod(shape))
        drawn = draw(st.lists(_coord(axis_size), min_size=count, max_size=count))
        return np.array(drawn, dtype=np.float64).reshape(shape)

    values = np.array(values).reshape(channels, height, width)
    return values, positions(x_shape, width), positions(y_shape, height)


@pytest.mark.parametrize("tile", [1, 3, 7])
@settings(max_examples=100, deadline=None)
@given(case=_stack_and_layout())
# x = -0.0 gives fx = -0.0 - 0 = -0.0, which the sum of signed zeros shows;
# floor(x) is -0.0, so x - floor(x) would give +0.0.
@example(case=(np.array([[[-0.0, 1.0]]]), np.array([-0.0]), np.array([0.0])))
# On the last column (row), the zero-weight neighbour is the sample itself;
# reading the next cell instead would add +0.0 to -0.0.
@example(case=(np.array([[[-0.0, -0.0], [1.0, -0.0]]]), np.array([1.0]), np.array([0.0])))
@example(case=(np.array([[[-0.0, -0.0, -0.0], [-0.0, -0.0, 1.0]]]), np.array([0.0]), np.array([1.0])))
def test_tiles_match_scalar_oracle_bytes(tile, case):
    """Blocks of 1, 3 and 7 samples cross many block edges on small cases."""
    values, x, y = case
    xs, ys = np.broadcast_arrays(x, y)
    want = np.stack(
        [scalar_bilinear_sample(p, xs.ravel(), ys.ravel(), False).reshape(xs.shape) for p in values]
    )
    field = np.ascontiguousarray(np.moveaxis(values, 0, -1))
    # The same channels-last field as a strided view of a wider buffer.
    wide = np.zeros(field.shape[:2] + (2 * len(values),))
    wide[..., ::2] = field
    want_last = np.moveaxis(want, 0, -1)
    with mock.patch.object(sampling, "_TILE", tile):
        got = bilinear_sample(values, x, y)
        plane = bilinear_sample(values[0], x, y)
        last = _sample_channels_last(field, x, y)
        strided = _sample_channels_last(wide[..., ::2], x, y)
        per_channel = np.stack([bilinear_sample(field[..., c], x, y) for c in range(len(values))], -1)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert plane.shape == want.shape[1:] and plane.tobytes() == want[0].tobytes()
    assert last.flags.c_contiguous and last.shape == per_channel.shape
    assert last.tobytes() == per_channel.tobytes() == want_last.tobytes()
    assert strided.shape == last.shape and strided.tobytes() == last.tobytes()


def test_dense_call_builds_no_full_size_temporaries():
    """A dense 256x256 C = 1 call peaks below its output plus 2 MiB.

    Whole-array temporaries (clipped positions, corner indices, weights,
    the gathered term) would each add a 0.5 MiB output's worth.
    """
    rng = seeded_rng(5)
    values = rng.random((256, 256))
    ys, xs = _pixel_axes(256, 256)
    x = xs + rng.uniform(-3.0, 3.0, (256, 256))
    y = ys + rng.uniform(-3.0, 3.0, (256, 256))
    out, peak = traced_peak(bilinear_sample, values, x, y)
    assert peak <= out.nbytes + 2 * 2**20


def test_channels_last_field_is_read_in_place():
    """propagate samples a 256x256 flow without copying it into planes.

    Its peak stays below its output plus 64 KiB; a (2, H, W) copy of the
    flow alone would add 1 MiB.
    """
    flow = seeded_rng(6).standard_normal((256, 256, 2))
    out, peak = traced_peak(propagate, flow, MeshGridSpec())
    assert peak <= out.nbytes + 2**16
