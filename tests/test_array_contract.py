"""Every public image, plane-stack and mesh consumer checks its shape.

Each consumer below gets one array in one argument slot, all other
arguments valid.  An array of another rank raises ShapeError.  Where the
array's size is fixed by another input (a second image or stack, a flow,
a window), an array one row short raises ShapeError, and where its plane
count is fixed, one plane short does too.  Where no other input fixes
its rows, an array with none raises ShapeError, and where none fixes its
plane count, a stack with no planes does too.  A mesh one vertex wide
raises ShapeError.  The valid array passes, so each raise comes from the
array under test.  The cases at the end pin that a NaN bound fails and
that a count must be an integer: a float, even a whole one, NaN or a
bool fails, while a numpy integer passes.  Event components are integer
arrays too, checked before they are cast to the stream's dtypes, on a
sensor and span whose bounds fit those dtypes.
"""

import math
import struct

import numpy as np
import pytest

from evmeshflow import (
    AttentionOperator,
    DataError,
    EventStream,
    FormatError,
    MeshGridSpec,
    MotionSpec,
    ParameterError,
    Scene,
    SearchGrid,
    ShapeError,
    alignment_error,
    backward_warp,
    confidence_fuse,
    contrast,
    correlate,
    density,
    downsample_to_mesh,
    extract_meshflow,
    mdc_loss,
    mds_fuse,
    mds_loss,
    npe,
    read_flo1,
    render_frame,
    seeded_rng,
    total_loss,
    upsample_bilinear,
    upsample_flow_bilinear,
    voxelize,
    warp_features,
    write_msh1,
    write_pgm,
)

N = 8
C = 3
GRID = SearchGrid.dilated(2)
ONE_WIDE = ("one-row", "one-column")


def _image():
    return np.ones((N, N))


def _stack(planes=C):
    return np.ones((planes, N, N))


def _flow():
    return np.ones((N, N, 2))


def _weights():
    weights = np.zeros((9, N, N))
    weights[4] = 1.0  # the centre of the 3 x 3 window
    return weights


def _mesh():
    return np.ones((3, 4, 2))


# name -> (valid array, call(array, tmp_path), faults beyond "rank")
_IMAGES = {
    "contrast": (_image, lambda a, _: contrast(a), ("empty",)),
    "write_pgm": (_image, lambda a, tmp: write_pgm(tmp / "image.pgm", a), ("empty",)),
    "backward_warp": (_image, lambda a, _: backward_warp(a, _flow()), ("size",)),
    "alignment_error-reference": (
        _image, lambda a, _: alignment_error(a, _image()), ("size",)
    ),
    "alignment_error-candidate": (
        _image, lambda a, _: alignment_error(_image(), a), ("size",)
    ),
    "confidence_fuse-confidence": (
        _image, lambda a, _: confidence_fuse(_flow(), _flow(), a), ("size",)
    ),
}
_STACKS = {
    "correlate-feat_a": (
        _stack, lambda a, _: correlate(a, _stack(), GRID), ("size", "planes")
    ),
    "correlate-feat_b": (
        _stack, lambda a, _: correlate(_stack(), a, GRID), ("size", "planes")
    ),
    "warp_features": (
        _stack, lambda a, _: warp_features(a, _flow()), ("size", "no-planes")
    ),
    "density": (_stack, lambda a, _: density(a), ("empty", "no-planes")),
    "mds_loss-grid_a": (
        _stack, lambda a, _: mds_loss(a, _stack()), ("empty", "no-planes")
    ),
    "mds_loss-grid_b": (
        _stack, lambda a, _: mds_loss(_stack(), a), ("empty", "no-planes")
    ),
    "mds_fuse-grid_mdc": (
        _stack, lambda a, _: mds_fuse(a, _stack(), _stack(2)), ("size", "planes")
    ),
    "mds_fuse-grid_plain": (
        _stack, lambda a, _: mds_fuse(_stack(), a, _stack(2)), ("size", "planes")
    ),
    "mds_fuse-logits": (
        lambda: _stack(2),
        lambda a, _: mds_fuse(_stack(), _stack(), a),
        ("size", "planes"),
    ),
    "AttentionOperator-weights": (
        _weights, lambda a, _: AttentionOperator(3, a), ("planes", "empty")
    ),
}
_MESHES = {
    "write_msh1": (_mesh, lambda a, tmp: write_msh1(tmp / "mesh.msh1", a), ONE_WIDE),
    "upsample_bilinear": (_mesh, lambda a, _: upsample_bilinear(a, N, N), ONE_WIDE),
}

# fault -> the faulty array made from the valid one
_FAULTS = {
    "rank-up": lambda a: a[..., None],
    "rank-down": lambda a: a[0],
    "size": lambda a: a[..., 1:, :],
    "planes": lambda a: a[1:],
    "one-row": lambda a: a[:1],
    "one-column": lambda a: a[:, :1],
    "empty": lambda a: a[..., :0, :],
    "no-planes": lambda a: a[:0],
}


def _cases():
    for table in (_IMAGES, _STACKS, _MESHES):
        for name, (make, call, faults) in table.items():
            for fault in ("valid", "rank-up", "rank-down") + faults:
                yield pytest.param(make, call, fault, id=f"{name}-{fault}")


@pytest.mark.parametrize("make, call, fault", list(_cases()))
def test_array_contract(tmp_path, make, call, fault):
    array = make()
    if fault == "valid":
        call(array, tmp_path)
        return
    with pytest.raises(ShapeError):
        call(_FAULTS[fault](array), tmp_path)


def test_nan_attention_weight_rejected():
    weights = _weights()
    weights[0, 2, 3] = np.nan
    with pytest.raises(DataError, match="non-negative"):
        AttentionOperator(3, weights)


def test_nan_confidence_rejected():
    confidence = np.full((N, N), 0.5)
    confidence[4, 1] = np.nan
    with pytest.raises(DataError, match=r"\[0, 1\]"):
        confidence_fuse(_flow(), _flow(), confidence)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: mdc_loss([_image()], [_image()], np.nan), id="xi"),
        pytest.param(lambda: total_loss(1, 1, 0, lambda_mdc=np.nan), id="lambda_mdc"),
        pytest.param(lambda: total_loss(1, 1, 0, lambda_mds=np.nan), id="lambda_mds"),
    ],
)
def test_nan_loss_scalar_rejected(call):
    with pytest.raises(ParameterError):
        call()


def test_nan_npe_threshold_rejected():
    with pytest.raises(DataError, match="threshold"):
        npe(_flow() + 10.0, _flow(), np.nan)


@pytest.mark.parametrize(
    "cells",
    [(2.5, 2), (2, 2.5), (np.nan, 2), (2, np.nan), (2.0, 2), (True, True), (2, True)],
    ids=str,
)
def test_non_integer_mesh_cells_rejected(cells):
    with pytest.raises(ParameterError, match="whole number"):
        MeshGridSpec(*cells)


def test_numpy_integer_mesh_cells_accepted():
    spec = MeshGridSpec(np.int64(2), np.int32(3))
    assert (spec.vertices_x, spec.vertices_y) == (3, 4)
    for fn in (extract_meshflow, downsample_to_mesh):
        assert fn(np.ones((12, 12, 2)), spec).shape == (4, 3, 2)


@pytest.mark.parametrize(
    "factor",
    [1.5, np.nan, 2.0, np.float64(2.0), True],
    ids=["1.5", "nan", "2.0", "f8-2.0", "bool"],
)
def test_non_integer_upsample_factor_rejected(factor):
    with pytest.raises(ParameterError, match="integer"):
        upsample_flow_bilinear(np.zeros((4, 4, 2)), factor)


def test_numpy_integer_upsample_factor_accepted():
    flow = np.arange(32, dtype=np.float64).reshape(4, 4, 2)
    got = upsample_flow_bilinear(flow, np.int64(2))
    assert got.tobytes() == upsample_flow_bilinear(flow, 2).tobytes()


def _events(**fields):
    kwargs = {"width": N, "height": N, "t_start": 0, "t_end": 10, **fields}
    return EventStream([0], [0], [5], [1], **kwargs)


def _render(**fields):
    kwargs = {"width": N, "height": N, "texture_seed": 3, **fields}
    return render_frame(Scene(motion=MotionSpec("translation", (1.0, 0.0)), **kwargs), 0.5)


# name -> (call(count), a valid count); mesh cells and the upsample factor
# are pinned above.
_COUNTS = {
    "voxelize-bins": (lambda v: voxelize(_events(), v), 2),
    "SearchGrid-radius": (SearchGrid, 2),
    "upsample_bilinear-height": (lambda v: upsample_bilinear(_mesh(), v, N), N),
    "upsample_bilinear-width": (lambda v: upsample_bilinear(_mesh(), N, v), N),
    "AttentionOperator-window": (lambda v: AttentionOperator(v, _weights()), 3),
    "EventStream-width": (lambda v: _events(width=v), N),
    "EventStream-height": (lambda v: _events(height=v), N),
    "EventStream-t_start": (lambda v: _events(t_start=v), 0),
    "EventStream-t_end": (lambda v: _events(t_end=v), 10),
    "Scene-width": (lambda v: _render(width=v), N),
    "Scene-height": (lambda v: _render(height=v), N),
    "Scene-texture_seed": (lambda v: _render(texture_seed=v), 3),
    "seeded_rng-seed": (seeded_rng, 3),
    "seeded_rng-stream": (lambda v: seeded_rng(3, v), 1),
}
_NOT_COUNTS = {
    "fraction": lambda v: v + 0.5,
    "nan": lambda v: math.nan,
    "whole-float": float,
    "bool": lambda v: True,
}


@pytest.mark.parametrize(
    "call, value",
    [
        pytest.param(call, bad(valid), id=f"{name}-{kind}")
        for name, (call, valid) in _COUNTS.items()
        for kind, bad in _NOT_COUNTS.items()
    ],
)
def test_non_integer_count_rejected(call, value):
    with pytest.raises(ParameterError, match="integer"):
        call(value)


@pytest.mark.parametrize(
    "call, valid", [pytest.param(*row, id=name) for name, row in _COUNTS.items()]
)
def test_numpy_integer_count_accepted(call, valid):
    call(np.int64(valid))


# case -> (stream arguments that differ from a valid one-event stream on
# the 8 x 8 sensor, the error they raise).  Each value is one that a cast
# to the stream's dtypes (int32 x and y, int64 t, int8 p) would wrap or
# truncate: x = 2**32 + 1 would be pixel 1, t = 5.7 stamp 5, p = 257 and
# 1.9 polarity +1.  A sensor wider than 2**31 px would let x = 2**31 + 5
# wrap negative, and a span past int64 a uint64 t of 2**63 + 9.  Bounds
# within int64 can still span more than 2**63 - 1 us, which would wrap the
# differences t - t_start.
_MISSTORED_EVENTS = {
    "x-wraps": ({"x": np.array([2**32 + 1])}, DataError),
    "y-wraps": ({"y": np.array([-(2**32) + 3])}, DataError),
    "x-fraction": ({"x": np.array([1.5])}, DataError),
    "t-fraction": ({"t": np.array([5.7])}, DataError),
    "t-whole-float": ({"t": np.array([5.0])}, DataError),
    "p-fraction": ({"p": np.array([1.9])}, DataError),
    "p-wraps": ({"p": np.array([257])}, DataError),
    "x-bool": ({"x": np.array([True])}, DataError),
    "p-bool": ({"p": np.array([True])}, DataError),
    "x-past-int32-sensor": ({"x": np.array([2**31 + 5]), "width": 2**32}, ParameterError),
    "t-past-int64-span": (
        {"t": np.array([2**63 + 9], np.uint64), "t_end": 2**64},
        ParameterError,
    ),
    "span-past-int64": (
        {
            "x": [1, 1], "y": [1, 1], "p": [1, 1],
            "t": np.array([-(2**62) - 5, 2**62 + 5]),
            "t_start": -(2**63), "t_end": 2**63 - 1,
        },
        DataError,
    ),
}


@pytest.mark.parametrize(
    "changes, error", [pytest.param(*row, id=name) for name, row in _MISSTORED_EVENTS.items()]
)
def test_misstored_event_rejected(changes, error):
    stream = {"x": [1], "y": [1], "t": [5], "p": [1]}
    stream |= {"width": N, "height": N, "t_start": 0, "t_end": 10}
    with pytest.raises(error):
        EventStream(**(stream | changes))


def test_narrow_integer_events_keep_their_values():
    wide = EventStream([1, 7], [0, 7], [5, 9], [1, -1], N, N, 0, 10)
    narrow = EventStream(
        np.array([1, 7], np.uint16), np.array([0, 7], np.int8),
        np.array([5, 9], np.uint32), np.array([1, -1], np.int64), N, N, 0, 10,
    )
    for field in ("x", "y", "t", "p"):
        assert getattr(narrow, field).tobytes() == getattr(wide, field).tobytes()


def test_empty_image_not_written(tmp_path):
    path = tmp_path / "image.pgm"
    with pytest.raises(ShapeError):
        write_pgm(path, np.zeros((0, 4)))
    assert not path.exists()


@pytest.mark.parametrize("width, height", [(0, 3), (3, 0)])
def test_flo1_without_pixels_rejected(tmp_path, width, height):
    path = tmp_path / "flat.flo1"
    path.write_bytes(struct.pack("<4s2I", b"FLO1", width, height))
    with pytest.raises(FormatError, match="at least one cell"):
        read_flo1(path)


@pytest.mark.parametrize(
    "t_start, t_end", [(-math.inf, 1.0), (0.0, math.inf)], ids=["-inf", "+inf"]
)
def test_infinite_scene_span_rejected(t_start, t_end):
    with pytest.raises(ParameterError, match="finite"):
        Scene(N, N, 3, MotionSpec("translation", (1.0, 0.0)), t_start, t_end)
