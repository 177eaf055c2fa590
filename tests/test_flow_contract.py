"""Every public flow and mesh consumer takes a finite (H, W, 2) array.

Each consumer below gets one field in one argument slot, all other
arguments valid.  A NaN, +inf or -inf entry raises DataError, a last axis
other than 2 raises ShapeError, and where the field's (H, W) must match
another input (a sensor, an image, features, a second field), a field of
the wrong size raises ShapeError; where it need not, a field with no rows
does.  The valid field passes, so each raise comes from the field under
test.
"""

import numpy as np
import pytest

from evmeshflow import (
    AttentionOperator,
    DataError,
    EventStream,
    MeshGridSpec,
    ShapeError,
    angular_error,
    backward_warp,
    cdc_fuse,
    confidence_fuse,
    downsample_to_mesh,
    epe,
    extract_meshflow,
    f2_smooth,
    flow_to_color,
    npe,
    outlier_pct,
    propagate,
    spatial_guided_subsample,
    temporal_guided_subsample,
    upsample_bilinear,
    upsample_flow_bilinear,
    warp_events,
    warp_features,
    write_flo1,
    write_msh1,
)

N = 8
SPEC = MeshGridSpec(2, 2)


def _ones():
    return np.ones((N, N, 2))


def _stream():
    gy, gx = np.mgrid[0:N, 0:N]
    t = np.arange(N * N, dtype=np.int64) * 1000
    return EventStream(gx.ravel(), gy.ravel(), t, np.ones(N * N, np.int8), N, N, 0, int(t[-1]))


def _attention():
    weights = np.zeros((9, N, N))
    weights[4] = 1.0  # the centre of the 3 x 3 window
    return AttentionOperator(3, weights)


# name -> (call(field, tmp_path), whether the field's (H, W) must match another input)
_CONSUMERS = {
    "propagate": (lambda f, _: propagate(f, SPEC), False),
    "extract_meshflow": (lambda f, _: extract_meshflow(f, SPEC), False),
    "f2_smooth": (lambda f, _: f2_smooth(f), False),
    "upsample_bilinear": (lambda f, _: upsample_bilinear(f, N, N), False),
    "downsample_to_mesh": (lambda f, _: downsample_to_mesh(f, SPEC), False),
    "backward_warp": (lambda f, _: backward_warp(np.ones((N, N)), f), True),
    "cdc_fuse-flow_bar": (lambda f, _: cdc_fuse(f, _ones(), _attention()), True),
    "cdc_fuse-delta": (lambda f, _: cdc_fuse(_ones(), f, _attention()), True),
    "confidence_fuse-flow_bar": (
        lambda f, _: confidence_fuse(f, _ones(), np.ones((N, N))), True
    ),
    "confidence_fuse-flow_tilde": (
        lambda f, _: confidence_fuse(_ones(), f, np.ones((N, N))), True
    ),
    "upsample_flow_bilinear": (lambda f, _: upsample_flow_bilinear(f, 2), False),
    "AttentionOperator.apply": (lambda f, _: _attention().apply(f), True),
    "epe-pred": (lambda f, _: epe(f, _ones()), True),
    "epe-gt": (lambda f, _: epe(_ones(), f), True),
    "npe-pred": (lambda f, _: npe(f, _ones(), 1.0), True),
    "npe-gt": (lambda f, _: npe(_ones(), f, 1.0), True),
    "angular_error-pred": (lambda f, _: angular_error(f, _ones()), True),
    "angular_error-gt": (lambda f, _: angular_error(_ones(), f), True),
    "outlier_pct-pred": (lambda f, _: outlier_pct(f, _ones()), True),
    "outlier_pct-gt": (lambda f, _: outlier_pct(_ones(), f), True),
    "warp_features": (lambda f, _: warp_features(np.ones((3, N, N)), f), True),
    "warp_events": (lambda f, _: warp_events(_stream(), f, 0.0, 0.0, 1000.0), True),
    "spatial_guided_subsample": (
        lambda f, _: spatial_guided_subsample(_stream(), f, 0.25), True
    ),
    "temporal_guided_subsample": (
        lambda f, _: temporal_guided_subsample(_stream(), f, 0.5), True
    ),
    "write_flo1": (lambda f, tmp: write_flo1(tmp / "flow.flo1", f), False),
    "write_msh1": (lambda f, tmp: write_msh1(tmp / "mesh.msh1", f), False),
    "flow_to_color": (lambda f, _: flow_to_color(f), False),
}


# Meshes need 2 vertices per axis; test_array_contract pins one-vertex meshes.
_MESH_CONSUMERS = ("upsample_bilinear", "write_msh1")


def _cases():
    for name, (call, sized) in _CONSUMERS.items():
        faults = ["valid", "nan", "+inf", "-inf", "last-axis-3"]
        if sized:
            faults.append("size")
        elif name not in _MESH_CONSUMERS:
            faults.append("empty")
        for fault in faults:
            yield pytest.param(call, fault, id=f"{name}-{fault}")


@pytest.mark.parametrize("call, fault", list(_cases()))
def test_flow_contract(tmp_path, call, fault):
    field = _ones()
    if fault == "valid":
        call(field, tmp_path)
        return
    if fault == "last-axis-3":
        expected, match = ShapeError, r"\(H, W, 2\)"
        field = np.ones((N, N, 3))
    elif fault == "size":
        expected, match = ShapeError, None
        field = np.ones((N - 1, N, 2))
    elif fault == "empty":
        expected, match = ShapeError, "non-empty"
        field = np.ones((0, N, 2))
    else:
        expected, match = DataError, "finite"
        field[3, 5, 1] = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}[fault]
    with pytest.raises(expected, match=match):
        call(field, tmp_path)
