import dataclasses
import inspect
import types

import evmeshflow

DELETED = (
    "Event",
    "VertexCandidates",
    "LossWeights",
    "average_pool",
    "cell_center_pixels",
    "incident_density",
    "read_vox1",
    "residual_update",
    "scene_texture",
    "velocity_field",
    "write_events_csv",
    "write_vox1",
)

# Keywords whose only non-default value was passed by unit tests.
DELETED_KEYWORDS = (
    ("accumulate_iwe", "signed"),
    ("accumulate_iwe", "splat"),
    ("two_sided_components", "splat"),
    ("two_sided_score", "splat"),
    ("select_best", "splat"),
    ("correlate", "normalize"),
    ("cdc_fuse", "correction"),
    ("flow_to_color", "max_mag"),
    ("epe", "mask"),
    ("npe", "mask"),
    ("angular_error", "mask"),
    ("outlier_pct", "mask"),
    ("adaptive_timestamps", "max_steps"),
)


def test_every_public_name_resolves_and_none_is_a_module():
    assert evmeshflow.__all__
    for name in evmeshflow.__all__:
        assert not name.startswith("_")
        assert not isinstance(getattr(evmeshflow, name), types.ModuleType), name


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from evmeshflow import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(evmeshflow.__all__)
    for submodule in ("io", "cmax", "cli", "events", "errors", "sampling"):
        assert submodule not in namespace


def test_deleted_names_are_gone():
    for name in DELETED:
        assert name not in evmeshflow.__all__
        assert not hasattr(evmeshflow, name)
    assert not hasattr(evmeshflow.EventStream, "event")


def test_deleted_keywords_are_gone():
    for func, keyword in DELETED_KEYWORDS:
        assert keyword not in inspect.signature(getattr(evmeshflow, func)).parameters
    assert not hasattr(evmeshflow.WarpedEvents, "on_sensor")
    assert not hasattr(evmeshflow.cmax, "SPLAT_MODES")
    assert not hasattr(evmeshflow.sampling, "bilinear_sample_wrapped")
    assert not hasattr(evmeshflow.sampling, "_blend")
    assert "t_ref" not in {field.name for field in dataclasses.fields(evmeshflow.WarpedEvents)}
    fields = {field.name for field in dataclasses.fields(evmeshflow.Scene)}
    assert "intensity_floor" not in fields
