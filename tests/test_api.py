import inspect
import types

import evmeshflow

DELETED = (
    "Event",
    "LossWeights",
    "incident_density",
    "read_vox1",
    "residual_update",
    "write_events_csv",
    "write_vox1",
)

# Keywords whose only non-default value was passed by unit tests.
DELETED_KEYWORDS = {
    "accumulate_iwe": "signed",
    "correlate": "normalize",
    "cdc_fuse": "correction",
    "flow_to_color": "max_mag",
}


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
    for func, keyword in DELETED_KEYWORDS.items():
        assert keyword not in inspect.signature(getattr(evmeshflow, func)).parameters
    assert not hasattr(evmeshflow.WarpedEvents, "on_sensor")
