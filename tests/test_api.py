import dataclasses
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import evmeshflow

DELETED = (
    "Event",
    "FrameSequence",
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
    assert not hasattr(evmeshflow, "two_sided_score")
    assert not hasattr(evmeshflow.cmax, "two_sided_score")
    assert not hasattr(evmeshflow.WarpedEvents, "on_sensor")
    assert not hasattr(evmeshflow.cmax, "SPLAT_MODES")
    assert not hasattr(evmeshflow.sampling, "bilinear_sample_wrapped")
    assert not hasattr(evmeshflow.sampling, "_blend")
    assert not hasattr(evmeshflow.fusion, "_check_grid")
    assert not hasattr(evmeshflow.correlation, "_check_features")
    warped_fields = [field.name for field in dataclasses.fields(evmeshflow.WarpedEvents)]
    assert warped_fields == ["xw", "yw", "width", "height"]
    fields = {field.name for field in dataclasses.fields(evmeshflow.Scene)}
    assert "intensity_floor" not in fields
    assert not hasattr(evmeshflow, "dilated_mask")
    assert not hasattr(evmeshflow.correlation, "dilated_mask")
    assert not hasattr(evmeshflow.SearchGrid, "full")
    assert not hasattr(evmeshflow.AttentionOperator, "identity")
    assert [field.name for field in dataclasses.fields(evmeshflow.SearchGrid)] == ["radius"]
    volume_fields = [field.name for field in dataclasses.fields(evmeshflow.CostVolume)]
    assert volume_fields == ["scores", "offsets"]


# Prints the scipy modules loaded so far, as one JSON line.
_PRINT_SCIPY = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _fresh_python(code, *args):
    """Run `code` in a new interpreter; return its stdout lines."""
    env = dict(os.environ, PYTHONPATH=str(Path(evmeshflow.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_import_loads_no_scipy():
    # Importing scipy.spatial takes several times as long as numpy; only
    # the features that need scipy may load it.
    lines = _fresh_python(
        "import evmeshflow, evmeshflow.cli\n"
        "assert callable(evmeshflow.events.cKDTree)\n" + _PRINT_SCIPY
    )
    assert json.loads(lines[-1]) == []


_CLI_CHAIN = """
import sys
from pathlib import Path
from evmeshflow.cli import main

root = Path(sys.argv[1])
scene = ["width=32", "height=32", "velocity=8,-3"]
flo = root / "gen" / "flow_0000_0001.flo1"
events = root / "simulate" / "events_00_c0.1.evt1"


def run(command, *args, out=None):
    assert main([command, "--out", str(root / (out or command)), *args]) == 0, command


run("gen", *scene)
run("simulate", *scene, "thresholds=0.1,0.4")
run("select", f"candidates={events},{root / 'simulate' / 'events_01_c0.4.evt1'}", f"flow={flo}")
run("meshflow", f"flow={flo}", "cells=4")
run("eval", f"pred={flo}", f"gt={flo}")
run("subsample", f"events={events}", f"flow={flo}", "keep_ratio=0.25")
run("subsample", f"events={events}", f"flow={flo}", "keep_ratio=0.5", "mode=temporal",
    out="subsample_temporal")
""" + _PRINT_SCIPY + """
run("gen", "width=32", "height=32", "motion=affine",
    "generator=0.035,-0.07,4.5,0.07,0.025,-3.5", out="gen_affine")
""" + _PRINT_SCIPY


def test_scipy_loads_on_first_use(tmp_path):
    # Subsampling needs no scipy; the affine scene's expm loads scipy.linalg
    # and no other public scipy subpackage.
    before, after = [
        json.loads(line) for line in _fresh_python(_CLI_CHAIN, tmp_path) if line[0] == "["
    ]
    assert before == []
    public = {m.split(".")[1] for m in after if "." in m and m.split(".")[1][0] != "_"}
    assert public == {"linalg", "version"}
