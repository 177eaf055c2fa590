"""Synthetic event-camera data generation and meshflow estimation toolkit.

The package covers the full desk-scale pipeline: analytic scenes with exact
ground-truth flow, adaptive frame sampling, an ideal threshold-crossing
event simulator, voxel/density representations, contrast-maximization
stream selection, mesh-vertex flow extraction with median filtering,
dilated cost-volume correlation, detail-completion and density fusion
operators, evaluation metrics, and binary artifact formats behind a CLI.
"""

import types as _types

from .cmax import (
    WarpedEvents,
    accumulate_iwe,
    contrast,
    select_best,
    two_sided_components,
    two_sided_score,
    warp_events,
)
from .correlation import (
    CostVolume,
    SearchGrid,
    average_pool,
    correlate,
    dilated_mask,
    warp_features,
)
from .errors import (
    DataError,
    FormatError,
    ParameterError,
    RangeError,
    ShapeError,
    StepLimitError,
)
from .events import (
    EventStream,
    FrameSequence,
    multi_density_sweep,
    render_sequence,
    shuffle_timestamps,
    simulate,
    spatial_guided_subsample,
    temporal_guided_subsample,
)
from .io import (
    flow_to_color,
    read_evt1,
    read_flo1,
    read_msh1,
    read_pgm,
    write_csv_rows,
    write_evt1,
    write_flo1,
    write_msh1,
    write_pgm,
    write_ppm,
)
from .fusion import (
    DEFAULT_ALPHA,
    DEFAULT_LAMBDA_MDC,
    DEFAULT_LAMBDA_MDS,
    DEFAULT_XI,
    AttentionOperator,
    cdc_fuse,
    confidence_fuse,
    mdc_loss,
    mds_fuse,
    mds_loss,
    total_loss,
    upsample_flow_bilinear,
)
from .mesh import (
    MeshGridSpec,
    VertexCandidates,
    alignment_error,
    backward_warp,
    cell_center_pixels,
    downsample_to_mesh,
    extract_meshflow,
    f1_median,
    f2_smooth,
    propagate,
    upsample_bilinear,
)
from .metrics import angular_error, epe, npe, outlier_pct
from .scene import (
    MotionSpec,
    Scene,
    adaptive_timestamps,
    flow_at_points,
    flow_between,
    render_frame,
    scene_texture,
    seeded_rng,
    velocity_field,
)
from .voxel import density, voxelize

__version__ = "0.1.0"

# Every public name bound above; submodules such as `io` are left out so
# that `from evmeshflow import *` does not shadow the standard library.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
