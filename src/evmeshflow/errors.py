"""Exception types shared across the toolkit.

Everything derives from ValueError so callers that do not care about the
distinction can catch one base class; the CLI maps each subtype to a
stage-labelled message and a nonzero exit code.  `_check_flow` holds the
one contract every flow and mesh input meets.
"""

import numpy as np


class ParameterError(ValueError):
    """An argument value is outside its documented domain."""


class ShapeError(ValueError):
    """Array arguments have inconsistent or unsupported shapes."""


class RangeError(ValueError):
    """A coordinate or time lies outside the valid range."""


class DataError(ValueError):
    """Input data violates a structural contract (ordering, weights, ...)."""


class FormatError(ValueError):
    """A serialized artifact could not be parsed."""


class StepLimitError(RuntimeError):
    """An adaptive iteration exceeded its step budget."""


def _check_flow(field, name: str = "flow", size: tuple | None = None) -> np.ndarray:
    """Return field as float64 if it is a finite (H, W, 2) flow or mesh.

    Raises ShapeError unless the array is 3-D with a last axis of 2, or,
    when size is given, unless its (H, W) equals size; raises DataError on
    a NaN or an infinity.
    """
    field = np.asarray(field, dtype=np.float64)
    if field.ndim != 3 or field.shape[2] != 2:
        raise ShapeError(f"expected (H, W, 2) {name}, got {field.shape}")
    if size is not None and field.shape[:2] != size:
        raise ShapeError(f"{name} is {field.shape[:2]}, expected {size}")
    if not np.isfinite(field).all():
        raise DataError(f"{name} must be finite")
    return field
