"""Exception types shared across the toolkit.

Everything derives from ValueError so callers that do not care about the
distinction can catch one base class; the CLI maps each subtype to a
stage-labelled message and a nonzero exit code.  The `_check_*` functions
hold the one contract each kind of input meets: an integer count within
its bounds, and a non-empty (H, W) image, (N, H, W) plane stack,
finite (H, W, 2) flow or flow-shaped mesh of 2+ vertices per axis.
"""

from numbers import Integral

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


def _check_int(
    value, name: str, minimum: int | None = None, maximum: int | None = None
) -> int:
    """int(value) for a Python or numpy integer in [minimum, maximum]; ParameterError otherwise.

    Either bound may be None for no bound.  A bool is a truth value, not a
    count, and is rejected like any non-integer.
    """
    if (
        isinstance(value, Integral)
        and not isinstance(value, bool)
        and (minimum is None or value >= minimum)
        and (maximum is None or value <= maximum)
    ):
        return int(value)
    bound = " and".join(
        f" {op} {b}" for op, b in ((">=", minimum), ("<=", maximum)) if b is not None
    )
    raise ParameterError(f"{name} must be a whole number{bound} given as an integer, got {value!r}")


def _check_layout(array, name: str, layout: tuple, size: tuple | None) -> np.ndarray:
    """Return array as float64 if its shape fits layout and starts with size.

    layout names each axis, and an int entry fixes that axis's length.
    Raises ShapeError on another rank or fixed length, on an empty axis,
    or, when size is given, unless the leading len(size) axes equal size.
    """
    array = np.asarray(array, dtype=np.float64)
    if array.ndim != len(layout) or 0 in array.shape or any(
        isinstance(want, int) and got != want for got, want in zip(array.shape, layout)
    ):
        axes = ", ".join(map(str, layout))
        raise ShapeError(f"expected non-empty ({axes}) {name}, got {array.shape}")
    if size is not None and array.shape[: len(size)] != size:
        raise ShapeError(f"{name} is {array.shape[: len(size)]}, expected {size}")
    return array


def _check_image(image, name: str = "image", size: tuple | None = None) -> np.ndarray:
    """Return image as float64 if it is (H, W), and of shape size if given."""
    return _check_layout(image, name, ("H", "W"), size)


def _check_stack(stack, name: str, size: tuple | None = None) -> np.ndarray:
    """Return stack as float64 if it is (N, H, W), and of shape size if given."""
    return _check_layout(stack, name, ("N", "H", "W"), size)


def _check_flow(field, name: str = "flow", size: tuple | None = None) -> np.ndarray:
    """Return field as float64 if it is a finite (H, W, 2) flow or mesh.

    Raises ShapeError unless the array is non-empty and 3-D with a last axis
    of 2, or, when size is given, unless its (H, W) equals size; raises
    DataError on a NaN or an infinity.
    """
    field = _check_layout(field, name, ("H", "W", 2), size)
    if not np.isfinite(field).all():
        raise DataError(f"{name} must be finite")
    return field


def _check_mesh(mesh) -> np.ndarray:
    """_check_flow, plus ShapeError unless the mesh has 2 vertices per axis."""
    mesh = _check_flow(mesh, "mesh")
    if min(mesh.shape[:2]) < 2:
        raise ShapeError("mesh needs at least 2 vertices per axis")
    return mesh
