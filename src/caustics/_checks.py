"""Argument checks shared by the public routines.  Each returns the value in the form its
caller computes with, or raises ``ValidationError`` naming the argument."""
from __future__ import annotations

import cmath
import math
import numbers
import os

import numpy as np

from .errors import ValidationError


def integer(name: str, value, least: int | None = None) -> int:
    """``value`` as an int: an int or numpy integer, never a bool, and at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValidationError(f"{name} must be at least {least}, got {value}")
    return int(value)


def real(name: str, value) -> float:
    """``value`` as a float: a finite real number, never a bool."""
    try:
        ok = (not isinstance(value, bool) and isinstance(value, numbers.Real)
              and math.isfinite(value))
    except OverflowError:  # an int too large for a float
        ok = False
    if not ok:
        raise ValidationError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def number(name: str, value) -> complex:
    """``value`` as a complex: a finite real or complex number, never a bool."""
    try:
        ok = (not isinstance(value, bool) and isinstance(value, numbers.Complex)
              and cmath.isfinite(value))
    except OverflowError:  # an int too large for a float
        ok = False
    if not ok:
        raise ValidationError(f"{name} must be a finite real or complex number, got {value!r}")
    return complex(value)


def path(name: str, value) -> str | os.PathLike:
    """``value`` unchanged if it is a ``str`` or ``os.PathLike``; an int or bool would open a
    file descriptor."""
    if not isinstance(value, (str, os.PathLike)):
        raise ValidationError(f"{name} must be a str or os.PathLike path, got {value!r}")
    return value


def items(name: str, data) -> list:
    """The items of ``data`` as a list; ``data`` must be iterable."""
    try:
        return list(data)
    except TypeError:
        raise ValidationError(f"{name} must be an iterable, got {data!r}") from None


def floats(name: str, data, form: str = "a number or an array of numbers") -> np.ndarray:
    """``data`` as a float array of any shape; ``form`` names what it must be.  Text and
    complex numbers are not reals: ``str``, ``bytes`` and arrays or sequences that hold
    them raise."""
    try:
        arr = np.asarray(data)
        if arr.dtype.kind in "fiub":
            return arr.astype(float, copy=False)
        if arr.dtype == object and not any(isinstance(item, (str, bytes)) for item in arr.flat):
            return arr.astype(float)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"{name} must be {form}")


def finite(name: str, data) -> np.ndarray:
    """``data`` as a float array of any shape whose entries are all finite."""
    arr = floats(name, data)
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} must be finite")
    return arr


def array(name: str, data, ndim: int, least: int = 0) -> np.ndarray:
    """``data`` as a float ``(n,)`` (``ndim`` 1) or ``(n, 2)`` (``ndim`` 2) array, ``n >= least``;
    with ``least`` 0, an empty sequence is an empty array of that form."""
    form = "a 1-D array of numbers" if ndim == 1 else "an (n, 2) array: pairs of numbers"
    arr = floats(name, data, form)
    if least == 0 and arr.shape == (0,):
        return arr.reshape((0, 2)[:ndim])
    if arr.ndim != ndim or arr.shape[1:] != (2,) * (ndim - 1) or len(arr) < least:
        length = f", at least {least}" if least else ""
        raise ValidationError(f"{name} must be {form}{length}; got shape {arr.shape}")
    return arr


def increasing(name: str, data, least: int = 2) -> np.ndarray:
    """``data`` as a float 1-D array of at least ``least`` finite, strictly increasing values."""
    grid = array(name, data, 1, least)
    if not (np.isfinite(grid).all() and np.all(grid[1:] > grid[:-1])):
        raise ValidationError(f"{name} must be finite and strictly increasing")
    return grid
