"""Exception hierarchy shared across the package, and the one rule for each kind of input.

The CLI maps these onto process exit codes: configuration problems exit 2,
data problems exit 3, numerical failures exit 4.
"""

import math
from dataclasses import fields
from functools import cache
from typing import get_args, get_origin, get_type_hints

import numpy as np


class GBMixedError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ConfigError(GBMixedError):
    """Invalid configuration: bad field values, unknown keys, bad usage."""

    exit_code = 2


class DataError(GBMixedError):
    """Invalid or unusable input data."""

    exit_code = 3


class NumericalError(GBMixedError):
    """Numerical failure during fitting or prediction."""

    exit_code = 4


class SingularCovarianceError(NumericalError):
    """A group's marginal covariance stayed non-positive-definite after jitter.

    Raised by the per-group likelihood functions and the BLUP path, which
    factor the n_i x n_i covariance. The stacked kernel used in fitting
    factors only I + W' R^{-1} W and applies no jitter.
    """


_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "a boolean"}


def check_type(name: str, value, kind: type = int):
    """value when it is of kind, else a ConfigError: an int or a bool is exactly that
    type (so a bool is no int), a float is a finite int or float."""
    if kind is float:
        ok = type(value) is int or isinstance(value, float) and math.isfinite(value)
    else:
        ok = type(value) is kind
    if not ok:
        raise ConfigError(f"{name} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


def check_index(name: str, value) -> int:
    """value as a Python int when it is an int or a NumPy integer, else a ConfigError
    (a bool is no index)."""
    return check_type(name, value.item() if isinstance(value, np.integer) else value)


def numeric_array(name: str, value, error: type = DataError) -> np.ndarray:
    """value as a float array when its entries are numbers (bools, integers, floats, NaN
    and ±inf), else error; strings, objects, complex numbers and ragged nestings are not."""
    try:
        a = np.asarray(value)
    except ValueError:      # a ragged nesting
        a = np.array(None)
    if a.dtype.kind not in "biuf":
        raise error(f"{name} must hold numbers, got {a.dtype} entries")
    return a.astype(float, copy=False)


def check_rows(X, p: int, name: str = "X") -> np.ndarray:
    """X as a 2-D float array of p columns, the one rule for the rows a fitted model is
    served: any other shape, or entries that are not numbers, is a DataError."""
    X = numeric_array(name, X)
    if X.ndim != 2 or X.shape[1] != p:
        raise DataError(f"{name}: expected {p} feature columns, got matrix of shape {X.shape}")
    return X


def check_seed(seed) -> int:
    """seed when it is a non-negative int, else a ConfigError."""
    if check_type("seed", seed) < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


@cache
def field_types(cls) -> dict:
    """Each field of dataclass cls as (T, optional, many), read off its annotation:
    T | None is optional and tuple[T, ...] many; any other annotation is T itself."""
    hints = get_type_hints(cls)
    out = {}
    for f in fields(cls):
        hint = hints[f.name]
        args = get_args(hint)
        optional = type(None) in args
        many = get_origin(hint) is tuple and args[1:] == (Ellipsis,)
        out[f.name] = (args[0] if optional or many else hint, optional, many)
    return out


def check_fields(obj) -> None:
    """check_type on every int, float and bool field of dataclass obj, on each entry of
    a tuple[T, ...]; None passes where the annotation is T | None."""
    for name, (kind, optional, many) in field_types(type(obj)).items():
        value = getattr(obj, name)
        if kind in _TYPE_NAMES and not (optional and value is None):
            for v in value if many else (value,):
                check_type(f"{name} entry" if many else name, v, kind)
