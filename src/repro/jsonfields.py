"""Typed field readers for the JSON loaders.

``json`` hands a loader whatever the document holds: ``true`` where an
integer belongs, ``"2"`` where a number belongs, ``NaN`` or ``Infinity``
where a time belongs.  Reading such a field through ``int()`` or
``float()`` would quietly turn it into data, so every loader reads its
numeric fields through these checkers instead, and the error names the
field by its path in the document (``tasks[2].pe``).  The module imports
nothing but :mod:`repro.errors`, so any loader can use it.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

from repro.errors import SerializationError


def _name(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def json_int(entry: Dict[str, Any], key: str, path: str = "", minimum: Optional[int] = None) -> int:
    """``entry[key]`` as a JSON integer (not a string, float or bool)."""
    value = entry[key]
    if type(value) is not int:
        raise SerializationError(f"{_name(path, key)} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SerializationError(f"{_name(path, key)} must be >= {minimum}, got {value!r}")
    return value


def json_finite(
    entry: Dict[str, Any], key: str, path: str = "", minimum: Optional[float] = None
) -> float:
    """``entry[key]`` as a finite JSON number (not a string or bool)."""
    value = entry[key]
    if type(value) not in (int, float) or not math.isfinite(value):
        raise SerializationError(f"{_name(path, key)} must be a finite number, got {value!r}")
    if minimum is not None and value < minimum:
        raise SerializationError(f"{_name(path, key)} must be >= {minimum}, got {value!r}")
    return float(value)
