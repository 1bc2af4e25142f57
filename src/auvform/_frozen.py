"""One validity rule for the frozen config dataclasses, and read-only arrays: an
in-place write would otherwise change a validated config behind the tables it caches."""

from dataclasses import fields
from numbers import Integral, Real

import numpy as np

# the scalar annotations, as the config modules spell them (their annotations are
# postponed strings): the numbers each takes, and whether it also takes None
_SCALARS = {"float": (Real, False), "int": (Integral, False), "float | None": (Real, True)}


def read_only(value, dtype=float) -> np.ndarray:
    """A read-only copy of value, float unless dtype says."""
    array = np.asarray(value, dtype=dtype).copy()
    array.setflags(write=False)
    return array


def freeze(config, **shapes) -> None:
    """Make each named field (None stays None) a read-only float array of exactly its
    shape (None: any); require a field annotated float to hold a real number and one
    annotated int an integer, neither a bool (float | None: or None), and every number
    of every field to be finite; nested configs, strings, bools and None hold none.
    A ValueError names the field."""
    for f in fields(config):
        name, value = f.name, getattr(config, f.name)
        if name in shapes and value is not None:
            try:
                value = read_only(value)
            except (TypeError, ValueError):
                raise ValueError(f"{name} needs numbers, got {value!r}") from None
            shape = shapes[name]
            if shape is not None and value.shape != shape:
                want, got = (shape[0], value.size) if len(shape) == 1 else (shape, value.shape)
                raise ValueError(f"{name} needs {want} entries, got {got}")
            object.__setattr__(config, name, value)
        elif f.type in _SCALARS:
            kind, optional = _SCALARS[f.type]
            if not (isinstance(value, kind) and not isinstance(value, bool)
                    or value is None and optional):
                what = "an integer" if kind is Integral else "a number"
                raise ValueError(f"{name} needs {what}, got {value!r}")
        numbers = np.asarray(value)
        if numbers.dtype.kind in "fi" and not np.isfinite(numbers).all():
            raise ValueError(f"{name} must be finite, got {value}")
