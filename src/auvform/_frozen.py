"""One validity rule for the frozen config dataclasses, and read-only arrays: an
in-place write would otherwise change a validated config behind the tables it caches."""

from dataclasses import fields

import numpy as np


def read_only(value, dtype=float) -> np.ndarray:
    """A read-only copy of value, float unless dtype says."""
    array = np.asarray(value, dtype=dtype).copy()
    array.setflags(write=False)
    return array


def freeze(config, **shapes) -> None:
    """Make each named field (None stays None) a read-only float array of exactly its
    shape (None: any), and require every number of every field to be finite; nested
    configs, strings, bools and None hold none.  A ValueError names the field."""
    for f in fields(config):
        name, value = f.name, getattr(config, f.name)
        if name in shapes and value is not None:
            value, shape = read_only(value), shapes[name]
            if shape is not None and value.shape != shape:
                want, got = (shape[0], value.size) if len(shape) == 1 else (shape, value.shape)
                raise ValueError(f"{name} needs {want} entries, got {got}")
            object.__setattr__(config, name, value)
        numbers = np.asarray(value)
        if numbers.dtype.kind in "fi" and not np.isfinite(numbers).all():
            raise ValueError(f"{name} must be finite, got {value}")
