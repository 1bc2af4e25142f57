"""Read-only arrays and finite fields for the frozen config dataclasses: an in-place
write would otherwise change a validated config behind the tables it caches."""

import numpy as np


def read_only(value, shape=None, dtype=float) -> np.ndarray:
    """A read-only copy of value (float unless dtype says), broadcast to shape when one is given."""
    array = np.asarray(value, dtype=dtype)
    array = (array if shape is None else np.broadcast_to(array, shape)).copy()
    array.setflags(write=False)
    return array


def freeze_arrays(config, **shapes) -> None:
    """Set each named field of a frozen dataclass to read_only(value, shape); None stays None."""
    for name, shape in shapes.items():
        value = getattr(config, name)
        if value is not None:
            object.__setattr__(config, name, read_only(value, shape))
    require_finite(config, *shapes)


def require_finite(config, *names: str) -> None:
    """Raise a ValueError naming the first of the named fields with a non-finite entry."""
    for name in names:
        value = getattr(config, name)
        if value is not None and not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got {value}")
