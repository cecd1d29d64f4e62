"""Read-only array fields for the frozen result types, and the one check of a
scalar that must be positive (or non-negative) and finite.

Those types are declared ``eq=False``, so they compare and hash by identity: the
generated ``__eq__`` and ``__hash__`` would compare and hash arrays, and raise.
"""
from __future__ import annotations

import math
from dataclasses import fields

import numpy as np


def freeze_arrays(obj, **checked) -> None:
    """Store the ``checked`` field values on the frozen dataclass ``obj``, then replace
    each array field by a read-only view.

    A view, not the array itself, so that an array the caller passed in stays writable.
    """
    for f in fields(obj):
        value = checked[f.name] if f.name in checked else getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            value = value.view()
            value.flags.writeable = False
        object.__setattr__(obj, f.name, value)


def check_positive(_rule: str = "positive", /, **values: float) -> None:
    """Raise ValueError naming the first of ``values`` outside (0, inf): nan and inf fail."""
    for name, value in values.items():
        if not (0.0 < value < math.inf or value == 0.0 and _rule == "non-negative"):
            raise ValueError(f"{name} must be {_rule} and finite")


def check_non_negative(**values: float) -> None:
    """As :func:`check_positive`, with zero allowed."""
    check_positive("non-negative", **values)
