"""Read-only array fields for the frozen result types.

Those types are declared ``eq=False``, so they compare and hash by identity: the
generated ``__eq__`` and ``__hash__`` would compare and hash arrays, and raise.
"""
from __future__ import annotations

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

