"""Read-only array fields for the frozen result types, also after a copy or unpickling.

Those types are declared ``eq=False``, so they compare and hash by identity: the
generated ``__eq__`` and ``__hash__`` would compare and hash arrays, and raise.
"""
from __future__ import annotations

import numpy as np


def freeze_arrays(obj, **values) -> None:
    """Store ``values`` on the frozen dataclass ``obj``, then make each array in its
    ``vars`` a read-only view: a view, so that an array the caller passed in stays
    writable, and ``vars``, not the fields, so that no cached property is computed."""
    state = vars(obj)
    state.update(values)
    for name, value in state.items():
        if isinstance(value, np.ndarray):
            state[name] = value.view()
            state[name].flags.writeable = False


class Frozen:
    """Base of the frozen result types: their arrays are read-only, in a copy or an unpickled
    object too.  A type that checks or converts its fields defines its own ``__post_init__``."""

    def __post_init__(self):
        freeze_arrays(self)

    def __setstate__(self, state):
        freeze_arrays(self, **state)
