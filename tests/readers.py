"""One contract for a fast reader beside the slow reader it stands in for.

A fast reader either returns exactly what the slow reader returns, bit for bit,
or declines (returns None), and then the slow reader's result, or its error,
is what the caller gets.  Through the command line, taking the fast path or
not must end the same way: the same outputs, or the same exit code and stderr.
"""
import struct

import numpy as np

DECLINED = ("declined",)


def bits(value):
    """``value`` in a form that compares equal only where every bit and type is the same.

    Arrays by dtype, shape, write flag and bytes; floats by their bytes (so nan and -0.0
    compare); tuples and lists item by item; any other object with a ``__dict__`` by its
    type and the bits of each attribute.
    """
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.flags.writeable, value.tobytes())
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, tuple(map(bits, value)))
    if hasattr(value, "__dict__"):
        return (type(value).__name__, tuple((k, bits(v)) for k, v in sorted(vars(value).items())))
    return (type(value).__name__, value)


def ending(read, document):
    """How ``read(document)`` ends: DECLINED for None, the bits of its result, or its error."""
    try:
        found = read(document)
    except (ValueError, ArithmeticError) as exc:
        return ("error", type(exc).__name__, str(exc), getattr(exc, "line_number", None))
    return DECLINED if found is None else ("result", bits(found))


def assert_same_or_declined(fast, slow, document, cli=None) -> bool:
    """Assert that ``fast(document)`` is ``slow(document)`` bit for bit, or declines.

    ``cli(document, fast)``, if given, is how the command line ends on the document with
    the fast reader used (``fast`` true) or bypassed: its exit code, stderr and outputs.
    The two must be the same.  Returns whether the fast reader took the document.
    """
    got, expected = ending(fast, document), ending(slow, document)
    assert expected != DECLINED
    if got != DECLINED:
        assert got == expected
    if cli is not None:
        assert cli(document, True) == cli(document, False)
    return got != DECLINED
