"""Bit-for-bit comparison of arrays, shared by the test modules."""

import numpy as np


def same_bits(a, b) -> bool:
    """The same shape, dtype and bytes: signed zeros and NaN payloads
    included."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())
