"""Encoding of complex vectors and matrices as nested [re, im] pairs."""

from __future__ import annotations

import itertools
import sys

import numpy as np

from .exceptions import FileFormatError


def complex_to_pairs(arr: np.ndarray) -> list:
    """Encode a complex vector or matrix as nested [re, im] lists."""
    a = np.asarray(arr, dtype=np.complex128)
    if a.ndim not in (1, 2):
        raise FileFormatError(f"cannot encode an array of rank {a.ndim}")
    return np.stack((a.real, a.imag), axis=-1).tolist()


def is_number(x) -> bool:
    """Whether a decoded JSON value is a number a finite float holds; booleans are not."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _pair_to_complex(entry, where: str) -> complex:
    if not isinstance(entry, (list, tuple)) or len(entry) != 2 or not all(map(is_number, entry)):
        raise FileFormatError(f"{where}: expected a finite [re, im] number pair, got {entry!r}")
    return complex(float(entry[0]), float(entry[1]))


def pairs_to_vector(data, where: str = "vector") -> np.ndarray:
    """Decode a list of [re, im] pairs into a complex vector."""
    if not isinstance(data, (list, tuple)) or not data:
        raise FileFormatError(f"{where}: expected a non-empty list of [re, im] pairs")
    return np.array([_pair_to_complex(e, where) for e in data], dtype=np.complex128)


def pairs_to_matrix(data, where: str = "matrix") -> np.ndarray:
    """Decode nested [re, im] pairs into a complex matrix, in one conversion when
    well formed; else row by row, which names the first entry that is wrong."""
    if not isinstance(data, (list, tuple)) or not data:
        raise FileFormatError(f"{where}: expected a non-empty list of rows")
    try:
        if set(map(type, itertools.chain.from_iterable(itertools.chain(*data)))) <= {int, float}:
            pairs = np.array(data, dtype=np.float64)  # bool is neither int nor float
            # Strict: an int that rounds down to the largest float goes row by row.
            if pairs.ndim == 3 and pairs.shape[2] == 2 and np.abs(pairs).max() < sys.float_info.max:
                return pairs.view(np.complex128)[..., 0]
    except (TypeError, ValueError, OverflowError):
        pass
    rows = [pairs_to_vector(row, where) for row in data]
    if len({r.size for r in rows}) > 1:
        raise FileFormatError(f"{where}: ragged rows")
    return np.vstack(rows)
