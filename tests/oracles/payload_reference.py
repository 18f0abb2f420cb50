"""Reference oracle: the payload-size charge, defined as a plain
``isinstance`` cascade — verbatim as ``_payload_size`` stood in
``repro/util/serialization.py`` while ``payload_size`` fell back to it for
the types it does not dispatch on exactly.  The size tests hold
``payload_size``/``measured_size`` to it, byte for byte.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np

from repro.util.serialization import NDARRAY_HEADER_BYTES, _pickle_size

__all__ = ["_payload_size"]


def _payload_size(obj: Any, depth: int) -> int:
    """The charge, defined: the ``isinstance`` cascade :func:`payload_size`
    falls back to for types it does not dispatch on exactly."""
    if obj is None:
        return 1
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes) + NDARRAY_HEADER_BYTES
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8", errors="replace"))
    if isinstance(obj, (int, float, complex, bool, np.generic)):
        return 8
    if isinstance(obj, (list, tuple, set, frozenset)):
        if depth > 6:  # deep structures: fall back to pickle below
            return _pickle_size(obj)
        return 16 + sum(_payload_size(x, depth + 1) for x in obj)
    if isinstance(obj, dict):
        if depth > 6:
            return _pickle_size(obj)
        return 16 + sum(
            _payload_size(k, depth + 1) + _payload_size(v, depth + 1)
            for k, v in obj.items()
        )
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # Message/stub dataclasses: traverse fields instead of pickling, so
        # numpy payloads inside calls are charged at buffer size.
        return 32 + sum(
            _payload_size(getattr(obj, f.name), depth + 1)
            for f in dataclasses.fields(obj)
        )
    # Objects exposing their own accounting (e.g. Backup) use it.
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, (int, np.integer)):
        return int(nbytes)
    return _pickle_size(obj)
