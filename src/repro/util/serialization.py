"""Serialization helpers.

The simulator charges network transfers by *payload size*; this module
provides the size-accounting used by the RMI layer, plus deep-copy helpers
for checkpoint state (a Backup must be an immutable snapshot, not an alias of
the live task state — otherwise later iterations would silently corrupt old
checkpoints, breaking rollback).

``measured_size`` runs on **every** message send, so the walk dispatches on
exact types, caches ``dataclasses.fields`` per class, and memoizes the
computed payload size per *instance* for frozen (immutable) dataclasses —
stubs, addresses and checkpoint Backups are measured once and re-sent many
times.  Anything else (subclasses, numpy scalars, bytes, ``nbytes``
carriers) takes a plain ``isinstance`` cascade at the end of the walk, which
charges by the same rules.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
from typing import Any

import numpy as np

__all__ = ["measured_size", "payload_size", "clone_state",
           "NDARRAY_HEADER_BYTES", "freeze_state"]

# Fixed protocol overhead charged per message, in bytes.  Roughly a TCP/IP +
# RMI envelope; the exact constant only shifts latency curves uniformly.
ENVELOPE_BYTES = 256

#: Per-ndarray marshalling overhead charged on top of ``nbytes`` (dtype
#: descriptor + shape/stride header, roughly what a real pickle frame
#: costs).  Charged by :func:`payload_size` only — a drift test pins it.
NDARRAY_HEADER_BYTES = 96

#: instance attribute holding a frozen dataclass's memoized payload size
_SIZE_ATTR = "_measured_payload_cache"

# per-class metadata for the fast walk: field-name tuple and frozen-ness
_fields_by_class: dict[type, tuple[str, ...]] = {}
_frozen_by_class: dict[type, bool] = {}
#: frozen dataclasses whose instances cannot hold the per-instance memo
#: (``__slots__`` without ``__dict__``): recorded on the first failed
#: plant so later walks skip both the memo probe and the raise/catch
_unmemoizable: set[type] = set()


def measured_size(obj: Any) -> int:
    """Best-effort serialized size of ``obj`` in bytes.

    NumPy arrays are charged at buffer size (what a real marshaller would
    ship) without actually pickling them — important because the simulator
    calls this on every message send.
    """
    return ENVELOPE_BYTES + payload_size(obj, 0)


def _register_dataclass(cls: type) -> tuple[str, ...] | None:
    if not dataclasses.is_dataclass(cls):
        return None
    names = tuple(f.name for f in dataclasses.fields(cls))
    _fields_by_class[cls] = names
    _frozen_by_class[cls] = bool(cls.__dataclass_params__.frozen)
    return names


def payload_size(obj: Any, depth: int) -> int:
    """What ``obj`` adds to :func:`measured_size` of an envelope that holds
    it ``depth`` containers deep (the walk falls back to pickling past
    depth 6, so the charge for a nested container depends on where it
    sits).  For senders that assemble an envelope's size from parts they
    measured earlier.

    Exact-type dispatch first, then an ``isinstance`` cascade for the rare
    types (numpy scalars, bytes, subclasses, ``nbytes`` carriers, and a
    pickle of anything else).  Frozen dataclasses are memoized per
    instance (their fields cannot be rebound, and by convention their
    contents are immutable snapshots — stubs, addresses, Backups).
    Memoized sizes are computed with a fresh depth budget; payloads never
    approach the depth-6 pickle fallback, so the charge does not depend on
    where an instance sits.
    """
    if obj is None:
        return 1
    cls = obj.__class__
    if cls is float or cls is int or cls is bool:
        return 8
    if cls is str:
        # UTF-8 length of an ASCII string is its length: skip the encode
        # (and its allocation) for the overwhelmingly common case
        if obj.isascii():
            return len(obj)
        return len(obj.encode("utf-8", errors="replace"))
    if cls is np.ndarray:
        return int(obj.nbytes) + NDARRAY_HEADER_BYTES
    # container walks accumulate in plain loops: a genexpr-under-sum costs
    # a generator object + one frame resume per element, which dominates
    # the walk for the small envelopes the message plane measures
    if cls is list or cls is tuple or cls is set or cls is frozenset:
        if depth > 6:
            return _pickle_size(obj)
        d = depth + 1
        size = 16
        for x in obj:
            size += payload_size(x, d)
        return size
    if cls is dict:
        if depth > 6:
            return _pickle_size(obj)
        d = depth + 1
        size = 16
        for k, v in obj.items():
            size += payload_size(k, d) + payload_size(v, d)
        return size
    names = _fields_by_class.get(cls)
    if names is None:
        names = _register_dataclass(cls)
    if names is not None:
        if _frozen_by_class[cls]:
            memoizable = cls not in _unmemoizable
            if memoizable:
                cached = getattr(obj, _SIZE_ATTR, None)
                if cached is not None:
                    return cached
            d = depth + 1
            size = 32
            for nm in names:
                size += payload_size(getattr(obj, nm), d)
            if memoizable:
                try:
                    object.__setattr__(obj, _SIZE_ATTR, size)
                except AttributeError:  # __slots__ dataclass: no memo
                    _unmemoizable.add(cls)
            return size
        d = depth + 1
        size = 32
        for nm in names:
            size += payload_size(getattr(obj, nm), d)
        return size
    # rare types: numpy scalars, bytes, subclasses, nbytes carriers
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes) + NDARRAY_HEADER_BYTES
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8", errors="replace"))
    if isinstance(obj, (int, float, complex, bool, np.generic)):
        return 8
    if isinstance(obj, (list, tuple, set, frozenset)):
        if depth > 6:
            return _pickle_size(obj)
        return 16 + sum(payload_size(x, depth + 1) for x in obj)
    if isinstance(obj, dict):
        if depth > 6:
            return _pickle_size(obj)
        return 16 + sum(payload_size(k, depth + 1) + payload_size(v, depth + 1)
                        for k, v in obj.items())
    # Objects exposing their own accounting (e.g. Backup) use it.
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, (int, np.integer)):
        return int(nbytes)
    return _pickle_size(obj)


def _pickle_size(obj: Any) -> int:
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 1024  # unpicklable odd object: charge a flat size


def freeze_state(state: Any) -> Any:
    """Mark every ndarray inside ``state`` read-only, in place.

    :class:`repro.checkpoint.Backup` freezes the snapshot it was handed
    instead of deep-copying it: ``dump_state`` already produced a private
    copy, so freezing turns accidental aliasing into a loud ``ValueError``
    rather than paying a second full copy per checkpoint.  Returns ``state``.
    """
    if isinstance(state, np.ndarray):
        state.flags.writeable = False
        return state
    if isinstance(state, dict):
        for v in state.values():
            freeze_state(v)
        return state
    if isinstance(state, (list, tuple)):
        for v in state:
            freeze_state(v)
        return state
    return state


def clone_state(state: Any) -> Any:
    """Deep-copy task state for checkpointing.

    NumPy arrays are copied via ``np.copy`` (fast path); everything else via
    ``copy.deepcopy``.
    """
    if isinstance(state, np.ndarray):
        return state.copy()
    if isinstance(state, dict):
        return {k: clone_state(v) for k, v in state.items()}
    if isinstance(state, list):
        return [clone_state(v) for v in state]
    if isinstance(state, tuple):
        return tuple(clone_state(v) for v in state)
    return copy.deepcopy(state)
