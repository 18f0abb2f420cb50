"""Exception hierarchy for the ``repro`` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of the runtime with a single ``except`` clause
while still distinguishing subsystem-specific failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the repro library."""


class ConfigurationError(ReproError, ValueError):
    """Invalid argument or configuration value handed to a repro API.

    Derives from :class:`ValueError` as well, so historical ``except
    ValueError`` call sites (and tests) keep working while new code can
    catch the whole library with ``except ReproError``.
    """


class SimulationError(ReproError):
    """Raised for misuse of the discrete-event kernel (e.g. scheduling an
    event in the past, resuming a dead process)."""


class NetworkError(ReproError):
    """Base class for network-substrate failures."""


class HostDownError(NetworkError):
    """An operation was attempted on a host that is currently disconnected."""


class RemoteError(ReproError):
    """A remote invocation failed (dead peer, marshalling failure, or the
    remote method itself raised).

    Mirrors Java's ``RemoteException``: the JaceP2P runtime treats it as the
    signal that a peer is unreachable.
    """


class TaskError(ReproError):
    """A user Task implementation raised or violated the Task contract."""


class FaultError(ReproError):
    """A fault plan is malformed or cannot be executed against the target
    deployment (e.g. a Super-Peer action without a cluster)."""
