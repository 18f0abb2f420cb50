"""Network addresses.

An :class:`Address` names an endpoint: ``(host, port)``.  The JaceP2P
bootstrap protocol (§5.1) is the *only* part of the runtime that uses raw
addresses; after registration, entities talk through RMI stubs (which wrap an
address but are opaque to the application).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["Address"]


@dataclass(frozen=True, order=True, slots=True)
class Address:
    """Immutable (host, port) pair.

    ``host`` is the host's name (unique within a :class:`~repro.net.Network`);
    ``port`` identifies one endpoint on that host (a Daemon's RMI server, a
    Super-Peer's registry service, ...).
    """

    host: str
    port: int

    def __post_init__(self) -> None:
        if not self.host:
            raise ConfigurationError("empty host name")
        if not (0 < self.port < 65536):
            raise ConfigurationError(f"port {self.port} out of range")

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"
