"""Simulated machines.

A :class:`Host` models one PC of the testbed:

* a **relative CPU speed** — ``host.compute(flops)`` yields for
  ``flops / (speed * BASE_FLOPS)`` simulated seconds, so slower machines take
  proportionally longer per iteration, desynchronising peers exactly the way
  hardware heterogeneity does in the paper;
* an **online/offline switch** — :meth:`fail` interrupts every live process
  spawned on the host and closes its endpoints (a powered-off PC loses
  everything in RAM); :meth:`recover` brings the machine back *empty*, after
  which a fresh Daemon must boot and re-register (§5.3);
* **endpoints** — one per bound port, each holding the handler the
  :class:`~repro.net.network.Network` calls with every payload it delivers
  there, in the delivery event itself (no mailbox, no receiving process).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.des import Simulator
from repro.des.process import Process
from repro.errors import ConfigurationError, HostDownError, NetworkError
from repro.net.address import Address

__all__ = ["Host", "Endpoint", "BASE_FLOPS"]

#: Simulated FLOP/s of a speed-1.0 machine (the paper's slowest class, a
#: Pentium III 1.26 GHz).  Only the *ratio* compute/communication matters for
#: the reproduced phenomena; this constant pins the absolute time scale.
BASE_FLOPS = 250e6


class Endpoint:
    """One bound port of a host and the handler its deliveries go to.

    The network calls ``handler(payload)`` at the delivery instant; a
    closed endpoint (its host failed) receives nothing more.
    """

    __slots__ = ("address", "handler", "closed")

    def __init__(self, address: Address, handler: Callable[[Any], None]):
        self.address = address
        self.handler = handler
        self.closed = False

    def close(self) -> None:
        self.closed = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Endpoint {self.address} {'closed' if self.closed else 'open'}>"


class Host:
    """One simulated machine."""

    __slots__ = ("sim", "name", "speed", "ram_mb", "tags", "online",
                 "endpoints", "_processes", "_on_recover", "fail_count",
                 "recover_count")

    def __init__(
        self,
        sim: Simulator,
        name: str,
        speed: float = 1.0,
        ram_mb: int = 512,
        tags: tuple[str, ...] = (),
    ):
        if speed <= 0:
            raise ConfigurationError(f"host speed must be positive, got {speed}")
        self.sim = sim
        self.name = name
        self.speed = float(speed)
        self.ram_mb = int(ram_mb)
        self.tags = tuple(tags)
        self.online = True
        self.endpoints: dict[int, Endpoint] = {}
        #: live processes spawned here, in spawn order, made by the first
        #: :meth:`spawn` (an idle Daemon's host runs none); each one leaves
        #: when it finishes (:meth:`_reap`)
        self._processes: dict[Process, None] | None = None
        self._on_recover: list[Callable[["Host"], None]] = []
        self.fail_count = 0
        self.recover_count = 0

    # -- endpoints -----------------------------------------------------------

    def open_endpoint(self, port: int, handler: Callable[[Any], None]) -> Endpoint:
        """Bind ``port``: every payload delivered to it is passed to
        ``handler`` at its arrival instant."""
        if not self.online:
            raise HostDownError(f"host {self.name} is offline")
        if port in self.endpoints and not self.endpoints[port].closed:
            raise NetworkError(f"port {port} already bound on {self.name}")
        ep = Endpoint(Address(self.name, port), handler)
        self.endpoints[port] = ep
        return ep

    # -- processes -----------------------------------------------------------

    def spawn(self, generator, label: str = "") -> Process:
        """Run a process *on this host*: it dies when the host fails."""
        if not self.online:
            raise HostDownError(f"host {self.name} is offline")
        proc = self.sim.process(generator, label=label or f"{self.name}:proc")
        procs = self._processes
        if procs is None:
            procs = self._processes = {}
        procs[proc] = None
        proc.callbacks.append(self._reap)
        return proc

    def _reap(self, proc: Process) -> None:
        if self._processes is not None:
            self._processes.pop(proc, None)

    def compute(self, flops: float):
        """Event taking ``flops / (speed*BASE_FLOPS)`` simulated seconds.

        Usage inside a process: ``yield host.compute(1e9)``.
        """
        if flops < 0:
            raise ConfigurationError("negative flops")
        if not self.online:
            raise HostDownError(f"compute() on offline host {self.name}")
        return self.sim.timeout(flops / (self.speed * BASE_FLOPS))

    # -- failure / recovery ----------------------------------------------------

    def on_recover(self, callback: Callable[["Host"], None]) -> None:
        """Register a boot hook run each time the host comes back online.

        The runtime uses this to restart a Daemon on a reconnecting machine.
        """
        self._on_recover.append(callback)

    def fail(self, cause: Any = "failure") -> None:
        """Power the machine off: kill processes, close endpoints."""
        if not self.online:
            return
        self.online = False
        self.fail_count += 1
        tr = self.sim.tracer
        if tr.enabled:
            tr.emit(self.sim.now, "net", self.name, "host_fail", cause=str(cause))
        procs, self._processes = self._processes or (), None
        for proc in procs:
            if proc.is_alive and proc is not self.sim.active_process:
                proc.interrupt(cause=cause)
        for ep in self.endpoints.values():
            ep.close()
        self.endpoints.clear()

    def recover(self) -> None:
        """Power the machine back on (empty) and run boot hooks."""
        if self.online:
            return
        self.online = True
        self.recover_count += 1
        tr = self.sim.tracer
        if tr.enabled:
            tr.emit(self.sim.now, "net", self.name, "host_recover")
        for callback in list(self._on_recover):
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "up" if self.online else "down"
        return f"<Host {self.name} speed={self.speed} {state}>"
