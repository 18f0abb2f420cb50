"""Simulated machines.

A :class:`Host` models one PC of the testbed:

* a **relative CPU speed** — ``host.compute(flops)`` yields for
  ``flops / (speed * BASE_FLOPS)`` simulated seconds, so slower machines take
  proportionally longer per iteration, desynchronising peers exactly the way
  hardware heterogeneity does in the paper;
* an **online/offline switch** — :meth:`fail` interrupts every process
  registered on the host and destroys its mailboxes (a powered-off PC loses
  everything in RAM); :meth:`recover` brings the machine back *empty*, after
  which a fresh Daemon must boot and re-register (§5.3);
* **endpoints** — per-port mailboxes the :class:`~repro.net.network.Network`
  delivers into.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.des import Simulator, Store
from repro.des.process import Process
from repro.errors import ConfigurationError, HostDownError, NetworkError
from repro.net.address import Address

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Message

__all__ = ["Host", "Endpoint", "BASE_FLOPS"]

#: Simulated FLOP/s of a speed-1.0 machine (the paper's slowest class, a
#: Pentium III 1.26 GHz).  Only the *ratio* compute/communication matters for
#: the reproduced phenomena; this constant pins the absolute time scale.
BASE_FLOPS = 250e6


class Endpoint:
    """A mailbox bound to one port of a host.

    ``recv()`` returns a DES event that fires with the next delivered
    message.  Mailboxes are drop-tail bounded (``capacity``) — a flooded
    mailbox drops new arrivals, which the asynchronous model tolerates.
    """

    def __init__(self, host: "Host", port: int, capacity: float = float("inf")):
        self.host = host
        self.port = port
        self.address = Address(host.name, port)
        self.mailbox = Store(host.sim, capacity=capacity, name=str(self.address))
        self.closed = False
        #: optional zero-copy dispatch hook for the oneway fast path
        #: (:meth:`repro.net.network.Network.send` with ``fast=True``):
        #: called with the *payload* (not the Message) when the endpoint
        #: is idle — the RMI runtime registers its oneway dispatcher here
        self.fast_handler: Callable[[Any], None] | None = None

    def ready_for_fast_dispatch(self) -> bool:
        """True when a fast delivery may bypass the mailbox right now:
        no buffered backlog ahead of it, and a live consumer is blocked on
        ``recv()`` (so the object path would have dispatched this message
        on the very next kernel step anyway — bypassing preserves FIFO)."""
        mb = self.mailbox
        return not mb.items and mb.has_live_getter()

    def recv(self):
        """Event firing with the next message (FIFO)."""
        if self.closed:
            raise NetworkError(f"recv() on closed endpoint {self.address}")
        return self.mailbox.get()

    def deliver(self, message: "Message") -> bool:
        """Called by the network; returns False if the message was dropped."""
        if self.closed or not self.host.online:
            return False
        return self.mailbox.try_put(message)

    def close(self) -> None:
        self.closed = True
        self.mailbox.drain()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Endpoint {self.address} {'closed' if self.closed else 'open'}>"


class Host:
    """One simulated machine."""

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
        self._processes: list[Process] = []
        self._on_recover: list[Callable[["Host"], None]] = []
        self.fail_count = 0
        self.recover_count = 0

    # -- endpoints -----------------------------------------------------------

    def open_endpoint(self, port: int, capacity: float = float("inf")) -> Endpoint:
        if not self.online:
            raise HostDownError(f"host {self.name} is offline")
        if port in self.endpoints and not self.endpoints[port].closed:
            raise NetworkError(f"port {port} already bound on {self.name}")
        ep = Endpoint(self, port, capacity=capacity)
        self.endpoints[port] = ep
        return ep

    def endpoint(self, port: int) -> Endpoint | None:
        ep = self.endpoints.get(port)
        if ep is not None and ep.closed:
            return None
        return ep

    # -- processes -----------------------------------------------------------

    def spawn(self, generator, label: str = "") -> Process:
        """Run a process *on this host*: it dies when the host fails."""
        if not self.online:
            raise HostDownError(f"host {self.name} is offline")
        proc = self.sim.process(generator, label=label or f"{self.name}:proc")
        self._processes.append(proc)
        return proc

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
        """Power the machine off: kill processes, destroy mailboxes."""
        if not self.online:
            return
        self.online = False
        self.fail_count += 1
        tr = self.sim.tracer
        if tr.enabled:
            tr.emit(self.sim.now, "net", self.name, "host_fail", cause=str(cause))
        procs, self._processes = self._processes, []
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
