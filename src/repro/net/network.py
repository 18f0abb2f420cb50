"""The message delivery engine.

:meth:`Network.send` is fire-and-forget: it charges the link delay and
puts the :class:`Message` itself on the kernel's heap, and at the arrival
instant :meth:`Network._deliver` hands the payload to the destination
endpoint's handler — *unless* the destination host is offline,
the endpoint is gone, a partition separates the pair or random loss takes
it, in which case the message is silently dropped and counted.  This is
exactly the paper's §5.3 semantics: "the message is simply lost if the
destination peer is not reachable".

For request/response interactions the RMI layer (:mod:`repro.rmi`) builds
invocation semantics on top of this primitive.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.des import Simulator
from repro.des.events import NORMAL
from repro.errors import ConfigurationError, NetworkError
from repro.net.address import Address
from repro.net.host import Host
from repro.net.link import LinkModel, UniformLinkModel
from repro.util.rng import RngTree
from repro.util.serialization import measured_size

__all__ = ["Message", "Network"]

_msg_ids = itertools.count()


@dataclass(slots=True)
class Message:
    """One unit of network transfer.

    ``reliable`` marks TCP-like traffic (RMI calls and replies): exempt
    from random in-transit loss — TCP retransmits — though still dropped by
    dead hosts and partitions.  Unreliable messages model the asynchronous
    oneway channel the paper's model tolerates losing (§5.3).

    A message in flight is its own kernel heap entry: at the arrival
    instant the event loop calls :meth:`_run_callbacks`, which completes
    the transfer on ``network``.
    """

    src: Address
    dst: Address
    payload: Any
    size: int
    network: Network
    reliable: bool = False
    msg_id: int = field(default_factory=_msg_ids.__next__)

    def _run_callbacks(self) -> None:
        self.network._deliver(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Message #{self.msg_id} {self.src}->{self.dst} {self.size}B>"


class Network:
    """Registry of hosts plus the delivery fabric between them.

    Parameters
    ----------
    sim:
        The simulation kernel.
    link_model:
        Pairwise delay model; defaults to a homogeneous gigabit LAN.
    loss_rate:
        Probability that any message is lost in transit even between live
        hosts (models the unreliable-channel assumption; default 0).
    rng:
        Required when ``loss_rate > 0``.
    """

    def __init__(
        self,
        sim: Simulator,
        link_model: LinkModel | None = None,
        loss_rate: float = 0.0,
        rng: RngTree | None = None,
    ):
        if not 0.0 <= loss_rate < 1.0:
            raise ConfigurationError("loss_rate must be in [0, 1)")
        if loss_rate > 0 and rng is None:
            raise ConfigurationError("loss_rate requires an RngTree")
        self.sim = sim
        self.link_model = link_model or UniformLinkModel()
        self.loss_rate = loss_rate
        self.rng = rng
        #: optional in-transit tamper hook ``corruptor(msg) -> None``,
        #: invoked on every message that will actually be delivered (after
        #: partition/loss/liveness checks).  The fault plane installs one
        #: during a corruption window; it mutates ``msg.payload`` in place.
        self.corruptor = None
        self.hosts: dict[str, Host] = {}
        #: the RMI layer's calls awaiting a reply, keyed by their
        #: process-unique call id: one table for every runtime bound here
        self.pending_calls: dict[int, Any] = {}
        self._partition: dict[str, int] | None = None
        # statistics
        self.sent = 0
        self.delivered = 0
        self.dropped_dead = 0      # destination host offline / endpoint gone
        self.dropped_partition = 0
        self.dropped_loss = 0      # random in-transit loss
        self.bytes_sent = 0
        self.bytes_delivered = 0

    # -- host management -----------------------------------------------------

    def add_host(self, host: Host) -> Host:
        if host.name in self.hosts:
            raise NetworkError(f"duplicate host name {host.name!r}")
        self.hosts[host.name] = host
        return host

    def host(self, name: str) -> Host:
        try:
            return self.hosts[name]
        except KeyError:
            raise NetworkError(f"unknown host {name!r}") from None

    def new_host(self, name: str, **kwargs) -> Host:
        return self.add_host(Host(self.sim, name, **kwargs))

    # -- partitions ------------------------------------------------------------

    def partition(self, groups: list[list[str]]) -> None:
        """Split the network: hosts in different groups cannot communicate.

        Hosts not named in any group form one extra implicit group.
        """
        mapping: dict[str, int] = {}
        for gid, group in enumerate(groups):
            for name in group:
                if name in mapping:
                    raise NetworkError(f"host {name!r} in two partition groups")
                self.host(name)  # validate
                mapping[name] = gid
        self._partition = mapping
        tr = self.sim.tracer
        if tr.enabled:
            tr.emit(self.sim.now, "net", "fabric", "partition",
                    groups=[list(g) for g in groups])

    def heal_partition(self) -> None:
        self._partition = None
        tr = self.sim.tracer
        if tr.enabled:
            tr.emit(self.sim.now, "net", "fabric", "heal")

    # -- sending ----------------------------------------------------------------

    def send(
        self,
        src: Address,
        dst: Address,
        payload: Any,
        size: int | None = None,
        reliable: bool = False,
    ) -> Message:
        """Fire-and-forget send; returns the in-flight :class:`Message`.

        Raises only on programmer error (unknown source host); every
        *runtime* failure mode (dead peer, partition, loss) degrades to a
        silent counted drop.
        """
        sim = self.sim
        tr = sim.tracer
        # inlined self.host(): send() runs per message, and the extra
        # method call is measurable at swarm scale
        src_host = self.hosts.get(src.host)
        if src_host is None:
            raise NetworkError(f"unknown host {src.host!r}") from None
        if not src_host.online:
            # A dead host cannot transmit: drop at the source.
            msg = Message(src, dst, payload, size or 0, self, reliable)
            self.dropped_dead += 1
            if tr.enabled:
                tr.emit(sim.now, "net", "fabric", "drop",
                        msg_id=msg.msg_id, src=str(src), dst=str(dst),
                        reason="src_dead")
            return msg
        if size is None:
            size = measured_size(payload)
        msg = Message(src, dst, payload, int(size), self, reliable)
        self.sent += 1
        self.bytes_sent += msg.size
        if tr.enabled:
            tr.emit(self.sim.now, "net", "fabric", "send",
                    msg_id=msg.msg_id, src=str(src), dst=str(dst),
                    size=msg.size, reliable=reliable)

        dst_host = self.hosts.get(dst.host)
        if dst_host is None:
            self.dropped_dead += 1
            if tr.enabled:
                tr.emit(self.sim.now, "net", "fabric", "drop",
                        msg_id=msg.msg_id, src=str(src), dst=str(dst),
                        reason="no_such_host")
            return msg
        delay = self.link_model.delay(src_host, dst_host, msg.size)
        # The message is its own heap entry, under the NORMAL priority and
        # the next sequence number like any callback scheduled now, so
        # same-time events run in the order they were scheduled.
        sim.push(msg, delay, NORMAL)
        return msg

    def _deliver(self, msg: Message) -> None:
        """Complete one transfer at send time + link delay (the event loop
        reaches it through :meth:`Message._run_callbacks`): drop it, or
        call the destination endpoint's handler with its payload.

        A delivered message counts two kernel events in ``event_count``,
        its arrival and its dispatch, though both run in this callback; a
        dropped one counts its arrival only.  The perf ledger's swarm step
        unit is that count.
        """
        src, dst = msg.src, msg.dst
        # hosts in different partition groups cannot talk (hosts named in
        # no group share group -1); the common case is no partition at all
        part = self._partition
        if part is not None and part.get(src.host, -1) != part.get(dst.host, -1):
            self.dropped_partition += 1
            self._trace_drop(msg, "partition")
            return
        if (
            self.loss_rate > 0.0
            and not msg.reliable
            and self.rng.uniform() < self.loss_rate
        ):
            self.dropped_loss += 1
            self._trace_drop(msg, "loss")
            return
        dst_host = self.hosts.get(dst.host)
        if dst_host is None or not dst_host.online:
            self.dropped_dead += 1
            self._trace_drop(msg, "dst_dead")
            return
        ep = dst_host.endpoints.get(dst.port)
        if ep is None or ep.closed:
            self.dropped_dead += 1
            self._trace_drop(msg, "no_endpoint")
            return
        if self.corruptor is not None:
            self.corruptor(msg)
        self.delivered += 1
        self.bytes_delivered += msg.size
        sim = self.sim
        tr = sim.tracer
        if tr.enabled:
            tr.emit(sim.now, "net", "fabric", "deliver",
                    msg_id=msg.msg_id, src=str(src), dst=str(dst),
                    size=msg.size)
        sim.event_count += 1
        ep.handler(msg.payload)

    def _trace_drop(self, msg: Message, reason: str) -> None:
        tr = self.sim.tracer
        if tr.enabled:
            tr.emit(self.sim.now, "net", "fabric", "drop",
                    msg_id=msg.msg_id, src=str(msg.src), dst=str(msg.dst),
                    reason=reason)

    # -- stats -------------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped_dead": self.dropped_dead,
            "dropped_partition": self.dropped_partition,
            "dropped_loss": self.dropped_loss,
            "bytes_sent": self.bytes_sent,
            "bytes_delivered": self.bytes_delivered,
        }
