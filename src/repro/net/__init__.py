"""``repro.net`` — the simulated network substrate.

This package replaces the paper's physical testbed (§7: ~100 heterogeneous
PCs, Pentium III 1.26 GHz … Pentium 4 3 GHz, on mixed 100 Mbps / 1 Gbps
Ethernet) with an explicit model:

* :class:`Host` — a machine with a relative CPU speed, an online/offline
  state, per-port endpoints (each a handler the network delivers to) and
  the live processes to interrupt when the machine is switched off.
* :class:`LinkModel` — per-pair latency/bandwidth; message delay =
  ``latency + bytes/bandwidth (+ jitter)``.
* :class:`Network` — delivery engine: routes messages between hosts,
  silently dropping anything addressed to a dead or partitioned host
  (the asynchronous model is message-loss tolerant, §5.3).
* :func:`build_testbed` — builds a heterogeneous host population mirroring
  the paper's machine and network classes.
"""

from repro.net.address import Address
from repro.net.host import Host, Endpoint
from repro.net.link import LinkModel, UniformLinkModel, HeterogeneousLinkModel
from repro.net.network import Network, Message
from repro.net.topology import (
    MachineClass,
    PAPER_MACHINE_CLASSES,
    PAPER_SUPERPEER_CLASS,
    Testbed,
    build_testbed,
)

__all__ = [
    "Address",
    "Host",
    "Endpoint",
    "LinkModel",
    "UniformLinkModel",
    "HeterogeneousLinkModel",
    "Network",
    "Message",
    "MachineClass",
    "PAPER_MACHINE_CLASSES",
    "PAPER_SUPERPEER_CLASS",
    "Testbed",
    "build_testbed",
]
