"""Testbed construction mirroring the paper's §7 configuration.

The paper's population:

* 3 Super-Peers on Pentium 4 2.40 GHz / 512 MB,
* ~100 Daemon workstations ranging from Pentium III 1.26 GHz / 256 MB to
  Pentium 4 3.00 GHz / 1024 MB,
* 1 Spawner on Pentium 4 2.40 GHz / 512 MB,
* machines split across 100 Mbps and 1 Gbps Ethernet.

Speeds are normalised so the slowest class is 1.0.  Clock-frequency ratio is
a reasonable proxy for relative throughput within this processor family; the
phenomena reproduced depend only on there *being* a ~2.4× spread, not on its
exact value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.des import Simulator
from repro.net.host import Host
from repro.net.link import (
    FAST_ETHERNET,
    GIGABIT_ETHERNET,
    HeterogeneousLinkModel,
    NetClass,
)
from repro.net.network import Network
from repro.util.rng import RngTree

__all__ = [
    "MachineClass",
    "PAPER_MACHINE_CLASSES",
    "PAPER_SUPERPEER_CLASS",
    "Testbed",
    "build_testbed",
]


@dataclass(frozen=True)
class MachineClass:
    """A hardware class with a sampling weight."""

    name: str
    speed: float
    ram_mb: int
    weight: float = 1.0


#: Daemon machine classes spanning the paper's range (speed 1.0 = P-III
#: 1.26 GHz).  Intermediate classes interpolate the population.
PAPER_MACHINE_CLASSES: tuple[MachineClass, ...] = (
    MachineClass("p3-1266", speed=1.00, ram_mb=256, weight=0.25),
    MachineClass("p4-1800", speed=1.42, ram_mb=512, weight=0.25),
    MachineClass("p4-2400", speed=1.90, ram_mb=512, weight=0.30),
    MachineClass("p4-3000", speed=2.38, ram_mb=1024, weight=0.20),
)

#: Super-Peers and the Spawner run on P4 2.40 GHz / 512 MB machines.
PAPER_SUPERPEER_CLASS = MachineClass("p4-2400", speed=1.90, ram_mb=512)

#: Fraction of daemon hosts on 1 Gbps Ethernet; the rest are on 100 Mbps
#: (paper: "some machines ... 1Gbps ... others ... 100Mbps").
FAST_NETWORK_FRACTION = 0.5

#: Fractional uniform jitter on every link delay of a seeded testbed.
LINK_JITTER = 0.05


@dataclass
class Testbed:
    """A built network: hosts grouped by role."""

    sim: Simulator
    network: Network
    daemon_hosts: list[Host] = field(default_factory=list)
    superpeer_hosts: list[Host] = field(default_factory=list)
    spawner_host: Host | None = None
    #: present only when built with ``with_standby=True`` — the machine the
    #: warm-standby Spawner shadows from (docs/gossip.md)
    standby_host: Host | None = None

    def speed_spread(self) -> tuple[float, float]:
        speeds = [h.speed for h in self.daemon_hosts]
        return (min(speeds), max(speeds)) if speeds else (0.0, 0.0)


def build_testbed(
    sim: Simulator,
    n_daemons: int,
    n_superpeers: int = 3,
    rng: RngTree | None = None,
    homogeneous: bool = False,
    link_scale: float = 1.0,
    loss_rate: float = 0.0,
    with_standby: bool = False,
) -> Testbed:
    """Create a :class:`Testbed` with the paper's host population shape:
    daemons drawn from :data:`PAPER_MACHINE_CLASSES`, a
    :data:`FAST_NETWORK_FRACTION` of them on gigabit Ethernet, and every
    link delay jittered by :data:`LINK_JITTER` when ``rng`` is given.

    Parameters
    ----------
    n_daemons / n_superpeers:
        Population sizes (paper: ~100 and 3).
    rng:
        Seeded randomness for class assignment; required unless
        ``homogeneous=True``.
    homogeneous:
        All daemons identical speed-1.0 on gigabit Ethernet (the control
        configuration used by ablations).
    link_scale:
        Multiplies latencies and divides bandwidths by this factor.  The
        experiment harness uses it to *preserve the paper's
        compute-per-iteration / communication-per-iteration regime* (its
        ratio (4)) when the problem itself is scaled down ~1000×: the
        relevant phenomena depend on the relative cost of a message versus
        an iteration, not on absolute 2006 LAN parameters.
    """
    if n_daemons < 1:
        raise ConfigurationError("need at least one daemon host")
    if n_superpeers < 1:
        raise ConfigurationError("need at least one super-peer host")
    if not homogeneous and rng is None:
        raise ConfigurationError("heterogeneous testbed requires an rng")
    if link_scale <= 0:
        raise ConfigurationError("link_scale must be positive")

    if loss_rate > 0 and rng is None:
        raise ConfigurationError("loss_rate requires an rng")
    link_rng = rng.child("links") if rng is not None else None
    classes = {
        cls.name: NetClass(cls.name, cls.latency * link_scale,
                           cls.bandwidth / link_scale)
        for cls in (FAST_ETHERNET, GIGABIT_ETHERNET)
    }
    link_model = HeterogeneousLinkModel(
        classes=classes,
        default_class=classes[GIGABIT_ETHERNET.name],
        jitter=LINK_JITTER if link_rng is not None else 0.0,
        rng=link_rng,
    )
    network = Network(
        sim,
        link_model=link_model,
        loss_rate=loss_rate,
        rng=rng.child("loss") if loss_rate > 0 else None,
    )
    testbed = Testbed(sim=sim, network=network)

    weights = [c.weight for c in PAPER_MACHINE_CLASSES]
    total_w = sum(weights)

    def pick_class(u: float) -> MachineClass:
        u *= total_w
        acc = 0.0
        for cls, w in zip(PAPER_MACHINE_CLASSES, weights):
            acc += w
            if u <= acc:
                return cls
        return PAPER_MACHINE_CLASSES[-1]

    if not homogeneous:  # one stream per host of each node: no Generator
        class_rng, net_rng = rng.child("class"), rng.child("net")
    for i in range(n_daemons):
        if homogeneous:
            cls = MachineClass("uniform", speed=1.0, ram_mb=512)
            net_tag = GIGABIT_ETHERNET.name
        else:
            cls = pick_class(class_rng.unit(i))
            fast = net_rng.unit(i) < FAST_NETWORK_FRACTION
            net_tag = GIGABIT_ETHERNET.name if fast else FAST_ETHERNET.name
        host = network.new_host(
            f"daemon-host-{i}",
            speed=cls.speed,
            ram_mb=cls.ram_mb,
            tags=(cls.name, net_tag),
        )
        testbed.daemon_hosts.append(host)

    for j in range(n_superpeers):
        host = network.new_host(
            f"superpeer-host-{j}",
            speed=PAPER_SUPERPEER_CLASS.speed,
            ram_mb=PAPER_SUPERPEER_CLASS.ram_mb,
            tags=(PAPER_SUPERPEER_CLASS.name, GIGABIT_ETHERNET.name),
        )
        testbed.superpeer_hosts.append(host)

    testbed.spawner_host = network.new_host(
        "spawner-host",
        speed=PAPER_SUPERPEER_CLASS.speed,
        ram_mb=PAPER_SUPERPEER_CLASS.ram_mb,
        tags=(PAPER_SUPERPEER_CLASS.name, GIGABIT_ETHERNET.name),
    )
    if with_standby:
        # created LAST so every pre-existing host keeps its creation order
        # (and rng stream) — a standby-less build stays bit-identical
        testbed.standby_host = network.new_host(
            "standby-host",
            speed=PAPER_SUPERPEER_CLASS.speed,
            ram_mb=PAPER_SUPERPEER_CLASS.ram_mb,
            tags=(PAPER_SUPERPEER_CLASS.name, GIGABIT_ETHERNET.name),
        )
    return testbed
