"""Link delay models.

A :class:`LinkModel` answers one question: how long does a message of *b*
bytes take from host A to host B?  The standard decomposition is

    ``delay = latency + bytes / bandwidth (+ jitter)``

:class:`HeterogeneousLinkModel` reproduces the paper's mixed network (§7):
each host belongs to a network class (100 Mbps or 1 Gbps Ethernet); a
transfer is paced by the *slower* of the two endpoints' networks, which is
how a shared-switch campus network behaves to first order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.net.host import Host
from repro.util.rng import RngTree

__all__ = ["LinkModel", "UniformLinkModel", "HeterogeneousLinkModel", "NetClass"]


class LinkModel:
    """Interface: subclasses implement :meth:`delay`."""

    def delay(self, src: Host, dst: Host, nbytes: int) -> float:  # pragma: no cover
        raise NotImplementedError


class _JitterStream:
    """Block-buffered jitter factors, bitwise-identical to scalar draws.

    numpy's ``Generator`` consumes one double from the bitstream per scalar
    ``uniform(low, high)`` call and per element of a batched ``random(n)``
    fill, and the scalar result is ``low + (high - low) * u`` — so serving
    draws from a pre-filled block reproduces the exact sequence the scalar
    calls would produce while paying the numpy call overhead once per
    block instead of once per message.  Safe only because the link model
    owns a dedicated RNG subtree (``rng.child("links")``) that nothing
    else draws from.
    """

    __slots__ = ("generator", "low", "span", "_buf", "_pos")

    #: draws per refill (:meth:`HeterogeneousLinkModel.delay` serves them)
    _BLOCK = 1024

    def __init__(self, rng: RngTree, jitter: float):
        self.generator = rng.generator
        self.low = -jitter
        # bitwise-identical to numpy's internal ``high - low``: jitter
        # magnitudes are symmetric, and ``j - (-j)`` is exact in binary64
        self.span = jitter - (-jitter)
        self._buf = None
        self._pos = 0


#: :class:`UniformLinkModel`'s bandwidth: 1 Gbps in bytes/s
LAN_BANDWIDTH = 125e6


@dataclass
class UniformLinkModel(LinkModel):
    """Same latency for every pair, and :data:`LAN_BANDWIDTH` — a
    homogeneous gigabit LAN.

    Parameters
    ----------
    latency:
        One-way latency in seconds.
    """

    latency: float = 200e-6

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ConfigurationError("latency must be >= 0")

    def delay(self, src: Host, dst: Host, nbytes: int) -> float:
        if src is dst:
            return 1e-6  # loop-back
        return self.latency + nbytes / LAN_BANDWIDTH


@dataclass(frozen=True)
class NetClass:
    """One network class a host can belong to."""

    name: str
    latency: float
    bandwidth: float  # bytes/s


#: The two Ethernet classes of the paper's testbed.
FAST_ETHERNET = NetClass("ethernet-100M", latency=300e-6, bandwidth=12.5e6)
GIGABIT_ETHERNET = NetClass("ethernet-1G", latency=150e-6, bandwidth=125e6)


class HeterogeneousLinkModel(LinkModel):
    """Hosts tagged with a network class; pairwise delay paced by the slower
    endpoint.

    Hosts whose ``tags`` include a known class name use that class; untagged
    hosts default to ``default_class``.
    """

    def __init__(
        self,
        classes: dict[str, NetClass] | None = None,
        default_class: NetClass = GIGABIT_ETHERNET,
        jitter: float = 0.0,
        rng: RngTree | None = None,
    ):
        self.classes = classes or {
            FAST_ETHERNET.name: FAST_ETHERNET,
            GIGABIT_ETHERNET.name: GIGABIT_ETHERNET,
        }
        self.default_class = default_class
        self.jitter = float(jitter)
        self.rng = rng
        if self.jitter and rng is None:
            raise ConfigurationError("jitter requires an RngTree")
        self._jitter_stream = (
            _JitterStream(rng, self.jitter) if self.jitter else None
        )
        # host tags are immutable (a tuple fixed at construction), so the
        # tag walk resolves to the same class forever: memoize per host —
        # class_of runs twice per message send
        self._class_cache: dict[Host, NetClass] = {}

    def class_of(self, host: Host) -> NetClass:
        cls = self._class_cache.get(host)
        if cls is None:
            cls = self.default_class
            for tag in host.tags:
                hit = self.classes.get(tag)
                if hit is not None:
                    cls = hit
                    break
            self._class_cache[host] = cls
        return cls

    def delay(self, src: Host, dst: Host, nbytes: int) -> float:
        if src is dst:
            return 1e-6
        # inlined cache hits: class_of runs twice per message send, and the
        # method-call + miss-handling overhead is measurable at swarm scale
        cache = self._class_cache
        a = cache.get(src)
        if a is None:
            a = self.class_of(src)
        b = cache.get(dst)
        if b is None:
            b = self.class_of(dst)
        latency = a.latency + b.latency  # two first-hop traversals
        bandwidth = min(a.bandwidth, b.bandwidth)
        d = latency + nbytes / bandwidth
        js = self._jitter_stream
        if js is not None:
            # the next buffered factor, inlined: one message-plane call
            # frame saved per send
            buf, pos = js._buf, js._pos
            if buf is None or pos == js._BLOCK:
                buf = js._buf = js.generator.random(js._BLOCK)
                pos = 0
            js._pos = pos + 1
            d *= 1.0 + (js.low + js.span * float(buf[pos]))
        return d
