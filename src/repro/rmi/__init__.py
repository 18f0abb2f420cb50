"""``repro.rmi`` — Java-RMI-style remote invocation over the simulated net.

JaceP2P entities locate each other by exchanging **stubs** (§4.1, §5.1):
after bootstrap, "only RMI stubs are used to locate the different entities of
the network".  This package reproduces those semantics:

* a :class:`RemoteObject` exposes methods marked with :func:`remote`;
* an :class:`RmiRuntime` (one per entity) binds an endpoint on a host,
  serves incoming invocations, and issues outgoing ones;
* a :class:`Stub` is a location-transparent, serializable reference; calling
  through it charges marshalling + link delay both ways;
* an unreachable peer surfaces as :class:`~repro.errors.RemoteError` after a
  call timeout — exactly the failure signal the runtime's heartbeat and
  reservation protocols act on;
* ``oneway`` sends are fire-and-forget with no reply and no error: the
  message-loss-tolerant channel used for asynchronous data exchange.
"""

from repro.rmi.invocation import remote, is_remote
from repro.rmi.stub import Stub
from repro.rmi.runtime import (RemoteObject, RmiRuntime, DEFAULT_CALL_TIMEOUT,
                               oneway_size)

__all__ = [
    "remote",
    "is_remote",
    "Stub",
    "RemoteObject",
    "RmiRuntime",
    "DEFAULT_CALL_TIMEOUT",
    "oneway_size",
]
