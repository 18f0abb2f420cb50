"""Server/client runtime for remote invocations.

One :class:`RmiRuntime` per JaceP2P entity: it binds an endpoint on the
entity's host whose handler dispatches every arriving message in its
delivery event (the endpoint closes with the host, like a JVM on a
powered-off PC), serves exported objects, and issues outgoing calls.  The
runtime spawns nothing of its own: a call's deadline is one scheduled
callback, and only generator call handlers and :meth:`RmiRuntime.gather`'s
waiters run as processes.

Failure semantics (these are what the JaceP2P protocols rely on):

* call to a dead/unreachable peer → no reply → :class:`RemoteError` after
  ``timeout`` simulated seconds;
* oneway to a dead peer → silently lost (message-loss-tolerant channel);
* handler raising → the exception travels back and fails the caller's event;
* host dying mid-handler → no reply is ever sent → caller times out.
"""

from __future__ import annotations

from typing import Any

from repro.des import Simulator
from repro.des.events import Event
from repro.errors import NetworkError, RemoteError
from repro.net.host import Host
from repro.net.network import Network
from repro.rmi.invocation import (
    CallMessage,
    OnewayMessage,
    PreparedOneway,
    ReplyMessage,
    remote_method_table,
)
from repro.rmi.stub import Stub
from repro.util.serialization import measured_size, payload_size

__all__ = ["RemoteObject", "RmiRuntime", "DEFAULT_CALL_TIMEOUT", "oneway_size"]

#: Simulated seconds an invocation waits for its reply before failing.
DEFAULT_CALL_TIMEOUT = 10.0

# An envelope is framed as JRMP frames a Java RMI call: the target object
# by a fixed-width ``ObjID`` (an 8-byte object number and a 14-byte UID)
# and the method by its 64-bit hash, so its size is a constant shell plus
# what each argument value adds where it sits (message -> args tuple /
# kwargs dict -> argument).  Keyword names are free, as in a Java call.
_ARG_DEPTH = 2
_UNNAMED_ONEWAY = measured_size(OnewayMessage("", "", (), {}))
#: the bytes of an argument-less oneway envelope
ONEWAY_SHELL = _UNNAMED_ONEWAY + (8 + 14) + 8
#: what a call's envelope adds to a oneway's, its ``reply_to`` aside (the
#: id is pinned so that measuring draws none from the process's counter)
_CALL_EXTRA = (
    measured_size(CallMessage("", "", (), {}, reply_to=None, call_id=0))
    - _UNNAMED_ONEWAY - payload_size(None, 1))
#: a reply is a fixed shell around its value, one level down
_REPLY_SHELL = measured_size(ReplyMessage(0, True, None)) - payload_size(None, 1)


def oneway_size(args: tuple = (), kwargs: dict | None = None) -> int:
    """The bytes the network charges for one oneway invocation carrying
    ``args`` and ``kwargs``, whatever its object and method are named."""
    size = ONEWAY_SHELL
    for arg in args:
        size += payload_size(arg, _ARG_DEPTH)
    if kwargs:
        for value in kwargs.values():
            size += payload_size(value, _ARG_DEPTH)
    return size


class RemoteObject:
    """Base class for objects exported through RMI.

    Subclasses mark exported methods with :func:`repro.rmi.remote`.  A method
    may be a plain function (runs instantaneously at the server) or, when
    invoked by a call, a generator (runs as a process on the server's host
    and may ``yield`` simulation events — e.g. to charge compute time before
    answering).  A oneway runs its method as a plain function: a generator
    method invoked by a oneway never runs.
    """

    # empty, so that a subclass which declares ``__slots__`` carries no
    # instance ``__dict__``
    __slots__ = ()


class RmiRuntime:
    """Binds one endpoint and carries all RMI traffic for an entity."""

    __slots__ = ("network", "sim", "host", "name", "endpoint", "address",
                 "call_timeout", "_objects", "_method_cache", "_pending",
                 "calls_sent", "served", "oneways_sent", "oneway_errors")

    def __init__(
        self,
        network: Network,
        host: Host,
        port: int,
        name: str = "",
        call_timeout: float = DEFAULT_CALL_TIMEOUT,
    ):
        self.network = network
        self.sim: Simulator = network.sim
        self.host = host
        self.name = name or f"rmi@{host.name}:{port}"
        self.endpoint = host.open_endpoint(port, self._dispatch)
        self.address = self.endpoint.address
        self.call_timeout = call_timeout
        self._objects: dict[str, RemoteObject] = {}
        #: resolved bound methods, keyed by (object_name, method), made by
        #: the first invocation served (most Daemons of a swarm only send);
        #: an export is never withdrawn, so no entry goes stale.  Error
        #: paths are never cached.
        self._method_cache: dict[tuple[str, str], Any] | None = None
        #: the network's one table of calls awaiting a reply:
        #: ``call_id -> (issuing runtime, result event)``
        self._pending: dict[int, tuple[RmiRuntime, Event]] = (
            network.pending_calls)
        self.calls_sent = 0
        #: invocations handled without error, calls and oneways alike
        self.served = 0
        self.oneways_sent = 0
        self.oneway_errors = 0

    # -- serving ------------------------------------------------------------

    def serve(self, obj: RemoteObject, object_name: str) -> Stub:
        """Export ``obj`` under ``object_name``; returns its stub."""
        if object_name in self._objects:
            raise NetworkError(f"object {object_name!r} already exported on {self.name}")
        self._objects[object_name] = obj
        return Stub(object_name, self.address)

    @property
    def alive(self) -> bool:
        return self.host.online and not self.endpoint.closed

    # -- outgoing calls --------------------------------------------------------

    def call(
        self, stub: Stub, method: str, *args: Any,
        timeout: float | None = None, **kwargs: Any,
    ) -> Event:
        """Invoke ``method`` on the remote object behind ``stub``.

        Returns a DES event that fires with the result, or fails with
        :class:`RemoteError` (peer unreachable / timed out) or with the
        remote application exception.  With no reply, the event fails at
        exactly ``now + timeout``, and a reply arriving later is dropped.
        """
        result = self.sim.event()
        msg = CallMessage(stub.object_name, method, args, kwargs, reply_to=self.address)
        size = (oneway_size(args, kwargs) + _CALL_EXTRA
                + payload_size(self.address, 1))
        self._pending[msg.call_id] = (self, result)
        self.calls_sent += 1
        tr = self.sim.tracer
        if tr.enabled:
            tr.emit(self.sim.now, "rmi", self.name, "call",
                    call_id=msg.call_id, object=stub.object_name, method=method,
                    dst=str(stub.address))
        # calls ride the TCP-like reliable channel (Java RMI semantics):
        # they complete or fail with a connection error — never silently
        # vanish mid-exchange on a healthy pair of hosts
        self.network.send(self.address, stub.address, msg, size, True)
        timeout = timeout or self.call_timeout
        self.sim.call_later(timeout, self._expire, msg.call_id, result, timeout)
        return result

    def oneway(
        self,
        stub: Stub,
        method: str,
        *args: Any,
        reliable: bool = False,
        size: int | None = None,
        **kwargs: Any,
    ) -> int:
        """Fire-and-forget invocation (the asynchronous data channel);
        returns the bytes charged for it (:func:`oneway_size`).

        ``reliable=True`` rides the TCP-like channel: still no reply and
        still lost if the peer is dead, but exempt from random in-transit
        loss — for fire-and-forget *control* broadcasts whose permanent
        loss would wedge a protocol (e.g. Application Register updates).

        ``size`` is for a sender that fans one argument tuple out to many
        targets and already holds :func:`oneway_size` of it, assembled
        from parts it memoizes (the gossip push); everyone else leaves
        the sizing to this method.
        """
        if size is None:
            size = oneway_size(args, kwargs)
        self.oneways_sent += 1
        tr = self.sim.tracer
        if tr.enabled:
            tr.emit(self.sim.now, "rmi", self.name, "oneway",
                    object=stub.object_name, method=method, dst=str(stub.address))
        msg = OnewayMessage(stub.object_name, method, args, kwargs)
        self.network.send(self.address, stub.address, msg, size, reliable)
        return size

    def prepare_oneway(
        self, stub: Stub, method: str, *args: Any, **kwargs: Any
    ) -> PreparedOneway:
        """Pre-build (and pre-measure) a constant oneway invocation.

        For emitters that fire the *same* invocation at high rate (the
        wheel-mode heartbeat), this hoists the envelope allocation and the
        payload size walk out of the per-send path.  The prepared message
        is immutable by convention; :meth:`send_prepared` re-sends it any
        number of times with byte-for-byte identical link charges.
        """
        msg = OnewayMessage(stub.object_name, method, args, kwargs)
        return PreparedOneway(stub, msg, oneway_size(args, kwargs))

    def send_prepared(self, prepared: PreparedOneway) -> None:
        """Fire-and-forget send of a :meth:`prepare_oneway` envelope."""
        self.oneways_sent += 1
        tr = self.sim.tracer
        if tr.enabled:
            msg = prepared.msg
            tr.emit(self.sim.now, "rmi", self.name, "oneway",
                    object=msg.object_name, method=msg.method,
                    dst=str(prepared.stub.address))
        self.network.send(self.address, prepared.stub.address, prepared.msg,
                          prepared.size)

    def gather(self, calls: dict) -> Any:
        """Generator: await a dict of :meth:`call` events; returns
        ``{key: result}`` with ``None`` for every call that failed."""
        results: dict = {}

        def waiter(key, ev):
            try:
                value = yield ev
            except Exception:
                value = None
            results[key] = value

        procs = [
            self.sim.process(waiter(k, ev), label=f"{self.name}:gather")
            for k, ev in calls.items()
        ]
        if procs:
            yield self.sim.all_of(procs)
        return results

    def _expire(self, call_id: int, result: Event, timeout: float) -> None:
        """A call's deadline: fail it unless its reply already came."""
        if result.triggered:
            return
        self._pending.pop(call_id, None)
        tr = self.sim.tracer
        if tr.enabled:
            tr.emit(self.sim.now, "rmi", self.name, "error",
                    call_id=call_id, reason="timeout", timeout=timeout)
        result.fail(RemoteError(f"call #{call_id} timed out after {timeout}s"))

    # -- dispatch ---------------------------------------------------------------

    def _dispatch(self, payload: Any) -> None:
        """The endpoint's handler: runs in the message's delivery event."""
        if isinstance(payload, OnewayMessage):
            self._on_oneway(payload)
        elif isinstance(payload, ReplyMessage):
            self._on_reply(payload)
        elif isinstance(payload, CallMessage):
            self._on_call(payload)
        else:  # pragma: no cover - diagnostics
            tr = self.sim.tracer
            if tr.enabled:
                tr.emit(self.sim.now, "rmi", self.name,
                        "rmi_unknown_message", type=type(payload).__name__)

    def _on_reply(self, reply: ReplyMessage) -> None:
        entry = self._pending.get(reply.call_id)
        if entry is None or entry[0] is not self:
            # late reply after timeout, or one to a dead incarnation bound
            # to this address (its call still times out): drop
            return
        del self._pending[reply.call_id]
        event = entry[1]
        if event.triggered:
            return
        tr = self.sim.tracer
        if reply.ok:
            if tr.enabled:
                tr.emit(self.sim.now, "rmi", self.name, "reply",
                        call_id=reply.call_id, ok=True)
            event.succeed(reply.value)
        else:
            exc = reply.value
            if not isinstance(exc, BaseException):  # defensive
                exc = RemoteError(f"malformed error reply: {exc!r}")
            if tr.enabled:
                tr.emit(self.sim.now, "rmi", self.name, "error",
                        call_id=reply.call_id, reason="remote_exception",
                        error=repr(exc))
            event.fail(exc)

    def _resolve(self, object_name: str, method: str):
        cache = self._method_cache
        if cache is None:
            cache = self._method_cache = {}
        fn = cache.get((object_name, method))
        if fn is not None:
            return fn
        obj = self._objects.get(object_name)
        if obj is None:
            raise RemoteError(f"no object {object_name!r} exported at {self.address}")
        if method not in remote_method_table(type(obj)):
            raise RemoteError(f"{object_name}.{method} is not a remote method")
        fn = getattr(obj, method)
        cache[(object_name, method)] = fn
        return fn

    def _on_call(self, call: CallMessage) -> None:
        try:
            fn = self._resolve(call.object_name, call.method)
            outcome = fn(*call.args, **call.kwargs)
        except RemoteError as exc:
            self._reply(call, ok=False, value=exc)
            return
        except Exception as exc:
            self._reply(call, ok=False, value=exc)
            return
        if hasattr(outcome, "send") and hasattr(outcome, "throw"):
            # Generator handler: run as a process on this host.
            self.host.spawn(self._run_generator_handler(call, outcome),
                            label=f"{self.name}:{call.method}")
        else:
            self.served += 1
            self._reply(call, ok=True, value=outcome)

    def _run_generator_handler(self, call: CallMessage, gen) -> Any:
        try:
            value = yield from gen
        except Exception as exc:  # noqa: BLE001 - ship the error to the caller
            self._reply(call, ok=False, value=exc)
            return
        self.served += 1
        self._reply(call, ok=True, value=value)

    def _reply(self, call: CallMessage, ok: bool, value: Any) -> None:
        if not self.host.online:
            return  # died while handling: the caller will time out
        self.network.send(
            self.address, call.reply_to,
            ReplyMessage(call.call_id, ok, value),
            _REPLY_SHELL + payload_size(value, 1), True,
        )

    def _on_oneway(self, msg: OnewayMessage) -> None:
        try:
            fn = self._resolve(msg.object_name, msg.method)
            fn(*msg.args, **msg.kwargs)
        except Exception as exc:  # noqa: BLE001 - oneway errors never propagate
            self._oneway_error(msg.method, exc)
            return
        self.served += 1

    def _oneway_error(self, method: str, exc: Exception) -> None:
        self.oneway_errors += 1
        tr = self.sim.tracer
        if tr.enabled:
            tr.emit(self.sim.now, "rmi", self.name, "rmi_oneway_error",
                    method=method, error=repr(exc))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<RmiRuntime {self.name} at {self.address} objects={list(self._objects)}>"
