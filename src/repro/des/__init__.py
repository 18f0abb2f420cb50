"""``repro.des`` — a deterministic discrete-event simulation kernel.

This is a self-contained, SimPy-style kernel (generator processes yielding
events) written from scratch for this reproduction.  Everything above it —
the network substrate, the RMI layer, the JaceP2P runtime — is expressed as
processes and scheduled callbacks on :class:`Simulator`.

Design goals:

* **Determinism** — ties in the event heap break by a monotonically
  increasing sequence number, never by object identity, so two runs of the
  same program produce identical schedules.
* **Interrupts** — host failures are delivered to compute processes as
  :class:`Interrupt` exceptions, which is how the churn injector kills a
  Daemon mid-iteration.
* **No idle collector** — the event loop makes no cyclic garbage, so
  :meth:`Simulator.run` suspends CPython's automatic cyclic collection and
  drives it from the event counter instead (:mod:`repro.des.collector`).

Example
-------
>>> from repro.des import Simulator
>>> sim = Simulator()
>>> def proc(env):
...     yield env.timeout(3.0)
...     return "done"
>>> p = sim.process(proc(sim))
>>> sim.run()
>>> sim.now, p.value
(3.0, 'done')
"""

from repro.des.events import Event, Timeout, AllOf, AnyOf, ConditionValue
from repro.des.process import Process, Interrupt
from repro.des.kernel import Simulator, TimerWheel

__all__ = [
    "Simulator",
    "TimerWheel",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "ConditionValue",
    "Process",
    "Interrupt",
]
