"""The kernel's collector discipline: who runs CPython's cyclic GC, and when.

The event loop makes no cyclic garbage: messages, pooled calls, timeouts
and batches all die by reference count.  CPython's generational collector
does not know that.  It counts *allocations*, so a world with 8,000 Daemons
and 8,000 messages in flight per heartbeat slot trips it thousands of times
a run, and every full pass walks the whole live world to free nothing
(a quarter of an idle swarm's host time, see ``docs/performance.md``).

So the outermost :meth:`Simulator.run() <repro.des.kernel.Simulator.run>`
and :func:`~repro.p2p.cluster.build_cluster` suspend allocation-driven
collection (:func:`enter` / :func:`leave`; :func:`world_builder` around
``build_cluster``) and the kernel drives collection from its own event
counter instead (:func:`credit`):

* a young pass, ``gc.collect(1)``, every :data:`YOUNG_STRIDE` drained events;
* a full pass once the events drained since the last one outnumber the
  allocated heap blocks (:data:`FULL_EVENTS_PER_BLOCK`).  A full pass costs
  time proportional to the live heap, so a stride proportional to the live
  heap holds it to a percent or two of wall whatever the population.
  ``sys.getallocatedblocks()`` is the O(1) stand-in for the heap's size;
  ``len(gc.get_objects())`` would materialise the list it counts.

Cycles do exist outside the loop (user callbacks, churn, and above all a
finished run, whose ``Simulator`` ↔ pooled calls ↔ processes ↔ generator
frames form one cycle that only dies after its driver returns), which is
why the event credit belongs to the process, not to a ``Simulator``: the
next run pays for collecting the previous one.

The state here is process-wide because the collector it governs is.  The
two strides are constants, not knobs: nothing simulated can observe a
collection (``src/repro`` has no ``__del__``, no ``weakref``, no finalizer;
``tests/test_collector_discipline.py`` keeps it so), so there is nothing to
tune them against but host time, and that was measured once.

Callers are handed the collector back exactly as they left it: enabled if
it was enabled, disabled if it was disabled, thresholds untouched.  A caller
who disabled it still gets the kernel-driven passes.  ``Simulator.step()``
neither suspends nor credits; events it drains are credited by the next
``run()``.
"""

from __future__ import annotations

import functools
import gc
import sys

__all__ = ["YOUNG_STRIDE", "FULL_EVENTS_PER_BLOCK", "enter", "leave",
           "world_builder", "credit"]

#: drained events between young passes; the kernel credits in chunks of
#: exactly this many, so it must stay a power of two (one masked test per
#: event finds the chunk boundary)
YOUNG_STRIDE = 1 << 16

#: a full pass falls due when the events drained since the last one reach
#: this many per allocated heap block
FULL_EVENTS_PER_BLOCK = 1

_depth = 0
_resume = False  # was automatic collection on at the outermost enter()?
_young_credit = 0  # events since the last pass of either kind
_full_credit = 0  # events since the last full pass, as of the last pass


def enter() -> None:
    """Suspend automatic collection (re-entrant; pair with :func:`leave`)."""
    global _depth, _resume
    if _depth == 0:
        _resume = gc.isenabled()
        gc.disable()
    _depth += 1


def leave() -> None:
    """Undo one :func:`enter`; the outermost one restores the caller's state."""
    global _depth
    _depth -= 1
    if _depth == 0 and _resume:
        gc.enable()


def world_builder(fn):
    """Decorator for a function that builds a whole world (``build_cluster``).

    ``fn`` runs between :func:`enter` and :func:`leave`, and is credited one
    young stride up front: a sweep of event-light, memory-heavy runs (a
    Figure 7 column drains 15-20k events per 5 MB world) would otherwise
    build several worlds on top of their dead predecessors before the event
    counter alone made a pass fall due.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter()
        try:
            credit(YOUNG_STRIDE)
            return fn(*args, **kwargs)
        finally:
            leave()

    return wrapper


def credit(events: int) -> None:
    """Account ``events`` drained kernel events and run the pass that falls
    due, if one does."""
    global _young_credit, _full_credit
    _young_credit += events
    if _young_credit < YOUNG_STRIDE:
        return
    _full_credit += _young_credit
    _young_credit = 0
    if _full_credit >= FULL_EVENTS_PER_BLOCK * sys.getallocatedblocks():
        _full_credit = 0
        gc.collect()
    else:
        gc.collect(1)
