#!/usr/bin/env python
"""Audit: hot-path classes must stay ``__slots__``-only.

The kernel and message plane create these objects millions of times per
swarm run; a single accidentally-added attribute (or a subclass dropping
``__slots__``) silently re-grows a ``__dict__`` per instance — tens of MB
of RSS and a measurable events/s regression that no functional test
catches.  This script fails CI the moment any audited class (or any of
its subclasses found in the package) grows a ``__dict__``.

Run from the repo root::

    PYTHONPATH=src python scripts/check_slots.py
"""

from __future__ import annotations

import importlib
import pkgutil
import sys

#: module path → class names that must be dict-free.
AUDITED = {
    "repro.des.events": ["Event", "Timeout", "Condition", "AllOf", "AnyOf"],
    "repro.des.process": ["Process"],
    "repro.des.kernel": ["ScheduledCall"],
    "repro.obs.trace": ["TraceEvent"],
    "repro.net.network": ["Message"],
    "repro.net.address": ["Address"],
    # one per peer (an Endpoint: one per bound port)
    "repro.net.host": ["Host", "Endpoint"],
    "repro.rmi.stub": ["Stub", "BoundStub"],
    # one per peer
    "repro.rmi.runtime": ["RmiRuntime"],
    "repro.p2p.daemon": ["Daemon"],
    "repro.rmi.invocation": [
        "CallMessage", "ReplyMessage", "OnewayMessage", "PreparedOneway",
    ],
    # the compute plane: its counters are bumped on every inner solve
    "repro.compute.plane": ["ComputePlane"],
    # one per (agent, known peer): 32 per Daemon with gossip on
    "repro.gossip.peers": ["PeerRecord"],
    # one per registered Daemon per leaf Super-Peer
    "repro.p2p.superpeer": ["DaemonRecord"],
    # one per task runner, touched every iteration
    "repro.checkpoint.policy": ["CheckpointSchedule"],
}


def has_instance_dict(cls: type) -> bool:
    """True when instances of ``cls`` carry a ``__dict__``."""
    return any("__dict__" in base.__dict__ for base in cls.__mro__)


def audited_classes() -> list[type]:
    out = []
    for module_path, names in sorted(AUDITED.items()):
        module = importlib.import_module(module_path)
        for name in names:
            out.append(getattr(module, name))
    return out


def find_subclasses(roots: list[type]) -> set[type]:
    """Every subclass of an audited class defined anywhere in ``repro``."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        try:
            importlib.import_module(info.name)
        except ModuleNotFoundError as exc:
            # an optional third-party dependency (plotting) may be absent;
            # a repro module that fails to import fails the audit
            if (exc.name or "").split(".")[0] == "repro":
                raise
    found: set[type] = set()
    stack = list(roots)
    while stack:
        cls = stack.pop()
        for sub in type.__subclasses__(cls):
            if sub not in found:
                found.add(sub)
                stack.append(sub)
    return found


def main() -> int:
    roots = audited_classes()
    offenders = []
    for cls in roots:
        if has_instance_dict(cls):
            offenders.append((cls, "audited class"))
    for sub in sorted(find_subclasses(roots), key=lambda c: c.__qualname__):
        if sub.__module__.startswith("repro") and has_instance_dict(sub):
            offenders.append((sub, "subclass of an audited class"))
    if offenders:
        print("slots audit FAILED — instances carry a __dict__:")
        for cls, why in offenders:
            print(f"  {cls.__module__}.{cls.__qualname__}  ({why})")
        return 1
    n_subs = len([
        s for s in find_subclasses(roots) if s.__module__.startswith("repro")
    ])
    print(f"slots audit OK: {len(roots)} classes + {n_subs} repro subclasses "
          "are __dict__-free")
    return 0


if __name__ == "__main__":
    sys.exit(main())
