"""Every trace kind emitted under ``src/repro`` is documented, and every
counted fact agrees with its trace kind.

Walks the source for string-literal kinds passed to ``_trace(...)`` /
``tr.emit(...)`` / ``tracer.emit(...)`` and checks each against the "Event
taxonomy" table of its category in ``docs/observability.md``.  The category
is the literal at the ``emit`` call site, or the one the file's ``_trace``
helper hard-codes.  Kinds computed at run time (``action.kind`` in the fault
injector) are out of a static walk's reach; their table rows are checked
against the action registry instead.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
DOC = ROOT / "docs" / "observability.md"


def _literal(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _emit_args(call):
    """``(category, kind)`` nodes of a ``tr.emit(now, cat, entity, kind)``."""
    func = call.func
    if (isinstance(func, ast.Attribute) and func.attr == "emit"
            and isinstance(func.value, ast.Name)
            and func.value.id in ("tr", "tracer") and len(call.args) >= 4):
        return call.args[1], call.args[3]
    return None


def emitted_kinds():
    """``{(category, kind): "file:line"}`` for every literal emission."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        helper_category = None
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_trace":
                for call in ast.walk(node):
                    args = isinstance(call, ast.Call) and _emit_args(call)
                    if args:
                        helper_category = _literal(args[0])
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            where = f"{path.relative_to(ROOT)}:{call.lineno}"
            args = _emit_args(call)
            if args:
                category, kind = _literal(args[0]), _literal(args[1])
            elif (isinstance(call.func, ast.Attribute)
                    and call.func.attr == "_trace" and call.args):
                category, kind = helper_category, _literal(call.args[0])
                assert category is not None, f"{where}: no _trace helper"
            else:
                continue
            if kind is not None:
                assert category is not None, f"{where}: non-literal category"
                found.setdefault((category, kind), where)
    return found


def documented_kinds():
    """``{category: {kinds}}`` from the taxonomy tables of the docs."""
    text = DOC.read_text()
    section = text.split("### Event taxonomy", 1)[1].split("\n## ", 1)[0]
    tables: dict[str, set[str]] = {}
    category = None
    for line in section.splitlines():
        heading = re.match(r"`(\w+)` — ", line)
        if heading:
            category = heading.group(1)
            tables[category] = set()
        elif category and line.startswith("| `"):
            tables[category].update(re.findall(r"`(\w+)`", line.split("|")[1]))
    return tables


def test_every_emitted_kind_is_in_the_taxonomy():
    tables = documented_kinds()
    missing = sorted(
        f"{category}/{kind} ({where})"
        for (category, kind), where in emitted_kinds().items()
        if kind not in tables.get(category, ())
    )
    assert not missing, "undocumented trace kinds:\n  " + "\n  ".join(missing)


def test_walk_sees_both_call_shapes():
    found = emitted_kinds()
    assert ("p2p", "slot_filled") in found          # via a _trace helper
    assert ("faults", "corruption_off") in found
    assert ("net", "host_fail") in found            # direct tr.emit
    assert ("gossip", "takeover") in found          # standby's helper


def test_fault_action_kinds_are_in_the_taxonomy():
    """``FaultInjector._record`` emits ``action.kind``: every registered
    action kind needs its row too."""
    from repro.faults import actions

    kinds = {
        cls.kind for cls in vars(actions).values()
        if isinstance(cls, type) and issubclass(cls, actions.FaultAction)
        and cls is not actions.FaultAction
    }
    assert kinds and kinds <= documented_kinds()["faults"]


def test_counts_agree_with_the_trace():
    """Each counted fact has one count, and it matches its trace kind: a
    traced gossip run under churn, with checkpoints and a recovery."""
    from repro.apps import make_poisson_app
    from repro.churn import PaperChurn
    from repro.experiments.config import (
        EXPERIMENT_CONFIG,
        EXPERIMENT_LINK_SCALE,
        optimal_overlap,
    )
    from repro.obs import Tracer
    from repro.p2p import build_cluster, launch_application
    from repro.util.rng import RngTree
    from tests.helpers import churn_injector, run_until_done

    tracer = Tracer()
    cluster = build_cluster(
        n_daemons=12, n_superpeers=3, seed=4,
        config=EXPERIMENT_CONFIG.with_(gossip_enabled=True),
        link_scale=EXPERIMENT_LINK_SCALE, tracer=tracer,
    )
    app = make_poisson_app("counted", n=48, num_tasks=6,
                           overlap=optimal_overlap(48, 6))
    spawner = launch_application(cluster, app)
    churn_injector(
        cluster.sim, cluster.testbed.daemon_hosts,
        PaperChurn(n_disconnections=4, reconnect_delay=1.0),
        RngTree(4).child("churn"), horizon=2.0,
    )
    assert run_until_done(cluster, spawner, horizon=900.0)
    assert tracer.dropped == 0

    t = cluster.telemetry
    assert t.checkpoints_sent == tracer.count("p2p", "checkpoint_store") > 0
    assert t.convergence_messages == tracer.count("p2p", "stability_flip") > 0
    assert len(t.recoveries) == tracer.count("p2p", "recovery") > 0
    assert t.checkpoints_rejected == tracer.count("p2p", "checkpoint_rejected")
    assert t.zombie_data_dropped == tracer.count("p2p", "zombie_data_dropped")
    assert spawner.dwell_aborts == tracer.count("p2p", "spawner_dwell_aborted")

    entities = [*cluster.daemons.values(), *cluster.superpeers,
                *cluster.spawners]
    agents = {e.gossip.peer_id: e.gossip for e in entities
              if e.gossip is not None}
    # a rebooted Daemon is a new incarnation (a new peer id and agent):
    # compare the agents still standing with their own events
    pushed = received = 0
    for e in tracer.events:
        if e.category == "gossip" and e.entity in agents:
            pushed += e.attrs["targets"] if e.kind == "push" else 0
            received += e.kind == "push_recv"
    assert sum(a.pushes_sent for a in agents.values()) == pushed > 0
    assert sum(a.pushes_received for a in agents.values()) == received
