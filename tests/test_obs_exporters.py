"""Exporter tests, including golden-file checks for both trace formats.

The golden files live under ``tests/golden/``.  To regenerate after an
intentional format change::

    PYTHONPATH=src python tests/test_obs_exporters.py regen
"""

import json
import pathlib
import sys

from repro.obs import (
    Tracer,
    trace_to_chrome,
    trace_to_jsonl,
    write_chrome_trace,
    write_jsonl,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def sample_trace() -> Tracer:
    """A small fixed trace touching every structural feature."""
    tr = Tracer()
    tr.emit(0.0, "des", "boot", "process_spawn")
    tr.emit(0.001, "net", "fabric", "send", msg_id=1, src="a", dst="b", size=128)
    tr.emit(0.002, "net", "fabric", "drop", msg_id=1, reason="partition")
    tr.emit(0.002, "rmi", "rmi:a:5000", "call", call_id=1, method="ping")
    tr.emit(0.25, "p2p", "SP0", "evict", daemon="D3#1")
    tr.emit(0.25, "p2p", "spawner:app", "recovery", task=2, iteration=40,
            from_scratch=False)
    return tr


def test_jsonl_round_trips():
    lines = trace_to_jsonl(sample_trace())
    assert len(lines) == 6
    parsed = [json.loads(line) for line in lines]
    assert parsed[0] == {"time": 0.0, "category": "des", "entity": "boot",
                         "kind": "process_spawn", "seq": 1}
    assert parsed[2]["attrs"]["reason"] == "partition"
    assert [p["seq"] for p in parsed] == [1, 2, 3, 4, 5, 6]


def test_jsonl_renders_non_json_values_via_repr():
    tr = Tracer()
    tr.emit(0.0, "test", "x", "weird", obj=object, exc=ValueError("boom"))
    [line] = trace_to_jsonl(tr)
    rec = json.loads(line)
    assert rec["attrs"]["obj"] == repr(object)
    assert "boom" in rec["attrs"]["exc"]


def test_jsonl_matches_golden(tmp_path):
    path = tmp_path / "trace.jsonl"
    assert write_jsonl(sample_trace(), path) == 6
    assert path.read_text() == (GOLDEN / "trace.jsonl").read_text()


def test_chrome_structure():
    doc = trace_to_chrome(sample_trace())
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    inst = [e for e in events if e["ph"] == "i"]
    assert len(inst) == 6
    # one process row per category, one thread row per (category, entity)
    names = {(m["name"], m["args"]["name"]) for m in meta}
    assert ("process_name", "net") in names
    assert ("thread_name", "fabric") in names
    # timestamps are microseconds
    evict = next(e for e in inst if e["name"] == "evict")
    assert evict["ts"] == 0.25 * 1e6
    assert evict["args"] == {"daemon": "D3#1"}
    # simultaneous events stay in emission order (stable seq sort)
    t250 = [e["name"] for e in inst if e["ts"] == 250000.0]
    assert t250 == ["evict", "recovery"]


def test_chrome_matches_golden(tmp_path):
    path = tmp_path / "trace_chrome.json"
    assert write_chrome_trace(sample_trace(), path) == 6
    assert json.loads(path.read_text()) == json.loads(
        (GOLDEN / "trace_chrome.json").read_text()
    )


def test_exporters_accept_plain_event_lists():
    events = list(sample_trace())
    assert trace_to_jsonl(events) == trace_to_jsonl(sample_trace())
    assert trace_to_chrome(events) == trace_to_chrome(sample_trace())


def _regen() -> None:  # pragma: no cover - maintenance helper
    GOLDEN.mkdir(exist_ok=True)
    write_jsonl(sample_trace(), GOLDEN / "trace.jsonl")
    write_chrome_trace(sample_trace(), GOLDEN / "trace_chrome.json")
    print(f"regenerated golden files under {GOLDEN}")


if __name__ == "__main__" and "regen" in sys.argv:  # pragma: no cover
    _regen()
