"""Tests for the trace sinks (repro.obs.trace, repro.obs.sinks).

The in-memory tracer's ring window and drop accounting, JSONL spill +
segment rotation round-trips, the ``make_tracer`` factory behind
RunSpec's ``trace_sink`` knob, and the end-to-end plumbing: a traced run
on a bounded sink still produces a full :class:`RunReport`.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.exec import RunSpec
from repro.obs import (
    JsonlTracer,
    Tracer,
    make_tracer,
    read_jsonl_trace,
)


def fill(tracer, n, kind="k"):
    for i in range(n):
        tracer.emit(float(i), "cat", f"e{i}", kind, i=i)


# -- memory sink (a ring) -----------------------------------------------------------


def test_ring_keeps_newest_window():
    tr = Tracer(max_events=10)
    fill(tr, 25)
    assert len(tr.events) == 10
    assert [ev.time for ev in tr.events] == [float(t) for t in range(15, 25)]
    assert tr.dropped == 15
    # counts stay exact over the WHOLE run, not just the window
    assert tr.counts[("cat", "k")] == 25


def test_ring_under_capacity_drops_nothing():
    tr = Tracer(max_events=10)
    fill(tr, 7)
    assert len(tr.events) == 7
    assert tr.dropped == 0


def test_ring_select_works_on_window():
    tr = Tracer(max_events=5)
    fill(tr, 8, kind="a")
    tr.emit(99.0, "cat", "x", "b")
    assert [ev.kind for ev in tr.select(kind="b")] == ["b"]
    assert len(list(tr.select(kind="a"))) == 4  # the 4 "a"s still in window


def test_ring_rejects_bad_capacity():
    with pytest.raises(ConfigurationError):
        Tracer(max_events=0)


# -- jsonl sink --------------------------------------------------------------


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    tr = JsonlTracer(path, flush_every=4)
    fill(tr, 10)
    tr.close()
    events = read_jsonl_trace(path)
    assert len(events) == 10
    assert [ev.time for ev in events] == [float(i) for i in range(10)]
    assert events[3].attrs == {"i": 3}
    assert tr.written == 10


def test_jsonl_close_flushes_partial_batch(tmp_path):
    path = tmp_path / "trace.jsonl"
    tr = JsonlTracer(path, flush_every=1000)
    fill(tr, 3)
    assert tr.written == 0  # still buffered
    tr.close()
    assert tr.written == 3
    assert len(read_jsonl_trace(path)) == 3


def test_jsonl_rotation_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    # tiny max_bytes: every flushed batch forces a rotation
    tr = JsonlTracer(path, flush_every=5, max_bytes=64)
    fill(tr, 25)
    tr.close()
    assert tr.segments >= 2
    for piece in tr.segment_paths():
        assert piece.exists()
    # chronological reassembly across all segments, no loss, no reorder
    events = read_jsonl_trace(path)
    assert [ev.time for ev in events] == [float(i) for i in range(25)]
    assert [ev.seq for ev in events] == sorted(ev.seq for ev in events)


def test_jsonl_tail_ring_is_bounded(tmp_path):
    tr = JsonlTracer(tmp_path / "t.jsonl", flush_every=10, tail_events=8)
    fill(tr, 50)
    assert len(tr.events) == 8
    assert tr.counts[("cat", "k")] == 50


def test_jsonl_lines_are_valid_json(tmp_path):
    path = tmp_path / "trace.jsonl"
    tr = JsonlTracer(path, flush_every=1)
    tr.emit(1.5, "rmi", "SP0", "call", method="reserve", count=3)
    tr.close()
    rec = json.loads(path.read_text().strip())
    assert rec["kind"] == "call"
    assert rec["attrs"] == {"method": "reserve", "count": 3}


# -- factory -----------------------------------------------------------------


def test_make_tracer_dispatch(tmp_path):
    assert type(make_tracer("memory")) is Tracer
    assert make_tracer("memory", capacity=5).events.maxlen == 5
    jt = make_tracer("jsonl", capacity=7, path=tmp_path / "t.jsonl")
    assert isinstance(jt, JsonlTracer)
    assert jt.events.maxlen == 7  # capacity maps to the tail ring


def test_make_tracer_rejects_unknown_and_pathless(tmp_path):
    with pytest.raises(ConfigurationError):
        make_tracer("sqlite")
    with pytest.raises(ConfigurationError):
        make_tracer("ring")  # folded into "memory"
    with pytest.raises(ConfigurationError):
        make_tracer("jsonl")  # no path


@pytest.mark.parametrize("sink", ["memory", "jsonl"])
@pytest.mark.parametrize("capacity", [0, -1])
def test_make_tracer_rejects_capacity_below_one(tmp_path, sink, capacity):
    # a zero capacity is an error on every sink, not "use the default"
    with pytest.raises(ConfigurationError):
        make_tracer(sink, capacity=capacity, path=tmp_path / "t.jsonl")


def test_base_tracer_close_is_noop():
    tr = Tracer()
    tr.emit(0.0, "c", "e", "k")
    tr.close()  # drivers close every sink unconditionally
    assert len(tr.events) == 1


# -- RunSpec plumbing --------------------------------------------------------


def test_runspec_traced_run_on_ring_sink():
    # the memory sink is the ring: a 500-event window overflows on this run
    result = RunSpec(n=12, peers=2, traced=True, trace_sink="memory",
                     trace_capacity=500).execute()
    assert result.converged
    report = result.run_report
    assert report is not None
    assert sum(report.event_counts.values()) > 500
    # counts survived the bounded window


def test_runspec_traced_run_on_jsonl_sink(tmp_path):
    path = tmp_path / "run.jsonl"
    result = RunSpec(n=12, peers=2, traced=True, trace_sink="jsonl",
                     trace_path=str(path)).execute()
    assert result.converged
    assert result.run_report is not None
    events = read_jsonl_trace(path)
    assert events  # the run streamed to disk and closed cleanly
    kinds = {ev.kind for ev in events}
    assert "register" in kinds


def test_runspec_key_covers_sink_fields(tmp_path):
    base = RunSpec(n=12, peers=2, traced=True)
    bounded = RunSpec(n=12, peers=2, traced=True, trace_capacity=500)
    assert base.key() != bounded.key()
    jsonl = RunSpec(n=12, peers=2, traced=True, trace_sink="jsonl",
                    trace_path=str(tmp_path / "t.jsonl"))
    assert base.key() != jsonl.key()
