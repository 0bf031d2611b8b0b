"""Span bookkeeping and the self-time arithmetic."""

from types import SimpleNamespace

import pytest

from benchmarks.ledger.layers import _Replay
from benchmarks.ledger.spans import Span, SpanRecorder, self_times
from benchmarks.ledger.workloads import Statement


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_nesting_and_self_time():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    with rec.span("statement", statement=7) as root:
        clock.t = 1.0
        with rec.span("parse") as parse:
            clock.t = 3.0
        clock.t = 4.0
        with rec.span("execute") as execute:
            clock.t = 9.0
        clock.t = 10.0
    assert (parse.parent, execute.parent) == (root.id, root.id)
    assert parse.statement == 7          # inherited from the parent
    selfs = self_times(rec.spans)
    assert selfs[root.id] == pytest.approx(10.0 - 2.0 - 5.0)
    assert selfs[parse.id] == pytest.approx(2.0)
    assert rec.durations("execute") == [5.0]


def test_overlapping_children_count_once():
    spans = [
        Span(0, None, 0, "root", 0.0, 10.0),
        Span(1, 0, 0, "a", 1.0, 5.0),
        Span(2, 0, 0, "b", 3.0, 7.0),    # overlaps a: union is [1, 7]
    ]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_reported_child_is_clipped_to_its_parent():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    with rec.span("call") as call:
        clock.t = 2.0
    # the program reports 3 s for a 2 s call (timer skew): never negative
    rec.child(call, "reported.execution", call.start, 3.0)
    assert self_times(rec.spans)[call.id] == pytest.approx(0.0)


def test_span_closes_when_the_call_raises(tmp_path):
    clock = FakeClock()
    rec = SpanRecorder(clock)
    with pytest.raises(ValueError):
        with rec.span("boom"):
            clock.t = 1.5
            raise ValueError
    assert rec.spans[0].end == 1.5
    with rec.span("next") as following:
        pass
    assert following.parent is None      # the stack was unwound
    out = tmp_path / "spans.jsonl"
    rec.write(str(out))
    assert len(out.read_text().splitlines()) == 2


def test_scheduler_wait_and_engine_phases_do_not_overlap():
    """server.overhead_ms is the service span's self time: the wait and
    the phases the result reports must each be subtracted in full."""
    result = SimpleNamespace(
        rows=[], plan_cache="hit", scheduler_wait_seconds=0.25,
        timings=SimpleNamespace(phases={"execution": 0.5}, execution=0.5))
    clock = FakeClock()

    def run(stmt, client):
        clock.t += 1.0
        return result

    stmt = Statement("pt_dim", "EXECUTE pt_dim(1)", "SELECT 1 FROM dim")
    replay = _Replay(SimpleNamespace(run=run),
                     SimpleNamespace(check=lambda stmt, rows: True))
    replay.rec = SpanRecorder(clock)
    replay.rows_driven[stmt.ref_sql] = 1    # skip the staged path
    replay.service_statement(stmt, 0)
    span, wait, execution = replay.rec.spans
    assert (wait.start, wait.end) == (span.start, span.start + 0.25)
    assert (execution.start, execution.end) == (wait.end, wait.end + 0.5)
    assert self_times(replay.rec.spans)[span.id] == pytest.approx(0.25)
