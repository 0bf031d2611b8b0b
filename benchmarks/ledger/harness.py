"""The untraced run of one workload: set-up, the timed closed loop, and
the oracle check after the clock has stopped.

Noise discipline: statement streams are pre-generated; client threads
start behind a barrier; the timed loop holds no printing, JSON or oracle
work (results are kept and checked afterwards); GC stays on, as it is
for users, with a ``gc.collect()`` every few blocks of the single-client
workloads (a fixed statement count, about a second apart) while the
clock is paused.
"""

from __future__ import annotations

import gc
import resource
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.db import Database
from repro.server import QueryService

from benchmarks.ledger import stats
from benchmarks.ledger.oracle import Oracle
from benchmarks.ledger.workloads import INSERT_X, Statement, Workload

__all__ = ["Front", "build", "run_timed", "run_untraced", "send",
           "Executed", "Window", "verify"]

now = time.perf_counter


@dataclass
class Front:
    """The program as one workload sees it: the database, and for the
    serving workloads the default-constructed service with one session
    per client."""

    db: Database
    service: QueryService | None = None
    sessions: list = field(default_factory=list)

    def run(self, stmt: Statement, client: int = 0):
        if self.service is None:
            return self.db.execute(stmt.sql)
        return self.service.execute(stmt.sql, session=self.sessions[client])

    def close(self) -> None:
        (self.service or self.db).close()   # the service closes its database


def build(workload: Workload, seed: int,
          **service_options) -> tuple[Front, float]:
    """Generate the tables and construct the front door; returns it and
    the seconds data generation took.  ``Database()`` plus
    ``register_table`` keeps the shipped default engine
    (``wasm[adaptive_stencil]``); the in-package ``tpch_database()``
    helper would override it.  ``service_options`` reach the
    ``QueryService`` constructor (the traced run's ``feedback=False``
    comparison); the workloads themselves pass none."""
    start = now()
    tables = workload.tables(seed)
    generate_s = now() - start
    db = Database()
    for table in tables:
        db.register_table(table)
    front = Front(db)
    if workload.front == "service":
        front.service = QueryService(db, **service_options)
        front.sessions = [front.service.create_session()
                          for _ in range(workload.clients)]
        for session in front.sessions:
            for text in workload.prepares:
                front.service.execute(text, session=session)
    return front, generate_s


@dataclass
class Executed:
    """One statement as sent: what came back (a result or the exception)
    and how long the caller waited."""

    stmt: Statement
    outcome: object
    seconds: float

    @property
    def raised(self) -> bool:
        return isinstance(self.outcome, Exception)


def send(front: Front, stmt: Statement, client: int = 0) -> Executed:
    start = now()
    try:
        outcome = front.run(stmt, client)
    except Exception as err:  # product failures are data, not harness errors
        outcome = err
    return Executed(stmt, outcome, now() - start)


@dataclass
class Window:
    """The timed window: what was sent and how long it took."""

    executed: list[Executed]
    wall: float          # first start to last end, minus a lone client's pauses
    skew: float          # how long the slowest client outlived the fastest


def _client_loop(front: Front, client: int, stream: list[Statement],
                 gc_every: int, barrier, out: dict) -> None:
    """One closed-loop client.  ``gc_every`` > 0 collects garbage after
    that many statements with the clock paused (single-client workloads
    only: a collection by one of two threads would stall the other
    inside its statement)."""
    done: list[Executed] = []
    barrier.wait()
    begin = now()
    paused = 0.0
    for index, stmt in enumerate(stream):
        if gc_every and index and index % gc_every == 0:
            pause = now()
            gc.collect()
            paused += now() - pause
        done.append(send(front, stmt, client))
    end = now()
    out[client] = (done, begin, end, paused)


def run_timed(front: Front, workload: Workload,
              streams: list[list[Statement]]) -> Window:
    """The closed loop over pre-generated streams, one thread each."""
    barrier = threading.Barrier(len(streams))
    out: dict = {}
    threads = [
        threading.Thread(
            target=_client_loop,
            args=(front, client, stream,
                  workload.gc_blocks * workload.block, barrier, out),
        )
        for client, stream in enumerate(streams)
    ]
    gc.collect()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if len(out) != len(streams):
        raise RuntimeError("a client thread died outside a statement")
    begin = min(out[c][1] for c in out)
    ends = [out[c][2] for c in out]
    # garbage-collection pauses: single-client workloads only
    return Window(
        executed=[e for c in sorted(out) for e in out[c][0]],
        wall=max(ends) - begin - sum(out[c][3] for c in out),
        skew=max(ends) - min(ends),
    )


def verify(executed: list[Executed], oracle: Oracle) -> dict[int, str]:
    """Index into ``executed`` -> error class, for every statement that
    raised or whose rows differ from the reference."""
    failed: dict[int, str] = {}
    for index, done in enumerate(executed):
        if done.raised:
            failed[index] = type(done.outcome).__name__
        elif not done.stmt.is_write \
                and not oracle.check(done.stmt, done.outcome.rows):
            failed[index] = "RowMismatch"
    return failed


def _lost_writes(front: Front, executed: list[Executed]) -> int:
    """Acknowledged INSERTs that a COUNT(*) through the service cannot
    see (0 when every acknowledged write is readable)."""
    acked = sum(1 for e in executed if e.stmt.is_write and not e.raised)
    if not acked:
        return 0
    seen = front.service.execute(
        f"SELECT COUNT(*) FROM fact WHERE x = {INSERT_X}"
    ).rows[0][0]
    return abs(acked - seen)


def latency_metrics(window: Window, failed: dict[int, str]) -> dict:
    """The latency and throughput metrics over the timed statements that
    succeeded: ``metrics`` (each value with its sample count ``n``) and
    the per-class medians."""
    good = [e for i, e in enumerate(window.executed) if i not in failed]
    reads = [e for e in good if not e.stmt.is_write]
    if not reads:
        return {"metrics": {}, "classes": {}}
    lat = [e.seconds * 1000.0 for e in reads]
    pct, supported = stats.supported_percentile(len(lat))
    classes: dict[str, list[float]] = {}
    by_cache: dict[str, list[float]] = {"hit": [], "miss": []}
    for e, ms in zip(reads, lat):
        classes.setdefault(e.stmt.cls, []).append(ms)
        disposition = getattr(e.outcome, "plan_cache", None)
        if disposition in by_cache:
            by_cache[disposition].append(ms)
    out = {
        "stmt_p50_ms": {"value": stats.median(lat), "n": len(lat)},
        "stmt_tail_ms": {"value": stats.percentile(lat, pct), "n": len(lat),
                         "percentile": pct, "supported": supported},
        "geomean_ms": {"value": stats.geomean(
            stats.median(v) for v in classes.values()), "n": len(classes)},
        "throughput_qps": {"value": len(good) / window.wall, "n": len(good)},
    }
    writes = [e.seconds * 1000.0 for e in good if e.stmt.is_write]
    for name, values in (("hit_p50_ms", by_cache["hit"]),
                         ("miss_p50_ms", by_cache["miss"]),
                         ("write_p50_ms", writes)):
        if values:
            out[name] = {"value": stats.median(values), "n": len(values)}
    return {
        "metrics": out,
        "classes": {cls: {"p50_ms": stats.median(v), "n": len(v)}
                    for cls, v in sorted(classes.items())},
    }


def run_untraced(workload: Workload, seed: int, seconds: float,
                 import_s: float) -> dict:
    """One full untraced run; returns the detail record the CLI prints
    and the parent process collects."""
    start = now()
    front, generate_s = build(workload, seed)
    build_s = now() - start
    start = now()
    warm = [send(front, stmt) for stmt in workload.warm_stream(seed, seconds)]
    warmup_s = now() - start
    streams = workload.streams(seed, seconds)
    setup_s = import_s + build_s + warmup_s

    window = run_timed(front, workload, streams)
    executed = window.executed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    start = now()
    oracle = Oracle(workload.tables(seed))
    warm_failed = verify(warm, oracle)
    timed_failed = verify(executed, oracle)
    digests = oracle.check_digests(seed, [e.stmt for e in executed]) \
        if workload.name.startswith("tpch") else 0
    # serving_mixed ends with one more checked operation: the COUNT(*)
    # that every acknowledged INSERT is readable
    count_check = 1 if workload.write_every else 0
    lost = _lost_writes(front, executed) if count_check else 0
    oracle_s = now() - start
    front.close()

    attempted = len(warm) + len(executed) + count_check
    failures = Counter(warm_failed.values()) + Counter(timed_failed.values())
    if lost:
        failures["LostWrite"] += 1
    measured = latency_metrics(window, timed_failed)
    metrics = measured["metrics"]
    metrics["setup_s"] = {"value": setup_s, "n": 1}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "n": 1}
    metrics["failed_share"] = {
        "value": sum(failures.values()) / attempted, "n": attempted}
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "metrics": metrics,
        "classes": measured["classes"],
        "attempted_timed": len(executed) + count_check,
        "failed_timed": len(timed_failed) + (1 if lost else 0),
        "failures": dict(failures),
        "warmup_failures": dict(Counter(warm_failed.values())),
        "window_s": window.wall, "client_skew_ms": window.skew * 1000.0,
        "setup_parts_s": {"import": import_s, "build": build_s,
                          "generate": generate_s, "warmup": warmup_s},
        "oracle_s": oracle_s, "digests_checked": digests,
    }
