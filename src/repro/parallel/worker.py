"""Worker process: attach shared columns, compile once, execute morsels.

One worker is one OS process holding one single-threaded event loop
over a duplex pipe.  It receives *physical plans* (pickled by the
driver — workers never parse or plan, so driver and worker execute the
identical QEP), maps the driver's shared-memory column segments
zero-copy into local numpy arrays, and runs the plan through its own
:class:`~repro.engines.wasm_engine.WasmEngine` with the scan clamped
to the task's partition.

State kept across tasks:

* the attached catalog, fenced by version — a task carrying a newer
  catalog spec triggers detach/re-attach and drops every cached
  executable (exactly the driver-side plan cache's fencing rule);
* a small LRU of prepared executables keyed ``(fingerprint, spec)`` —
  a warm partition task skips translation and compilation entirely and
  goes through ``_reset_instance``, the same bit-identical reuse path
  the driver's plan cache exercises.

Every task runs through ``Database.run_plan`` — the driver's own run
path — with the partition in its ``QueryRun``.  Results are
*storage-level* rows (``raw_rows``); the driver merges partitions and
finalizes once.  Errors are marshalled by pickling the
exception when possible (then re-raised driver-side with full type
fidelity) and degraded to a :class:`~repro.errors.WorkerError` carrying
class name + message otherwise.

Python's ``resource_tracker`` is patched to *not* track attached
shared-memory segments: the tracker of a spawned child would otherwise
unlink segments it merely attached when the child exits (bpo-38119),
yanking live columns out from under the driver and its siblings.  The
driver is the sole owner of segment lifetime.
"""

from __future__ import annotations

import pickle

__all__ = ["worker_main"]

#: Prepared executables kept per worker (LRU).
CACHE_LIMIT = 32


def _untrack_shared_memory() -> None:
    """Keep the child's resource tracker away from attached segments."""
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def register(name, rtype):
        if rtype == "shared_memory":
            return
        original(name, rtype)

    resource_tracker.register = register


class _WorkerState:
    """Everything one worker process keeps between tasks."""

    def __init__(self):
        from repro.db.database import Database

        self.db = Database()        # engines + the one run path; catalog
        self.db.catalog = None      # replaced by each attach
        self.version = None
        self.keep: list = []        # attached SharedMemory objects
        self.cache: dict = {}       # (fp, spec) -> (executable, plan)

    def fence(self, catalog_spec: dict) -> None:
        """Re-attach when the task's catalog is newer than ours."""
        from repro.parallel.shm import attach_catalog

        if self.version == catalog_spec["version"]:
            return
        self.detach()
        self.db.catalog = attach_catalog(catalog_spec, self.keep)
        self.version = catalog_spec["version"]

    def detach(self) -> None:
        """Drop every reference into shared memory (cached executables,
        the catalog's column arrays), then unmap it, so the segments
        close cleanly — without this their ``__del__`` trips over
        still-exported numpy views (a noisy, harmless ``BufferError``).
        """
        import gc

        from repro.parallel.shm import detach_all

        self.cache.clear()
        self.db.catalog = None
        gc.collect()
        detach_all(self.keep)

    def executable_for(self, fp: str, spec: str, plan_bytes: bytes):
        """A cached (executable, plan) entry, preparing on miss.

        The fingerprint is the driver's stable statement key; the
        catalog-version fence (which clears this cache) makes
        ``(fp, spec)`` unambiguous within one attached version, so a
        warm hit skips unpickling *and* compilation entirely.
        """
        key = (fp, spec)
        hit = self.cache.pop(key, None)
        if hit is not None:
            self.cache[key] = hit   # move to MRU position
            return hit, True
        plan = pickle.loads(plan_bytes)
        executable = self.db.resolve_engine(spec).prepare_executable(
            plan, self.db.catalog)
        entry = (executable, plan)
        self.cache[key] = entry
        while len(self.cache) > CACHE_LIMIT:
            self.cache.pop(next(iter(self.cache)))
        return entry, False

    def run(self, task: dict) -> dict:
        from repro.engines.wasm_engine import QueryRun
        from repro.wasm.stencil.cache import get_stencil_cache

        self.fence(task["catalog_spec"])
        (executable, plan), warm = self.executable_for(
            task["fp"], task["spec"], task["plan"]
        )
        # the driver merges partitions at the storage level and
        # finalizes once, so this side returns raw rows
        run = QueryRun(partition=task.get("partition"), raw_rows=True,
                       param_values=task.get("params"))
        result = self.db.run_plan(plan, task["spec"], run,
                                  executable=executable)
        return {
            "kind": "result",
            "ok": True,
            "rows": result.rows,
            "morsels": run.morsels_total,
            "warm": warm,
            "timings": dict(result.timings.phases),
            # this worker process's shape-keyed stencil cache: a cold
            # executable for a familiar shape still reports cache hits
            "stencil_cache": get_stencil_cache().stats,
        }


def _marshal_error(err: BaseException) -> dict:
    try:
        payload = pickle.dumps(err)
        pickle.loads(payload)   # round-trip: some exceptions pickle
        return {"kind": "result", "ok": False, "error": payload}
    except Exception:
        return {
            "kind": "result", "ok": False, "error": None,
            "error_class": type(err).__name__,
            "error_message": str(err),
            "retryable": bool(getattr(err, "retryable", False)),
        }


def worker_main(conn, worker_id: int) -> None:
    """The worker process entry point (spawn target)."""
    _untrack_shared_memory()
    state = _WorkerState()
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break
        kind = task.get("kind")
        if kind == "shutdown":
            state.detach()
            conn.send({"kind": "bye", "worker_id": worker_id})
            break
        if kind == "ping":
            conn.send({"kind": "pong", "worker_id": worker_id,
                       "version": state.version})
            continue
        if kind == "execute":
            try:
                reply = state.run(task)
            except BaseException as err:  # marshalled, never fatal here
                reply = _marshal_error(err)
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
            continue
        conn.send(_marshal_error(
            ValueError(f"unknown task kind {kind!r}")
        ))
    conn.close()
