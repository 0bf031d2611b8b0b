"""The persistent, self-healing worker-process pool.

Workers are spawned (not forked — the service is multi-threaded, and a
forked child inheriting lock state mid-flight is a deadlock lottery) and
live for the pool's lifetime, keeping their attached segments and
prepared-executable caches warm across queries.

Dispatch model: :meth:`WorkerPool.run_tasks` takes one query's task
list, grabs whatever workers are idle *right now* — blocking (in
cancel-aware slices) only until the first worker frees up, so two
queries each wanting every worker can never deadlock — and deals the
tasks round-robin over the grabbed set.  Each worker processes its
tasks sequentially off its pipe.

Failure policy, uniformly "kill + respawn + structured error":

* a worker that dies or stops responding mid-task becomes a
  :class:`~repro.errors.WorkerCrash` (retryable —
  ``Database.run_plan`` catches every :class:`~repro.errors.WorkerError`
  and runs the query in-process, while the pool heals);
* on any abort (crash, deadline, cancellation) every grabbed worker
  with replies still owed is killed and respawned rather than drained —
  releasing a worker with unread replies in its pipe would corrupt the
  next query's protocol;
* repeated spawn failures flip :attr:`degraded`; the executor then
  falls back to in-process execution and the service keeps serving.

The ``worker.dispatch`` / ``worker.result`` fault-injection sites fire
(per task) immediately before a send and after a receive, so the chaos
suite can script crashes at both protocol edges.
"""

from __future__ import annotations

import multiprocessing
import pickle
import select
import threading

from repro.errors import ResourceExhausted, WorkerCrash, WorkerError
from repro.observability.metrics import get_registry
from repro.observability.trace import trace_event

__all__ = ["WorkerPool"]

#: Seconds between poll slices while waiting on workers (each slice
#: re-checks the deadline and the cancel token).
_POLL_SLICE = 0.02

#: Consecutive spawn failures before the pool declares itself degraded.
_SPAWN_FAILURE_LIMIT = 3


class _WorkerHandle:
    """Driver-side end of one worker process."""

    __slots__ = ("process", "conn", "worker_id", "tasks_done")

    def __init__(self, process, conn, worker_id: int):
        self.process = process
        self.conn = conn
        self.worker_id = worker_id
        self.tasks_done = 0

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        try:
            self.process.kill()
            self.process.join(timeout=5)
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass


class WorkerPool:
    """A fixed-size pool of persistent worker processes.

    Args:
        workers: pool size (processes).
        fault_injector: optional
            :class:`~repro.robustness.FaultInjector` checked at the
            ``worker.dispatch`` / ``worker.result`` sites.
        task_timeout: per-``run_tasks`` wall-clock cap in seconds when
            the caller provides no deadline; ``None`` waits forever.
    """

    def __init__(self, workers: int = 2, fault_injector=None,
                 task_timeout: float | None = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.size = workers
        self.fault_injector = fault_injector
        self.task_timeout = task_timeout
        self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._idle: list[_WorkerHandle] = []
        self._live = 0            # workers existing (idle or grabbed)
        self._next_id = 0
        self._started = False
        self._closed = False
        self._spawn_failures = 0
        self.degraded = False
        registry = get_registry()
        self._tasks_total = registry.counter(
            "worker_tasks_total", "Tasks dispatched to pool workers"
        )
        self._crashes_total = registry.counter(
            "worker_crashes_total", "Worker processes lost mid-task"
        )
        self._respawns_total = registry.counter(
            "worker_respawns_total", "Worker processes respawned"
        )
        self._pool_gauge = registry.gauge(
            "worker_pool_size", "Live worker processes"
        )

    # -- lifecycle ---------------------------------------------------------

    def _spawn(self) -> _WorkerHandle | None:
        """One new worker, or None (and maybe ``degraded``) on failure."""
        from repro.parallel.worker import worker_main

        try:
            parent, child = self._ctx.Pipe(duplex=True)
            worker_id = self._next_id
            self._next_id += 1
            process = self._ctx.Process(
                target=worker_main, args=(child, worker_id),
                daemon=True, name=f"repro-worker-{worker_id}",
            )
            process.start()
            child.close()
        except (OSError, ValueError) as err:
            self._spawn_failures += 1
            if self._spawn_failures >= _SPAWN_FAILURE_LIMIT:
                self.degraded = True
            trace_event(None, "worker.spawn_failed", error=str(err))
            return None
        self._spawn_failures = 0
        self._live += 1
        self._pool_gauge.set(self._live)
        return _WorkerHandle(process, parent, worker_id)

    def start(self) -> None:
        """Spawn the workers (idempotent; lazy callers welcome)."""
        with self._cond:
            if self._started or self._closed:
                return
            self._started = True
            for _ in range(self.size):
                handle = self._spawn()
                if handle is not None:
                    self._idle.append(handle)
            if not self._idle:
                self.degraded = True
            self._cond.notify_all()

    @property
    def healthy(self) -> bool:
        return self._started and not self._closed and not self.degraded

    def ping(self, timeout: float = 10.0) -> int:
        """Round-trip every currently idle worker; returns how many
        answered.

        The pinged workers are *acquired* (removed from the idle set)
        for the duration, so a concurrent ``run_tasks`` can never
        interleave task frames with ping/pong on the same pipe.  A
        worker that fails its ping is replaced rather than released —
        its pipe may still owe a pong.
        """
        self.start()
        answered = 0
        with self._cond:
            handles = list(self._idle)
            self._idle.clear()
        for handle in handles:
            ok = False
            try:
                handle.conn.send({"kind": "ping"})
                if handle.conn.poll(timeout):
                    ok = handle.conn.recv().get("kind") == "pong"
            except (OSError, EOFError, BrokenPipeError):
                ok = False
            if ok:
                answered += 1
                self._release(handle)
            else:
                self._replace(handle, "ping")
        return answered

    def close(self) -> None:
        """Shut every worker down; the pool is unusable afterwards."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            handles = list(self._idle)
            self._idle.clear()
            self._cond.notify_all()
        for handle in handles:
            try:
                handle.conn.send({"kind": "shutdown"})
            except (OSError, BrokenPipeError):
                pass
        for handle in handles:
            handle.process.join(timeout=2)
            if handle.alive:
                handle.kill()
            else:
                try:
                    handle.conn.close()
                except OSError:  # pragma: no cover
                    pass
        with self._cond:
            self._live = 0
            self._pool_gauge.set(0)

    # -- acquisition -------------------------------------------------------

    def _acquire(self, want: int, deadline, cancel_token
                 ) -> list[_WorkerHandle]:
        """Grab 1..want idle workers; block only for the first one."""
        self.start()
        with self._cond:
            while True:
                if self._closed or self.degraded:
                    raise WorkerError("worker pool is not available")
                if self._idle:
                    take = min(want, len(self._idle))
                    grabbed = self._idle[:take]
                    del self._idle[:take]
                    return grabbed
                if cancel_token is not None:
                    cancel_token.raise_if_cancelled(phase="parallel")
                if deadline is not None and deadline.expired:
                    raise ResourceExhausted(
                        "wall_clock",
                        "deadline expired waiting for a pool worker",
                        phase="parallel",
                    )
                self._cond.wait(timeout=_POLL_SLICE)

    def _release(self, handle: _WorkerHandle) -> None:
        with self._cond:
            if self._closed:
                handle.kill()
                return
            self._idle.append(handle)
            self._cond.notify_all()

    def _replace(self, handle: _WorkerHandle, reason: str,
                 trace=None) -> None:
        """Kill a worker and put a fresh one in the idle set."""
        handle.kill()
        self._crashes_total.inc(reason=reason)
        trace_event(trace, "worker.crash", worker=handle.worker_id,
                    reason=reason)
        with self._cond:
            self._live -= 1
            self._pool_gauge.set(self._live)
            if self._closed:
                return
            replacement = self._spawn()
            if replacement is not None:
                self._respawns_total.inc()
                self._idle.append(replacement)
                self._cond.notify_all()

    # -- dispatch ----------------------------------------------------------

    def run_tasks(self, tasks: list[dict], deadline=None,
                  cancel_token=None, trace=None) -> list[dict]:
        """Execute ``tasks`` across idle workers; replies in task order.

        Raises the first task error (unpickled with type fidelity when
        possible), :class:`WorkerCrash` for lost workers, the caller's
        cancellation, or a wall-clock :class:`ResourceExhausted`.
        """
        if not tasks:
            return []
        if deadline is None and self.task_timeout is not None:
            from repro.robustness.resilience import Deadline
            deadline = Deadline(self.task_timeout)
        handles = self._acquire(len(tasks), deadline, cancel_token)
        injector = self.fault_injector
        replies: list = [None] * len(tasks)
        # deal tasks round-robin; each worker runs its share in order
        share: dict[int, list[int]] = {i: [] for i in range(len(handles))}
        for index in range(len(tasks)):
            share[index % len(handles)].append(index)
        owed: dict[int, list[int]] = {}
        error: BaseException | None = None
        try:
            for slot, handle in enumerate(handles):
                owed[slot] = list(share[slot])
                for index in share[slot]:
                    if injector is not None:
                        injector.check("worker.dispatch")
                    self._send(handle, tasks[index], deadline,
                               cancel_token)
                    self._tasks_total.inc()
            for slot, handle in enumerate(handles):
                for index in share[slot]:
                    reply = self._recv(handle, deadline, cancel_token)
                    if injector is not None:
                        injector.check("worker.result")
                    owed[slot].remove(index)
                    handle.tasks_done += 1
                    if not reply.get("ok", False):
                        if error is None:
                            error = _unmarshal_error(reply)
                        continue
                    replies[index] = reply
        except BaseException as err:
            error = err
            raise
        finally:
            for slot, handle in enumerate(handles):
                if owed.get(slot):
                    # replies still owed: never release a dirty pipe
                    reason = ("crash"
                              if isinstance(error, WorkerCrash)
                              else "abandoned")
                    self._replace(handle, reason, trace=trace)
                else:
                    self._release(handle)
        if error is not None:
            raise error
        return replies

    def _send(self, handle: _WorkerHandle, task: dict, deadline,
              cancel_token) -> None:
        """One task frame onto one worker, in cancel-aware slices.

        ``conn.send`` blocks when the worker has wedged with a full
        pipe buffer, so wait for writability first — the same deadline
        and cancellation checks the recv path makes.  (Writability
        means room for *some* bytes, not necessarily the whole frame;
        a pathological worker can still stall a huge payload, but a
        wedged-from-the-start worker now surfaces as a structured
        error instead of a hang.)
        """
        while True:
            try:
                _, writable, _ = select.select(
                    [], [handle.conn], [], _POLL_SLICE
                )
            except (OSError, ValueError) as err:
                raise WorkerCrash(
                    f"dispatch failed: {err}",
                    worker_id=handle.worker_id, phase="dispatch",
                ) from err
            if writable:
                try:
                    handle.conn.send(task)
                except (OSError, BrokenPipeError, ValueError) as err:
                    raise WorkerCrash(
                        f"dispatch failed: {err}",
                        worker_id=handle.worker_id, phase="dispatch",
                    ) from err
                return
            if not handle.alive:
                raise WorkerCrash(
                    "worker process exited before dispatch",
                    worker_id=handle.worker_id, phase="dispatch",
                )
            if cancel_token is not None:
                cancel_token.raise_if_cancelled(phase="parallel")
            if deadline is not None and deadline.expired:
                raise ResourceExhausted(
                    "wall_clock",
                    "deadline expired dispatching to a worker",
                    phase="parallel",
                )

    def _recv(self, handle: _WorkerHandle, deadline, cancel_token) -> dict:
        """One reply off one worker, in cancel-aware slices."""
        while True:
            try:
                if handle.conn.poll(_POLL_SLICE):
                    return handle.conn.recv()
            except (EOFError, OSError) as err:
                raise WorkerCrash(
                    f"worker died mid-task: {err or 'connection lost'}",
                    worker_id=handle.worker_id, phase="result",
                ) from err
            if not handle.alive:
                raise WorkerCrash(
                    "worker process exited mid-task",
                    worker_id=handle.worker_id, phase="result",
                )
            if cancel_token is not None:
                cancel_token.raise_if_cancelled(phase="parallel")
            if deadline is not None and deadline.expired:
                raise ResourceExhausted(
                    "wall_clock", "deadline expired waiting for a worker",
                    phase="parallel",
                )


def _unmarshal_error(reply: dict) -> BaseException:
    """Rebuild a worker-reported task error driver-side."""
    payload = reply.get("error")
    if payload is not None:
        try:
            return pickle.loads(payload)
        except Exception:  # pragma: no cover - defensive
            pass
    err = WorkerError(
        f"worker task failed: {reply.get('error_class', 'Error')}: "
        f"{reply.get('error_message', 'unknown')}"
    )
    err.retryable = bool(reply.get("retryable", False))
    return err
