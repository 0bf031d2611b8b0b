"""Bounded LRU cache of compiled query plans.

The cache is what turns ``PREPARE``/``EXECUTE`` — and repeated ad-hoc
SELECTs — into the paper's amortized-compilation story: on a hit the
service skips parsing, planning, Wasm code generation *and* tier
compilation, going straight to morsel-wise execution of the already
instantiated module (which keeps its adaptive tier state, so a hot
statement stays on TurboFan code).

Keys are ``(fingerprint, engine_key, catalog_version)``:

* **fingerprint** — the token-normalized SQL text (whitespace, case of
  keywords/identifiers, and comment differences do not defeat the
  cache; literal values do, because they are baked into generated
  code as constants),
* **engine_key** — the engine spec the query runs on (different
  tiering modes generate different code), and
* **catalog_version** — the catalog's monotonic change counter.  Any
  DDL or INSERT bumps it, so entries compiled against the old schema
  or data (mapped buffers, row counts) can never serve a later query;
  :meth:`PlanCache.invalidate` additionally purges them eagerly.

Entries hold the physical plan and, for the Wasm engine, the
:class:`~repro.engines.wasm_engine.WasmExecutable` (compiled module +
rewired address space + engine instance with tier state).  An
executable owns a single address space and parameter slots, so each
entry carries a lock; concurrent EXECUTEs of the same statement
serialize on it while distinct statements run truly concurrently.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.observability.metrics import get_registry
from repro.sql.lexer import tokenize

__all__ = ["CacheEntry", "PlanCache", "fingerprint", "fingerprint_tokens"]


def fingerprint_tokens(tokens) -> str:
    """Token-normalized form of a token stream (``EOF`` ignored).

    Joins ``kind:value`` pairs with keywords and identifiers folded to
    lower case, so formatting and case differences never matter while
    literals and names always do.
    """
    parts = []
    for token in tokens:
        if token.kind == "EOF":
            break
        value = token.value
        if token.kind in ("KEYWORD", "IDENT"):
            value = str(value).lower()
        parts.append(f"{token.kind}:{value}")
    return " ".join(parts)


def fingerprint(sql: str) -> str:
    """Token-normalized form of one SQL statement.

    Lexes the text and fingerprints the tokens, so formatting and
    keyword case never matter while literals and identifiers always
    do.  Raises :class:`~repro.errors.LexError` on malformed input —
    callers fingerprint only statements that already parsed.
    """
    return fingerprint_tokens(tokenize(sql))


@dataclass
class CacheEntry:
    """One cached compiled plan.

    ``executable`` is the reusable :class:`WasmExecutable` for Wasm
    engine specs and ``None`` for engines that re-translate per run
    (volcano, vectorized, hyper) — those still skip parse/analyze/plan
    on a hit.  ``lock`` serializes executions of the (single-occupancy)
    executable.

    The trailing fields are tier-circuit-breaker bookkeeping (see
    :class:`~repro.robustness.resilience.TierBreakerBoard`):
    ``tier_degraded`` marks an entry compiled pinned to Liftoff because
    its fingerprint's breaker was open; ``breaker_pending`` marks a
    fresh, non-degraded compilation whose first execution must report
    its episode (clean or bailing) to the breaker;
    ``bailouts_recorded`` is how many of the executable's tier-up
    failures the breaker has already been told about.
    """

    plan: object
    executable: object = None
    catalog_version: int = 0
    #: the :class:`~repro.plan.analysis.PlanAnalysis` computed when the
    #: plan was built; hits reuse it (facts are a function of the plan
    #: and the catalog version, both of which key the entry)
    analysis: object = None
    hits: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)
    tier_degraded: bool = False
    breaker_pending: bool = False
    bailouts_recorded: int = 0
    #: the :class:`~repro.parallel.ParallelDecision` for this plan when
    #: the service runs with a worker pool (``None`` otherwise) — it
    #: carries the pickled worker plan, so dispatching a hit re-pickles
    #: nothing
    parallel_decision: object = None
    #: whether the statement carries ``$n`` parameters (whose measured
    #: cardinalities vary per binding and must not seed row bounds)
    parameterized: bool = False


class PlanCache:
    """A thread-safe, bounded LRU of :class:`CacheEntry` objects.

    ``capacity`` bounds the entry count; the least recently used entry
    is evicted on overflow.  Hit/miss/eviction/invalidation counts are
    published to the process metrics registry (``plancache_*_total``).
    """

    def __init__(self, capacity: int = 32):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, CacheEntry] = OrderedDict()
        self._lock = threading.Lock()
        # per-instance counts (the registry counters are process-wide and
        # shared by every cache, which would skew per-cache stats)
        self._counts = {"hits": 0, "misses": 0,
                        "evictions": 0, "invalidations": 0}
        registry = get_registry()
        self._hits = registry.counter(
            "plancache_hits_total", "Plan-cache lookups served from cache"
        )
        self._misses = registry.counter(
            "plancache_misses_total", "Plan-cache lookups that compiled"
        )
        self._evictions = registry.counter(
            "plancache_evictions_total", "Entries evicted by LRU pressure"
        )
        self._invalidations = registry.counter(
            "plancache_invalidations_total",
            "Entries purged by catalog-version changes",
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def lookup(self, key: tuple) -> CacheEntry | None:
        """The entry for ``key`` (marked most recently used), or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._counts["misses"] += 1
                self._misses.inc()
                return None
            self._entries.move_to_end(key)
            entry.hits += 1
            self._counts["hits"] += 1
            self._hits.inc()
            return entry

    def insert(self, key: tuple, entry: CacheEntry) -> CacheEntry:
        """Insert ``entry``, evicting the LRU entry on overflow.

        If another thread inserted the same key first, *its* entry wins
        and is returned — both threads then share one executable.
        """
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                return existing
            self._entries[key] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._counts["evictions"] += 1
                self._evictions.inc()
            return entry

    def invalidate(self, current_version: int) -> int:
        """Purge entries compiled against any older catalog version.

        Returns the number of entries removed.  Lookups would already
        miss them (the version is part of the key); purging eagerly
        frees their address spaces and executables.
        """
        with self._lock:
            stale = [
                key for key, entry in self._entries.items()
                if entry.catalog_version != current_version
            ]
            for key in stale:
                del self._entries[key]
            if stale:
                self._counts["invalidations"] += len(stale)
                self._invalidations.inc(len(stale))
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    @property
    def stats(self) -> dict:
        """Point-in-time counters (for tests and the bench harness)."""
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                **self._counts,
            }
