"""Merge partition results at the storage level, engine-exactly.

Workers hand back *storage* rows (the values the compiled query wrote
into its result window, before ``from_storage`` conversion): Python
ints for i32/i64 fields, floats for f64, raw bytes for strings.  The
driver merges those and finalizes **once** — this matters because an
empty partition's aggregate row carries the engine's fold identities
(e.g. ``MIN(date)`` = ``INT32_MAX``), which must be *combined away*
rather than converted (``date.fromordinal(2**31-1)`` would blow up).

Each aggregate combines with its row's ``combine`` in
:data:`~repro.plan.exprs.AGGREGATES`, which reproduces what the engine
itself would have computed over the unpartitioned input:

* SUM / COUNT add with i64 wraparound — two partials of ``2**63 - 1``
  merge to ``-2`` exactly as the Wasm i64 adder would;
* MIN / MAX compare storage values (ints compare as ints, f64 partials
  as floats) with the engine's own strict-comparison select, so a NaN
  partial is never selected — exactly as the engine's branch-free
  fold skips NaN candidates;
* group identity is the tuple of *packed* key bytes, so ``-0.0`` and
  ``0.0`` group exactly like the engine's hash table (bit equality);
* merged groups are emitted in sorted packed-key order — the
  deterministic normalization the differential suite sorts the oracle
  by too.

Aggregate identities (what an empty partition contributes):
COUNT -> 0, SUM -> 0, MIN -> type max, MAX -> type min — all neutral
under the combiners above, so empty partitions vanish from the merge.
"""

from __future__ import annotations

import struct

from repro.errors import EngineError
from repro.plan.exprs import AGGREGATES

__all__ = ["merge_concat", "merge_groups", "merge_scalar", "pack_key"]

def pack_key(values) -> bytes:
    """Canonical bytes for a tuple of storage key values.

    Floats pack as their IEEE bits (bit equality, like the engine's
    hash table), ints as fixed-width two's complement, strings as their
    raw storage bytes.
    """
    parts = []
    for v in values:
        if isinstance(v, bool):
            parts.append(b"b" + struct.pack("<b", v))
        elif isinstance(v, int):
            parts.append(b"i" + struct.pack("<q", v))
        elif isinstance(v, float):
            parts.append(b"f" + struct.pack("<d", v))
        elif isinstance(v, (bytes, bytearray, memoryview)):
            raw = bytes(v)
            parts.append(b"s" + struct.pack("<I", len(raw)) + raw)
        else:  # pragma: no cover - no other storage value kinds exist
            raise EngineError(
                f"cannot pack merge key value of type {type(v).__name__}"
            )
    return b"".join(parts)


def merge_concat(partials: list[list[tuple]]) -> list[tuple]:
    """Concatenate partition outputs in partition-index order.

    Partition i covers scan rows strictly before partition i+1's, and
    every operator between the scan and the result is streaming, so
    this *is* the sequential scan order.
    """
    merged: list[tuple] = []
    for rows in partials:
        merged.extend(rows)
    return merged


def _combiners(agg_kinds: list[str]) -> list:
    """Each aggregate's combine, from its row of ``AGGREGATES``.

    Only one-field states merge; the contract never partitions a float
    SUM, so the exact row's combine is the one that runs.
    """
    combiners = []
    for kind in agg_kinds:
        row = AGGREGATES.get((kind, True))
        if row is None or len(row.fields) != 1:
            raise EngineError(f"cannot merge {kind} aggregate")
        combiners.append(row.fields[0].combine)
    return combiners


def merge_groups(partials: list[list[tuple]], key_count: int,
                 agg_kinds: list[str]) -> list[tuple]:
    """Combine per-partition group rows key-by-key.

    Rows are ``(key..., agg...)`` storage tuples; the merged rows come
    out sorted by packed key bytes (deterministic across runs and
    worker counts).
    """
    combiners = _combiners(agg_kinds)
    groups: dict[bytes, list] = {}
    for rows in partials:
        for row in rows:
            key = pack_key(row[:key_count])
            acc = groups.get(key)
            if acc is None:
                groups[key] = list(row)
                continue
            for i, combine in enumerate(combiners):
                j = key_count + i
                acc[j] = combine(acc[j], row[j])
    return [tuple(groups[key]) for key in sorted(groups)]


def merge_scalar(partials: list[list[tuple]],
                 agg_kinds: list[str]) -> list[tuple]:
    """Combine per-partition scalar-aggregate rows (one row each)."""
    combiners = _combiners(agg_kinds)
    acc = None
    for rows in partials:
        if len(rows) != 1:
            raise EngineError(
                f"scalar partition returned {len(rows)} rows, expected 1"
            )
        row = rows[0]
        if acc is None:
            acc = list(row)
            continue
        for i, combine in enumerate(combiners):
            acc[i] = combine(acc[i], row[i])
    if acc is None:  # pragma: no cover - at least one partition always
        raise EngineError("scalar merge received no partitions")
    return [tuple(acc)]
