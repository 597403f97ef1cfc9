"""Data movement between the driver and Ray Data tasks (SCALING.md):
the broadcast handle and the driver collect. The combine tree
(``ops.tree_sum``/``tree_reduce``) and the key-bucket co-shuffle live in
``ops``.

- ``broadcast(value)`` puts a small-side value in the object store once,
  on the driver. A map fn closes over the handle and calls ``.get()``;
  the first call in a worker process fetches, later calls in that
  process (this task's later batches, and later tasks) reuse the value.
  A closure-local dict cannot do this: Ray Data deserializes the map fn
  afresh for every task, so such a dict starts empty in each one. The
  value is shared by every task in the process, so callers must not
  mutate it in place (zero-copy NumPy arrays are read-only anyway).
- ``collect(ds)`` brings a small Dataset to the driver as one
  ``pa.Table`` in a single execution.
"""

from __future__ import annotations

import collections
import threading

import pyarrow as pa

import ray
from ray.data.block import BlockAccessor

# Fetched values kept per worker process, least recently read evicted
# first. An entry can pin an object-store object for as long as the
# worker lives, and a long-lived worker serves many jobs, so the table
# must be bounded. It must also hold every handle that one task reads
# per block, or fused stages would evict each other: each map fn here
# reads one handle, so four entries cover a fused chain of four such
# stages (a longer chain still works, fetching once per block).
_MAX_ENTRIES = 4
_fetched: collections.OrderedDict[bytes, object] = collections.OrderedDict()
_lock = threading.Lock()


class Broadcast:
    """Handle to a value put once in the object store; ``get()`` fetches
    it at most once per worker process while it stays among the
    ``_MAX_ENTRIES`` most recently read."""

    __slots__ = ("ref",)

    def __init__(self, ref: ray.ObjectRef):
        self.ref = ref

    def get(self):
        # Keyed by the id bytes, which are unique within a Ray job (a
        # worker process serves one job), not by the ObjectRef, so not
        # through functools.lru_cache: a cached ObjectRef keeps the worker
        # its borrower, and Ray 2.49's driver abort "Tried to complete
        # task that was not pending", which broadcast reads mixed with
        # early-stopped executions (``schema()`` probes) can trigger, came
        # more often with ObjectRefs cached than with this table.
        key = self.ref.binary()
        with _lock:
            if key in _fetched:
                _fetched.move_to_end(key)
                return _fetched[key]
        value = ray.get(self.ref)
        with _lock:
            _fetched[key] = value
            while len(_fetched) > _MAX_ENTRIES:
                _fetched.popitem(last=False)
        return value


def broadcast(value) -> Broadcast:
    """Put ``value`` in the object store once and return its handle."""
    return Broadcast(ray.put(value))


def collect(ds: ray.data.Dataset) -> pa.Table:
    """All rows of ``ds`` as one Arrow table, in one execution (the
    driver must hold them all); Ray's list-of-Arrow-refs export runs
    the plan a second time for its schema. Empty blocks are dropped, so
    the schema-less ones that Ray 2.49 emits for empty partitions cannot
    fail the concat. With no rows the result is the first empty block
    that has columns, else a table with no columns: callers whose input
    can be empty test ``num_rows``."""
    refs = [r for b in ds.iter_internal_ref_bundles() for r in b.block_refs]
    tables = [BlockAccessor.for_block(b).to_arrow() for b in ray.get(refs)]
    full = [t for t in tables if t.num_rows]
    if full:
        return pa.concat_tables(full)
    return next((t for t in tables if t.num_columns), pa.table({}))
