"""Data movement between the driver and Ray Data tasks (SCALING.md):
the combine tree, the key-bucket co-shuffle, the broadcast handle and
the driver collect.

- ``combine(parts, fn)`` and ``gather(ds, fn)`` are the combine tree:
  ``gather(combine(parts, f), f)`` folds many small partial blocks with
  ``f`` in tasks of ``COMBINE_TARGET_ROWS`` rows, then runs ``f`` once
  over every remaining row in one task (``ops.tree_reduce`` is the
  keyed form). A finish step belongs inside the gather fn. The two
  stages ask for 0.5 and 0.9 CPUs on purpose: Ray Data fuses adjacent
  map stages whose resource requests are equal, so a one-task stage
  at the default 1 CPU fuses with a default-CPU map before it and runs
  that whole map as one task. 0.5 and 0.9 differ from the default and
  from each other, so the map before a tree keeps its parallelism,
  and a second gather after a gather (equal requests) fuses into the
  same task.

- ``co_shuffle(sides, keys, fn, ...)`` brings every row with the same key
  to one ``fn`` call: the only ``groupby(...).map_groups`` in georay.
  With ``n_buckets`` the key is ``_key_hash(keys) % n_buckets``, so one
  call gets a whole bucket of keys and resolves them with a vectorized
  sort; without it the given column is the group key as it is (callers
  that salt, shift or replicate build that column themselves).
  ``coalesce`` merges the input down to ``task_count`` blocks first:
  every block costs the shuffle map one slice per output partition, so
  a many-block input wants it. It adds no stage to an input that Ray's
  plan already puts at or below that count (the old floor of 16 blocks
  split small kNN ring state and cost those rounds 2 s → 7–12 s).
- ``task_count(n_parts, n_bytes)`` is the one rule that sizes a stage:
  one task per cluster CPU, never more than there are parts, and more
  only when a task would hold more than Ray's ``target_max_block_size``.
  The resumable shard write and ``shuffle_coalesce`` take their task
  counts from it, not from the input's files and blocks.
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
import functools
import threading

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
from ray._private.auto_init_hook import auto_init_ray
from ray.data._internal.logical.operators.read_operator import Read
from ray.data.block import BlockAccessor

# rows per combine task when coalescing partial blocks ahead of the final
# merge; sized so one combined block is a few MB of (key, partials)
COMBINE_TARGET_ROWS = 1 << 18

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


# ---------------------------------------------------------------- combine tree

def combine(parts: ray.data.Dataset, fn) -> ray.data.Dataset:
    """The combine stage: ``fn(batch) -> pa.Table`` over batches of
    ``COMBINE_TARGET_ROWS`` rows, so many small partial blocks fold in
    one task. Its output is partials again: the gather folds them."""
    return parts.map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=COMBINE_TARGET_ROWS, num_cpus=0.5,
    )


def gather(ds: ray.data.Dataset, fn) -> ray.data.Dataset:
    """The one merge task: ``fn`` sees every row of ``ds`` in one batch.
    On an input with no rows ``fn`` is not called and the result has no
    rows, so a caller that needs a typed empty result builds its own."""
    return ds.map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=1 << 40, num_cpus=0.9,
    )


# ------------------------------------------------------ key-bucket co-shuffle

def _mix64(h: np.ndarray) -> np.ndarray:
    """murmur3 finalizer over a uint64 array (in place, returns h)."""
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    return h


def _bytes_hash(arr: pa.Array) -> np.ndarray:
    """(n,) uint64 multilinear hash of a string/binary Arrow array — one
    vectorized pass over the flat data buffer (no per-row Python). Nulls
    and empty strings hash to 0.

    Each byte at within-row position i is weighted by ``mix64(i+1)`` — a
    bijection, so every position gets a DISTINCT 64-bit coefficient at
    ANY key length (a capped power table would alias positions past the
    cap and silently collide long keys that differ only in their tails).
    The row length is folded in before the final mix so keys differing
    only by trailing NUL bytes (whose byte terms are zero) stay distinct.
    Pairwise collision odds ~2^-64 for arbitrary-length keys.
    """

    arr = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
    lb = arr.cast(pa.large_binary())
    n = len(lb)
    out = np.zeros(n, dtype=np.uint64)
    if n == 0:
        return out
    offs = np.frombuffer(lb.buffers()[1], dtype=np.int64, count=n + 1,
                         offset=lb.offset * 8)
    data = np.frombuffer(lb.buffers()[2], dtype=np.uint8)
    starts, ends = offs[:-1], offs[1:]
    lens = ends - starts
    total_lo, total_hi = int(starts[0]), int(ends[-1])
    if total_hi == total_lo:
        return out
    blob = data[total_lo:total_hi].astype(np.uint64)
    from georay.index import _ragged_ranges

    owner, within = _ragged_ranges(lens)
    seg_starts = (starts - total_lo).copy()
    # reduceat quirk: an empty segment returns the element at its start
    # index (and start==len(blob) would be out of range) — clamp, then
    # zero empties below
    coeff = _mix64(within.astype(np.uint64) + np.uint64(1))
    h = np.add.reduceat(
        blob * coeff,
        np.minimum(seg_starts, blob.shape[0] - 1),
    )
    h += np.uint64(0x9E3779B97F4A7C15) * lens.astype(np.uint64)
    h[lens == 0] = 0
    if lb.null_count:
        valid = np.asarray(lb.is_valid())
        h[~valid] = 0
    return _mix64(h)


def _key_hash(batch: pa.Table, keys: list[str]) -> np.ndarray | None:
    """(n,) uint64 combined hash of the key columns; None when a key type
    (float, timestamp, ...) has no vectorized hash path. ``write_bucketed``
    persists ``_key_hash % n_buckets`` on disk, so it must stay
    bit-identical."""
    h = np.full(len(batch), np.uint64(0x9E3779B97F4A7C15), dtype=np.uint64)
    for k in keys:
        col = batch[k]
        typ = col.type
        if pa.types.is_integer(typ):
            # fill nulls before the numpy cast (NaN→int is undefined);
            # all nulls share value-0's BUCKET, which only affects load,
            # never grouping — the boundary checks are null-aware
            filled = pc.fill_null(col, 0)
            if isinstance(filled, pa.ChunkedArray):
                filled = filled.combine_chunks()
            arr = filled.to_numpy(zero_copy_only=False)
            hk = _mix64(arr.astype(np.int64).view(np.uint64).copy())
        elif (
            pa.types.is_string(typ)
            or pa.types.is_large_string(typ)
            or pa.types.is_binary(typ)
            or pa.types.is_large_binary(typ)
        ):
            hk = _bytes_hash(
                col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
            )
        elif pa.types.is_null(typ):
            # an all-null block (e.g. from_items schema inference): same
            # bucket as integer null (value-0's hash) — load-only effect
            hk = _mix64(np.zeros(len(batch), np.uint64))
        else:
            return None
        h = _mix64(h * np.uint64(0x100000001B3) + hk)
    return h


def bucket_ids(batch: pa.Table, keys: list[str], n_buckets: int) -> np.ndarray:
    """(n,) int64 bucket of each row: ``_key_hash(keys) % n_buckets``."""
    h = _key_hash(batch, keys)
    if h is None:
        types = ", ".join(f"{k}: {batch.schema.field(k).type}" for k in keys)
        raise TypeError(
            f"key columns {keys} ({types}) have no bucket hash; use "
            "integer, string or binary keys"
        )
    return (h % np.uint64(n_buckets)).astype(np.int64)


def task_count(n_parts: int, n_bytes: int | None = None) -> int:
    """Tasks for a stage over ``n_parts`` parts that weigh ``n_bytes``:
    one per cluster CPU, more only when a task would hold more than
    ``DataContext.target_max_block_size`` bytes, and never more than
    ``n_parts`` (at least 1).

    A task costs tens of milliseconds of scheduling, worker and driver
    time whatever it holds, so a task count taken from the input's files
    or blocks buys nothing past one task per CPU: on one CPU a 4-shard
    flagship run went 0.245 → 0.174 s in 1 task, and a 4-block MinHash
    band exchange was 25% faster coalesced to 1 block than to 2."""
    auto_init_ray()
    n = max(int(ray.cluster_resources().get("CPU", 1)), 1)
    block = ray.data.DataContext.get_current().target_max_block_size
    if n_bytes and block:
        n = max(n, -(-int(n_bytes) // block))
    return max(min(n, n_parts), 1)


def projected_bytes(md: pq.FileMetaData, columns: list[str] | None) -> int:
    """Uncompressed bytes of ``columns`` (all when None) in a parquet
    footer: the ``n_bytes`` of ``task_count`` for a read."""
    return sum(
        c.total_uncompressed_size
        for rg in map(md.row_group, range(md.num_row_groups))
        for c in map(rg.column, range(rg.num_columns))
        if columns is None or c.path_in_schema.split(".")[0] in columns
    )


def shuffle_coalesce(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Merge a Dataset down to ``task_count`` blocks before a groupby
    shuffle; unchanged when Ray's plan-time block estimate is already at
    or below that, so a sized input is never split into more blocks.

    Ray's sort-shuffle map stage splits EVERY input block into one slice
    per output partition, so its constant cost is blocks × partitions
    object-store operations — a many-small-block input (hundreds of
    parquet fragments) makes the shuffle barrier dominate. Measured on
    the 14.4M-row co-partitioned join at 32 cpus: 19.7 s with ~800 read
    blocks, 3.3 s after coalescing to 64 (6×). Splitting a few-block
    input is not free either: the old floor of 16 blocks cost the kNN
    ring rounds 2 s → 7–12 s. The estimate counts one block per read
    task, but Ray splits a read it sizes itself at run time (two
    one-file sf0.1 reads reached a join's shuffle unmerged and ran
    3.5 → 5.7 s at 32 CPUs), so such a read, like an input of unknown
    size, makes the estimate unknown: those inputs merge to
    ``task_count`` blocks as if they had more."""
    plan = ds._logical_plan.dag
    n_blocks = plan.estimated_num_outputs()
    n_bytes = plan.infer_metadata().size_bytes
    if n_blocks is None or any(
        isinstance(op, Read) and op._parallelism == -1 for op in plan.post_order_iter()
    ):
        return ds.repartition(task_count(1 << 62, n_bytes))
    target = task_count(n_blocks, n_bytes)
    return ds if n_blocks <= target else ds.repartition(target)


def co_shuffle(
    sides: ray.data.Dataset | list[ray.data.Dataset],
    keys: str | list[str],
    fn,
    *,
    n_buckets: int | None = None,
    coalesce: bool,
) -> ray.data.Dataset:
    """``fn(group) -> pa.Table`` once per group of rows that share a key.

    ``sides`` is one Dataset or a list of them (each side keyed, then
    unioned: side-tagged joins tag their rows before the call). With
    ``n_buckets`` rows are grouped by ``_key_hash(keys) % n_buckets``;
    the ``_bucket`` column is added for the groupby and dropped before
    ``fn``, and a key type without a hash raises ``TypeError``. Without
    it rows are grouped by the column(s) ``keys`` as they are, and those
    reach ``fn`` unchanged. ``coalesce`` inserts ``shuffle_coalesce``
    before the groupby: at most ``task_count`` blocks reach the shuffle."""
    sides = [sides] if isinstance(sides, ray.data.Dataset) else list(sides)
    if n_buckets is None:
        group_key, call = keys, fn
    else:
        key_list = [keys] if isinstance(keys, str) else list(keys)

        def add_bucket(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                "_bucket", pa.array(bucket_ids(batch, key_list, n_buckets))
            )

        sides = [
            s.map_batches(add_bucket, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None)
            for s in sides
        ]
        group_key = "_bucket"

        @functools.wraps(fn)  # Ray Data names the stage after fn
        def call(group: pa.Table) -> pa.Table:
            return fn(group.drop_columns(["_bucket"]))

    ds = sides[0].union(*sides[1:]) if len(sides) > 1 else sides[0]
    if coalesce:
        ds = shuffle_coalesce(ds)
    return ds.groupby(group_key).map_groups(call, batch_format="pyarrow")
