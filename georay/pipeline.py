"""Flagship pipelines: ingest → cell-encode → PIP join → tiling → skew-safe
aggregation, with per-partition lineage records and checkpoint resume
(SURVEY.md §3 "Engine lifecycle equivalents", §2.B11).

Scale notes (the 100 TB story):
- the image ``bytes`` column never crosses a shuffle: the enriched
  assignment table (ids + cells + tiles + join results) is written per
  input shard with no all-to-all, in ONE Ray Data execution per run of
  ONE fused operator — each task (one per cluster CPU, ``exchange.task_count``)
  reads whole shards, transforms them and writes each as one row group
  per file, re-reads what it wrote and returns each shard's row count,
  checksum partial and histogram counts, which the driver merges (no
  wide op, no second plan, no block in the object store between read
  and write);
- resume is manifest-driven: each input shard is a partition whose
  output is validated by row count + an order-insensitive checksum;
  finished shards are skipped on rerun (content-addressed partition ids,
  not task ordinals), and their histogram counts are kept per shard so
  a resume never re-reads finished output;
- the polygon side is broadcast once via ``exchange.broadcast`` (georay.joins).
"""

from __future__ import annotations

import ctypes
import gc
import glob
import json
import os
import time
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd
from ray.data._internal.datasource.parquet_datasink import ParquetDatasink
from ray.data._internal.planner.plan_write_op import WRITE_UUID_KWARG_NAME
from ray.data.block import BlockAccessor

from georay import cells, exchange, ops
from georay.exchange import co_shuffle
from georay.joins import pip_join

MANIFEST = "manifest.json"
HIST_DIR = "_hist"  # per-shard histogram sidecars of run_flagship


def _shard_of_path(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


_CK_MASK = (1 << 63) - 1


def _id_hash64(ids: list) -> np.ndarray:
    """Vectorized 64-bit hash per id string: one polynomial pass over a
    NUL-joined byte blob (the same device as the SimHash token hasher) —
    no per-row digests. Ids must be non-empty and NUL-free (true for
    every id column in this engine)."""
    from georay.stages.dedup import _hash_token_stream

    if not ids:
        return np.empty(0, dtype=np.uint64)
    data = ("\x00".join(str(s) for s in ids) + "\x00").encode("utf-8")
    blob = np.frombuffer(data, dtype=np.uint8)
    seps = np.nonzero(blob == 0)[0]
    starts = np.concatenate([[0], seps[:-1] + 1]).astype(np.int64)
    return _hash_token_stream(data, starts)


def _id_checksum(ids) -> int:
    """Order-insensitive 63-bit checksum over row ids (stable across
    resumes and block orderings): modular sum of per-id hashes, so
    per-batch partials merge by plain addition."""
    h = _id_hash64(list(ids))
    return int(h.sum(dtype=np.uint64) & np.uint64(_CK_MASK))


def load_manifest(out_dir: str) -> dict:
    p = os.path.join(out_dir, MANIFEST)
    if os.path.exists(p):
        with open(p) as f:
            return json.load(f)
    return {}


def save_manifest(out_dir: str, manifest: dict) -> None:
    p = os.path.join(out_dir, MANIFEST)
    tmp = p + ".tmp"
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    os.replace(tmp, p)  # atomic publish


class _ShardSink(ParquetDatasink):
    """Parquet sink of a resumable shard write that validates in the
    write tasks. Directories and file names are those of
    ``Dataset.write_parquet(path, partition_cols=...)``; each file holds
    one shard's rows of a task as one row group (up to 1M rows).

    After writing its files, each write task re-reads ``id_col`` and the
    ``count_cols`` from the files it just wrote, so the checks see what
    is on disk, and returns per ``shard`` its rows, its id-checksum
    partial (``_id_hash64`` sum) and the ``np.unique`` counts of each
    ``count_cols`` column. ``on_write_complete`` merges them on the
    driver into ``stats`` {shard: (rows, id_checksum, [per-task counts])}."""

    def __init__(self, path: str, partition_cols: list[str], id_col, count_cols):
        # one row group per written file: a fused read hands the write a
        # shard as one block per input row group, which pyarrow would
        # write as one group each (min_rows_per_file would also merge
        # them, but it gives the write a minimum bundle, which unfuses it)
        super().__init__(
            path,
            partition_cols=partition_cols,
            arrow_parquet_args={"row_group_size": 1 << 20},
            dataset_uuid=uuid.uuid4().hex,
        )
        self.id_col = id_col
        self.count_cols = list(count_cols)
        self.stats: dict[str, tuple[int, int, list]] = {}

    def write(self, blocks, ctx):
        blocks = [b for b in blocks if BlockAccessor.for_block(b).num_rows() > 0]
        if not blocks:
            return None
        super().write(blocks, ctx)
        name = self.filename_provider.get_filename_for_block(
            blocks[0], ctx.kwargs[WRITE_UUID_KWARG_NAME], ctx.task_idx, 0
        )
        nested = ["*"] * (len(self.partition_cols) - 1)
        pattern = os.path.join(*nested, os.path.splitext(name)[0] + "-*.parquet")
        shards = {
            s
            for b in blocks
            for s in pc.unique(BlockAccessor.for_block(b).to_arrow()["shard"]).to_pylist()
        }
        cols = [self.id_col] * bool(self.id_col) + self.count_cols
        out = []
        for s in sorted(shards):
            files = sorted(glob.glob(os.path.join(self.path, f"shard={s}", pattern)))
            t = pq.read_table(files, columns=cols, partitioning=None)
            ck = _id_hash64(t[self.id_col].to_pylist()).sum(dtype=np.uint64) if self.id_col else 0
            counts = [np.unique(t[c].to_numpy(), return_counts=True) for c in self.count_cols]
            out.append((s, t.num_rows, int(ck), counts))
        return out

    def on_write_complete(self, write_result) -> None:
        super().on_write_complete(write_result)
        for part in write_result.write_returns:
            for s, rows, ck, counts in part or ():
                r0, c0, cs = self.stats.get(s, (0, 0, []))
                self.stats[s] = (r0 + rows, (c0 + ck) & _CK_MASK, cs + [counts])


def _hist_path(out_dir: str, shard: str) -> str:
    return os.path.join(out_dir, HIST_DIR, f"{shard}.parquet")


def _write_sidecar(path: str, count_cols, counts: list) -> None:
    """One shard's histogram partial as (column, key, count) rows, from
    the ``np.unique`` counts of each write task that wrote the shard (a
    key repeats when several did; ``_merge_sidecars`` sums it)."""
    parts = [(c, k, n) for task in counts for c, (k, n) in zip(count_cols, task)]
    col = np.repeat(np.array([c for c, _, _ in parts], object), [len(k) for _, k, _ in parts])
    none = [np.empty(0, np.int64)]
    key = np.concatenate([k for _, k, _ in parts] + none)
    cnt = np.concatenate([n for _, _, n in parts] + none)
    pq.write_table(pa.table({"column": pa.array(col, pa.string()), "key": key, "count": cnt}), path)


def _write_shards(
    input_files: list[str],
    out_dir: str,
    data_dir: str,
    transform,
    columns: list[str] | None,
    id_col: str | None,
    resume: bool,
    partition_cols: list[str],
    count_cols: tuple[str, ...] = (),
) -> tuple[dict, list[str], int]:
    """The resumable partitioned write shared by ``write_resumable`` and
    ``run_flagship``, in ONE Ray Data execution: input shards missing
    from the manifest are read, transformed and written through
    ``_ShardSink`` to ``out_dir/<data_dir>/shard=<name>/``; each is
    checked against its input footer's row count and recorded in the
    manifest. The read runs ``exchange.task_count`` tasks, sized from
    the pending shards and their projected column bytes in the parquet
    footers: one per cluster CPU, more only for shards too heavy for
    one block each, and never a split shard. So a ``transform`` of
    row-wise maps fuses with read and write into one operator, a task
    writes whole shards, one file of one row group per shard, and a run
    has no more tasks than pending shards. With ``count_cols``, each
    finished shard's counts go to its sidecar
    ``out_dir/_hist/<shard>.parquet`` before its manifest entry is
    committed, and a manifest shard without a sidecar is redone.
    Returns (manifest, pending input files, rows written)."""
    import shutil

    os.makedirs(out_dir, exist_ok=True)
    files = sorted(input_files)
    manifest = load_manifest(out_dir) if resume else {}
    if count_cols:
        manifest = {s: m for s, m in manifest.items() if os.path.exists(_hist_path(out_dir, s))}
    pending = [f for f in files if _shard_of_path(f) not in manifest]
    data_root = os.path.join(out_dir, data_dir)

    # clear outputs of shards that started but never validated (crash);
    # manifest-recorded shards are never touched
    if os.path.isdir(data_root):
        for d in os.listdir(data_root):
            if d.startswith("shard=") and d.split("=", 1)[1] not in manifest:
                shutil.rmtree(os.path.join(data_root, d))
    if not pending:
        return manifest, pending, 0

    # ONE Dataset over all pending shards in whole shards per task: a
    # read Ray splits never fuses with the maps after it, so this keeps
    # read, transform and write one fused task; provenance via
    # include_paths drives the partitioned output, so every input shard
    # owns exactly one output directory
    footers = {f: pq.read_metadata(f) for f in pending}
    n_bytes = sum(exchange.projected_bytes(md, columns) for md in footers.values())
    ds = rd.read_parquet(
        pending, columns=columns, include_paths=True,
        override_num_blocks=exchange.task_count(len(pending), n_bytes),
    )

    def shard_col(batch: pa.Table) -> pa.Table:
        paths = pc.dictionary_encode(batch["path"].combine_chunks())
        names = pa.array(
            [_shard_of_path(p) for p in paths.dictionary.to_pylist()], pa.string()
        )
        return batch.drop_columns(["path"]).append_column(
            "shard", names.take(paths.indices)
        )

    ds = ds.map_batches(shard_col, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    sink = _ShardSink(data_root, partition_cols, id_col, count_cols)
    transform(ds).write_datasink(sink)

    if count_cols:
        os.makedirs(os.path.join(out_dir, HIST_DIR), exist_ok=True)
    n_rows_written = 0
    for path in pending:
        shard = _shard_of_path(path)
        shard_dir = os.path.join(data_root, f"shard={shard}")
        n_in = footers[path].num_rows
        n_out, ck, counts = sink.stats.get(shard, (0, 0, []))
        if n_out != n_in:
            raise RuntimeError(f"shard {shard}: wrote {n_out} rows, expected {n_in}")
        if count_cols:
            _write_sidecar(_hist_path(out_dir, shard), count_cols, counts)
        manifest[shard] = {
            "rows_in": n_in,
            "rows_out": n_out,
            "id_checksum": ck,
            "bytes": sum(
                os.path.getsize(os.path.join(root_, f))
                for root_, _dirs, fs in os.walk(shard_dir)
                for f in fs
            ),
        }
        n_rows_written += n_out
    save_manifest(out_dir, manifest)
    return manifest, pending, n_rows_written


def _release_freed_memory() -> None:
    """Free the finished execution's driver-side memory and hand it back
    to the OS. Its planning objects form young reference cycles, and
    what the driver frees stays resident in glibc's per-thread malloc
    arenas, so without this a long-lived driver climbs run after run
    (measured on one pinned vCPU, 4k-row flagship runs: 3.2 MB per run
    without it, 2.2 MB with it). The trim is a no-op where glibc is
    absent."""
    gc.collect(1)  # young generations only: ~1 ms
    try:
        malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return
    malloc_trim.argtypes, malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
    malloc_trim(0)


def _merge_sidecars(paths: list[str]) -> tuple[np.ndarray, ...]:
    """(column, key, count) summed over the sidecar files ``paths``,
    folded 64 files at a time so the driver holds at most the merged
    result plus one chunk."""
    acc = (np.empty(0, object), np.empty(0, np.int64), np.empty(0, np.int64))
    for i in range(0, len(paths), 64):
        t = pq.read_table(paths[i : i + 64])
        cols = [
            np.concatenate([a, t[c].to_numpy()]) for a, c in zip(acc, ("column", "key", "count"))
        ]
        (col, key), v = ops._group_reduce(cols[:2], {"count": cols[2]})
        acc = (col, key, v["count"])
    return acc


def write_resumable(
    input_files: list[str],
    out_dir: str,
    transform,
    id_col: str = "image_id",
    columns: list[str] | None = None,
    resume: bool = True,
) -> dict:
    """Generic checkpoint-resumable partitioned sink (the flagship's B2/
    B11 machinery as a reusable primitive): each INPUT shard owns one
    output directory ``out_dir/data/shard=<name>/``; finished shards are
    recorded in the manifest (rows in/out, order-insensitive id
    checksum, bytes) and skipped on rerun; half-written shards from a
    crash are cleared and redone. ``transform(ds) -> ds`` is any
    Dataset→Dataset stage chain that preserves the ``shard`` and
    ``id_col`` columns (1 output row per input row; relax the count
    check by emitting your own manifest if a transform filters). The
    write tasks validate what they wrote (``_ShardSink``), so the whole
    write is one Ray Data execution.

    Returns {shards_total, shards_processed_this_run, rows, seconds}.
    """
    if not input_files:
        raise FileNotFoundError("write_resumable: empty input file list")
    t0 = time.perf_counter()
    manifest, pending, n_rows_written = _write_shards(
        input_files, out_dir, "data", transform,
        columns=columns, id_col=id_col, resume=resume, partition_cols=["shard"],
    )
    _release_freed_memory()
    return {
        "shards_total": len(input_files),
        "shards_processed_this_run": len(pending),
        "rows": int(sum(m["rows_out"] for m in manifest.values())),
        "seconds": round(time.perf_counter() - t0, 3),
        "rows_written_this_run": int(n_rows_written),
    }


FLAGSHIP_BUCKETS = 64  # cell_parent hash buckets in the assign layout


def run_flagship(
    images_dir: str,
    out_dir: str,
    polygons: pa.Table,
    level: int = cells.DEFAULT_LEVEL,
    parent_level: int = 6,
    zoom: int = 8,
    resume: bool = True,
    bucketed_cells: bool = False,
) -> dict:
    """Ingest/encode + spatial join + tiling over the image+caption table.

    Per input shard writes ``out_dir/assign/shard=<name>/`` holding the
    assignment table (image_id, cell, cell_parent, polygon_id, tile_*)
    — geometry enrichment WITHOUT the image bytes (§7.4 hard part 3) —
    and appends a lineage record to the manifest. The whole run is ONE
    Ray Data execution: the write tasks validate their own output and
    count ``cell_parent`` and ``tile_key`` per shard; those counts are
    kept as per-shard sidecars (``out_dir/_hist/``), and the tile
    histogram and top cells merge the sidecars of every manifest shard
    on the driver, so neither a fresh run nor a resume re-reads
    ``assign/``.

    ``bucketed_cells=True`` additionally hash-buckets the assignment
    table by ``cell_parent`` inside each resume shard
    (``shard=<name>/bucket=<b>/``), so a later aggregate on cell_parent
    reuses the layout shuffle-free
    (``bucketed_aggregate(..., bucket_glob="shard=*/bucket={b}")``). At
    bench scale (40k rows) the extra shards×buckets write fragmentation
    costs far more than that saves, so the default stays off; at
    production shard sizes (GB-scale buckets) the layout amortizes.
    The histograms and every other output are identical either way
    (parity-pinned)."""
    import pandas as pd

    files = sorted(glob.glob(os.path.join(images_dir, "*.parquet")))
    if not files:
        raise FileNotFoundError(f"no parquet shards under {images_dir}")
    t0 = time.perf_counter()

    def transform(ds: rd.Dataset) -> rd.Dataset:
        ds = ops.add_cell_column(ds, level=level, parent_level=parent_level)
        ds = pip_join(ds, polygons, mode="left")
        ds = ops.add_tile_columns(ds, zoom=zoom)
        if not bucketed_cells:
            return ds

        def add_cell_bucket(batch: pa.Table) -> pa.Table:
            # write_bucketed's _key_hash layout
            return batch.append_column(
                "bucket",
                pa.array(exchange.bucket_ids(batch, ["cell_parent"], FLAGSHIP_BUCKETS)),
            )

        return ds.map_batches(
            add_cell_bucket, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
        )

    manifest, pending, n_rows_written = _write_shards(
        files,
        out_dir,
        "assign",
        transform,
        # prune at the read: bytes/caption never enter the join path
        columns=["image_id", "phash", "geotag"],
        id_col="image_id",
        resume=resume,
        partition_cols=["shard", "bucket"] if bucketed_cells else ["shard"],
        count_cols=("cell_parent", "tile_key"),
    )

    col, key, n = _merge_sidecars([_hist_path(out_dir, s) for s in sorted(manifest)])
    is_tile = col == "tile_key"
    order = np.argsort(key[is_tile], kind="stable")
    tiles_pdf = pd.DataFrame({"tile_key": key[is_tile][order], "count": n[is_tile][order]})
    cell_key, cell_n = key[col == "cell_parent"], n[col == "cell_parent"]
    top = np.lexsort((cell_key, -cell_n))[:20]
    top_pdf = pd.DataFrame({"cell_parent": cell_key[top], "count": cell_n[top]})
    tiles_pdf.to_parquet(os.path.join(out_dir, "tile_histogram.parquet"))
    top_pdf.to_parquet(os.path.join(out_dir, "top_cells.parquet"))

    total_rows = sum(m["rows_out"] for m in manifest.values())
    summary = {
        "shards_total": len(files),
        "shards_processed_this_run": len(pending),
        "rows": int(total_rows),
        "tiles": int(len(tiles_pdf)),
        "seconds": round(time.perf_counter() - t0, 3),
        "rows_per_sec": round(n_rows_written / max(time.perf_counter() - t0, 1e-9), 1),
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1)
    _release_freed_memory()
    return summary


class ImageValidator:
    """Actor-pool stage for the per-row invariant (BASELINE.json
    input_hint): decode pixels, check PSNR≥40dB for lossy / exact for
    lossless against the generator's recomputed ground truth, and caption
    integrity. Decoding is stateful-stage-shaped (real decoders would
    load codecs once per actor here)."""

    def __init__(self):
        from georay import generate, images

        self.images = images
        self.generate = generate

    def __call__(self, batch: pa.Table) -> pa.Table:
        im = self.images
        n = len(batch)
        ok = np.zeros(n, dtype=bool)
        psnr_vals = np.full(n, np.inf)
        data = batch["bytes"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        ws = batch["w"].to_pylist()
        hs = batch["h"].to_pylist()
        keys = batch["content_key"].to_pylist()
        for i in range(n):
            pix = im.decode_image(data[i], fmts[i], ws[i], hs[i])
            exp = self.generate._pixels_for(keys[i], ws[i], hs[i])
            if fmts[i] in im.LOSSY_FORMATS:
                p = im.psnr(exp, pix)
                psnr_vals[i] = p
                ok[i] = p >= 40.0
            else:
                ok[i] = np.array_equal(pix, exp)
        return pa.table(
            {
                "image_id": batch["image_id"],
                "pixels_ok": pa.array(ok),
                "psnr": pa.array(psnr_vals),
                "caption_present": pa.array(
                    [c is not None for c in batch["caption"].to_pylist()]
                ),
            }
        )


def validate_images(images_dir: str, concurrency=(2, 8)) -> dict:
    """Corpus-wide image invariant, STREAMING: the per-row validation
    output never reaches the driver — each batch folds to ONE
    (rows, pixels_ok, min_psnr) partial right behind the decode actors,
    and the partials merge through the combine tree
    (``exchange.combine`` / ``exchange.gather``). The driver receives
    exactly one row, so the check holds at any corpus size (r3 verdict:
    ``out.to_pandas()`` of one row per image was a driver OOM at scale)."""
    # prune at the read: the validator touches 7 of the 9 columns
    # (phash and geotag never leave storage)
    ds = rd.read_parquet(
        images_dir,
        columns=["image_id", "bytes", "fmt", "w", "h", "content_key",
                 "caption"],
    )
    out = ds.map_batches(
        ImageValidator,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=1024,
        concurrency=concurrency,
    )

    def fold(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table(
                {
                    "partial_rows": pa.array([], pa.int64()),
                    "partial_ok": pa.array([], pa.int64()),
                    "partial_minpsnr": pa.array([], pa.float64()),
                }
            )
        if "partial_rows" in batch.column_names:
            # combine stage: partials fold associatively
            return pa.table(
                {
                    "partial_rows": pa.array(
                        [int(pc.sum(batch["partial_rows"]).as_py() or 0)]
                    ),
                    "partial_ok": pa.array(
                        [int(pc.sum(batch["partial_ok"]).as_py() or 0)]
                    ),
                    "partial_minpsnr": pa.array(
                        [float(pc.min(batch["partial_minpsnr"]).as_py())]
                    ),
                }
            )
        psnr = batch["psnr"].to_numpy(zero_copy_only=False)
        fin = psnr[np.isfinite(psnr)]
        ok = batch["pixels_ok"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "partial_rows": pa.array([len(batch)], pa.int64()),
                "partial_ok": pa.array([int(ok.sum())], pa.int64()),
                "partial_minpsnr": pa.array(
                    [float(fin.min()) if fin.size else np.inf], pa.float64()
                ),
            }
        )

    parts = out.map_batches(
        fold, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    one = exchange.gather(exchange.combine(parts, fold), fold).take_all()
    rows = sum(int(r["partial_rows"]) for r in one)
    okc = sum(int(r["partial_ok"]) for r in one)
    mp = min((float(r["partial_minpsnr"]) for r in one), default=np.inf)
    return {
        "rows": rows,
        "pixels_ok": okc,
        "min_psnr_lossy": float(mp) if np.isfinite(mp) else None,
    }


def write_spatial(
    ds: rd.Dataset,
    out_dir: str,
    geom_col: str = "geotag",
    parent_level: int = 4,
) -> list[str]:
    """Spatially partitioned sink: rows land in one parquet directory per
    S2-style parent cell (``cell_prefix=<id>/``), so downstream readers
    prune whole key ranges at the filesystem level (read ONE city's
    partition out of a planet-scale table without touching the rest) and
    a failed run can re-emit individual cell partitions. The partition
    key is the engine's prefix-parent cell — the same key every join /
    aggregate in the engine shuffles on, so locality carries end-to-end.

    Returns the list of partition directories written.
    """
    from georay import cells as _c

    def add_prefix(batch: pa.Table) -> pa.Table:
        lon, lat = ops.point_lonlat(batch, geom_col)
        cid = _c.cell_from_lonlat(lon, lat, _c.DEFAULT_LEVEL)
        par = _c.to_i64(_c.cell_parent(cid, parent_level))
        return batch.append_column("cell_prefix", pa.array(par, pa.int64()))

    out = ds.map_batches(
        add_prefix, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    out.write_parquet(out_dir, partition_cols=["cell_prefix"])
    return sorted(
        os.path.join(out_dir, d)
        for d in os.listdir(out_dir)
        if d.startswith("cell_prefix=")
    )


def read_spatial_partition(out_dir: str, cell_prefix: int, columns=None) -> rd.Dataset:
    """Partition-pruned read: only the named cell partition's files are
    opened (filesystem-level pruning — nothing else leaves storage)."""
    return rd.read_parquet(
        os.path.join(out_dir, f"cell_prefix={cell_prefix}"), columns=columns
    )


def write_bucketed(
    ds: rd.Dataset,
    out_dir: str,
    key: str,
    n_buckets: int = 64,
) -> list[str]:
    """Hash-bucketed table layout (the warehouse "bucketed table"):
    rows land in one parquet directory per key-hash bucket, computed
    with the SAME ``_key_hash`` every runtime co-shuffle in the engine
    uses — so two tables bucketed on their join key align
    bucket-for-bucket and join with NO runtime shuffle
    (``bucketed_join``). The 100-TB amortization: pay the exchange
    once at write time, reuse it across every downstream join /
    aggregate on that key. Returns the partition directories."""
    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "bucket", pa.array(exchange.bucket_ids(batch, [key], n_buckets))
        )

    out = ds.map_batches(
        add_bucket, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    out.write_parquet(out_dir, partition_cols=["bucket"])
    return sorted(
        os.path.join(out_dir, d)
        for d in os.listdir(out_dir)
        if d.startswith("bucket=")
    )


def bucketed_join(
    left_dir: str,
    right_dir: str,
    on: str,
    right_on: str | None = None,
    n_buckets: int = 64,
    how: str = "inner",
    left_columns: list[str] | None = None,
    right_columns: list[str] | None = None,
) -> rd.Dataset:
    """SHUFFLE-FREE equality join between two ``write_bucketed`` tables
    laid out with the same key hash and bucket count: one task per
    bucket reads the matching partition of each side and joins locally
    with Arrow's hash join — no runtime exchange at all; the shuffle
    was paid once at write time. Buckets stream through the executor
    like any other task pool. ``how``: "inner" or "left" (a bucket
    missing on the right emits the left rows null-extended)."""
    rkey = right_on or on
    if how not in ("inner", "left"):
        raise ValueError(f"how must be inner|left, got {how!r}")

    def empty_result() -> pa.Table:
        lt = pq.read_table(_any_bucket(left_dir), columns=left_columns).slice(0, 0)
        rt = pq.read_table(_any_bucket(right_dir), columns=right_columns).slice(0, 0)
        return lt.join(rt, keys=[on], right_keys=[rkey], join_type="left outer")

    def join_bucket(batch: pa.Table) -> pa.Table:
        out = []
        for b in batch["b"].to_pylist():
            lp = os.path.join(left_dir, f"bucket={b}")
            rp = os.path.join(right_dir, f"bucket={b}")
            if not os.path.isdir(lp):
                continue
            lt = pq.read_table(lp, columns=left_columns)
            if os.path.isdir(rp):
                rt = pq.read_table(rp, columns=right_columns)
            elif how == "left":
                # null-extend against an empty right side (schema from
                # any existing right bucket)
                rt = pq.read_table(
                    _any_bucket(right_dir), columns=right_columns
                ).slice(0, 0)
            else:
                continue
            out.append(
                lt.join(
                    rt, keys=[on], right_keys=[rkey],
                    join_type="inner" if how == "inner" else "left outer",
                )
            )
        if not out:
            return empty_result()
        return pa.concat_tables(out, promote_options="default")

    ids = rd.from_arrow(
        pa.table({"b": pa.array(np.arange(n_buckets, dtype=np.int64))})
    ).repartition(n_buckets)
    joined = ids.map_batches(
        join_bucket, batch_format="pyarrow", batch_size=None
    )
    return joined


def _any_bucket(table_dir: str) -> str:
    for d in sorted(os.listdir(table_dir)):
        if d.startswith("bucket="):
            return os.path.join(table_dir, d)
    nested = sorted(glob.glob(os.path.join(table_dir, "*", "bucket=*")))
    for d in nested:
        if os.path.isdir(d):
            return d
    raise FileNotFoundError(f"no bucket partitions under {table_dir}")


def bucketed_aggregate(
    table_dir: str,
    key: str,
    sum_cols: list[str] | None = None,
    n_buckets: int = 64,
    count_alias: str = "n",
    bucket_glob: str = "bucket={b}",
) -> rd.Dataset:
    """SHUFFLE-FREE grouped count/sum over a ``write_bucketed`` table:
    the layout already partitions keys, so each bucket's local Arrow
    groupby is the FINAL answer for its keys — one task per bucket, no
    exchange, results concatenate. The companion of ``bucketed_join``
    for the aggregate side of the reused-partitioning-key story.
    ``bucket_glob`` locates a bucket's directories under ``table_dir``
    (e.g. ``"shard=*/bucket={b}"`` for the flagship layout, whose
    buckets are nested under resume shards — one bucket still owns all
    occurrences of its keys across every shard)."""
    sum_cols = sum_cols or []

    def agg_bucket(batch: pa.Table) -> pa.Table:
        out = []
        for b in batch["b"].to_pylist():
            dirs = [
                d for d in glob.glob(
                    os.path.join(table_dir, bucket_glob.format(b=b))
                )
                if os.path.isdir(d)
            ]
            if not dirs:
                continue
            files = [
                f for d in dirs
                for f in sorted(glob.glob(os.path.join(d, "*.parquet")))
            ]
            if not files:
                continue
            t = pq.read_table(files, columns=[key] + sum_cols)
            t = t.append_column("_one", pa.array(np.ones(len(t), np.int64)))
            aggs = [("_one", "sum")] + [(c, "sum") for c in sum_cols]
            g = t.group_by([key]).aggregate(aggs)
            cols = {key: g[key], count_alias: g["_one_sum"]}
            for c in sum_cols:
                cols[f"sum_{c}"] = g[f"{c}_sum"]
            out.append(pa.table(cols))
        if not out:
            t = pq.read_table(
                _any_bucket(table_dir), columns=[key] + sum_cols
            ).slice(0, 0)
            cols = {key: t[key], count_alias: pa.array([], pa.int64())}
            for c in sum_cols:
                cols[f"sum_{c}"] = pa.array([], pa.float64())
            return pa.table(cols)
        return pa.concat_tables(out, promote_options="default")

    ids = rd.from_arrow(
        pa.table({"b": pa.array(np.arange(n_buckets, dtype=np.int64))})
    ).repartition(n_buckets)
    return ids.map_batches(agg_bucket, batch_format="pyarrow", batch_size=None)


def _postings_tf_write(
    ds: rd.Dataset,
    out_dir: str,
    id_col: str,
    text_col: str,
    n_buckets: int,
) -> tuple[int, int]:
    """Shared tf-postings + doclen bucketed write for the non-positional
    layout (full build AND incremental append). Returns the written
    docs' ``(n_docs, sum_dl)`` so callers can set/fold the manifest
    scalars."""
    from georay.ops import _group_reduce
    from georay.stages.text import _tokenize_flat

    # one source read serves both writes; one tokenize pass serves the
    # doclen write AND the corpus scalars (the stats pass would
    # otherwise re-tokenize the source a third time)
    ds = ds.materialize()

    def explode(batch: pa.Table) -> pa.Table:
        txt = batch[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        toks, counts = _tokenize_flat(txt)
        doc = batch[id_col].to_numpy(zero_copy_only=False)
        owner = np.repeat(np.arange(len(batch), dtype=np.int64), counts)
        t = toks.to_numpy(zero_copy_only=False)
        ln = pc.utf8_length(toks).to_numpy(zero_copy_only=False)
        keep = ln > 0
        # distinct (doc, token) with term frequency — a doc lives in ONE
        # row, so per-batch grouping is globally exact
        ks, vs = _group_reduce(
            [doc[owner][keep], t[keep]],
            {"tf": np.ones(int(keep.sum()), np.int64)},
        )
        out = pa.table(
            {
                "token": pa.array(ks[1].astype(str)),
                id_col: pa.array(ks[0]),
                "tf": pa.array(vs["tf"], pa.int64()),
            }
        )
        return out.append_column(
            "bucket", pa.array(exchange.bucket_ids(out, ["token"], n_buckets))
        )

    post = ds.map_batches(
        explode, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    post.write_parquet(out_dir, partition_cols=["bucket"])

    # doclen side table, bucketed by DOC hash (candidate dl lookups in
    # postings_bm25 co-read these partitions — only candidate rows ever
    # shuffle), plus the two corpus scalars every BM25 query needs.
    # dl follows bm25_topk's convention: raw _tokenize_flat counts (an
    # empty doc contributes dl=1 via its single empty token), so the
    # index-path scores are bit-identical to the full-scan path.
    def doclen(batch: pa.Table) -> pa.Table:
        txt = batch[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        _, counts = _tokenize_flat(txt)
        out = pa.table(
            {id_col: batch[id_col], "dl": pa.array(counts, pa.int64())}
        )
        return out.append_column(
            "bucket", pa.array(exchange.bucket_ids(out, [id_col], n_buckets))
        )

    dl_ds = ds.map_batches(
        doclen, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).materialize()
    dl_dir = os.path.join(out_dir, "doclen")
    dl_ds.write_parquet(dl_dir, partition_cols=["bucket"])

    def stats_partial(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n_docs": pa.array([len(batch)], pa.int64()),
                "sum_dl": pa.array(
                    [int(batch["dl"].to_numpy(zero_copy_only=False).sum())],
                    pa.int64(),
                ),
            }
        )

    totals = dl_ds.map_batches(
        stats_partial, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    ).take_all()
    n_docs = int(sum(r["n_docs"] for r in totals))
    sum_dl = int(sum(r["sum_dl"] for r in totals))
    return n_docs, sum_dl


def write_postings(
    ds: rd.Dataset,
    out_dir: str,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_buckets: int = 16,
) -> list[str]:
    """INVERTED-INDEX persistent layout: one (token, doc_id, tf) posting
    per distinct token per document (canonical tokenizer —
    ``stages.text._tokenize_flat``), hash-bucketed by TOKEN with the
    engine's ``_key_hash`` and written one parquet directory per
    bucket. The text-search sibling of ``write_bucketed``: a term
    query's bucket set is computable from the terms alone, so
    ``postings_search`` READS ONLY ≤ |terms| of the ``n_buckets``
    partitions — at 100 TB the index scan cost is per-term, not
    per-corpus. Tokenize + explode is one narrow ``map_batches`` (a
    document's postings are built where its row lives; no pre-shuffle);
    the one exchange is the write itself, paid once."""
    n_docs, sum_dl = _postings_tf_write(
        ds, out_dir, id_col, text_col, n_buckets
    )

    # self-describing layout: a search MUST use the writer's bucket
    # count and hash — a mismatched reader would silently miss terms.
    # Written LAST: a crashed build leaves no manifest, every reader
    # fails loudly, and the tpch._postings_cache rebuild kicks in.
    with open(os.path.join(out_dir, "_POSTINGS.json"), "w") as f:
        json.dump(
            {
                "n_buckets": n_buckets,
                "id_col": id_col,
                "id_type": str(ds.schema().base_schema.field(id_col).type),
                "n_docs": n_docs,
                "sum_dl": sum_dl,
            },
            f,
        )
    return sorted(
        os.path.join(out_dir, d)
        for d in os.listdir(out_dir)
        if d.startswith("bucket=")
    )


def _postings_pos_write(
    ds: rd.Dataset,
    out_dir: str,
    id_col: str,
    text_col: str,
    n_buckets: int,
) -> None:
    """Shared occurrence-explode + bucketed write for the positional
    postings layout (full build AND incremental append)."""
    from georay.stages.text import _tokenize_flat

    def explode(batch: pa.Table) -> pa.Table:
        txt = batch[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        toks, counts = _tokenize_flat(txt)
        doc = batch[id_col].to_numpy(zero_copy_only=False)
        owner = np.repeat(np.arange(len(batch), dtype=np.int64), counts)
        tot = int(counts.sum())
        pos = np.arange(tot) - np.repeat(np.cumsum(counts) - counts, counts)
        t = toks.to_numpy(zero_copy_only=False)
        ln = pc.utf8_length(toks).to_numpy(zero_copy_only=False)
        keep = ln > 0
        out = pa.table(
            {
                "token": pa.array(t[keep].astype(str)),
                id_col: pa.array(doc[owner][keep]),
                "pos": pa.array(pos[keep], pa.int64()),
            }
        )
        return out.append_column(
            "bucket", pa.array(exchange.bucket_ids(out, ["token"], n_buckets))
        )

    ds.map_batches(
        explode, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).write_parquet(out_dir, partition_cols=["bucket"])


def write_postings_positional(
    ds: rd.Dataset,
    out_dir: str,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_buckets: int = 16,
) -> list[str]:
    """POSITIONAL inverted-index layout: one ``(token, doc, pos)`` row
    per token OCCURRENCE (0-based position in the canonical token
    sequence), hash-bucketed by token like ``write_postings`` — the
    layout phrase/proximity queries need (``postings_phrase``). Same
    cost shape: occurrences are built where the document's row lives,
    the one exchange is the bucketed write, and a query's scan is
    bounded by its terms' buckets, not the corpus."""
    _postings_pos_write(ds, out_dir, id_col, text_col, n_buckets)
    with open(os.path.join(out_dir, "_POSTINGS.json"), "w") as f:
        json.dump(
            {
                "n_buckets": n_buckets,
                "id_col": id_col,
                "id_type": str(ds.schema().base_schema.field(id_col).type),
                "positional": True,
            },
            f,
        )
    return sorted(
        os.path.join(out_dir, d)
        for d in os.listdir(out_dir)
        if d.startswith("bucket=")
    )


def postings_append(
    postings_dir: str,
    ds: rd.Dataset,
    text_col: str = "text",
) -> None:
    """INCREMENTAL index maintenance for the positional postings
    layout: explode the NEW documents' occurrences with the layout's
    recorded bucket hash and write them as ADDITIONAL parquet files
    into the existing ``bucket=`` directories — the base index is never
    re-read or rewritten (the ``incremental_agg`` / ``incremental_join``
    IVM convention, extended to a persistent layout). Every reader
    (``postings_and`` / ``postings_phrase`` / ``postings_near`` /
    ``postings_bm25``) scans whole bucket directories, so delta files
    are picked up with no reader change and no compaction step.

    APPEND-ONLY: re-adding an already-indexed doc_id duplicates its
    occurrences (same as re-inserting a row into any log-structured
    index) — dedup upstream or rebuild to replace documents.

    Works on BOTH layouts: positional (``write_postings_positional``)
    and tf/BM25 (``write_postings``). For the tf layout the doclen side
    table gains the new docs' rows and the manifest's corpus scalars
    (``n_docs``, ``sum_dl`` → avgdl) FOLD with the delta and are
    rewritten LAST — a crash between the data write and the manifest
    rewrite leaves readers scoring with stale corpus scalars, the
    standard non-transactional-append window; rebuild to recover."""
    with open(os.path.join(postings_dir, "_POSTINGS.json")) as f:
        meta = json.load(f)
    id_col = meta["id_col"]
    got = str(ds.schema().base_schema.field(id_col).type)
    if got != meta["id_type"]:
        raise ValueError(
            f"postings_append: {id_col} type {got} != indexed "
            f"{meta['id_type']}"
        )
    if meta.get("positional"):
        _postings_pos_write(
            ds, postings_dir, id_col, text_col, int(meta["n_buckets"])
        )
        return
    d_docs, d_dl = _postings_tf_write(
        ds, postings_dir, id_col, text_col, int(meta["n_buckets"])
    )
    meta["n_docs"] = int(meta["n_docs"]) + d_docs
    meta["sum_dl"] = int(meta["sum_dl"]) + d_dl
    with open(os.path.join(postings_dir, "_POSTINGS.json"), "w") as f:
        json.dump(meta, f)


def postings_phrase(
    postings_dir: str,
    phrase: list[str],
) -> rd.Dataset:
    """EXACT PHRASE search over a ``write_postings_positional`` layout:
    documents containing the terms at consecutive positions, with the
    per-document occurrence count. Reads ONLY the phrase terms' buckets
    (the layout's payoff); each batch re-keys every term-i occurrence
    to its candidate phrase START (``pos − i``) and emits partial
    counts; the combine tree sums per (doc, start), and a start matched
    by ALL positions is one occurrence. Occurrence rows are
    query-result-sized — the corpus never moves."""
    from georay.ops import _group_reduce, tree_sum

    if not phrase:
        raise ValueError("postings_phrase: empty phrase")
    with open(os.path.join(postings_dir, "_POSTINGS.json")) as f:
        meta = json.load(f)
    if not meta.get("positional"):
        raise ValueError(
            "postings_phrase needs a write_postings_positional layout "
            "(this manifest has no positions)"
        )
    n_buckets, id_col = int(meta["n_buckets"]), meta["id_col"]
    uniq = sorted(set(phrase))
    tt = pa.table({"token": pa.array(uniq, pa.string())})
    tb = exchange.bucket_ids(tt, ["token"], n_buckets)
    files = [
        f
        for b in sorted(set(tb.tolist()))
        for f in sorted(
            glob.glob(os.path.join(postings_dir, f"bucket={b}", "*.parquet"))
        )
    ]
    empty = pa.table(
        {id_col: pa.array([], _manifest_id_type(meta)),
         "n_occ": pa.array([], pa.int64())}
    )
    if not files:
        return rd.from_arrow(empty)
    n_terms = len(phrase)

    def starts_partial(batch: pa.Table) -> pa.Table:
        tok = batch["token"]
        doc = batch[id_col].to_numpy(zero_copy_only=False)
        pos = batch["pos"].to_numpy(zero_copy_only=False)
        docs, starts = [], []
        for i, term in enumerate(phrase):
            m = pc.equal(tok, term).to_numpy(zero_copy_only=False)
            docs.append(doc[m])
            starts.append(pos[m] - i)
        d = np.concatenate(docs)
        s = np.concatenate(starts)
        ks, vs = _group_reduce(
            [d, s], {"partial_m": np.ones(d.shape[0], np.int64)}
        )
        return pa.table(
            {
                id_col: pa.array(ks[0]),
                "start": pa.array(ks[1], pa.int64()),
                "partial_m": pa.array(vs["partial_m"], pa.int64()),
            }
        )

    matched = tree_sum(
        rd.read_parquet(files, columns=["token", id_col, "pos"]).map_batches(
            starts_partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        [id_col, "start"], {"partial_m": "m"}, int_cols=("partial_m",),
    ).filter(expr=f"m >= {n_terms}")
    # m == n_terms exactly (each (doc,term,pos) row is unique per i);
    # >= guards nothing but keeps the filter monotone

    def occ_partial(batch: pa.Table) -> pa.Table:
        doc = batch[id_col].to_numpy(zero_copy_only=False)
        ks, vs = _group_reduce(
            [doc], {"partial_o": np.ones(doc.shape[0], np.int64)}
        )
        return pa.table(
            {id_col: pa.array(ks[0]),
             "partial_o": pa.array(vs["partial_o"], pa.int64())}
        )

    return tree_sum(
        matched.map_batches(
            occ_partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        [id_col], {"partial_o": "n_occ"}, int_cols=("partial_o",),
    )


def postings_near(
    postings_dir: str,
    term_a: str,
    term_b: str,
    window: int,
) -> rd.Dataset:
    """PROXIMITY search over a positional postings layout: documents
    where ``term_a`` and ``term_b`` occur within ``window`` tokens,
    with the exact minimum gap — ``(doc, min_gap)``. Reads only the two
    terms' buckets; the occurrence rows (term-bounded, query-sized)
    co-shuffle ONCE by doc hash, and each bucket computes every doc's
    min |posA − posB| fully vectorized: in the merged (doc, pos) sort,
    the minimum cross-term gap is realized by some ADJACENT pair with
    differing sides, so one lexsort + one masked diff finds it."""
    from georay.ops import _group_reduce, tree_sum

    with open(os.path.join(postings_dir, "_POSTINGS.json")) as f:
        meta = json.load(f)
    if not meta.get("positional"):
        raise ValueError("postings_near needs a positional layout")
    n_buckets, id_col = int(meta["n_buckets"]), meta["id_col"]
    if term_a == term_b:
        raise ValueError("postings_near: terms must differ")
    tt = pa.table({"token": pa.array(sorted({term_a, term_b}), pa.string())})
    tb = exchange.bucket_ids(tt, ["token"], n_buckets)
    files = [
        f
        for b in sorted(set(tb.tolist()))
        for f in sorted(
            glob.glob(os.path.join(postings_dir, f"bucket={b}", "*.parquet"))
        )
    ]
    empty = pa.table(
        {id_col: pa.array([], _manifest_id_type(meta)),
         "min_gap": pa.array([], pa.int64())}
    )
    if not files:
        return rd.from_arrow(empty)

    def project(batch: pa.Table) -> pa.Table:
        tok = batch["token"]
        ma = pc.equal(tok, term_a).to_numpy(zero_copy_only=False)
        mb = pc.equal(tok, term_b).to_numpy(zero_copy_only=False)
        keep = ma | mb
        sub = batch.filter(pa.array(keep))
        return pa.table(
            {
                id_col: sub[id_col],
                "pos": sub["pos"],
                "side": pa.array(mb[keep].astype(np.int8)),
            }
        )

    occ = rd.read_parquet(files, columns=["token", id_col, "pos"]).map_batches(
        project, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )

    def min_gap(group: pa.Table) -> pa.Table:
        doc = group[id_col].to_numpy(zero_copy_only=False)
        pos = group["pos"].to_numpy(zero_copy_only=False).astype(np.int64)
        side = group["side"].to_numpy(zero_copy_only=False)
        order = np.lexsort((pos, doc))
        d, p, s = doc[order], pos[order], side[order]
        if d.shape[0] < 2:
            return pa.table(
                {id_col: pa.array([], pa.int64()),
                 "min_gap": pa.array([], pa.int64())}
            )
        adj = (d[1:] == d[:-1]) & (s[1:] != s[:-1])
        gaps = p[1:] - p[:-1]
        kd, kg = d[1:][adj], gaps[adj]
        if kd.shape[0] == 0:
            return pa.table(
                {id_col: pa.array([], pa.int64()),
                 "min_gap": pa.array([], pa.int64())}
            )
        (gd,), outs = _group_reduce([kd], {"g": kg}, ufunc=np.minimum)
        keep = outs["g"] <= window
        return pa.table(
            {id_col: pa.array(gd[keep], pa.int64()),
             "min_gap": pa.array(outs["g"][keep], pa.int64())}
        )

    return co_shuffle(occ, id_col, min_gap, n_buckets=n_buckets, coalesce=False)


def postings_search(
    postings_dir: str,
    terms: list[str],
    mode: str = "and",
) -> rd.Dataset:
    """Term search over a ``write_postings`` layout, reading ONLY the
    buckets the query terms hash to (bucket-pruned scan — the layout's
    payoff). ``mode="and"``: documents containing EVERY term (distinct
    (doc, term) postings counted per doc, kept when the count equals
    |set(terms)|); ``"or"``: documents containing any. Within each
    pruned bucket the filter + partial runs vectorized; partials merge
    through the combine tree — the corpus itself is never touched.
    Bucket count and id column come from the layout's own
    ``_POSTINGS.json`` manifest (a mismatched reader would silently
    miss terms)."""
    from georay.ops import _group_reduce, tree_sum

    if mode not in ("and", "or"):
        raise ValueError(f"mode must be and|or, got {mode!r}")
    with open(os.path.join(postings_dir, "_POSTINGS.json")) as f:
        meta = json.load(f)
    n_buckets, id_col = int(meta["n_buckets"]), meta["id_col"]
    uniq_terms = sorted(set(terms))
    tt = pa.table({"token": pa.array(uniq_terms, pa.string())})
    tb = exchange.bucket_ids(tt, ["token"], n_buckets)
    files = [
        f
        for b in sorted(set(tb.tolist()))
        for f in sorted(
            glob.glob(os.path.join(postings_dir, f"bucket={b}", "*.parquet"))
        )
    ]
    need = len(uniq_terms)

    if not files:
        return rd.from_arrow(
            pa.table({id_col: pa.array([], _manifest_id_type(meta))})
        )

    scan = rd.read_parquet(files, columns=["token", id_col])

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(batch["token"], value_set=pa.array(uniq_terms))
        sub = batch.filter(keep)
        doc = sub[id_col].to_numpy(zero_copy_only=False)
        ks, vs = _group_reduce([doc], {"partial_t": np.ones(len(sub), np.int64)})
        return pa.table(
            {id_col: pa.array(ks[0]), "partial_t": pa.array(vs["partial_t"])}
        )

    totals = tree_sum(
        scan.map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        [id_col], {"partial_t": "n_terms"}, int_cols=("partial_t",),
    )

    def finish(batch: pa.Table) -> pa.Table:
        if mode == "and":
            batch = batch.filter(pc.equal(batch["n_terms"], need))
        return batch.select([id_col])

    return totals.map_batches(
        finish, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def _manifest_id_type(meta: dict) -> pa.DataType:
    """Typed empty results for a postings layout with no bucket files
    (empty corpus): the id dtype comes from the manifest, not from a
    partition that may not exist."""
    name = meta.get("id_type", "int64")
    return {
        "int64": pa.int64(), "int32": pa.int32(),
        "string": pa.string(), "large_string": pa.large_string(),
    }.get(name, pa.int64())


def postings_bm25(
    postings_dir: str,
    query_terms: list[str],
    k: int = 10,
    k1: float = 1.2,
    b: float = 0.75,
) -> rd.Dataset:
    """BM25 top-k over a ``write_postings`` layout — the ranked twin of
    ``postings_search`` and the INDEX path of ``stages.text.bm25_topk``
    (same rational Robertson idf, same constants, same float operation
    order), so both paths hash-match the same SQL oracle bit-for-bit.

    Scale shape: the query terms' ≤|terms| buckets are the only index
    partitions read (df per term = that bucket's posting count — the
    postings are distinct (doc, token)); corpus N and Σdl come from the
    manifest; the candidate rows (docs containing ≥1 term — the only
    rows that can score > 0) co-shuffle ONCE by doc-hash bucket to pick
    up their dl from the doclen partitions written alongside. Cost is
    per-term postings volume, never per-corpus."""
    from georay.ops import _group_reduce, top_k

    with open(os.path.join(postings_dir, "_POSTINGS.json")) as f:
        meta = json.load(f)
    n_buckets, id_col = int(meta["n_buckets"]), meta["id_col"]
    n_docs, sum_dl = int(meta["n_docs"]), int(meta["sum_dl"])
    if n_docs == 0:
        return rd.from_arrow(
            pa.table({id_col: pa.array([], _manifest_id_type(meta)),
                      "score": pa.array([], pa.float64())})
        )
    if len(set(query_terms)) != len(query_terms):
        # bm25_topk would double-count a duplicated term; index_in maps
        # to the first code, so the paths would silently diverge
        raise ValueError("postings_bm25 requires distinct query terms")
    terms = pa.array(list(query_terms), pa.string())
    n_terms = len(query_terms)
    tt = pa.table({"token": pa.array(sorted(set(query_terms)), pa.string())})
    tb = exchange.bucket_ids(tt, ["token"], n_buckets)
    files = [
        f
        for bkt in sorted(set(tb.tolist()))
        for f in sorted(
            glob.glob(os.path.join(postings_dir, f"bucket={bkt}", "*.parquet"))
        )
    ]

    if not files:
        return rd.from_arrow(
            pa.table({id_col: pa.array([], _manifest_id_type(meta)),
                      "score": pa.array([], pa.float64())})
        )

    def cand(batch: pa.Table) -> pa.Table:
        code = pc.fill_null(pc.index_in(batch["token"], value_set=terms), -1)
        sub = batch.append_column("code", code.cast(pa.int64()))
        sub = sub.filter(pc.greater_equal(sub["code"], 0))
        out = pa.table(
            {id_col: sub[id_col], "code": sub["code"], "tf": sub["tf"]}
        )
        return out.append_column(
            "_dbucket", pa.array(exchange.bucket_ids(out, [id_col], n_buckets))
        )

    scan = rd.read_parquet(files, columns=["token", id_col, "tf"]).map_batches(
        cand, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).materialize()  # two consumers: df partials + the scoring shuffle

    def df_partial(batch: pa.Table) -> pa.Table:
        c = batch["code"].to_numpy(zero_copy_only=False)
        ks, vs = _group_reduce([c], {"partial_d": np.ones(len(batch), np.int64)})
        return pa.table(
            {"code": pa.array(ks[0]), "partial_d": pa.array(vs["partial_d"])}
        )

    from georay.ops import tree_sum

    df_rows = tree_sum(
        scan.map_batches(
            df_partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["code"], {"partial_d": "df"}, int_cols=("partial_d",),
    ).take_all()
    df = np.zeros(n_terms, np.int64)
    for r in df_rows:
        df[int(r["code"])] = int(r["df"])
    avgdl = float(sum_dl) / float(n_docs)
    idf = np.array(
        [
            (float(n_docs - int(df[t])) + 0.5) / (float(int(df[t])) + 0.5)
            for t in range(n_terms)
        ]
    )
    k1 = float(k1)
    one_minus_b = 1.0 - float(b)
    bb = float(b)
    k1p1 = k1 + 1.0
    dl_dir = os.path.join(postings_dir, "doclen")

    def score_bucket(group: pa.Table) -> pa.Table:
        if len(group) == 0:
            return pa.table(
                {id_col: group[id_col],
                 "score": pa.array([], pa.float64())}
            )
        bkt = int(group["_dbucket"][0].as_py())
        dl_files = sorted(
            glob.glob(os.path.join(dl_dir, f"bucket={bkt}", "*.parquet"))
        )
        dlt = pq.read_table(dl_files, columns=[id_col, "dl"])
        # attach dl via Arrow hash join (candidates ⊆ doclen by
        # construction; both sides bucketed with the same hash)
        g = group.select([id_col, "code", "tf"]).join(
            dlt, keys=[id_col], join_type="inner"
        )
        doc = g[id_col].to_numpy(zero_copy_only=False)
        code = g["code"].to_numpy(zero_copy_only=False)
        tf = g["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        dl = g["dl"].to_numpy(zero_copy_only=False).astype(np.float64)
        # per-doc accumulation in TERM ORDER (bm25_topk adds terms
        # t=0..T-1; absent terms add exactly 0.0, so summing present
        # contributions in code order is bit-identical)
        order = np.lexsort((code, doc))
        doc, code, tf, dl = doc[order], code[order], tf[order], dl[order]
        rat = dl / avgdl
        denom = tf + k1 * (one_minus_b + bb * rat)
        contrib = (idf[code] * (tf * k1p1)) / denom
        n = doc.shape[0]
        first = np.zeros(n, dtype=bool)
        if n:
            first[0] = True
            first[1:] = doc[1:] != doc[:-1]
        starts = np.flatnonzero(first)
        seg = np.cumsum(first) - 1
        # accumulate per doc in TERM ORDER with one scalar add per
        # (doc, term) — np.add.reduceat sums segments PAIRWISE, which
        # is 1 ulp off bm25_topk's sequential s = s + contrib_t loop
        s = np.zeros(starts.shape[0], np.float64)
        for t in range(n_terms):
            sel = code == t
            s[seg[sel]] += contrib[sel]
        return pa.table(
            {id_col: pa.array(doc[starts]), "score": pa.array(s, pa.float64())}
        )

    scored = co_shuffle(scan, "_dbucket", score_bucket, coalesce=False)
    return top_k(scored, ["score", id_col], k, descending=[True, False])


def _bloom_positions(x: np.ndarray, bits: int, k: int) -> np.ndarray:
    """(n, k) bit positions via double hashing: pos_i = (h1 + i·h2) mod
    bits with two mix64 streams — the standard Kirsch–Mitzenmacher
    construction, deterministic across build and probe."""
    from georay.ops import _mix64

    u = x.astype(np.uint64)
    h1 = _mix64(u.copy())
    h2 = _mix64(u ^ np.uint64(0x9E3779B97F4A7C15))
    i = np.arange(k, dtype=np.uint64)
    return ((h1[:, None] + i[None, :] * h2[:, None])
            % np.uint64(bits)).astype(np.int64)


def write_sorted(
    ds: rd.Dataset,
    out_dir: str,
    key: str,
    n_ranges: int = 16,
    key_to_int=None,
    bloom_col: str | None = None,
    bloom_bits: int = 1 << 14,
    bloom_k: int = 4,
    bounds: tuple[int, int] | None = None,
    zone_col: str | None = None,
) -> dict:
    """Range-clustered table layout with ZONE MAPS: rows land in one
    parquet directory per key range (equi-width splits over the global
    [min, max] — swap in quantile splits for heavy skew), and a
    manifest records each range's exact (min, max). A later range scan
    (``read_range``) opens ONLY overlapping partitions — the file-skip
    pruning every warehouse gets from clustering, here as a first-class
    layout. ``key_to_int`` maps the key column to int64 (default: cast;
    pass e.g. a timestamp→µs view for datetime keys).

    ``bloom_col`` additionally builds a per-partition BLOOM FILTER
    sidecar over that (int64) column — the data-skipping index for
    point lookups on a column the layout is NOT clustered by (range
    zones can't prune an unordered id). Build stays distributed: each
    batch emits its distinct ``(partition, bit position)`` pairs
    (``bloom_k`` double-hashed positions per value), the pair table
    dedups through the combine tree, and only the bounded
    ``n_ranges × bloom_bits`` bitset reaches the driver/manifest. The
    bloom pass re-executes the input pipeline pruned to two columns —
    streaming-safe; pay it only when lookups will follow. Probe with
    ``read_bloom_lookup``.

    ``zone_col`` builds a SECONDARY ZONE MAP sidecar — per-partition
    exact (min, max) of that (int64-castable) column, the data-skipping
    index for RANGE predicates on a column the layout is not clustered
    by. It prunes exactly as well as the column CORRELATES with the
    sort key (a time-sorted table prunes id ranges perfectly when ids
    are assigned in time order; an uncorrelated column degrades to a
    full scan — the sidecar is honest either way). Probe with
    ``read_range_secondary``.

    Plan: one streaming min/max pass (combine tree of one row per
    batch), split points broadcast into the partition-id map, one
    partitioned write. Returns the manifest dict (also persisted as
    ``_zonemap.json``)."""
    import json

    from georay.ops import tree_reduce, tree_sum

    to_int = key_to_int or (
        lambda col: col.cast(pa.int64()).to_numpy(zero_copy_only=False)
    )

    def mm_partial(batch: pa.Table) -> pa.Table:
        v = to_int(batch[key])
        if v.shape[0] == 0:
            return pa.table(
                {"one": pa.array([], pa.int64()),
                 "partial_lo": pa.array([], pa.int64()),
                 "partial_hi": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "one": pa.array([1], pa.int64()),
                "partial_lo": pa.array([int(v.min())], pa.int64()),
                "partial_hi": pa.array([int(v.max())], pa.int64()),
            }
        )

    if bounds is not None:
        # caller-aligned splits (co-clustering two tables for the
        # shuffle-free sorted_merge_join); rows outside clamp into the
        # edge ranges
        lo, hi = int(bounds[0]), int(bounds[1])
    else:
        mm = tree_reduce(
            ds.map_batches(
                mm_partial, batch_format="pyarrow", zero_copy_batch=True,
                batch_size=None,
            ),
            ["one"], {"partial_lo": "lo", "partial_hi": "hi"},
            ufunc={"partial_lo": np.minimum, "partial_hi": np.maximum},
        ).to_pandas()
        if len(mm) == 0:
            raise ValueError("write_sorted: empty input")
        lo, hi = int(mm["lo"].iloc[0]), int(mm["hi"].iloc[0])
    width = max(1, (hi - lo + n_ranges) // n_ranges)

    def add_range(batch: pa.Table) -> pa.Table:
        v = to_int(batch[key])
        rid = np.clip((v - lo) // width, 0, n_ranges - 1)
        return batch.append_column("krange", pa.array(rid, pa.int64()))

    out = ds.map_batches(
        add_range, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    )
    os.makedirs(out_dir, exist_ok=True)
    out.write_parquet(out_dir, partition_cols=["krange"])
    manifest = {
        "key": key, "lo": lo, "hi": hi, "width": width,
        "n_ranges": n_ranges,
        # merge_sorted_layouts recomputes partition ids from the key —
        # it can only do that under the DEFAULT int64 cast, so record
        # when a custom mapping was used (merge then requires the same
        # callable to be passed back in)
        "custom_key_to_int": key_to_int is not None,
    }
    if bloom_col is not None:
        def bloom_pairs(batch: pa.Table) -> pa.Table:
            v = to_int(batch[key])
            rid = np.clip((v - lo) // width, 0, n_ranges - 1)
            x = (batch[bloom_col].cast(pa.int64())
                 .to_numpy(zero_copy_only=False))
            pos = _bloom_positions(x, bloom_bits, bloom_k)
            flat = (np.repeat(rid, bloom_k).astype(np.int64) * bloom_bits
                    + pos.ravel())
            flat = np.unique(flat)
            return pa.table(
                {
                    "rp": pa.array(flat, pa.int64()),
                    "partial_one": pa.array(
                        np.ones(flat.shape[0], np.int64)
                    ),
                }
            )

        pairs = tree_sum(
            ds.select_columns([key, bloom_col]).map_batches(
                bloom_pairs, batch_format="pyarrow", zero_copy_batch=True,
                batch_size=None,
            ),
            "rp", {"partial_one": "n"}, int_cols=("partial_one",),
        )
        rp = exchange.collect(pairs)["rp"].to_numpy(zero_copy_only=False)
        bitmaps = {}
        for r in range(n_ranges):
            sel = rp[(rp >= r * bloom_bits) & (rp < (r + 1) * bloom_bits)]
            bs = np.zeros(bloom_bits // 8, dtype=np.uint8)
            if sel.shape[0]:
                local = sel - r * bloom_bits
                np.bitwise_or.at(
                    bs, local // 8, (1 << (local % 8)).astype(np.uint8)
                )
            bitmaps[str(r)] = bs.tobytes().hex()
        manifest["bloom"] = {
            "col": bloom_col, "bits": bloom_bits, "k": bloom_k,
            "bitmaps": bitmaps,
        }
    if zone_col is not None:
        from georay.ops import _group_reduce as _zp_group_reduce

        def zone_partial(batch: pa.Table) -> pa.Table:
            v = to_int(batch[key])
            rid = np.clip((v - lo) // width, 0, n_ranges - 1)
            z = (batch[zone_col].cast(pa.int64())
                 .to_numpy(zero_copy_only=False))
            (gr,), outs = _zp_group_reduce(
                [rid], {"zlo": z, "zhi": z},
                ufunc={"zlo": np.minimum, "zhi": np.maximum},
            )
            return pa.table(
                {
                    "rid": pa.array(gr, pa.int64()),
                    "partial_zlo": pa.array(outs["zlo"], pa.int64()),
                    "partial_zhi": pa.array(outs["zhi"], pa.int64()),
                }
            )

        zt = tree_reduce(
            ds.select_columns([key, zone_col]).map_batches(
                zone_partial, batch_format="pyarrow", zero_copy_batch=True,
                batch_size=None,
            ),
            ["rid"], {"partial_zlo": "zlo", "partial_zhi": "zhi"},
            ufunc={"partial_zlo": np.minimum, "partial_zhi": np.maximum},
        ).to_pandas()
        manifest["zones"] = {
            "col": zone_col,
            "ranges": {
                str(int(r)): [int(a), int(b)]
                for r, a, b in zip(zt["rid"], zt["zlo"], zt["zhi"])
            },
        }
    with open(os.path.join(out_dir, "_zonemap.json"), "w") as f:
        json.dump(manifest, f)
    return manifest


def read_range_secondary(
    out_dir: str,
    lo: int,
    hi: int,
    columns: list[str] | None = None,
) -> tuple[rd.Dataset, int, int]:
    """Range scan on the SECONDARY zone-mapped column of a
    ``write_sorted(..., zone_col=...)`` layout: opens only partitions
    whose secondary (min, max) overlaps the CLOSED ``[lo, hi]``, with
    an exact residual filter. Returns ``(ds, n_opened, n_total)``."""
    import glob as _glob
    import json

    with open(os.path.join(out_dir, "_zonemap.json")) as f:
        m = json.load(f)
    z = m.get("zones")
    if z is None:
        raise ValueError("read_range_secondary: layout has no secondary "
                         "zone map (write_sorted(..., zone_col=...))")
    all_dirs = sorted(_glob.glob(os.path.join(out_dir, "krange=*")))
    n_total = len(all_dirs)
    hit = []
    for d in all_dirs:
        r = str(int(d.rsplit("=", 1)[1]))
        zr = z["ranges"].get(r)
        if zr is not None and zr[0] <= hi and zr[1] >= lo:
            hit.append(d)
    files = sorted(
        f for d in hit for f in _glob.glob(os.path.join(d, "*.parquet"))
    )
    col = z["col"]
    if not files:
        if not all_dirs:
            raise ValueError("read_range_secondary: empty layout")
        empty = rd.read_parquet(
            sorted(_glob.glob(os.path.join(all_dirs[0], "*.parquet"))),
            columns=columns,
        ).limit(0)
        return empty, 0, n_total
    ds = rd.read_parquet(files, columns=columns)

    def exact(batch: pa.Table) -> pa.Table:
        v = batch[col].cast(pa.int64())
        keep = pc.and_(pc.greater_equal(v, lo), pc.less_equal(v, hi))
        return batch.filter(keep)

    return (
        ds.map_batches(
            exact, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        len(hit),
        n_total,
    )


def read_range(
    out_dir: str,
    lo: int,
    hi: int,
    columns: list[str] | None = None,
) -> tuple[rd.Dataset, int, int]:
    """Range scan over a ``write_sorted`` layout: opens ONLY the
    partitions whose zone [min, max) overlaps ``[lo, hi)`` — I/O scales
    with the selected range, not the table. Returns
    ``(dataset, n_opened, n_total)`` so callers (and tests) can assert
    the prune; rows still pass a residual exact filter (zone bounds are
    coarse)."""
    import glob as _glob
    import json

    with open(os.path.join(out_dir, "_zonemap.json")) as f:
        m = json.load(f)
    width, base = m["width"], m["lo"]
    first = max(0, (lo - base) // width)
    last = min(m["n_ranges"] - 1, (hi - 1 - base) // width)
    dirs = [
        d
        for d in sorted(_glob.glob(os.path.join(out_dir, "krange=*")))
        if first <= int(d.rsplit("=", 1)[1]) <= last
    ]
    n_total = len(_glob.glob(os.path.join(out_dir, "krange=*")))
    files = sorted(
        f for d in dirs for f in _glob.glob(os.path.join(d, "*.parquet"))
    )
    ds = rd.read_parquet(files, columns=columns)
    return ds, len(dirs), n_total


def merge_sorted_layouts(
    in_dirs: list[str],
    out_dir: str,
    key_to_int=None,
) -> dict:
    """LSM-style COMPACTION of range-clustered layouts: union N
    ``write_sorted`` runs with IDENTICAL split geometry (same key, lo,
    hi, width, n_ranges — align with ``write_sorted(bounds=...)``, the
    ``merge_join_layout`` convention; misalignment raises) into ONE
    layout. Rows already carry their ``krange`` hive partition, so the
    merge is one streaming read → partitioned write with NO range
    recompute and no shuffle; readers (``read_range`` /
    ``read_bloom_lookup`` / ``read_range_secondary``) work on the
    result unchanged. Sidecars merge algebraically: bloom bitsets OR
    (same col/bits/k required), secondary zone (min, max) fold
    elementwise; a sidecar missing from ANY input is dropped from the
    output (pruning stays honest). Layouts written with a custom
    ``key_to_int`` REQUIRE the same callable here (the manifest records
    the fact but cannot serialize the function; recomputing partition
    ids with the default cast would silently misplace rows) — omitting
    it raises. Returns the merged manifest."""
    import glob as _glob
    import json

    if len(in_dirs) < 2:
        raise ValueError("merge_sorted_layouts: need >= 2 input layouts")
    manifests = []
    for d in in_dirs:
        with open(os.path.join(d, "_zonemap.json")) as f:
            manifests.append(json.load(f))
    m0 = manifests[0]
    for m in manifests[1:]:
        if any(m[k] != m0[k] for k in ("key", "lo", "hi", "width",
                                       "n_ranges")):
            raise ValueError(
                "merge_sorted_layouts: split geometry differs — rebuild "
                "with write_sorted(bounds=...) to align"
            )
    if any(m.get("custom_key_to_int") for m in manifests) and (
            key_to_int is None):
        raise ValueError(
            "merge_sorted_layouts: inputs were written with a custom "
            "key_to_int — pass the same callable (the default int64 "
            "cast would misplace rows)"
        )

    files = sorted(
        f
        for d in in_dirs
        for f in _glob.glob(os.path.join(d, "krange=*", "*.parquet"))
    )
    union = rd.read_parquet(files)
    key, lo, width = m0["key"], int(m0["lo"]), int(m0["width"])
    n_ranges = int(m0["n_ranges"])

    def add_range(batch: pa.Table) -> pa.Table:
        # the partition id is a pure function of the key under the
        # shared geometry — recomputing it per batch avoids relying on
        # hive-column round-trips (keys must be int64-castable, the
        # write_sorted default)
        if "krange" in batch.column_names:  # hive column, string-typed
            batch = batch.drop_columns(["krange"])
        to_int = key_to_int or (
            lambda col: col.cast(pa.int64()).to_numpy(zero_copy_only=False)
        )
        v = to_int(batch[key])
        rid = np.clip((v - lo) // width, 0, n_ranges - 1)
        return batch.append_column("krange", pa.array(rid, pa.int64()))

    os.makedirs(out_dir, exist_ok=True)
    union.map_batches(
        add_range, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    ).write_parquet(out_dir, partition_cols=["krange"])

    merged = {k: m0[k] for k in ("key", "lo", "hi", "width", "n_ranges")}
    blooms = [m.get("bloom") for m in manifests]
    if all(b is not None for b in blooms) and all(
        (b["col"], b["bits"], b["k"])
        == (blooms[0]["col"], blooms[0]["bits"], blooms[0]["k"])
        for b in blooms
    ):
        bitmaps = {}
        for r in range(m0["n_ranges"]):
            acc = np.zeros(blooms[0]["bits"] // 8, np.uint8)
            for b in blooms:
                hx = b["bitmaps"].get(str(r))
                if hx:
                    acc |= np.frombuffer(bytes.fromhex(hx), np.uint8)
            bitmaps[str(r)] = acc.tobytes().hex()
        merged["bloom"] = {
            "col": blooms[0]["col"], "bits": blooms[0]["bits"],
            "k": blooms[0]["k"], "bitmaps": bitmaps,
        }
    zones = [m.get("zones") for m in manifests]
    if all(z is not None for z in zones) and all(
        z["col"] == zones[0]["col"] for z in zones
    ):
        ranges: dict = {}
        for z in zones:
            for r, (a, b) in z["ranges"].items():
                if r in ranges:
                    ranges[r] = [min(ranges[r][0], a), max(ranges[r][1], b)]
                else:
                    ranges[r] = [a, b]
        merged["zones"] = {"col": zones[0]["col"], "ranges": ranges}
    with open(os.path.join(out_dir, "_zonemap.json"), "w") as f:
        json.dump(merged, f)
    return merged


def write_versioned(out_dir: str, ds: rd.Dataset, key: str) -> int:
    """Versioned table layout, version 1 (the time-travel/merge-on-read
    pattern): rows land under ``v=1/`` stamped with ``_version`` and a
    ``_deleted`` flag (0). Later ``append_version`` deltas upsert or
    tombstone by ``key``; ``read_version(n)`` reconstructs any historic
    snapshot by latest-version-wins per key — no rewrite of old data,
    ever (the append-only contract object stores want). Keys must be
    unique WITHIN a version (ties across versions resolve by version)."""
    import json

    os.makedirs(out_dir, exist_ok=True)
    _write_version_dir(out_dir, ds, 1)
    with open(os.path.join(out_dir, "_versions.json"), "w") as f:
        json.dump({"key": key, "latest": 1}, f)
    return 1


def _write_version_dir(out_dir: str, ds: rd.Dataset, v: int) -> None:
    def stamp(batch: pa.Table) -> pa.Table:
        if "_deleted" not in batch.column_names:
            batch = batch.append_column(
                "_deleted", pa.array(np.zeros(len(batch), np.int64))
            )
        return batch.append_column(
            "_version", pa.array(np.full(len(batch), v, np.int64))
        )

    ds.map_batches(
        stamp, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).write_parquet(os.path.join(out_dir, f"v={v}"))


def append_version(out_dir: str, delta: rd.Dataset) -> int:
    """Append the next version to a ``write_versioned`` layout: rows
    upsert by key; rows carrying ``_deleted = 1`` tombstone their key.
    Only the delta is written — historic versions are immutable."""
    import json

    with open(os.path.join(out_dir, "_versions.json")) as f:
        man = json.load(f)
    v = int(man["latest"]) + 1
    _write_version_dir(out_dir, delta, v)
    man["latest"] = v
    tmp = os.path.join(out_dir, "_versions.json.tmp")
    with open(tmp, "w") as f:
        json.dump(man, f)
    os.replace(tmp, os.path.join(out_dir, "_versions.json"))
    return v


def compact_versions(out_dir: str) -> int:
    """Compact a ``write_versioned`` layout: materialize the CURRENT
    snapshot as a new full base version, so later reads start from it
    instead of replaying the whole delta chain (merge-on-read cost is
    reset to zero) and ``vacuum_versions`` may expire the old chain.
    Historic versions stay readable until vacuumed. Returns the new
    base version number."""
    import json

    with open(os.path.join(out_dir, "_versions.json")) as f:
        man = json.load(f)
    v = int(man["latest"]) + 1
    snap = read_version(out_dir)
    _write_version_dir(out_dir, snap, v)
    man["latest"] = v
    man["bases"] = sorted(set(man.get("bases", [1])) | {v})
    tmp = os.path.join(out_dir, "_versions.json.tmp")
    with open(tmp, "w") as f:
        json.dump(man, f)
    os.replace(tmp, os.path.join(out_dir, "_versions.json"))
    return v


def vacuum_versions(out_dir: str) -> int:
    """Expire every version directory BEFORE the newest compacted base
    — they are no longer needed to reconstruct any version ≥ that base.
    Time travel to expired versions becomes unavailable (raises on
    read); that is the retention trade every lakehouse vacuum makes.
    Returns the number of directories removed."""
    import glob as _glob
    import json
    import shutil

    with open(os.path.join(out_dir, "_versions.json")) as f:
        man = json.load(f)
    bases = man.get("bases", [1])
    keep_from = max(bases)
    removed = 0
    for d in _glob.glob(os.path.join(out_dir, "v=*")):
        if int(d.rsplit("=", 1)[1]) < keep_from:
            shutil.rmtree(d)
            removed += 1
    man["expired_before"] = keep_from
    tmp = os.path.join(out_dir, "_versions.json.tmp")
    with open(tmp, "w") as f:
        json.dump(man, f)
    os.replace(tmp, os.path.join(out_dir, "_versions.json"))
    return removed


def read_version(
    out_dir: str,
    version: int | None = None,
    columns: list[str] | None = None,
) -> rd.Dataset:
    """Time-travel read of a ``write_versioned`` layout: the table AS
    OF ``version`` (default latest). Merge-on-read: versions ≤ v union
    (pruned read), ONE key-bucket co-shuffle keeps each key's highest
    version (``group_top_k`` k=1 — map-side prune ships ≤ 1 row per key
    per batch), tombstones drop. History costs one extra small column
    per row, not a rewrite."""
    import glob as _glob
    import json

    from georay import ops as _ops

    with open(os.path.join(out_dir, "_versions.json")) as f:
        man = json.load(f)
    v = int(man["latest"]) if version is None else int(version)
    key = man["key"]
    if v < int(man.get("expired_before", 1)):
        raise ValueError(
            f"read_version: version {v} was expired by vacuum_versions "
            f"(retained from {man['expired_before']})"
        )
    # start from the newest compacted base ≤ v: the chain before it is
    # already folded in
    start = max((b for b in man.get("bases", [1]) if b <= v), default=1)
    files = sorted(
        f
        for i in range(start, v + 1)
        for f in _glob.glob(os.path.join(out_dir, f"v={i}", "*.parquet"))
    )
    read_cols = None
    if columns is not None:
        read_cols = list(dict.fromkeys(
            columns + [key, "_version", "_deleted"]
        ))
    ds = rd.read_parquet(files, columns=read_cols)
    latest = _ops.group_top_k(ds, key, ["_version"], 1, descending=True)

    def finish(batch: pa.Table) -> pa.Table:
        live = batch.filter(pc.equal(batch["_deleted"], 0))
        keep = columns if columns is not None else [
            c for c in live.column_names if c not in ("_version", "_deleted")
        ]
        return live.select(keep)

    return latest.map_batches(
        finish, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    )


def sorted_merge_join(
    dir_a: str,
    dir_b: str,
    on: str,
    columns_a: list[str] | None = None,
    columns_b: list[str] | None = None,
) -> rd.Dataset:
    """SHUFFLE-FREE equality join of two CO-CLUSTERED ``write_sorted``
    layouts: both tables were written with the SAME splits
    (``write_sorted(..., bounds=(lo, hi), n_ranges=N)``), so equal keys
    live in the same ``krange`` partition on both sides and each
    aligned partition pair joins LOCALLY in its own task (one pruned
    read per side + one Arrow hash join per pair) — nothing moves
    between partitions at query time. The range-clustered complement to
    ``bucketed_join``: pay the clustering once at write, join for free
    forever after, and keep zone-map range pruning on the same key.

    Inner join; partition pairs where either side is absent produce no
    rows and are skipped at plan time. Raises if the manifests'
    (lo, width, n_ranges) disagree — a misaligned join would silently
    drop matches."""
    import glob as _glob
    import json

    import pyarrow.parquet as _pq

    mans = []
    for d in (dir_a, dir_b):
        with open(os.path.join(d, "_zonemap.json")) as f:
            mans.append(json.load(f))
    ma, mb = mans
    for fld in ("lo", "width", "n_ranges"):
        if ma[fld] != mb[fld]:
            raise ValueError(
                f"sorted_merge_join: layouts disagree on {fld} "
                f"({ma[fld]} vs {mb[fld]}) — rewrite with shared "
                "bounds=(lo, hi) and n_ranges"
            )

    def files_of(d: str, r: int) -> list[str]:
        return sorted(_glob.glob(os.path.join(d, f"krange={r}", "*.parquet")))

    pairs = []
    for r in range(int(ma["n_ranges"])):
        fa, fb = files_of(dir_a, r), files_of(dir_b, r)
        if fa and fb:
            pairs.append({"fa": fa, "fb": fb})

    def read_side(files: list[str], cols: list[str] | None) -> pa.Table:
        want = None
        if cols is not None:
            want = list(dict.fromkeys(cols + [on]))
        return pa.concat_tables(
            _pq.read_table(f, columns=want) for f in files
        )

    if not pairs:
        any_a = files_of(dir_a, 0) or [
            f for r in range(int(ma["n_ranges"])) for f in files_of(dir_a, r)
        ][:1]
        any_b = files_of(dir_b, 0) or [
            f for r in range(int(mb["n_ranges"])) for f in files_of(dir_b, r)
        ][:1]
        if not any_a or not any_b:
            raise ValueError("sorted_merge_join: empty layout")
        ea = read_side(any_a[:1], columns_a).slice(0, 0)
        eb = read_side(any_b[:1], columns_b).slice(0, 0)
        return rd.from_arrow(ea.join(eb, keys=on, join_type="inner"))

    def join_pair(batch: pa.Table) -> pa.Table:
        out = []
        for row in batch.to_pylist():
            ta = read_side(row["fa"], columns_a)
            tb = read_side(row["fb"], columns_b)
            out.append(ta.join(tb, keys=on, join_type="inner"))
        return pa.concat_tables(out)

    items = rd.from_items(pairs, override_num_blocks=len(pairs))
    return items.map_batches(
        join_pair, batch_format="pyarrow", batch_size=1,
    )


def _morton2d(ix: np.ndarray, iy: np.ndarray, bits: int) -> np.ndarray:
    """MSB-compatible Morton interleave of two ``bits``-bit axes
    (lon bits odd positions, lat even — the geohash convention,
    georay/cells.py:389)."""
    v = np.zeros(ix.shape, dtype=np.int64)
    for b in range(bits):
        v |= ((ix >> b) & 1) << (2 * b + 1)
        v |= ((iy >> b) & 1) << (2 * b)
    return v


def write_zorder(
    ds: rd.Dataset,
    out_dir: str,
    lon_col: str,
    lat_col: str,
    bits: int = 8,
    n_ranges: int = 16,
) -> dict:
    """Z-ORDER clustered layout: rows are clustered by the Morton
    interleave of their quantized (lon, lat) — the space-filling-curve
    trick that lets ONE sort key serve TWO range dimensions, so a 2D
    rect scan (``read_rect_zorder``) prunes partitions the way a 1D
    range scan prunes ``write_sorted``. Build: one pass adds the
    ``_z`` key (2^bits × 2^bits global grid, same floor-scale/clip
    arithmetic as the geohash codec), then delegates partitioning +
    zone maps to ``write_sorted``. The manifest carries the curve
    parameters for the reader."""
    import json

    scale = np.int64(1) << np.int64(bits)

    def add_z(batch: pa.Table) -> pa.Table:
        lon = batch[lon_col].to_numpy(zero_copy_only=False)
        lat = batch[lat_col].to_numpy(zero_copy_only=False)
        ix = np.clip(
            np.floor((lon + 180.0) / 360.0 * scale).astype(np.int64),
            0, scale - 1,
        )
        iy = np.clip(
            np.floor((lat + 90.0) / 180.0 * scale).astype(np.int64),
            0, scale - 1,
        )
        return batch.append_column(
            "_z", pa.array(_morton2d(ix, iy, bits), pa.int64())
        )

    zds = ds.map_batches(
        add_z, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    manifest = write_sorted(zds, out_dir, "_z", n_ranges=n_ranges)
    manifest.update({"zorder": {"bits": bits, "lon_col": lon_col,
                                "lat_col": lat_col}})
    with open(os.path.join(out_dir, "_zonemap.json"), "w") as f:
        json.dump(manifest, f)
    return manifest


def read_rect_zorder(
    out_dir: str,
    lon_lo: float,
    lon_hi: float,
    lat_lo: float,
    lat_hi: float,
    columns: list[str] | None = None,
) -> tuple[rd.Dataset, int, int]:
    """2D rect scan over a ``write_zorder`` layout: enumerates the
    Morton codes of the grid cells covering the rect (≤ 4^bits, tiny
    for real rects), maps them through the zone manifest to the
    partitions that could hold them, opens ONLY those, and applies the
    exact ``[lo, hi)`` residual filter on both axes. I/O scales with
    the rect's curve coverage, not the table — the 2D analogue of
    ``read_range``. ``lon_lo > lon_hi`` means the rect CROSSES THE
    ANTIMERIDIAN (the GeoJSON bbox convention): the cover splits into
    two lon spans and the residual becomes ``lon >= lo OR lon < hi``.
    An inverted LATITUDE range is genuinely empty (no wrap over the
    poles). Returns ``(dataset, n_opened, n_total)``."""
    import glob as _glob
    import json

    with open(os.path.join(out_dir, "_zonemap.json")) as f:
        m = json.load(f)
    z = m.get("zorder")
    if z is None:
        raise ValueError("read_rect_zorder: layout has no zorder manifest "
                         "(write_zorder)")
    bits = int(z["bits"])
    scale = np.int64(1) << np.int64(bits)

    def cell_of_lon(v: float) -> int:
        return int(np.clip(np.floor((v + 180.0) / 360.0 * scale),
                           0, scale - 1))

    wrap = lon_lo > lon_hi
    if wrap:
        lon_spans = [(cell_of_lon(lon_lo), int(scale - 1)),
                     (0, cell_of_lon(lon_hi))]
    else:
        lon_spans = [(cell_of_lon(lon_lo), cell_of_lon(lon_hi))]
    iy0 = int(np.clip(np.floor((lat_lo + 90.0) / 180.0 * scale), 0, scale - 1))
    iy1 = int(np.clip(np.floor((lat_hi + 90.0) / 180.0 * scale), 0, scale - 1))
    xs = np.concatenate([
        np.arange(x0, x1 + 1, dtype=np.int64) for x0, x1 in lon_spans
    ]) if lon_spans else np.empty(0, np.int64)
    gx, gy = np.meshgrid(xs, np.arange(iy0, iy1 + 1, dtype=np.int64))
    codes = _morton2d(gx.ravel(), gy.ravel(), bits)
    width, base = m["width"], m["lo"]
    parts = np.unique(np.clip((codes - base) // width, 0,
                              m["n_ranges"] - 1))
    all_dirs = sorted(_glob.glob(os.path.join(out_dir, "krange=*")))
    n_total = len(all_dirs)
    part_set = {int(p) for p in parts}
    dirs = [d for d in all_dirs
            if int(d.rsplit("=", 1)[1]) in part_set]
    files = sorted(
        f for d in dirs for f in _glob.glob(os.path.join(d, "*.parquet"))
    )
    lon_col, lat_col = z["lon_col"], z["lat_col"]
    read_cols = columns
    if read_cols is not None:
        read_cols = list(dict.fromkeys(read_cols + [lon_col, lat_col]))
    if not files:
        # typed empty result: inverted/degenerate rect maps to no
        # partitions (e.g. lon_lo > lon_hi)
        base = sorted(
            f for d in all_dirs for f in _glob.glob(
                os.path.join(d, "*.parquet"))
        )
        if not base:
            raise ValueError("read_rect_zorder: empty layout")
        empty = rd.read_parquet(base[:1], columns=read_cols).limit(0)
        if columns is not None:
            empty = empty.select_columns(columns)
        return empty, 0, n_total
    ds = rd.read_parquet(files, columns=read_cols)

    def exact(batch: pa.Table) -> pa.Table:
        lon = batch[lon_col].to_numpy(zero_copy_only=False)
        lat = batch[lat_col].to_numpy(zero_copy_only=False)
        if wrap:
            in_lon = (lon >= lon_lo) | (lon < lon_hi)
        else:
            in_lon = (lon >= lon_lo) & (lon < lon_hi)
        keep = in_lon & (lat >= lat_lo) & (lat < lat_hi)
        out = batch.filter(pa.array(keep))
        if columns is not None:
            out = out.select(columns)
        return out

    return (
        ds.map_batches(
            exact, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        len(dirs),
        n_total,
    )


def read_bloom_lookup(
    out_dir: str,
    values,
    columns: list[str] | None = None,
) -> tuple[rd.Dataset, int, int]:
    """Point lookup over a ``write_sorted(..., bloom_col=...)`` layout:
    opens ONLY the partitions whose bloom filter says MAYBE for at
    least one probe value — I/O scales with the probe hit set, not the
    table, even though the layout is clustered by a DIFFERENT key.
    Rows still pass an exact ``is_in`` residual filter (blooms give
    false positives, never false negatives). Returns
    ``(dataset, n_opened, n_total)`` so callers and tests can assert
    the prune. ``columns`` must include the bloom column (needed by the
    residual filter)."""
    import glob as _glob
    import json

    with open(os.path.join(out_dir, "_zonemap.json")) as f:
        m = json.load(f)
    b = m.get("bloom")
    if b is None:
        raise ValueError("read_bloom_lookup: layout has no bloom sidecar "
                         "(write_sorted(..., bloom_col=...))")
    vals = np.asarray(list(values), dtype=np.int64)
    pos = _bloom_positions(vals, int(b["bits"]), int(b["k"]))
    all_dirs = sorted(_glob.glob(os.path.join(out_dir, "krange=*")))
    n_total = len(all_dirs)
    hit_dirs = []
    for d in all_dirs:
        r = str(int(d.rsplit("=", 1)[1]))
        bs = np.frombuffer(bytes.fromhex(b["bitmaps"][r]), dtype=np.uint8)
        bit_set = (bs[pos // 8] >> (pos % 8).astype(np.uint8)) & 1
        if bool(bit_set.all(axis=1).any()):
            hit_dirs.append(d)
    files = sorted(
        f for d in hit_dirs for f in _glob.glob(os.path.join(d, "*.parquet"))
    )
    col = b["col"]
    probe = pa.array(vals, pa.int64())
    if not files:
        # typed empty result: no partition can contain any probe value
        empty = rd.read_parquet(
            sorted(_glob.glob(os.path.join(all_dirs[0], "*.parquet"))),
            columns=columns,
        ).limit(0) if all_dirs else None
        if empty is None:
            raise ValueError("read_bloom_lookup: empty layout")
        return empty, 0, n_total
    ds = rd.read_parquet(files, columns=columns)

    def exact(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(batch[col].cast(pa.int64()), value_set=probe)
        return batch.filter(keep)

    return (
        ds.map_batches(
            exact, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        len(hit_dirs),
        n_total,
    )
