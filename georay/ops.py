"""Dataset-level operators: thin, scale-conscious wrappers that express
every SURVEY.md §2 operator as Ray Data dataflow.

Design rules (SURVEY.md §4, ray_guide):
- every per-row transform is ``map_batches(fn, batch_format="pyarrow",
  zero_copy_batch=True)`` with a vectorized body — no Python row loops;
- aggregates are per-batch partials + a tiny final merge (the reference's
  push…push→finish kernel protocol);
- small join sides are broadcast once and fetched once per worker
  process (georay.exchange, georay.joins);
- wide ops (groupby/sort) are pushed onto small pre-aggregated tables
  wherever semantics allow.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from georay import cells, exchange, kernels
# the key hashes live beside the co-shuffle; ops._mix64 and
# ops._bytes_hash stay importable under their old names
from georay.exchange import _bytes_hash, _key_hash, _mix64, bucket_ids, co_shuffle  # noqa: F401
from georay.codecs import native
from georay.types import GeoType


# ------------------------------------------------------------ geometry col

def point_lonlat(batch: pa.Table, geom_col: str) -> tuple[np.ndarray, np.ndarray]:
    """(lon, lat) float64 from a geoarrow.point column; null/empty → NaN."""
    arr = batch[geom_col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    v = native.view(arr)
    lon = v.coords[:, 0].astype(np.float64, copy=True)
    lat = v.coords[:, 1].astype(np.float64, copy=True)
    if v.valid is not None:
        lon[~v.valid] = np.nan
        lat[~v.valid] = np.nan
    return lon, lat


# -------------------------------------------------------------- add cells

def add_cell_column(
    ds: ray.data.Dataset,
    geom_col: str = "geotag",
    level: int = cells.DEFAULT_LEVEL,
    out: str = "cell",
    parent_level: int | None = None,
    parent_out: str = "cell_parent",
) -> ray.data.Dataset:
    """B3: S2-style cell id column (+ optional coarser parent for
    partitioning). Stateless vectorized map_batches."""

    def fn(batch: pa.Table) -> pa.Table:
        lon, lat = point_lonlat(batch, geom_col)
        ids = cells.cell_from_lonlat(lon, lat, level)
        batch = batch.append_column(out, pa.array(cells.to_i64(ids), pa.int64()))
        if parent_level is not None:
            batch = batch.append_column(
                parent_out,
                pa.array(cells.to_i64(cells.cell_parent(ids, parent_level)), pa.int64()),
            )
        return batch

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)


def add_grid_column(
    ds: ray.data.Dataset,
    geom_col: str = "geotag",
    res: float = 1.0,
    out: str = "grid_cell",
) -> ray.data.Dataset:
    """SQL-oracle-matched equirect grid key (cells.grid_cell)."""

    def fn(batch: pa.Table) -> pa.Table:
        lon, lat = point_lonlat(batch, geom_col)
        return batch.append_column(out, pa.array(cells.grid_cell(lon, lat, res), pa.int64()))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)


def add_geohash_column(
    ds: ray.data.Dataset,
    geom_col: str = "geotag",
    precision: int = 6,
    out: str = "geohash",
) -> ray.data.Dataset:
    """Base32 geohash cell key (cells.geohash — SQL-replicated)."""

    def fn(batch: pa.Table) -> pa.Table:
        lon, lat = point_lonlat(batch, geom_col)
        return batch.append_column(out, cells.geohash(lon, lat, precision))

    return ds.map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def add_tile_columns(
    ds: ray.data.Dataset,
    geom_col: str = "geotag",
    zoom: int = 6,
    prefix: str = "tile",
) -> ray.data.Dataset:
    """B7 cell math: web-mercator tile (tx, ty, key) columns."""

    def fn(batch: pa.Table) -> pa.Table:
        lon, lat = point_lonlat(batch, geom_col)
        tx, ty = cells.mercator_tile(lon, lat, zoom)
        key = cells.tile_key(tx, ty, zoom)
        return (
            batch.append_column(f"{prefix}_x", pa.array(tx, pa.int64()))
            .append_column(f"{prefix}_y", pa.array(ty, pa.int64()))
            .append_column(f"{prefix}_key", pa.array(key, pa.int64()))
        )

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)


# ----------------------------------------------------------- kernel lifts

def cast_geometry(
    ds: ray.data.Dataset, col: str, target: GeoType, source: GeoType | None = None
) -> ray.data.Dataset:
    """as_geoarrow over a Dataset column (kernel 6). When the target
    carries no crs/edges of its own, the source's metadata propagates —
    the reference's as_geoarrow behavior (src/geoarrow.c:1578-1614)."""

    def fn(batch: pa.Table) -> pa.Table:
        src = source or GeoType.from_field(batch.schema.field(col))
        tgt = target
        if tgt.crs is None and src.crs is not None:
            tgt = tgt.with_crs(src.crs, src.crs_type)
        if tgt.edge_type.value == 0 and src.edge_type.value != 0:
            tgt = tgt.with_edges(src.edge_type)
        out = kernels.cast(batch[col], tgt, src)
        i = batch.schema.get_field_index(col)
        return batch.set_column(i, tgt.field(col), out)

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)


def add_box_column(
    ds: ray.data.Dataset, col: str, out: str = "bbox", source: GeoType | None = None
) -> ray.data.Dataset:
    """Per-feature box kernel (kernel 8)."""

    def fn(batch: pa.Table) -> pa.Table:
        src = source or GeoType.from_field(batch.schema.field(col))
        b = kernels.box(batch[col], src)
        return batch.append_column(GeoType.box().field(out), b)

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)


def add_centroid_column(
    ds: ray.data.Dataset, col: str, out: str = "centroid", source: GeoType | None = None
) -> ray.data.Dataset:
    def fn(batch: pa.Table) -> pa.Table:
        src = source or GeoType.from_field(batch.schema.field(col))
        c = kernels.centroid(batch[col], src)
        return batch.append_column(GeoType.point().field(out), c)

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)


def add_area_column(
    ds: ray.data.Dataset, col: str, out: str = "area", source: GeoType | None = None
) -> ray.data.Dataset:
    """Planar shoelace area per feature (engine measure kernel)."""

    def fn(batch: pa.Table) -> pa.Table:
        src = source or GeoType.from_field(batch.schema.field(col))
        return batch.append_column(out, kernels.area(batch[col], src))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)


def add_length_column(
    ds: ray.data.Dataset, col: str, out: str = "length", source: GeoType | None = None
) -> ray.data.Dataset:
    """Planar length / ring perimeter per feature."""

    def fn(batch: pa.Table) -> pa.Table:
        src = source or GeoType.from_field(batch.schema.field(col))
        return batch.append_column(out, kernels.length(batch[col], src))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)


def box_agg(ds: ray.data.Dataset, col: str, source: GeoType | None = None):
    """Global bounds (kernel 9): per-batch partial boxes → tiny merge.

    Streams: only 4 doubles per block leave the map stage.
    """

    def partial(batch: pa.Table) -> pa.Table:
        src = source or GeoType.from_field(batch.schema.field(col))
        xmin, ymin, xmax, ymax = kernels.box_agg_partial(batch[col], src)
        return pa.table(
            {
                "xmin": pa.array([xmin]),
                "ymin": pa.array([ymin]),
                "xmax": pa.array([xmax]),
                "ymax": pa.array([ymax]),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None).take_all()
    return kernels.box_agg_merge(
        [(p["xmin"], p["ymin"], p["xmax"], p["ymax"]) for p in parts]
    )


def grouped_box_agg(
    ds: ray.data.Dataset,
    key: str,
    col: str = "geotag",
) -> ray.data.Dataset:
    """Per-key bounds (grouped ``box_agg`` — dissolve-to-bbox by key):
    each batch emits one (key, xmin, ymin, xmax, ymax) partial per key
    present (lexsort+reduceat on point coords), merged by a combine tree
    with per-column min/max reducers. Point geometries; null/empty
    points are skipped (rows whose key has only empties get ±Inf bounds,
    matching the reference's EMPTY box convention)."""

    def partial(batch: pa.Table) -> pa.Table:
        lon, lat = point_lonlat(batch, col)
        k = batch[key].to_numpy(zero_copy_only=False)
        ok = np.isfinite(lon) & np.isfinite(lat)
        xs = np.where(ok, lon, np.inf)
        ys = np.where(ok, lat, np.inf)
        xs2 = np.where(ok, lon, -np.inf)
        ys2 = np.where(ok, lat, -np.inf)
        (ks,), outs = _group_reduce(
            [k],
            {"xmin": xs, "ymin": ys, "xmax": xs2, "ymax": ys2},
            ufunc={
                "xmin": np.minimum, "ymin": np.minimum,
                "xmax": np.maximum, "ymax": np.maximum,
            },
        )
        return pa.table(
            {
                key: pa.array(ks),
                "xmin": pa.array(outs["xmin"], pa.float64()),
                "ymin": pa.array(outs["ymin"], pa.float64()),
                "xmax": pa.array(outs["xmax"], pa.float64()),
                "ymax": pa.array(outs["ymax"], pa.float64()),
            }
        )

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return tree_reduce(
        parts,
        key,
        {"xmin": "xmin", "ymin": "ymin", "xmax": "xmax", "ymax": "ymax"},
        ufunc={
            "xmin": np.minimum, "ymin": np.minimum,
            "xmax": np.maximum, "ymax": np.maximum,
        },
    )


def unique_geometry_types(ds: ray.data.Dataset, col: str, source: GeoType | None = None):
    """unique_geometry_types_agg (kernel 7): per-batch bitmask, OR-merged."""

    def partial(batch: pa.Table) -> pa.Table:
        src = source or GeoType.from_field(batch.schema.field(col))
        m = kernels.unique_types_partial(batch[col], src)
        return pa.table({"mask": pa.array([m], pa.uint64())})

    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None).take_all()
    mask = 0
    for p in parts:
        mask |= int(p["mask"])
    return kernels.unique_types_finish(mask)


def infer_geo_schema(ds: ray.data.Dataset, col: str, source: GeoType | None = None) -> GeoType:
    """infer_geoarrow_schema: already-native columns short-circuit to
    their own schema (R/infer-default.R:88-91); serialized (WKT/WKB)
    columns run the unique-types agg + promotion (R/infer-default.R:85-152)."""
    current = source or GeoType.from_field(ds.schema().base_schema.field(col))
    if not current.serialized:
        return current
    codes = unique_geometry_types(ds, col, current)
    inferred = kernels.infer_type_from_codes(codes) if codes else GeoType.wkb()
    # crs/edges carry over from the source schema
    if current.crs is not None:
        inferred = inferred.with_crs(current.crs, current.crs_type)
    if current.edge_type.value != 0:
        inferred = inferred.with_edges(current.edge_type)
    return inferred


def validate_geometry(ds: ray.data.Dataset, col: str) -> int:
    """visit_void_agg (kernel 3): full decode, raising on malformed rows.
    Returns count of valid features."""
    from georay.codecs import wkt as wkt_codec

    def partial(batch: pa.Table) -> pa.Table:
        src = GeoType.from_field(batch.schema.field(col))
        arr = batch[col]
        if src.serialized:
            if "wkt" in src.extension_name:
                n = wkt_codec.validate(arr)
            else:
                from georay.codecs import wkb as wkb_codec

                n = wkb_codec.validate(arr)
        else:
            v = native.view(arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr, src)
            n = v.length - (0 if v.valid is None else int((~v.valid).sum()))
        return pa.table({"n": pa.array([n], pa.int64())})

    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None).take_all()
    return sum(p["n"] for p in parts)


# ----------------------------------------------------------------- dedup

def dedup_exact(
    ds: ray.data.Dataset,
    key: str | list[str],
    keep_col: str | None = None,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """B9: exact dedup — hash-partition on ``key``, keep the first row per
    group (deterministic: min of ``keep_col``; without ``keep_col`` the
    survivor among equal keys is partition-order-dependent).

    One shuffle. Int/string/binary keys are hash-bucketed so each
    ``map_groups`` call processes a whole BUCKET of keys in one vectorized
    sort+boundary pass — one Python invocation per bucket, not per
    distinct key (per-key calls are Python-rate at 10⁹ fingerprints).
    ``n_buckets`` sizes tasks (≈ rows / target_rows_per_task), it is not
    a parallelism cap. Other key types fall back to per-group calls.
    """
    keys = [key] if isinstance(key, str) else list(key)
    probe = ds.schema().base_schema
    hashable = all(
        pa.types.is_integer(t) or pa.types.is_string(t)
        or pa.types.is_large_string(t) or pa.types.is_binary(t)
        or pa.types.is_large_binary(t)
        for t in (probe.field(k).type for k in keys)
    )
    if hashable:
        def per_bucket(group: pa.Table) -> pa.Table:
            sort_keys = [(k, "ascending") for k in keys]
            if keep_col is not None:
                sort_keys.append((keep_col, "ascending"))
            order = pc.sort_indices(group, sort_keys=sort_keys)
            g = group.take(order)
            n = len(g)
            first = np.zeros(n, dtype=bool)
            if n:
                first[0] = True
            for k in keys:
                a = g[k].combine_chunks() if isinstance(g[k], pa.ChunkedArray) else g[k]
                neq = pc.fill_null(pc.not_equal(a.slice(1), a.slice(0, n - 1)), False)
                diff = np.asarray(neq)
                nul = np.asarray(pc.is_null(a))
                first[1:] |= diff | (nul[1:] != nul[:-1])
            return g.filter(pa.array(first))

        return co_shuffle(ds, keys, per_bucket, n_buckets=n_buckets, coalesce=True)

    def first(group: pa.Table) -> pa.Table:
        if keep_col is not None:
            order = pc.sort_indices(group, sort_keys=[(keep_col, "ascending")])
            return group.take(order[:1])
        return group.slice(0, 1)

    return co_shuffle(ds, keys[0] if len(keys) == 1 else keys, first, coalesce=False)


# ------------------------------------------------------- salted aggregate

def _quantize_i64(x: np.ndarray, quantize: float, op: str) -> np.ndarray:
    """Exact int64 quantization shared by every integer-sufficient-stat
    op: ``floor(x·q + 0.5)``. Raises on non-finite payloads — NaN/Inf →
    int64 is UNDEFINED in numpy (surfaces as INT64_MIN) and would
    silently corrupt the exact statistics downstream. Callers exclude
    NULLs (SQL aggregate skip) BEFORE calling; a NaN that survives to
    here is a genuine non-finite payload value."""
    if not np.isfinite(x).all():
        raise ValueError(
            f"{op} requires finite values (NaN/Inf quantization to exact "
            "int64 statistics is undefined)"
        )
    return np.floor(x * quantize + 0.5).astype(np.int64)


def _group_reduce(key_arrs: list, val_arrs: dict, ufunc=np.add):
    """Vectorized grouped reduction: lexsort on the key columns + one
    ``ufunc.reduceat`` per value column (sum by default; any associative
    commutative ufunc — minimum, maximum — works; pass a
    ``{name: ufunc}`` dict for per-column reducers).
    Returns ([key_col...], {name: reduced})."""
    n = key_arrs[0].shape[0]
    if n == 0:
        return key_arrs, val_arrs
    # object (string) keys: np.lexsort cannot compare None with str, so
    # factorize null-aware first (codes are equality-preserving, which
    # is all grouping needs) and restore original values at the end
    proc = []
    restore = []
    for k in key_arrs:
        if k.dtype.kind == "O":
            import pandas as _pd

            codes, uniques = _pd.factorize(k, use_na_sentinel=True)
            proc.append(codes.astype(np.int64))
            restore.append(np.asarray(uniques, dtype=object))
        else:
            proc.append(k)
            restore.append(None)
    order = np.lexsort(tuple(reversed(proc)))
    ks = [k[order] for k in proc]
    new = np.zeros(n, dtype=bool)
    new[0] = True
    for k in ks:
        diff = k[1:] != k[:-1]
        if k.dtype.kind == "f":
            # SQL GROUP BY: all NULLs are ONE group. Null int/ts keys
            # surface here as NaN (Arrow→numpy) and NaN != NaN would
            # split every null row into its own group; lexsort already
            # made the NaN run contiguous, so just unmark NaN pairs.
            both_nan = np.isnan(k[1:]) & np.isnan(k[:-1])
            diff &= ~both_nan
        new[1:] |= diff
    starts = np.nonzero(new)[0]
    uf = ufunc if isinstance(ufunc, dict) else {name: ufunc for name in val_arrs}
    outs = {
        name: uf[name].reduceat(v[order], starts) for name, v in val_arrs.items()
    }
    out_keys = []
    for k, uniques in zip(ks, restore):
        g = k[starts]
        if uniques is None:
            out_keys.append(g)
        else:
            vals = np.empty(g.shape[0], dtype=object)
            hit = g >= 0
            vals[hit] = uniques[g[hit]]
            vals[~hit] = None
            out_keys.append(vals)
    return out_keys, outs


def tree_reduce(
    parts: ray.data.Dataset,
    keys: str | list[str],
    val_map: dict[str, str],
    ufunc=np.add,
    int_cols: tuple = (),
) -> ray.data.Dataset:
    """Combine-tree grouped reduction, the engine behind ``tree_sum``:
    any associative commutative ufunc, or a ``{src_col: ufunc}`` dict for
    per-column reducers. ``exchange.combine`` coalesces the tiny
    per-batch partials, then ``exchange.gather``'s ONE merge task emits
    the exact per-key result at numpy rate — no sort-shuffle barrier.
    Requires distinct keys × row width to fit one worker (true for label
    tables, top-k partials, bounded-cardinality histograms). ``int_cols``
    are cast to int64 in the merge output."""
    key_list = [keys] if isinstance(keys, str) else list(keys)

    def reduce_batch(batch: pa.Table, rename: bool) -> pa.Table:
        karrs = [batch[k].to_numpy(zero_copy_only=False) for k in key_list]
        varrs = {s: batch[s].to_numpy(zero_copy_only=False) for s in val_map}
        ks, vs = _group_reduce(karrs, varrs, ufunc=ufunc)
        cols = {k: pa.array(a) for k, a in zip(key_list, ks)}
        for src, out in val_map.items():
            v = vs[src]
            if rename and src in int_cols:
                v = v.astype(np.int64)
            cols[out if rename else src] = pa.array(v)
        return pa.table(cols)

    return exchange.gather(
        exchange.combine(parts, lambda b: reduce_batch(b, rename=False)),
        lambda b: reduce_batch(b, rename=True),
    )


def tree_sum(
    partials: ray.data.Dataset,
    keys: str | list[str],
    sum_map: dict[str, str],
    int_cols: tuple = (),
) -> ray.data.Dataset:
    """Merge per-batch partial-sum rows into exact per-key totals.

    ``partials`` holds one small row per (batch, key); ``sum_map`` maps
    each partial column to its output name. The combine tree
    (``tree_reduce``) coalesces the tiny partial blocks, then ONE merge
    task emits the exact result via lexsort+reduceat (numpy-rate). No
    all-to-all shuffle; requires the RESULT (distinct keys × ~24 B) to
    fit one worker's heap — true for every cell/tile/flag key here (≤ a
    few 10⁷ keys). The wide input never concentrates: only combined
    partials do. This sidesteps the sort-shuffle barrier whose cost is
    ~100 ms/task × (blocks_in × partitions) slices and whose aggregate
    row rate is Python-bound (~45k rows/s measured).
    """
    return tree_reduce(partials, keys, sum_map, int_cols=int_cols)


def salted_count(
    ds: ray.data.Dataset,
    key: str | list[str],
    agg_cols: dict[str, str] | None = None,
    count_alias: str = "count",
) -> ray.data.Dataset:
    """B8: skew-safe grouped count/sum over one or more key columns.

    Stage 1 pre-aggregates inside each batch (map-side combine) — a
    Zipf-hot key contributes at most one partial row per block, which
    neutralizes key skew for these ASSOCIATIVE aggregates. Stage 2
    merges the tiny partials through the combine tree (``tree_sum``).

    agg_cols: {column: "sum"} additional sums to carry.
    """
    agg_cols = agg_cols or {}
    key_list = [key] if isinstance(key, str) else list(key)

    def partial(batch: pa.Table) -> pa.Table:
        karrs = [batch[k].to_numpy(zero_copy_only=False) for k in key_list]
        n = karrs[0].shape[0]
        varrs = {"partial_count": np.ones(n, dtype=np.int64)}
        for c, how in agg_cols.items():
            varrs[f"partial_{how}_{c}"] = batch[c].to_numpy(
                zero_copy_only=False
            ).astype(np.float64)
        ks, vs = _group_reduce(karrs, varrs)
        cols = {k: pa.array(a) for k, a in zip(key_list, ks)}
        for name, v in vs.items():
            cols[name] = pa.array(v)
        return pa.table(cols)

    partials = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    sum_map = {"partial_count": count_alias}
    for c, how in agg_cols.items():
        sum_map[f"partial_{how}_{c}"] = f"{how}_{c}"
    return tree_sum(partials, key_list, sum_map, int_cols=("partial_count",))


def _order_key(batch: pa.Table, c: str, d: bool) -> np.ndarray:
    """Numpy sort key for one ORDER BY column (``d``=descending),
    null-safe. Strings are dense-ranked via ``pc.rank`` (local ranks
    suffice: the map-side prune needs only within-batch order and the
    final merge sees all survivors in one batch); NULL strings rank
    AFTER every value in either direction (SQL NULLS LAST): ascending
    ranks place nulls at_end, descending ranks place them at_start so
    the negation lands them last again. Descending ints flip via
    bitwise NOT (overflow-free); null ints/floats surface as NaN from
    ``to_numpy`` and lexsort places NaN last in both directions (NULLS
    LAST again)."""
    a = batch[c].to_numpy(zero_copy_only=False)
    if a.dtype.kind in "OUS":  # strings: null-safe dense rank
        col = batch[c]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        a = pc.rank(
            col, sort_keys="ascending",
            null_placement="at_start" if d else "at_end",
            tiebreaker="dense",
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        return -a if d else a
    if not d:
        return a
    if a.dtype.kind in "Mm":  # datetime/timedelta: order-isomorphic int64 view
        a = a.view(np.int64)
    return np.invert(a) if a.dtype.kind in "iub" else -a


def top_k(
    ds: ray.data.Dataset,
    cols: str | list[str],
    k: int,
    descending: bool | list[bool] = True,
    final: str = "tree",
) -> ray.data.Dataset:
    """B10: global top-k.

    ``"tree"`` (default): each block keeps its own top-k (vectorized
    lexsort; descending integer keys flipped via bitwise NOT — an
    overflow-free monotonic inversion, safe for INT64_MIN sentinels),
    then the combine tree (``exchange.combine`` / ``exchange.gather``)
    emits the exact sorted result — no Sort barrier (the global top-k is
    contained in the union of per-block top-ks). Requires k × blocks to
    fit one worker — true for every georay top-k (k ≤ a few thousand).
    ``"sort"``: Ray's sample-sort + limit, for giant k.

    Descending float keys are negated (NaN-free inputs assumed — georay
    top-k keys are counts and cell ids).
    """
    col_list = [cols] if isinstance(cols, str) else list(cols)
    desc = (
        [descending] * len(col_list) if isinstance(descending, bool) else list(descending)
    )
    if final == "sort":
        return ds.sort(col_list, descending=desc).limit(k)

    def partial(batch: pa.Table) -> pa.Table:
        if len(batch) <= 0:
            return batch
        keys = [_order_key(batch, c, d) for c, d in zip(col_list, desc)]
        order = np.lexsort(tuple(reversed(keys)))[:k]
        return batch.take(pa.array(order))

    part = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return exchange.gather(exchange.combine(part, partial), partial)


def _value_histogram(ds: ray.data.Dataset, col: str) -> ray.data.Dataset:
    """(v float64, n int64) distinct-value histogram of one column via
    per-batch ``pc.value_counts`` partials + combine-tree merge. NULLs
    are dropped (SQL aggregate semantics). Shared by the disc/cont exact
    quantile operators."""

    def partial(batch: pa.Table) -> pa.Table:
        arr = batch[col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        vc = pc.value_counts(arr.drop_null())
        return pa.table(
            {
                "v": vc.field("values").cast(pa.float64()),
                "partial_n": vc.field("counts").cast(pa.int64()),
            }
        )

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return tree_sum(parts, "v", {"partial_n": "n"}, int_cols=("partial_n",))


def _check_qs(op: str, qs: list[float], nonempty: bool = False) -> None:
    """Driver-side guard shared by every quantile entry point: each q
    must lie in [0, 1] (a NaN q fails the comparison too)."""
    if nonempty and not qs:
        raise ValueError(f"{op}: qs must be non-empty")
    bad = [q for q in qs if not 0.0 <= q <= 1.0]
    if bad:
        raise ValueError(f"{op}: quantiles must lie in [0, 1], got {bad}")


def _pick_quantile(v, cum, base, n, q: float, interp: str):
    """Value at quantile ``q`` of each segment of a value-sorted
    histogram: ``cum`` is the running count over all segments, ``base``
    each segment's count before it and ``n`` its own count. "disc" is
    ``quantile_disc`` (the element at rank max(ceil(q·n)−1, 0)); "cont"
    interpolates at rank q·(n−1) in DuckDB's form lo·(1−f) + hi·f (the
    oracled ``quantile_cont`` qs hash-match; lo + f·(hi−lo) differs at
    ulp level)."""
    if interp == "disc":
        rank = np.maximum(np.ceil(q * n).astype(np.int64), 1)
        return v[np.searchsorted(cum, base + rank, side="left")]
    h = q * (n - 1).astype(np.float64)
    lo = np.floor(h).astype(np.int64)
    hi = np.ceil(h).astype(np.int64)
    v_lo = v[np.searchsorted(cum, base + lo + 1, side="left")]
    v_hi = v[np.searchsorted(cum, base + hi + 1, side="left")]
    frac = h - lo
    return v_lo * (1.0 - frac) + v_hi * frac


def _histogram_quantiles(
    ds: ray.data.Dataset, col: str, qs: list[float], interp: str
) -> ray.data.Dataset:
    """Shared body of ``exact_quantiles`` and ``exact_quantiles_cont``:
    the value histogram, then one tiny task picks every q."""
    hist = _value_histogram(ds, col)

    def pick(batch: pa.Table) -> pa.Table:
        v = batch["v"].to_numpy(zero_copy_only=False)
        n = batch["n"].to_numpy(zero_copy_only=False)
        order = np.argsort(v, kind="stable")
        v, cum = v[order], np.cumsum(n[order])
        total = cum[-1] if cum.shape[0] else np.int64(0)
        out_v = [
            _pick_quantile(v, cum, 0, total, q, interp) if total else None
            for q in qs
        ]
        return pa.table(
            {"q": pa.array(qs, pa.float64()), "v": pa.array(out_v, pa.float64())}
        )

    return exchange.gather(hist, pick)


def exact_quantiles(
    ds: ray.data.Dataset,
    col: str,
    qs: list[float],
) -> ray.data.Dataset:
    """Exact distributed quantiles (``quantile_disc`` semantics: the
    element at index ``max(ceil(q·n)-1, 0)`` of the sorted column) for a
    BOUNDED-CARDINALITY column, via a value histogram: per-batch
    ``pc.value_counts`` partials, combine-tree merge keyed by value,
    then one tiny task walks the cumulative counts. The corpus never
    shuffles — only (distinct value, count) rows move, so this is exact
    at any scale where the value domain fits one worker (codes, sizes,
    scores, quantities). For unbounded domains use the radix select
    (``exact_quantiles_radix``).

    Output: one row per q — (q float64, v float64).
    """
    _check_qs("exact_quantiles", qs)
    return _histogram_quantiles(ds, col, qs, "disc")


_SIGN = np.uint64(1 << 63)
_DENSE_BINS = 1 << 20  # widest bin range _bin_totals accumulates densely


def _f64_ordered_u64(x: np.ndarray) -> np.ndarray:
    """Order-preserving float64 → uint64 bit transform (flip all bits
    when negative, else flip the sign bit): uint64 order == double
    order. Shared by the radix-select family."""
    b = x.view(np.uint64)
    neg = (b >> np.uint64(63)).astype(bool)
    mask = np.where(neg, np.uint64(0xFFFFFFFFFFFFFFFF), _SIGN)
    return b ^ mask


def _ordered_u64_f64(keys: np.ndarray) -> np.ndarray:
    """Inverse of ``_f64_ordered_u64``."""
    was_neg = (keys >> np.uint64(63)) == 0  # sign clear ⇒ was < 0
    mask = np.where(was_neg, np.uint64(0xFFFFFFFFFFFFFFFF), _SIGN)
    return (keys ^ mask).view(np.float64)


def _bin_totals(bins: np.ndarray, w: np.ndarray | None, nbins: int):
    """Nonzero ``(bin, total)`` pairs of int64 ``bins`` in [0, nbins):
    row counts, or exact int64 weight sums when ``w`` is given. A wide
    bin range is compacted first, so the accumulator is never larger
    than the distinct bins."""
    uniq = None
    if nbins > _DENSE_BINS:
        uniq, bins = np.unique(bins, return_inverse=True)
        nbins = uniq.shape[0]
    tot = np.zeros(nbins, np.int64)
    np.add.at(tot, bins, 1 if w is None else w)
    nz = np.flatnonzero(tot)
    return (nz if uniq is None else uniq[nz]), tot[nz]


def _radix_select(
    ds: ray.data.Dataset,
    col: str,
    ranks,
    key: str | None = None,
    weight_col: str | None = None,
    op: str = "radix select",
):
    """The exact RADIX SELECT engine behind ``exact_quantiles_radix``
    (plain and weighted), ``exact_quantiles_radix_cont`` and
    ``grouped_quantiles_radix``.

    Every batch decodes ``col`` once into order-preserving uint64 keys:
    ``_f64_ordered_u64`` for floats; integer columns flip the int64 sign
    bit (no float64 round-trip, so values beyond 2^53 stay exact). NULL
    and NaN values and NULL ``key`` rows are excluded; ±inf are values.
    ``weight_col`` (int64, non-negative, NULL = 0) makes every total a
    weight sum instead of a row count.

    Each selection slot — a (group, target rank) — narrows its key one
    16-bit digit per pass, so there are exactly 4 passes however many
    groups and slots ride them. A pass is ONE ``map_batches`` emitting a
    histogram keyed (prefix id, digit) plus a ``tree_sum`` fold; the
    driver then narrows every slot at once (lexsort, cumsum,
    searchsorted — no per-slot loop). Pass 1 is the empty-prefix case:
    a row's prefix id is its group, so the pass also discovers the
    groups and their totals, and ``ranks(totals)`` turns the (ng,)
    totals into an (ng, slots) array of 0-based target ranks. In passes
    2–4 a row's prefix is its key bits above the digit (a mask: the
    pass-1 shift ``key >> 64`` is undefined for uint64), and each row
    finds its live (group, prefix) pair by searchsorted. Every pass
    must see the same rows. The driver holds one pass's nonzero
    bins (bounded group cardinality, as for ``tree_sum``).

    Returns ``(groups, totals, values)``: the sorted groups (an Arrow
    array of the key type; one dummy group when ungrouped), their totals
    and the (ng, slots) selected values — int64 for integer columns,
    else float64. No surviving row gives ng = 0."""
    schema = ds.schema().base_schema
    is_int = pa.types.is_integer(schema.field(col).type)
    gtype = schema.field(key).type if key is not None else pa.int64()

    def decode(batch: pa.Table):
        arr = batch[col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        if is_int:
            # nulls are filled in Arrow and dropped below: to_numpy of a
            # nullable int array is float64, whose bits mis-order as keys
            drop = None
            if arr.null_count:
                drop = np.asarray(pc.is_null(arr))
                arr = arr.fill_null(0)
            v = arr.cast(pa.int64()).to_numpy(zero_copy_only=False)
            k = v.view(np.uint64) ^ _SIGN
        else:
            x = arr.to_numpy(zero_copy_only=False).astype(np.float64)
            drop = np.isnan(x)  # NULL→NaN and real NaN; ±inf are values
            k = _f64_ordered_u64(x)
        g = None
        if key is not None:
            g = batch[key]
            if isinstance(g, pa.ChunkedArray):
                g = g.combine_chunks()
            if g.null_count:
                gnull = np.asarray(pc.is_null(g))
                drop = gnull if drop is None else drop | gnull
        w = None
        if weight_col is not None:
            warr = batch[weight_col]
            if isinstance(warr, pa.ChunkedArray):
                warr = warr.combine_chunks()
            w = np.asarray(pc.fill_null(warr, 0)).astype(np.int64)
            if w.shape[0] and int(w.min()) < 0:
                raise ValueError(f"{op}: negative weights")
        if drop is not None and drop.any():
            keep = ~drop
            k = k[keep]
            w = None if w is None else w[keep]
            g = None if g is None else g.filter(pa.array(keep))
        if w is not None and float(w.sum(dtype=np.float64)) >= float(1 << 62):
            raise OverflowError(
                f"{op}: batch weight sum exceeds the int64 budget (2^62) "
                "— rescale the weight units"
            )
        return g, k, w

    def partial(batch: pa.Table, shift: int, groups, live, pairs) -> pa.Table:
        g, k, w = decode(batch)
        if pairs is None:
            # pass 1, the empty prefix: a row's prefix id is its group
            if g is None:
                pid, names = 0, pa.array([0], pa.int64())
            else:
                enc = g.dictionary_encode()
                pid = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
                names = enc.dictionary
            npid = len(names)
        else:
            # a row's prefix is its key bits above this pass's digit. A
            # 64Ki-entry table of the live prefixes' first digits drops
            # most rows; a searchsorted finds each survivor's prefix among
            # the live ones, and another its (group, prefix) pair
            first = np.zeros(1 << 16, bool)
            first[live >> np.uint64(48)] = True
            rows = np.flatnonzero(first[k >> np.uint64(48)])
            prefix = k[rows] & np.uint64(
                ((1 << 64) - 1) ^ ((1 << (shift + 16)) - 1))
            j = np.minimum(np.searchsorted(live, prefix), live.shape[0] - 1)
            ok = live[j] == prefix
            rows, code = rows[ok], j[ok]
            if g is not None:  # an unknown group (-1) matches no pair
                gi = pc.index_in(g.take(pa.array(rows)),
                                 value_set=groups.cast(g.type))
                gi = gi.fill_null(-1).to_numpy(zero_copy_only=False)
                code = gi.astype(np.int64) * live.shape[0] + code
            npid = pairs.shape[0]
            pid = np.minimum(np.searchsorted(pairs, code), npid - 1)
            ok = pairs[pid] == code
            rows, pid = rows[ok], pid[ok]
            k = k[rows]
            w = None if w is None else w[rows]
            names = None
        digit = ((k >> np.uint64(shift)) & np.uint64(0xFFFF)).astype(np.int64)
        b, c = _bin_totals((pid << 16) | digit, w, npid << 16)
        p = pa.array(b >> 16)
        return pa.table({
            "pid": p if names is None else names.take(p),
            "digit": pa.array(b & 0xFFFF),
            "c": pa.array(c, pa.int64()),
        })

    groups = live = pairs = None
    for shift in (48, 32, 16, 0):
        if groups is not None:  # passes 2–4: the live (group, prefix) pairs
            live = np.unique(sel)
            pairs, slot_pid = np.unique(
                slot_g * live.shape[0] + np.searchsorted(live, sel),
                return_inverse=True,
            )
        parts = ds.map_batches(
            lambda b, s=shift, g=groups, lv=live, p=pairs: partial(b, s, g, lv, p),
            batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
        )
        hist = tree_sum(parts, ["pid", "digit"], {"c": "c"}, int_cols=("c",))
        h = exchange.collect(hist)
        if not h.num_rows:  # only in pass 1: an empty or all-NULL column
            totals = np.zeros(0, np.int64)
            values = np.zeros((0, ranks(totals).shape[1]),
                              np.int64 if is_int else np.float64)
            return pa.array([], gtype), totals, values
        c = h["c"].to_numpy()
        if groups is None:
            if int(c.min()) < 0:
                raise OverflowError(
                    f"{op}: merged counts went negative — weight sums "
                    "wrapped int64; rescale the weights"
                )
            # per-batch sums are < 2^62 but the MERGED total can still
            # wrap int64 and land positive; the float64 sum is exact
            # enough to detect crossing the budget
            if float(c.astype(np.float64).sum()) >= float(1 << 62):
                raise OverflowError(
                    f"{op}: merged weight total exceeds the int64 budget "
                    "(2^62) — rescale the weight units"
                )
            groups = pc.unique(h["pid"])
            groups = groups.take(pc.sort_indices(groups))
            pid = pc.index_in(h["pid"], value_set=groups).to_numpy()
            pid = pid.astype(np.int64)
            totals = np.zeros(len(groups), np.int64)
            np.add.at(totals, pid, c)
            # q·T rounds up past T − 1 once a weight total exceeds 2^53
            rank = np.minimum(ranks(totals), (totals - 1)[:, None])
            ng, ns = rank.shape
            rank = rank.ravel().astype(np.int64)
            slot_g = slot_pid = np.repeat(np.arange(ng), ns)
            sel = np.zeros(ng * ns, np.uint64)
        else:
            pid = h["pid"].to_numpy()
        digit = h["digit"].to_numpy()
        # narrow every slot: its segment of the (pid, digit)-sorted
        # histogram holds the digit whose running total reaches its rank
        order = np.lexsort((digit, pid))
        pid, digit, c = pid[order], digit[order], c[order]
        cum = np.cumsum(c)
        before = cum - c
        target = before[np.searchsorted(pid, slot_pid)] + rank + 1
        pos = np.searchsorted(cum, target, side="left")
        rank = target - 1 - before[pos]
        sel |= digit[pos].astype(np.uint64) << np.uint64(shift)
    values = (sel ^ _SIGN).view(np.int64) if is_int else _ordered_u64_f64(sel)
    return groups.cast(gtype), totals, values.reshape(ng, ns)


def _disc_ranks(qs: list[float]):
    """``quantile_disc`` targets: rank max(ceil(q·T)−1, 0) of each
    group's total T (rows, or weight)."""
    q = np.asarray(qs, np.float64)
    return lambda totals: np.maximum(
        np.ceil(np.outer(totals, q)).astype(np.int64) - 1, 0
    )


def _qv_table(qs: list[float], values: np.ndarray) -> ray.data.Dataset:
    """(q, v) rows of an ungrouped radix select; NULL v on an empty
    column."""
    v = values[0] if values.shape[0] else [None] * len(qs)
    return ray.data.from_arrow(pa.table({
        "q": pa.array(qs, pa.float64()),
        "v": pa.array(v, pa.from_numpy_dtype(values.dtype)),
    }))


def exact_quantiles_radix(
    ds: ray.data.Dataset,
    col: str,
    qs: list[float],
    weight_col: str | None = None,
) -> ray.data.Dataset:
    """Exact ``quantile_disc`` values for an UNBOUNDED float64 column —
    the gap ``exact_quantiles`` (bounded-domain histogram) documents:
    distributed RADIX SELECT (``_radix_select``): 4 passes of 64Ki-bin
    digit histograms however many quantiles are asked for. No sort, no
    shuffle, no sample.

    NULL and NaN rows are excluded (SQL NULL semantics; DuckDB sorts
    NaN last — callers comparing against it should filter NaN too).
    Output: one row per q — (q float64, v float64), NULL v on an empty
    column.

    ``weight_col`` (int64, non-negative, NULL = 0) switches to the
    WEIGHTED quantile: the smallest value whose cumulative weight
    reaches ``ceil(q·W)``, on the same 4 passes.

    INTEGER columns take the native int64 keys, so quantiles of
    ids/counters beyond 2^53 stay exact; the output ``v`` column is then
    int64.
    """
    op = "exact_quantiles_radix"
    _check_qs(op, qs, nonempty=True)
    _, _, values = _radix_select(
        ds, col, _disc_ranks(qs), weight_col=weight_col, op=op
    )
    return _qv_table(qs, values)


def exact_quantiles_radix_cont(
    ds: ray.data.Dataset,
    col: str,
    qs: list[float],
) -> ray.data.Dataset:
    """INTERPOLATED (``quantile_cont``) twin of ``exact_quantiles_radix``:
    pos = q·(n−1), answer = v[floor(pos)] + frac·(v[ceil(pos)] −
    v[floor(pos)]) — both bracketing ranks selected exactly, ALL 2·|qs|
    selections riding the same 4 radix passes. Same NULL/NaN exclusion;
    the interpolation arithmetic is the explicit IEEE expression a SQL
    twin can replicate bit-for-bit (no library quantile call)."""
    op = "exact_quantiles_radix_cont"
    _check_qs(op, qs, nonempty=True)
    q = np.asarray(qs, np.float64)

    def ranks(totals: np.ndarray) -> np.ndarray:
        pos = np.outer(totals - 1, q)  # slots: (floor, ceil) per q
        lo_hi = np.stack([np.floor(pos), np.ceil(pos)], axis=-1)
        return lo_hi.reshape(totals.shape[0], 2 * q.shape[0]).astype(np.int64)

    _, totals, values = _radix_select(ds, col, ranks, op=op)
    if not totals.shape[0]:
        return _qv_table(qs, np.zeros((0, len(qs))))
    pos = (totals[0] - 1) * q
    frac = pos - np.floor(pos)
    vlo = values[0, 0::2].astype(np.float64)
    vhi = values[0, 1::2].astype(np.float64)
    return _qv_table(qs, (vlo + frac * (vhi - vlo))[None])


def grouped_quantiles_radix(
    ds: ray.data.Dataset,
    key: str,
    col: str,
    qs: list[float],
) -> ray.data.Dataset:
    """Per-GROUP exact ``quantile_disc`` on an unbounded column — the
    grouped twin of ``exact_quantiles_radix`` on the same engine
    (``_radix_select``): every (group, q) narrows its own digit prefix,
    all riding the SAME 4 column passes (pass 1 also discovers the
    groups and counts them). The driver holds |groups|·|qs| slots and
    one pass's nonzero bins — bounded-group-cardinality budget (flags,
    sources, classes; same convention as ``tree_sum``). NULL/NaN
    payloads and NULL keys are excluded; integer columns keep native
    int64 keys and an int64 ``v``.

    Output: (key, q float64, v) — groups with at least one non-null
    value only (SQL GROUP BY semantics)."""
    op = "grouped_quantiles_radix"
    _check_qs(op, qs, nonempty=True)
    groups, _, values = _radix_select(
        ds, col, _disc_ranks(qs), key=key, op=op
    )
    ng, nq = values.shape
    return ray.data.from_arrow(pa.table({
        key: groups.take(pa.array(np.repeat(np.arange(ng), nq))),
        "q": pa.array(np.tile(np.asarray(qs, np.float64), ng), pa.float64()),
        "v": pa.array(values.ravel()),
    }))


def hash_shuffle_rank(
    ds: ray.data.Dataset,
    id_col: str,
    epoch: int = 0,
    out_col: str = "pos",
    n_buckets: int = 1024,
) -> ray.data.Dataset:
    """Deterministic EPOCH SHUFFLE with exact global positions: every
    row gets its rank in ``(mix64(id + epoch·φ), id)`` order — a
    reproducible, SQL-replicable permutation (the training-loader
    "shuffle each epoch with a seed" contract) WITHOUT a global sort.
    Plan: rows hash to 2^k top-bit buckets which are CONTIGUOUS in hash
    order, so one tiny bucket histogram (combine tree, driver holds
    ``n_buckets`` ints) yields each bucket's global offset, and one
    bucket co-shuffle sorts locally and adds the offset — histogram-
    offset global ranking, the zipWithIndex Ray Data lacks. Ties on the
    64-bit hash break by id (exact, deterministic).

    NULL ids raise (a shuffle position for a NULL key is undefined).
    ``n_buckets`` must be a power of two ≤ 2^16."""
    if n_buckets & (n_buckets - 1) or n_buckets > (1 << 16):
        raise ValueError("hash_shuffle_rank: n_buckets must be a power "
                         "of two <= 65536")
    # both the histogram pass and the rank pass must observe the SAME
    # rows — pin the input once so a nondeterministic upstream source
    # can't make bucket offsets disagree with the ranked rows
    ds = ds.materialize()
    shift = np.uint64(64 - int(np.log2(n_buckets)))
    c_epoch = np.uint64((int(epoch) * 0x9E3779B97F4A7C15) % (1 << 64))

    def _hash(batch: pa.Table) -> np.ndarray:
        arr = batch[id_col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        if arr.null_count:
            raise ValueError("hash_shuffle_rank: NULL ids")
        v = arr.cast(pa.int64()).to_numpy(zero_copy_only=False)
        return _mix64(v.view(np.uint64) + c_epoch)

    def hist_partial(batch: pa.Table) -> pa.Table:
        b = (_hash(batch) >> shift).astype(np.int64)
        cnt = np.bincount(b, minlength=n_buckets)
        nz = np.nonzero(cnt)[0]
        return pa.table({
            "b": pa.array(nz.astype(np.int64), pa.int64()),
            "c": pa.array(cnt[nz].astype(np.int64), pa.int64()),
        })

    hist = tree_sum(
        ds.map_batches(hist_partial, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        "b", {"c": "c"}, int_cols=("c",),
    ).to_pandas()
    counts = np.zeros(n_buckets, np.int64)
    if len(hist):
        counts[hist["b"].to_numpy()] = hist["c"].to_numpy()
    offsets = np.cumsum(counts) - counts
    off_ref = exchange.broadcast(offsets)

    def add_bucket(batch: pa.Table) -> pa.Table:
        h = _hash(batch)
        return batch.append_column(
            "_h", pa.array(h.view(np.int64))
        ).append_column(
            "_bucket", pa.array((h >> shift).astype(np.int64))
        )

    def per_bucket(group: pa.Table) -> pa.Table:
        offs = off_ref.get()
        bid = int(group["_bucket"][0].as_py())
        group = group.drop_columns(["_bucket"])
        h = group["_h"].to_numpy(zero_copy_only=False).view(np.uint64)
        ids = group[id_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, h))
        g = group.take(pa.array(order)).drop_columns(["_h"])
        pos = offs[bid] + np.arange(len(g), dtype=np.int64)
        return g.append_column(out_col, pa.array(pos, pa.int64()))

    keyed = ds.map_batches(add_bucket, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None)
    return co_shuffle(keyed, "_bucket", per_bucket, coalesce=True)


def focal_sum(
    hist: ray.data.Dataset,
    cell_col: str = "grid_cell",
    val_col: str = "n",
    k: int = 1,
    nx: int = 360,
    out_col: str = "focal_n",
    stat: str = "sum",
) -> ray.data.Dataset:
    """Raster focal (neighborhood) statistic: for every grid cell in
    the histogram, the ``stat`` ("sum" | "max" | "mean" over PRESENT
    neighbor cells) of ``val_col`` over its (2k+1)² neighbors (lon
    wraps modulo ``nx`` columns; rows don't wrap past the poles) — the
    classic raster-smoothing/dilation kernels over the engine's grid
    keys.

    Scale shape: the input is the already-aggregated CELL histogram
    (bounded by the raster size, not the point corpus — ≤ 360·180/res²
    cells on Earth), so it is broadcast once as two sorted arrays and
    each batch probes its neighbors with ``searchsorted`` — no second
    shuffle. For rasters too fine to broadcast, explode + ``tree_sum``
    by neighbor key is the partitioned twin (same numbers, one shuffle).
    """
    tbl = exchange.collect(hist.select_columns([cell_col, val_col]))
    if not tbl.num_rows:
        tbl = pa.table({cell_col: pa.array([], pa.int64()),
                        val_col: pa.array([], pa.int64())})
    c = tbl[cell_col].to_numpy(zero_copy_only=False).astype(np.int64)
    v = tbl[val_col].to_numpy(zero_copy_only=False)
    order = np.argsort(c, kind="stable")
    ref = exchange.broadcast((c[order], v[order]))

    def probe(batch: pa.Table) -> pa.Table:
        cs, vs = ref.get()
        cells_arr = batch[cell_col].to_numpy(zero_copy_only=False).astype(np.int64)
        nb = cells.grid_disk(cells_arr, k, nx)
        pos = np.searchsorted(cs, nb)
        pos_c = np.minimum(pos, cs.shape[0] - 1)
        hit = cs[pos_c] == nb
        if stat == "sum":
            out = np.where(hit, vs[pos_c], 0).sum(axis=1)
            col = pa.array(out, pa.int64())
        elif stat == "max":
            out = np.where(hit, vs[pos_c], np.iinfo(np.int64).min).max(axis=1)
            col = pa.array(out, pa.int64())
        elif stat == "mean":
            s = np.where(hit, vs[pos_c], 0).sum(axis=1).astype(np.float64)
            c_ = hit.sum(axis=1).astype(np.float64)  # ≥1 (cell itself)
            col = pa.array(s / c_, pa.float64())
        else:
            raise ValueError(f"stat must be sum|max|mean, got {stat!r}")
        return batch.append_column(out_col, col)

    return hist.map_batches(
        probe, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def profile_columns(
    ds: ray.data.Dataset,
    cols: list[str],
) -> ray.data.Dataset:
    """Data-profiling summary (pipeline-QA primitive): one output row per
    column — (column, n, n_null, min, max, sum). Numeric columns report
    float min/max/sum; string/binary report lexicographic min/max with
    NaN sum. One streaming pass emits a per-batch partial row per column;
    a combine-tree merge with per-column reducers finishes — nothing
    wide, nothing driver-side.

    Exact sums require integer-valued doubles (order-independence); min/
    max/counts are always exact. A dataset with zero batches produces
    zero output rows (there is nothing to profile).
    """
    schema = ds.schema().base_schema
    numeric = {
        c: pa.types.is_integer(schema.field(c).type)
        or pa.types.is_floating(schema.field(c).type)
        for c in cols
    }

    def partial(batch: pa.Table) -> pa.Table:
        names, ns, nulls, mins, maxs, sums = [], [], [], [], [], []
        smin, smax = [], []
        for c in cols:
            arr = batch[c]
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            names.append(c)
            ns.append(len(arr))
            nulls.append(arr.null_count)
            if numeric[c]:
                mn = pc.min(arr).as_py()
                mx = pc.max(arr).as_py()
                sm = pc.sum(arr).as_py()
                mins.append(float("inf") if mn is None else float(mn))
                maxs.append(float("-inf") if mx is None else float(mx))
                sums.append(0.0 if sm is None else float(sm))
                smin.append(None)
                smax.append(None)
            else:
                mn = pc.min(arr).as_py()
                mx = pc.max(arr).as_py()
                mins.append(float("inf"))
                maxs.append(float("-inf"))
                sums.append(np.nan)
                smin.append(mn)
                smax.append(mx)
        return pa.table(
            {
                "column": pa.array(names),
                "n": pa.array(ns, pa.int64()),
                "n_null": pa.array(nulls, pa.int64()),
                "vmin": pa.array(mins, pa.float64()),
                "vmax": pa.array(maxs, pa.float64()),
                "vsum": pa.array(sums, pa.float64()),
                "smin": pa.array(smin, pa.string()),
                "smax": pa.array(smax, pa.string()),
            }
        )

    def combine(batch: pa.Table) -> pa.Table:
        key = batch["column"]
        if isinstance(key, pa.ChunkedArray):
            key = key.combine_chunks()
        g = batch.group_by("column").aggregate(
            [
                ("n", "sum"),
                ("n_null", "sum"),
                ("vmin", "min"),
                ("vmax", "max"),
                ("vsum", "sum"),
                ("smin", "min"),
                ("smax", "max"),
            ]
        )
        return pa.table(
            {
                "column": g["column"],
                "n": g["n_sum"],
                "n_null": g["n_null_sum"],
                "vmin": g["vmin_min"],
                "vmax": g["vmax_max"],
                "vsum": g["vsum_sum"],
                "smin": g["smin_min"],
                "smax": g["smax_max"],
            }
        )

    def finish(batch: pa.Table) -> pa.Table:
        batch = combine(batch)
        names = batch["column"].to_pylist()
        is_num = [numeric[c] for c in names]
        vmin = batch["vmin"].to_numpy(zero_copy_only=False)
        vmax = batch["vmax"].to_numpy(zero_copy_only=False)
        smin, smax = batch["smin"].to_pylist(), batch["smax"].to_pylist()
        return pa.table(
            {
                "column": batch["column"],
                "n": batch["n"],
                "n_null": batch["n_null"],
                "min": pa.array(
                    [str(vmin[i]) if is_num[i] else smin[i] for i in range(len(names))],
                    pa.string(),
                ),
                "max": pa.array(
                    [str(vmax[i]) if is_num[i] else smax[i] for i in range(len(names))],
                    pa.string(),
                ),
                "sum": batch["vsum"],
            }
        )

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return exchange.gather(exchange.combine(parts, combine), finish)


def explode_list(
    ds: ray.data.Dataset,
    col: str,
    value_out: str = "value",
    pos_out: str | None = "pos",
) -> ray.data.Dataset:
    """UNNEST: one output row per list element, repeating the other
    columns (SQL ``unnest`` with optional 0-based ordinality). Pure
    offset arithmetic per batch — parent rows gather via one ``take``,
    elements come from ``list_flatten`` (both Arrow C; no Python per
    row/element). Null or empty lists emit no rows."""

    def fn(batch: pa.Table) -> pa.Table:
        arr = batch[col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        flat = pc.list_flatten(arr)
        lens = pc.list_value_length(arr).fill_null(0)
        counts = lens.to_numpy(zero_copy_only=False).astype(np.int64)
        from georay.index import _ragged_ranges

        owner, within = _ragged_ranges(counts)
        out = batch.drop_columns([col]).take(pa.array(owner))
        out = out.append_column(value_out, flat)
        if pos_out:
            out = out.append_column(pos_out, pa.array(within, pa.int64()))
        return out

    return ds.map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def dataset_checksum(
    ds: ray.data.Dataset,
    cols: list[str],
) -> ray.data.Dataset:
    """Order-insensitive content fingerprint: one row ``(n_rows,
    checksum)`` where checksum = Σ mix64(row key) mod 2⁶⁴ over the
    chosen columns — compare two runs / two replicas / two cluster
    sizes for identical content without sorting anything (the same
    device the scaling harness uses to prove determinism across
    parallelism levels). Commutative sum ⇒ block order, partitioning
    and execution schedule cannot change it; map-side partials fold in
    the combine tree. The row hash is the engine's ``_key_hash``
    (murmur-finalizer chain), SQL-replicable in HUGEINT arithmetic."""

    def partial(batch: pa.Table) -> pa.Table:
        h = _key_hash(batch, cols)
        if h is None:
            raise TypeError("dataset_checksum requires int or string/binary cols")
        # sum mod 2^64 via int64 wraparound (bit-identical to HUGEINT % 2^64)
        s = np.int64(0)
        with np.errstate(over="ignore"):
            s = h.view(np.int64).sum()
        return pa.table(
            {
                "partial_n": pa.array([h.shape[0]], pa.int64()),
                "partial_sum": pa.array([int(s)], pa.int64()),
            }
        )

    partials = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    from ray.data.aggregate import Sum

    # int64 sums wrap identically regardless of grouping: fold via two
    # scalars (Ray Sum on int64 may promote; fold exactly on the driver
    # over the tiny partial rows instead)
    rows = partials.take_all()
    n = sum(r["partial_n"] for r in rows)
    acc = np.int64(0)
    with np.errstate(over="ignore"):
        for r in rows:
            acc = np.int64(acc + np.int64(r["partial_sum"]))
    return ray.data.from_arrow(
        pa.table(
            {
                "n_rows": pa.array([int(n)], pa.int64()),
                "checksum": pa.array([int(acc)], pa.int64()),
            }
        )
    )


def grouped_moments(
    ds: ray.data.Dataset,
    key: str,
    col: str,
    quantize: float = 100.0,
) -> ray.data.Dataset:
    """Per-group first and second moments in EXACT int64 arithmetic:
    ``(key, n, sum_q, sumsq_q)`` over values quantized to integers —
    mean and variance derive exactly downstream (``var = (sumsq/n −
    (sum/n)²)``) with no float-summation order dependence anywhere.
    Map-side combine + int64 tree merge. Caller owns the overflow
    budget: ``Σ v_q²`` must stay below 2⁶³ (raise ``quantize`` down or
    pre-scale for wide-domain columns)."""

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch[col]))  # SQL: NULLs skipped
        k = batch[key].to_numpy(zero_copy_only=False)
        x = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        v = _quantize_i64(x, quantize, "grouped_moments")
        ks, vs = _group_reduce(
            [k],
            {
                "partial_n": np.ones(v.shape[0], np.int64),
                "partial_s": v,
                "partial_s2": v * v,
            },
        )
        return pa.table(
            {
                key: pa.array(ks[0]),
                "partial_n": pa.array(vs["partial_n"]),
                "partial_s": pa.array(vs["partial_s"]),
                "partial_s2": pa.array(vs["partial_s2"]),
            }
        )

    partials = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return tree_sum(
        partials, [key],
        {"partial_n": "n", "partial_s": "sum_q", "partial_s2": "sumsq_q"},
        int_cols=("partial_n", "partial_s", "partial_s2"),
    )


def split_dataset(
    ds: ray.data.Dataset,
    id_col: str,
    fracs: dict[str, float],
    out_col: str = "split",
) -> ray.data.Dataset:
    """Deterministic train/val/test splitting: each row's split comes
    from its CONTENT (murmur-finalizer hash of the id against exact
    integer thresholds ``floor(cum_frac · 2⁶⁴)``), so the assignment is
    reproducible across runs, engines, and row order, and new rows
    never reshuffle old ones between splits — the stability contract
    training pipelines need. Map-side only; the SQL twin replays the
    same HUGEINT hash chain and thresholds."""
    names = list(fracs)
    cum = np.cumsum([fracs[k] for k in names])
    if not np.isclose(cum[-1], 1.0):
        raise ValueError("split_dataset: fractions must sum to 1")
    thresholds = np.array(
        [min(int(c * 2**64), 2**64 - 1) for c in cum[:-1]], dtype=np.uint64
    )
    label_arr = pa.array(names, pa.string())

    def assign(batch: pa.Table) -> pa.Table:
        v = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h = _mix64(v.view(np.uint64).copy())
        idx = np.searchsorted(thresholds, h, side="right")
        return batch.append_column(
            out_col, pc.take(label_arr, pa.array(idx.astype(np.int64)))
        )

    return ds.map_batches(
        assign, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def split_thresholds_sql(fracs: dict[str, float]) -> list[tuple[str, int]]:
    """(name, exclusive-upper-threshold) pairs matching
    ``split_dataset`` — for rendering the SQL CASE twin."""
    names = list(fracs)
    cum = np.cumsum([fracs[k] for k in names])
    ts = [min(int(c * 2**64), 2**64 - 1) for c in cum[:-1]]
    return list(zip(names, ts + [2**64]))


def snapshot_diff(
    old: ray.data.Dataset,
    new: ray.data.Dataset,
    key: str,
    value_col: str,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Table-version drift summary: one row ``(n_added, n_removed,
    n_changed, n_unchanged)`` comparing two snapshots keyed by a UNIQUE
    key — the data-ops health check before publishing a new table
    version. Both sides co-shuffle ONCE by key hash (each side ships
    only key + value), each bucket classifies its keys with a
    vectorized sort + boundary scan, and the per-bucket partial counts
    fold to a single row in the combine tree. NULL values surface as
    NaN after the float64 cast; a key NULL in BOTH snapshots counts as
    unchanged (SQL ``IS NOT DISTINCT FROM``), NULL vs non-NULL as
    changed."""

    def tag(side: int):
        def f(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "k": batch[key],
                    "v": batch[value_col].cast(pa.float64()),
                    "side": pa.array(np.full(len(batch), side, np.int8)),
                }
            )

        return f

    sides = [
        d.map_batches(tag(i), batch_format="pyarrow", zero_copy_batch=True,
                      batch_size=None)
        for i, d in enumerate((old, new))
    ]

    def per_bucket(group: pa.Table) -> pa.Table:
        k = group["k"].to_numpy(zero_copy_only=False)
        v = group["v"].to_numpy(zero_copy_only=False)
        s = group["side"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((s, k))
        k, v, s = k[order], v[order], s[order]
        n = k.shape[0]
        first = np.ones(n, bool)
        first[1:] = k[1:] != k[:-1]
        starts = np.nonzero(first)[0]
        sizes = np.diff(np.append(starts, n))
        if np.any(sizes > 2):
            raise ValueError("snapshot_diff: key is not unique per side")
        single = sizes == 1
        added = int(np.sum(s[starts[single]] == 1))
        removed = int(np.sum(s[starts[single]] == 0))
        pair = starts[~single]
        if np.any(s[pair] == s[pair + 1]):
            raise ValueError("snapshot_diff: key is not unique per side")
        # NaN != NaN would flag a both-NULL key as changed every run;
        # IS NOT DISTINCT FROM semantics: both-NaN pairs are unchanged.
        neq = (v[pair] != v[pair + 1]) & ~(
            np.isnan(v[pair]) & np.isnan(v[pair + 1])
        )
        changed = int(np.sum(neq))
        unchanged = int(pair.shape[0] - changed)
        return pa.table(
            {
                "partial_a": pa.array([added], pa.int64()),
                "partial_r": pa.array([removed], pa.int64()),
                "partial_c": pa.array([changed], pa.int64()),
                "partial_u": pa.array([unchanged], pa.int64()),
            }
        )

    partials = co_shuffle(sides, "k", per_bucket, n_buckets=n_buckets, coalesce=True)
    from ray.data.aggregate import Sum

    agg = partials.aggregate(
        Sum("partial_a", alias_name="a"), Sum("partial_r", alias_name="r"),
        Sum("partial_c", alias_name="c"), Sum("partial_u", alias_name="u"),
    )
    return ray.data.from_arrow(
        pa.table(
            {
                "n_added": pa.array([int(agg["a"] or 0)], pa.int64()),
                "n_removed": pa.array([int(agg["r"] or 0)], pa.int64()),
                "n_changed": pa.array([int(agg["c"] or 0)], pa.int64()),
                "n_unchanged": pa.array([int(agg["u"] or 0)], pa.int64()),
            }
        )
    )


def snapshot_changes(
    old: ray.data.Dataset,
    new: ray.data.Dataset,
    key: str,
    value_col: str,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Row-level change-data feed between two snapshots keyed by a
    UNIQUE key: one ``(key, change)`` row per drifted key with
    ``change ∈ {added, removed, changed}`` (unchanged keys emit
    nothing) — the CDC stream a downstream consumer replays. Same
    one-co-shuffle bucket plan and NULL convention as ``snapshot_diff``
    (both-NULL = unchanged, IS NOT DISTINCT FROM)."""

    def tag(side: int):
        def f(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "k": batch[key],
                    "v": batch[value_col].cast(pa.float64()),
                    "side": pa.array(np.full(len(batch), side, np.int8)),
                }
            )

        return f

    sides = [
        d.map_batches(tag(i), batch_format="pyarrow", zero_copy_batch=True,
                      batch_size=None)
        for i, d in enumerate((old, new))
    ]

    label = pa.array(["added", "removed", "changed"], pa.string())

    def per_bucket(group: pa.Table) -> pa.Table:
        k = group["k"].to_numpy(zero_copy_only=False)
        v = group["v"].to_numpy(zero_copy_only=False)
        s = group["side"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((s, k))
        k, v, s = k[order], v[order], s[order]
        n = k.shape[0]
        first = np.ones(n, bool)
        first[1:] = k[1:] != k[:-1]
        starts = np.nonzero(first)[0]
        sizes = np.diff(np.append(starts, n))
        if np.any(sizes > 2):
            raise ValueError("snapshot_changes: key is not unique per side")
        single = sizes == 1
        pair = starts[~single]
        if np.any(s[pair] == s[pair + 1]):
            raise ValueError("snapshot_changes: key is not unique per side")
        out_k = []
        out_c = []
        sm = starts[single]
        out_k.append(k[sm])
        out_c.append(np.where(s[sm] == 1, 0, 1).astype(np.int64))
        neq = (v[pair] != v[pair + 1]) & ~(
            np.isnan(v[pair]) & np.isnan(v[pair + 1])
        )
        ch = pair[neq]
        out_k.append(k[ch])
        out_c.append(np.full(ch.shape[0], 2, np.int64))
        kk = np.concatenate(out_k)
        cc = np.concatenate(out_c)
        return pa.table(
            {
                key: pa.array(kk),
                "change": pc.take(label, pa.array(cc)),
            }
        )

    return co_shuffle(sides, "k", per_bucket, n_buckets=n_buckets, coalesce=True)


def winsorize(
    ds: ray.data.Dataset,
    key: str,
    col: str,
    q_lo: float = 0.01,
    q_hi: float = 0.99,
    out_col: str | None = None,
) -> ray.data.Dataset:
    """Per-group winsorization (outlier clamping): every value clips to
    its group's ``[q_lo, q_hi]`` DISC quantiles — the standard
    robust-cleaning step before training-statistics passes. Two
    streaming phases: the per-group quantile bounds come from the
    value-histogram plan (``grouped_quantiles``, exact data values, so
    the clamp is a pick-not-compute and the output hash-matches SQL's
    PERCENTILE_DISC), then the bounds broadcast (bounded by #groups)
    and every row clamps map-side — the corpus itself never shuffles."""
    out_col = out_col or f"{col}_w"
    qtbl = grouped_quantiles(ds, key, col, [q_lo, q_hi], interp="disc")

    def pivot_bounds(df: "pa.Table") -> pa.Table:
        k = df[key].to_numpy(zero_copy_only=False)
        q = df["q"].to_numpy(zero_copy_only=False)
        v = df["v"].to_numpy(zero_copy_only=False)
        lo_mask = q == q_lo
        kl = k[lo_mask]
        order = np.argsort(kl, kind="stable")
        return pa.table(
            {
                key: pa.array(kl[order]),
                "_lo": pa.array(v[lo_mask][order]),
                "_hi": pa.array(v[~lo_mask][np.argsort(k[~lo_mask], kind="stable")]),
            }
        )

    bounds = pivot_bounds(
        pa.Table.from_pandas(qtbl.to_pandas(), preserve_index=False)
    )
    ref = exchange.broadcast(bounds)

    def clamp(batch: pa.Table) -> pa.Table:
        b: pa.Table = ref.get()
        bk = b[key].to_numpy(zero_copy_only=False)
        lo = b["_lo"].to_numpy(zero_copy_only=False)
        hi = b["_hi"].to_numpy(zero_copy_only=False)
        k = batch[key].to_numpy(zero_copy_only=False)
        x = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        pos = np.searchsorted(bk, k)
        clamped = np.minimum(np.maximum(x, lo[pos]), hi[pos])
        return batch.append_column(out_col, pa.array(clamped, pa.float64()))

    return ds.map_batches(
        clamp, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def mad_outliers(
    ds: ray.data.Dataset,
    key: str,
    col: str,
    k: float = 3.0,
) -> ray.data.Dataset:
    """Robust per-group outlier counting with the MEDIAN ABSOLUTE
    DEVIATION: rows where ``|x − median| > k·MAD`` — the
    heavy-tail-safe alternative to z-scores (one wild value cannot
    inflate its own threshold). Output: ``(key, n, n_outliers)``.

    Three streaming phases, corpus never shuffles: (1) per-group disc
    medians via the value-histogram plan, broadcast; (2) per-group disc
    MAD of ``|x − median|`` the same way (deviations are exact doubles,
    disc medians are data values, so the SQL twin is bit-exact);
    (3) one map-side flag + combine-tree count."""
    med = grouped_quantiles(ds, key, col, [0.5], interp="disc")
    mdf = med.to_pandas().sort_values(key)
    mk = mdf[key].to_numpy()
    mv = mdf["v"].to_numpy()
    mref = exchange.broadcast((mk, mv))

    def add_dev(batch: pa.Table) -> pa.Table:
        bk, bv = mref.get()
        kk = batch[key].to_numpy(zero_copy_only=False)
        x = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        dev = np.abs(x - bv[np.searchsorted(bk, kk)])
        return batch.append_column("_dev", pa.array(dev, pa.float64()))

    devds = ds.map_batches(
        add_dev, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    mad = grouped_quantiles(devds, key, "_dev", [0.5], interp="disc")
    adf = mad.to_pandas().sort_values(key)
    aref = exchange.broadcast((adf[key].to_numpy(), adf["v"].to_numpy()))

    def flag(batch: pa.Table) -> pa.Table:
        ak, av = aref.get()
        kk = batch[key].to_numpy(zero_copy_only=False)
        dev = batch["_dev"].to_numpy(zero_copy_only=False)
        out = (dev > k * av[np.searchsorted(ak, kk)]).astype(np.float64)
        return pa.table(
            {key: batch[key], "_flag": pa.array(out)}
        )

    flags = devds.map_batches(
        flag, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    out = salted_count(flags, [key], agg_cols={"_flag": "sum"}, count_alias="n")

    def to_int(batch: pa.Table) -> pa.Table:
        s = batch["sum__flag"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                key: batch[key],
                "n": batch["n"],
                "n_outliers": pa.array(s, pa.int64()),
            }
        )

    return out.map_batches(
        to_int, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def except_all(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    cols: list[str],
) -> ray.data.Dataset:
    """SQL ``EXCEPT ALL`` (bag/multiset difference): each row tuple
    survives ``max(0, count_left − count_right)`` times. Both sides
    collapse to per-tuple COUNTS map-side (a tuple moves once per
    block, not once per row), the counts co-merge in ONE combine tree
    keyed on the tuple, and survivors re-expand with the ragged-range
    enumerator — so duplicates never shuffle and the wide step carries
    two int64 columns regardless of multiplicity."""
    return _bag_op(left, right, cols, "except")


def intersect_all(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    cols: list[str],
) -> ray.data.Dataset:
    """SQL ``INTERSECT ALL`` (bag/multiset intersection): each tuple
    survives ``min(count_left, count_right)`` times — same
    counted-multiset plan as ``except_all``."""
    return _bag_op(left, right, cols, "intersect")


def _bag_op(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    cols: list[str],
    mode: str,
) -> ray.data.Dataset:

    def side_partial(sidemark: int):
        def partial(batch: pa.Table) -> pa.Table:
            karrs = [
                batch[c].to_numpy(zero_copy_only=False) for c in cols
            ]
            n = karrs[0].shape[0]
            l = np.full(n, 1 - sidemark, np.int64)
            r = np.full(n, sidemark, np.int64)
            ks, vs = _group_reduce(karrs, {"partial_l": l, "partial_r": r})
            out = {c: pa.array(a) for c, a in zip(cols, ks)}
            out["partial_l"] = pa.array(vs["partial_l"])
            out["partial_r"] = pa.array(vs["partial_r"])
            return pa.table(out)

        return partial

    keyed = left.map_batches(
        side_partial(0), batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    ).union(
        right.map_batches(
            side_partial(1), batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        )
    )
    counts = tree_sum(
        keyed, cols, {"partial_l": "l_n", "partial_r": "r_n"},
        int_cols=("partial_l", "partial_r"),
    )
    from georay.index import _ragged_ranges

    def expand(batch: pa.Table) -> pa.Table:
        ln = batch["l_n"].to_numpy(zero_copy_only=False)
        rn = batch["r_n"].to_numpy(zero_copy_only=False)
        if mode == "except":
            k = np.maximum(ln - rn, 0)
        else:
            k = np.minimum(ln, rn)
        owner, _ = _ragged_ranges(k)
        return batch.select(cols).take(pa.array(owner))

    return counts.map_batches(
        expand, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def gini_exact(
    ds: ray.data.Dataset,
    col: str,
    quantize: float = 100.0,
) -> ray.data.Dataset:
    """EXACT Gini concentration index of a numeric column as a
    RATIONAL — one row ``(gini_num, gini_den)`` with
    ``G = gini_num / gini_den = (2·Σᵢ i·xᵢ − (n+1)·Σx) / (n·Σx)``
    over the value-sorted sequence. Inequality profiling (revenue
    concentration, token-frequency skew) without a single float op:
    values quantize to integers, and the rank-weighted sum comes from
    the VALUE HISTOGRAM instead of a global sort — a run of value v
    with count c after R earlier rows contributes
    ``v·(c·R + c(c+1)/2)`` — so the only data movement is the
    combine-tree histogram merge (bounded by the value domain, not the
    corpus; ties make the result order-independent by construction).
    The final fold runs in Python arbitrary-precision ints on the
    histogram — no intermediate overflow."""

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch[col]))  # SQL: NULLs skipped
        x = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        v = _quantize_i64(x, quantize, "gini_exact")
        ks, vs = _group_reduce([v], {"partial_c": np.ones(v.shape[0], np.int64)})
        return pa.table(
            {"v": pa.array(ks[0], pa.int64()), "partial_c": pa.array(vs["partial_c"])}
        )

    partials = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    hist = tree_sum(partials, ["v"], {"partial_c": "c"}, int_cols=("partial_c",))

    df = hist.to_pandas()
    if len(df) == 0:
        out = pa.table(
            {
                "gini_num": pa.array([0], pa.int64()),
                "gini_den": pa.array([0], pa.int64()),
            }
        )
        return ray.data.from_arrow(out)
    df = df.sort_values("v")
    w = 0
    s = 0
    n = 0
    for v, c in zip(df["v"].tolist(), df["c"].tolist()):
        w += v * (c * n + c * (c + 1) // 2)
        s += v * c
        n += c
    num = 2 * w - (n + 1) * s
    den = n * s
    if not (-(2**63) <= num < 2**63 and -(2**63) <= den < 2**63):
        raise OverflowError("gini_exact: rational exceeds int64; rescale quantize")
    return ray.data.from_arrow(
        pa.table(
            {
                "gini_num": pa.array([int(num)], pa.int64()),
                "gini_den": pa.array([int(den)], pa.int64()),
            }
        )
    )


def k_anonymity_stats(
    ds: ray.data.Dataset,
    quasi_cols: list[str],
    k: int,
) -> ray.data.Dataset:
    """Privacy profiling: k-anonymity of a quasi-identifier tuple —
    one row ``(n_small_groups, n_rows_at_risk)`` counting equivalence
    classes smaller than ``k`` and the rows inside them (rows whose
    quasi-identifier combination is too rare to hide in a crowd).
    Map-side combine + tree merge for the class sizes (the groupby
    never ships raw rows), then a one-row reduction — the final result
    is two scalars regardless of corpus size."""
    sizes = salted_count(ds, quasi_cols, count_alias="class_n")

    def risk(batch: pa.Table) -> pa.Table:
        n = batch["class_n"].to_numpy(zero_copy_only=False)
        small = n < k
        return pa.table(
            {
                "partial_groups": pa.array([int(small.sum())], pa.int64()),
                "partial_rows": pa.array([int(n[small].sum())], pa.int64()),
            }
        )

    partials = sizes.map_batches(
        risk, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    from ray.data.aggregate import Sum

    agg = partials.aggregate(
        Sum("partial_groups", alias_name="g"), Sum("partial_rows", alias_name="r")
    )
    return ray.data.from_arrow(
        pa.table(
            {
                "n_small_groups": pa.array([int(agg["g"] or 0)], pa.int64()),
                "n_rows_at_risk": pa.array([int(agg["r"] or 0)], pa.int64()),
            }
        )
    )


def digit_histogram(
    ds: ray.data.Dataset,
    col: str,
    count_alias: str = "n",
) -> ray.data.Dataset:
    """Benford profiling: leading-digit histogram of a positive int64
    column — ``(digit 1..9, n)``. The digit comes from Arrow's C cast
    to string + one-char slice (no float log10, whose boundary rounding
    SQL wouldn't pin); per-batch partial counts merge in the combine
    tree."""

    def partial(batch: pa.Table) -> pa.Table:
        arr = batch[col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        first = pc.utf8_slice_codeunits(pc.cast(arr, pa.string()), 0, 1)
        d = pc.cast(first, pa.int64()).to_numpy(zero_copy_only=False)
        cnt = np.bincount(d, minlength=10)
        nz = np.nonzero(cnt)[0]
        return pa.table(
            {
                "digit": pa.array(nz, pa.int64()),
                "partial_n": pa.array(cnt[nz], pa.int64()),
            }
        )

    partials = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return tree_sum(partials, ["digit"], {"partial_n": count_alias}, int_cols=("partial_n",))


def rasterize_boxes(
    ds: ray.data.Dataset,
    xmin_col: str,
    ymin_col: str,
    xmax_col: str,
    ymax_col: str,
    res: float,
    scale_bits: int = 20,
    count_alias: str = "n_boxes",
    area_alias: str = "area_q",
) -> ray.data.Dataset:
    """Area-weighted rasterization of axis-aligned boxes onto a
    ``res``-degree grid: per grid cell, the count of overlapping boxes
    and the summed exact intersection area — the coverage/density
    raster GIS stacks build from footprint sets. Per batch each box
    enumerates its covered cell range (ragged-range expansion, no
    Python loop), the overlap ``(min(xmax, cellx1) − max(xmin, cellx0))
    × (…y…)`` is computed with the identical IEEE expressions an
    ANSI-SQL twin uses (cell bounds ``g·res − 180`` are exact for
    integer ``res``), zero-overlap edge cells are excluded BEFORE
    quantization (matching SQL's ``w > 0 AND h > 0``), and per-cell
    quantized partials merge through the combine tree. Grid indices
    are unwrapped (a box past the antimeridian keeps gx = nx), so
    cell bounds and keys stay consistent on both engines."""
    from georay.index import _ragged_ranges

    scale = float(1 << scale_bits)

    def partial(batch: pa.Table) -> pa.Table:
        x0 = batch[xmin_col].to_numpy(zero_copy_only=False).astype(np.float64)
        y0 = batch[ymin_col].to_numpy(zero_copy_only=False).astype(np.float64)
        x1 = batch[xmax_col].to_numpy(zero_copy_only=False).astype(np.float64)
        y1 = batch[ymax_col].to_numpy(zero_copy_only=False).astype(np.float64)
        gx0 = np.floor((x0 + 180.0) / res).astype(np.int64)
        gx1 = np.floor((x1 + 180.0) / res).astype(np.int64)
        gy0 = np.floor((y0 + 90.0) / res).astype(np.int64)
        gy1 = np.floor((y1 + 90.0) / res).astype(np.int64)
        w = gx1 - gx0 + 1
        h = gy1 - gy0 + 1
        owner, within = _ragged_ranges(w * h)
        wr = w[owner]
        gx = gx0[owner] + within % wr
        gy = gy0[owner] + within // wr
        cx0 = gx * res - 180.0
        cy0 = gy * res - 90.0
        ow = np.minimum(x1[owner], cx0 + res) - np.maximum(x0[owner], cx0)
        oh = np.minimum(y1[owner], cy0 + res) - np.maximum(y0[owner], cy0)
        keep = (ow > 0.0) & (oh > 0.0)
        gx, gy = gx[keep], gy[keep]
        area_q = np.floor(ow[keep] * oh[keep] * scale + 0.5).astype(np.int64)
        ks, vs = _group_reduce(
            [gx, gy],
            {
                "partial_count": np.ones(gx.shape[0], np.int64),
                "partial_area": area_q,
            },
        )
        return pa.table(
            {
                "gx": pa.array(ks[0], pa.int64()),
                "gy": pa.array(ks[1], pa.int64()),
                "partial_count": pa.array(vs["partial_count"]),
                "partial_area": pa.array(vs["partial_area"]),
            }
        )

    partials = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return tree_sum(
        partials,
        ["gx", "gy"],
        {"partial_count": count_alias, "partial_area": area_alias},
        int_cols=("partial_count", "partial_area"),
    )


def polyfill_convex(
    ds: ray.data.Dataset,
    geometry_col: str = "geometry",
    id_col: str = "polygon_id",
    res: float = 1.0,
    cell_alias: str = "grid_cell",
    max_cells: int = 1 << 22,
) -> ray.data.Dataset:
    """H3/S2-style ``polyfill``: polygon → covering-cell pairs
    ``(id, grid_cell)`` on the SQL-exact equirect grid — one row per
    ``res``-degree cell whose CLOSED rectangle intersects the polygon's
    CLOSED convex outer ring. Completes the B3 cell family (encode /
    parent / disk / compact / uncompact live in georay/cells.py;
    geoarrow-r itself has no cell ops — this is north-rule surface).

    Distributed shape: a stateless ragged flat-map per polygon batch —
    candidates never shuffle; the big side streams. Candidate cells are
    the bbox's floor-arithmetic cover (identical to ``rasterize_boxes``
    and to SQL ``generate_series``); a candidate is kept iff EVERY
    outer-ring edge sees at least one rect corner on its interior side,
    each corner tested with the verbatim IEEE expression
    ``(bx−ax)·(py−ay) − (by−ay)·(px−ax)`` so an ANSI-SQL twin spelling
    the same cross products decides every boundary cell bit-identically.
    For a convex ring this is the exact SAT intersection test (the bbox
    cover supplies the two rect axes; the edge normals are the
    polygon's axes). Ring orientation is normalized via the shoelace
    sign; holes are ignored (outer-ring contract, documented).
    Degenerate (<3 distinct vertices), null and non-finite features
    emit nothing. ``max_cells`` bounds one feature's expansion (a
    storage-corrupt planet-sized ring would otherwise OOM the task)."""
    from georay.index import _ragged_ranges
    from georay.types import GeometryType

    def cover(batch: pa.Table) -> pa.Table:
        geo = GeoType.from_field(batch.schema.field(geometry_col))
        if geo.geometry_type != GeometryType.POLYGON:
            raise ValueError("polyfill_convex needs geoarrow.polygon")
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        v = native.view(batch[geometry_col].combine_chunks(), geo)
        poly_off, ring_off = v.offsets[0], v.offsets[1]
        n = v.length
        # outer ring per feature (features with zero rings are empty)
        has_ring = poly_off[:-1] < poly_off[1:]
        outer = np.where(has_ring, poly_off[:-1], 0)
        vs = ring_off[outer]
        ve = ring_off[outer + 1]  # exclusive; last vertex closes the ring
        ecnt = np.where(has_ring, np.maximum(ve - vs - 1, 0), 0)
        x, y = v.coords[:, 0], v.coords[:, 1]
        # per-feature bbox over the outer ring (closing vertex included)
        _, fw = _ragged_ranges(ve - vs)
        vidx = np.repeat(vs, ve - vs) + fw
        seg_starts = np.concatenate(([0], np.cumsum(ve - vs)))[:-1]
        xmin = np.full(n, np.inf)
        xmax = np.full(n, -np.inf)
        ymin = np.full(n, np.inf)
        ymax = np.full(n, -np.inf)
        nz = (ve - vs) > 0
        if np.any(nz):
            xs, ys = x[vidx], y[vidx]
            xmin[nz] = np.minimum.reduceat(xs, seg_starts[nz])
            xmax[nz] = np.maximum.reduceat(xs, seg_starts[nz])
            ymin[nz] = np.minimum.reduceat(ys, seg_starts[nz])
            ymax[nz] = np.maximum.reduceat(ys, seg_starts[nz])
        ok = (
            (ecnt >= 3)
            & np.isfinite(xmin) & np.isfinite(xmax)
            & np.isfinite(ymin) & np.isfinite(ymax)
        )
        if v.valid is not None:
            ok &= v.valid
        # shoelace orientation sign per feature (+1 CCW, −1 CW)
        sgn = np.ones(n)
        if np.any(nz):
            crossv = x[vidx] * np.roll(y[vidx], -1) - np.roll(x[vidx], -1) * y[vidx]
            # roll leaks across segment boundaries only at each segment's
            # last slot, which is the ring-closing wrap term we want —
            # but it pairs with the NEXT segment's first vertex, so fix
            # it explicitly: last slot of segment f pairs (last, first).
            last = np.cumsum(ve - vs) - 1
            first = seg_starts
            crossv[last[nz]] = (
                x[vidx[last[nz]]] * y[vidx[first[nz]]]
                - x[vidx[first[nz]]] * y[vidx[last[nz]]]
            )
            area2 = np.add.reduceat(crossv, seg_starts[nz])
            sgn[nz] = np.where(area2 < 0, -1.0, 1.0)

        gx0 = np.floor((np.where(ok, xmin, 0.0) + 180.0) / res).astype(np.int64)
        gx1 = np.floor((np.where(ok, xmax, 0.0) + 180.0) / res).astype(np.int64)
        gy0 = np.floor((np.where(ok, ymin, 0.0) + 90.0) / res).astype(np.int64)
        gy1 = np.floor((np.where(ok, ymax, 0.0) + 90.0) / res).astype(np.int64)
        w = np.where(ok, gx1 - gx0 + 1, 0)
        h = np.where(ok, gy1 - gy0 + 1, 0)
        if np.any(w * h > max_cells):
            raise ValueError(
                f"polyfill_convex: a feature covers > {max_cells} cells "
                f"at res={res} — corrupt geometry or wrong resolution"
            )
        owner, within = _ragged_ranges(w * h)
        if owner.shape[0] == 0:
            return pa.table(
                {
                    id_col: pa.array(ids[:0]),
                    cell_alias: pa.array(
                        np.empty(0, np.int64), pa.int64()
                    ),
                }
            )
        wr = w[owner]
        gx = gx0[owner] + within % wr
        gy = gy0[owner] + within // wr
        cx0 = gx * res - 180.0
        cy0 = gy * res - 90.0
        cx1 = cx0 + res
        cy1 = cy0 + res
        # pair expansion: candidate × outer-ring edge
        pe = ecnt[owner]
        pown, pwith = _ragged_ranges(pe)
        eidx = vs[owner][pown] + pwith
        ax, ay = x[eidx], y[eidx]
        bx, by = x[eidx + 1], y[eidx + 1]
        dx, dy = bx - ax, by - ay
        px0, py0 = cx0[pown], cy0[pown]
        px1, py1 = cx1[pown], cy1[pown]
        # sign applied PER CORNER (±1.0 multiply is IEEE-exact, so the
        # CCW path stays bit-identical to a sign-free SQL twin; for CW
        # rings max(s·c) is the correct inner-side max, unlike s·max(c))
        sg = sgn[owner][pown]
        m = np.maximum(
            np.maximum(
                sg * (dx * (py0 - ay) - dy * (px0 - ax)),
                sg * (dx * (py0 - ay) - dy * (px1 - ax)),
            ),
            np.maximum(
                sg * (dx * (py1 - ay) - dy * (px0 - ax)),
                sg * (dx * (py1 - ay) - dy * (px1 - ax)),
            ),
        )
        blk = np.concatenate(([0], np.cumsum(pe)))[:-1]
        keep = np.minimum.reduceat(m, blk) >= 0.0
        return pa.table(
            {
                id_col: pa.array(ids[owner[keep]]),
                cell_alias: pa.array(
                    gx[keep] * cells.GRID_MULT + gy[keep], pa.int64()
                ),
            }
        )

    return ds.map_batches(
        cover, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def add_regex_extract(
    ds: ray.data.Dataset,
    col: str,
    pattern: str,
    out_col: str | None = None,
    cast: pa.DataType | None = None,
    groups: dict[str, pa.DataType | None] | None = None,
) -> ray.data.Dataset:
    """Row-preserving regex field extraction (the ETL parse primitive —
    pulling typed fields out of a semi-structured string column like
    JSON-ish event props or log lines). Non-matching rows yield nulls.
    Runs on Arrow's C++ RE2 engine (``pc.extract_regex``) — compiled
    once per call site inside Arrow, zero per-row Python.

    Two shapes:
    - single field: ``pattern`` has one named group ``(?P<v>…)``,
      emitted as ``out_col`` with optional ``cast``;
    - multi field: ``groups={"group_name": dtype|None, …}`` emits one
      column per named group in ONE regex pass (a log line → several
      typed columns)."""
    if groups is None:
        if out_col is None:
            raise ValueError("add_regex_extract: out_col required without groups")
        groups = {"v": cast}
        names = {"v": out_col}
    else:
        names = {g: g for g in groups}

    def extract(batch: pa.Table) -> pa.Table:
        arr = batch[col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        m = pc.extract_regex(arr, pattern=pattern)
        for g, dtype in groups.items():
            v = pc.struct_field(m, g)
            if dtype is not None:
                v = pc.cast(v, dtype)
            batch = batch.append_column(names[g], v)
        return batch

    return ds.map_batches(
        extract, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


_CMS_INC = np.uint64(0x9E3779B97F4A7C15)  # splitmix64 increment


def _cms_row_hashes(k: np.ndarray, depth: int):
    """Count-min row r's hash ``mix64(k + r·_CMS_INC)`` for r < depth.
    The offsets are one array product, which wraps mod 2^64 silently
    (a NumPy uint64 scalar product warns on the overflow)."""
    row_inc = np.arange(depth, dtype=np.uint64) * _CMS_INC
    return (_mix64(k + inc) for inc in row_inc)


def count_min_sketch(
    ds: ray.data.Dataset,
    key_col: str,
    width: int = 1024,
    depth: int = 2,
) -> ray.data.Dataset:
    """Mergeable COUNT-MIN sketch over an int key column: ``depth``
    independent hash rows of ``width`` counters (width must be a power
    of two — the slot is a mask, dodging numpy's slow uint64 modulo).
    Row r's hash is ``mix64(k + r·splitmix_inc) & (width-1)`` — the
    same murmur-finalizer the sampling ops already replicate in SQL
    HUGEINT arithmetic, so the ENTIRE sketch (every counter) is
    SQL-reproducible, unlike a seeded-random CMS.

    Returns the sketch as a ``(r, slot, n)`` Dataset (≤ depth·width
    rows): per batch a bincount per row emits nonzero partial slots,
    the combine tree merges them — counter arrays never concentrate
    until the final ≤ depth·width-row result. Estimate lookups:
    ``cms_estimate``."""
    if width & (width - 1):
        raise ValueError("count_min_sketch: width must be a power of two")
    mask = np.uint64(width - 1)

    def partial(batch: pa.Table) -> pa.Table:
        k = (
            batch[key_col]
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
            .view(np.uint64)
        )
        outs = []
        for r, h in enumerate(_cms_row_hashes(k, depth)):
            slot = (h & mask).astype(np.int64)
            cnt = np.bincount(slot, minlength=width)
            nz = np.nonzero(cnt)[0]
            outs.append(
                pa.table(
                    {
                        "r": pa.array(np.full(nz.shape[0], r, np.int64)),
                        "slot": pa.array(nz, pa.int64()),
                        "partial_n": pa.array(cnt[nz], pa.int64()),
                    }
                )
            )
        return pa.concat_tables(outs)

    partials = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return tree_sum(partials, ["r", "slot"], {"partial_n": "n"}, int_cols=("partial_n",))


def cms_estimate(
    sketch: pa.Table, keys: np.ndarray, width: int, depth: int
) -> np.ndarray:
    """Point-frequency estimates from a ``count_min_sketch`` table:
    ``min over rows r of counter[r][h_r(k)]`` (the classic one-sided
    overestimate). The sketch is ≤ depth·width rows — a driver-side
    lookup over it is bounded by the sketch size, never the corpus."""
    mask = np.uint64(width - 1)
    dense = np.zeros((depth, width), np.int64)
    # an all-empty corpus can round-trip as a 0-row, columnless frame
    if sketch.num_rows and "r" in sketch.column_names:
        r_arr = sketch["r"].to_numpy(zero_copy_only=False)
        s_arr = sketch["slot"].to_numpy(zero_copy_only=False)
        n_arr = sketch["n"].to_numpy(zero_copy_only=False)
        dense[r_arr, s_arr] = n_arr
    k = np.asarray(keys, np.int64).view(np.uint64)
    est = np.full(k.shape[0], np.iinfo(np.int64).max, np.int64)
    for r, h in enumerate(_cms_row_hashes(k, depth)):
        est = np.minimum(est, dense[r, (h & mask).astype(np.int64)])
    return est


# floor(alpha_256 · 256² · 2^57) with alpha_m = 0.7213/(1 + 1.079/m) —
# the standard HLL bias constant, pre-scaled so the estimate is PURE
# integer arithmetic (C // Σ 2^(57−r_j)); the SQL twin embeds the same
# literal. Recompute for other m_bits before changing the default.
_HLL_C_256 = 6783892839851034148864


def hll_distinct(
    ds: ray.data.Dataset,
    col: str,
    est_alias: str = "distinct_est",
) -> ray.data.Dataset:
    """Mergeable HyperLogLog distinct sketch over an int64 key column —
    the streaming COUNT(DISTINCT) companion to ``count_min_sketch``
    (frequencies) for key domains too large to materialize. 256
    registers (m_bits=8, σ ≈ 1.04/√m ≈ 6.5%); register j holds the max
    over its keys of ρ(w) = trailing-zero rank of the murmur-finalized
    hash's top 56 bits — the same geometric observable as the classic
    leading-zero form, chosen because the lowest-set-bit extraction
    ``(w XOR (w−1) + 1) / 2`` is exact uint64/HUGEINT arithmetic on
    BOTH engines (w = 0, possible only in the all-keys-hash-to-zero
    bucket sense, wraps to rank 57 identically via two's-complement
    overflow). Per batch: 256-row (bucket, max-rank) partials; combine
    tree max-merges them — nothing bigger than 256 rows ever moves.

    Output: all 256 rows ``(bucket, r)`` — the sketch itself, empty
    registers included at r = 0 — plus two constant columns:
    ``distinct_est`` (raw HLL estimate, exact integer
    ``_HLL_C_256 // Σ 2^(57−r)``, capped at 2^62) and ``n_zero`` (empty
    registers, so callers can apply the standard linear-counting
    small-range correction ``m·ln(m/V)`` — kept OUT of the op because
    its ln() is the one step libm implementations may round apart)."""
    m = 256
    maxr = 57  # (64 − 8) possible trailing zeros + 1

    def partial(batch: pa.Table) -> pa.Table:
        k = (
            batch[col]
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
            .view(np.uint64)
        )
        h = _mix64(k.copy())
        bucket = (h & np.uint64(m - 1)).astype(np.int64)
        w = h >> np.uint64(8)
        lsb = (np.bitwise_xor(w, w - np.uint64(1)) + np.uint64(1)) >> np.uint64(1)
        # lsb is a single set bit ≤ 2^55 — exact in float64, so log2 is
        # the integer bit position exactly
        r = np.where(
            lsb == 0,
            np.int64(maxr),
            np.log2(np.maximum(lsb, np.uint64(1)).astype(np.float64)).astype(np.int64) + 1,
        )
        regs = np.zeros(m, np.int64)
        np.maximum.at(regs, bucket, r)
        nz = np.nonzero(regs)[0]
        return pa.table(
            {
                "bucket": pa.array(nz, pa.int64()),
                "partial_r": pa.array(regs[nz], pa.int64()),
            }
        )

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    merged = tree_reduce(parts, "bucket", {"partial_r": "r"}, ufunc=np.maximum)

    def finalize(batch: pa.Table) -> pa.Table:
        regs = np.zeros(m, np.int64)
        if batch.num_rows:
            regs[batch["bucket"].to_numpy(zero_copy_only=False)] = batch[
                "r"
            ].to_numpy(zero_copy_only=False)
        s = sum(1 << (maxr - int(r)) for r in regs)  # ≤ 256·2^57: python int
        est = min(_HLL_C_256 // s, 1 << 62)
        return pa.table(
            {
                "bucket": pa.array(np.arange(m, dtype=np.int64)),
                "r": pa.array(regs, pa.int64()),
                est_alias: pa.array(np.full(m, est, np.int64)),
                "n_zero": pa.array(
                    np.full(m, int((regs == 0).sum()), np.int64)
                ),
            }
        )

    return exchange.gather(merged, finalize)


def heavy_hitters(
    ds: ray.data.Dataset,
    col: str,
    phi: float,
    count_alias: str = "n",
) -> ray.data.Dataset:
    """EXACT φ-heavy hitters (all values with frequency > φ·N) via a
    Misra-Gries sketch + exact recount — the scale path when the value
    domain does NOT fit one worker (unlike ``exact_quantiles`` /
    ``token_histogram``, which assume it does):

    1. per-batch MG summary with k = ⌈1/φ⌉ counters (exact per-batch
       counts via ``pc.value_counts``, truncated by subtracting the
       (k+1)-th largest — the classic mergeable summary);
    2. combine-tree merge (group-sum then re-truncate) — merged
       summaries keep every value with global frequency > N/(k+1) ≤ φ·N
       (candidate-superset guarantee), so nothing real is lost;
    3. the ≤ k surviving candidates broadcast back for an exact
       streaming recount; the driver filters by the true threshold.

    Two passes over the data, O(1/φ) state anywhere. Output:
    (col, n) exact counts for the true heavy hitters.
    """
    k = int(np.ceil(1.0 / phi))

    def truncate(values: pa.Array, counts: np.ndarray) -> pa.Table:
        if counts.shape[0] > k:
            order = np.argsort(-counts, kind="stable")
            keep = order[:k]
            dec = counts[order[k]]
            newc = counts[keep] - dec
            pos = newc > 0
            values = values.take(pa.array(keep[pos]))
            counts = newc[pos]
        return pa.table(
            {col: values, "mg_count": pa.array(counts, pa.int64())}
        )

    def partial(batch: pa.Table) -> pa.Table:
        arr = batch[col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        vc = pc.value_counts(arr)
        return truncate(
            vc.field("values"),
            vc.field("counts").to_numpy(zero_copy_only=False).astype(np.int64),
        )

    def combine(batch: pa.Table) -> pa.Table:
        g = batch.group_by(col).aggregate([("mg_count", "sum")])
        vals = g[col].combine_chunks() if isinstance(g[col], pa.ChunkedArray) else g[col]
        return truncate(
            vals, g["mg_count_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
        )

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    cand_tbl = exchange.collect(
        exchange.gather(exchange.combine(parts, combine), combine)
    )
    if not cand_tbl.num_rows:  # empty input: no candidates, no hitters
        import ray.data as _rd

        col_type = ds.schema().base_schema.field(col).type
        return _rd.from_arrow(
            pa.table(
                {col: pa.array([], col_type), count_alias: pa.array([], pa.int64())}
            )
        )
    cand = cand_tbl[col].combine_chunks() if isinstance(
        cand_tbl[col], pa.ChunkedArray) else cand_tbl[col]
    ref = exchange.broadcast(cand)

    def recount(batch: pa.Table) -> pa.Table:
        cset = ref.get()
        arr = batch[col]
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        pos = pc.index_in(arr, value_set=cset)
        codes = np.asarray(pos.fill_null(-1)).astype(np.int64)
        cnt = np.bincount(codes[codes >= 0], minlength=len(cset))
        total = len(arr)
        nz = np.nonzero(cnt)[0]
        # a sentinel -1 row carries this batch's row count so N is exact
        # even when a batch matches no candidate
        return pa.table(
            {
                "_code": pa.array(np.concatenate([[-1], nz]), pa.int64()),
                "partial_n": pa.array(
                    np.concatenate([[0], cnt[nz]]), pa.int64()
                ),
                "partial_total": pa.array(
                    np.concatenate([[total], np.zeros(nz.shape[0], np.int64)]),
                    pa.int64(),
                ),
            }
        )

    merged = exchange.collect(tree_sum(
        ds.map_batches(
            recount, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        "_code",
        {"partial_n": "n", "partial_total": "total"},
        int_cols=("partial_n", "partial_total"),
    ))
    n_total = int(pc.sum(merged["total"]).as_py() or 0)
    counts = merged["n"].to_numpy(zero_copy_only=False)
    codes = merged["_code"].to_numpy(zero_copy_only=False)
    hit = (counts > phi * n_total) & (codes >= 0)
    out = pa.table(
        {
            col: cand.take(pa.array(codes[hit])),
            count_alias: pa.array(counts[hit], pa.int64()),
        }
    )
    import ray.data as _rd

    return _rd.from_arrow(out)


def pivot_count(
    ds: ray.data.Dataset,
    key: str,
    cat_col: str,
    categories: list[str],
) -> ray.data.Dataset:
    """Crosstab: one row per key, one count column per category
    (``n_<cat>``; values outside ``categories`` are ignored). Per-batch
    partials via ``pc.index_in`` category codes + one lexsort/bincount
    pass per batch, merged by the combine tree — the categories are a
    FIXED small set (pivot semantics), only keys × |categories| ints
    move."""
    cat_arr = pa.array(categories, pa.string())
    names = [f"n_{c}" for c in categories]

    def partial(batch: pa.Table) -> pa.Table:
        k = batch[key].to_numpy(zero_copy_only=False)
        code = np.asarray(
            pc.index_in(
                batch[cat_col].combine_chunks()
                if isinstance(batch[cat_col], pa.ChunkedArray)
                else batch[cat_col],
                value_set=cat_arr,
            ).fill_null(-1)
        ).astype(np.int64)
        vals = {
            name: (code == i).astype(np.int64) for i, name in enumerate(names)
        }
        (ks,), outs = _group_reduce([k], vals)
        cols = {key: pa.array(ks)}
        for name in names:
            cols[name] = pa.array(outs[name], pa.int64())
        return pa.table(cols)

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return tree_reduce(parts, key, {n: n for n in names})


def approx_quantiles(
    ds: ray.data.Dataset,
    col: str,
    qs: list[float],
    sample_rate: int = 100,
) -> dict:
    """Sampled quantiles for UNBOUNDED value domains (the approximate
    twin of ``exact_quantiles``, which assumes the distinct-value
    histogram fits a worker): every batch keeps a deterministic
    1/``sample_rate`` systematic slice (position stride within the
    batch — value-independent, so no quantile bias), the merged sample
    is quantiled exactly. Standard error ≈ sqrt(q(1-q)·rate/n) in rank
    space. Returns {q: value}; deterministic for a fixed input
    partitioning."""

    def partial(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy(zero_copy_only=False)
        return pa.table({"v": pa.array(v[:: max(sample_rate, 1)], pa.float64())})

    sample = exchange.collect(ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ))
    if not sample.num_rows:
        return {float(q): float("nan") for q in qs}
    v = np.sort(sample["v"].to_numpy(zero_copy_only=False))
    out = {}
    for q in qs:
        idx = max(int(np.ceil(q * v.shape[0])) - 1, 0)
        out[float(q)] = float(v[min(idx, v.shape[0] - 1)])
    return out


def grouped_quantiles(
    ds: ray.data.Dataset,
    key: str,
    col: str,
    qs: list[float],
    interp: str = "disc",
) -> ray.data.Dataset:
    """Per-group exact quantiles: the same value-histogram plan as
    ``exact_quantiles`` but keyed — per-batch Arrow-groupby
    ``(key, value) → count`` partials, a combine tree, then ONE tiny
    task that walks every key's cumulative counts in one vectorized
    searchsorted (no per-key Python loop). Exact whenever keys ×
    distinct values fit one worker.

    ``interp``: "disc" (SQL ``quantile_disc`` — a data value) or
    "cont" (``quantile_cont`` / PERCENTILE_CONT — linear interpolation
    at rank ``q·(n−1)``, same arithmetic as the oracled global
    ``quantiles_cont``).

    Output: one row per (key, q) — (key, q float64, v float64).
    """
    if interp not in ("disc", "cont"):
        raise ValueError(f"interp must be disc|cont, got {interp!r}")
    _check_qs("grouped_quantiles", qs)

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select([key, col]).append_column(
            "_one", pa.array(np.ones(len(batch), dtype=np.int64))
        )
        g = t.group_by([key, col]).aggregate([("_one", "sum")])
        return pa.table(
            {
                key: g[key],
                "v": g[col].cast(pa.float64()),
                "partial_n": g["_one_sum"].cast(pa.int64()),
            }
        )

    def combine(batch: pa.Table, out_name: str) -> pa.Table:
        g = batch.group_by([key, "v"]).aggregate([("partial_n", "sum")])
        return pa.table(
            {key: g[key], "v": g["v"], out_name: g["partial_n_sum"]}
        )

    def pick(batch: pa.Table) -> pa.Table:
        batch = combine(batch, "n")
        order = pc.sort_indices(
            batch, sort_keys=[(key, "ascending"), ("v", "ascending")]
        )
        g = batch.take(order)
        m = len(g)
        karr = g[key].combine_chunks() if isinstance(g[key], pa.ChunkedArray) else g[key]
        v = g["v"].to_numpy(zero_copy_only=False)
        n = g["n"].to_numpy(zero_copy_only=False)
        new = np.zeros(m, dtype=bool)
        if m:
            new[0] = True
            neq = pc.fill_null(pc.not_equal(karr.slice(1), karr.slice(0, m - 1)), False)
            nul = np.asarray(pc.is_null(karr))
            new[1:] = np.asarray(neq) | (nul[1:] != nul[:-1])
        seg = np.flatnonzero(new)
        cum = np.cumsum(n)
        base = np.where(seg > 0, cum[seg - 1], 0)
        seg_end = np.append(seg[1:], m) - 1
        n_k = cum[seg_end] - base
        out_keys, out_q, out_v = [], [], []
        for q in qs:
            out_keys.append(karr.take(pa.array(seg)))
            out_q.append(np.full(seg.shape[0], float(q)))
            out_v.append(_pick_quantile(v, cum, base, n_k, q, interp))
        if not out_keys:
            return pa.table({key: karr.slice(0, 0), "q": pa.array([], pa.float64()),
                             "v": pa.array([], pa.float64())})
        return pa.table(
            {
                key: pa.concat_arrays([a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a for a in out_keys]),
                "q": pa.array(np.concatenate(out_q), pa.float64()),
                "v": pa.array(np.concatenate(out_v), pa.float64()),
            }
        )

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return exchange.gather(
        exchange.combine(parts, lambda b: combine(b, "partial_n")), pick
    )


def mixture_rate_threshold(rate: float) -> int:
    """Quantized keep-threshold for ``mixture_sample``: rate is rounded
    to 1/2^20 granularity and scaled to the uint64 hash domain, so the
    SAME integer literal is exactly expressible in SQL HUGEINT (no
    float-near-the-boundary ambiguity)."""
    q = int(round(min(max(rate, 0.0), 1.0) * (1 << 20)))
    return q << 44


def mixture_sample(
    ds: ray.data.Dataset,
    key_col: str,
    group_col: str,
    rates: dict[str, float],
    default_rate: float = 0.0,
) -> ray.data.Dataset:
    """Domain-mixture sampling — the per-source reweighting step of a
    pretraining data recipe (keep 100% of books, 30% of web, ...):
    keep a row iff ``mix64(key) < rate(group) * 2^64``. Deterministic
    per-domain Bernoulli with NO RNG state, reproducible across runs,
    engines and partitionings, and disjoint-union-stable: raising a
    domain's rate only ADDS rows (nested samples), the property mixture
    tuning sweeps rely on. Embarrassingly parallel — one hash + one
    table lookup per batch, no shuffle.

    ``rates`` maps group value → keep fraction (quantized to 1/2^20 by
    ``mixture_rate_threshold``); unlisted groups use ``default_rate``.
    SQL twin: the splitmix HUGEINT replica + a CASE over the same
    integer thresholds (``tpch.SQL_MIXTURE_SAMPLE``)."""
    groups = list(rates)
    gset = pa.array(groups, pa.string())
    thr = np.array(
        [mixture_rate_threshold(rates[g]) for g in groups]
        + [mixture_rate_threshold(default_rate)],
        dtype=np.float64,  # 2^64 overflows uint64; exact (≤2^20 mantissa)
    )
    keep_all = thr >= float(1 << 64)
    thr_u = np.minimum(thr, float((1 << 64) - (1 << 11))).astype(np.uint64)

    def fn(batch: pa.Table) -> pa.Table:
        v = batch[key_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        h = _mix64(v.view(np.uint64).copy())
        code = pc.fill_null(
            pc.index_in(batch[group_col], value_set=gset), len(groups)
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        keep = keep_all[code] | (h < thr_u[code])
        return batch.filter(pa.array(keep))

    return ds.map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def add_splitmix_column(
    ds: ray.data.Dataset,
    col: str,
    out: str = "hash_order",
) -> ray.data.Dataset:
    """Deterministic pseudo-random order key: the murmur3 finalizer of an
    integer column, emitted as an int64 whose SIGNED order equals the
    hash's unsigned order (top bit flipped). With ``group_top_k`` this
    gives stratified sampling — per-group keep-k in hash order — that is
    reproducible across runs/engines and SQL-replicable (the finalizer
    is xor/shift/wrap-multiply, exactly expressible in HUGEINT
    arithmetic; see ``tpch.SQL_STRATIFIED_SAMPLE``)."""

    def fn(batch: pa.Table) -> pa.Table:
        v = batch[col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        h = _mix64(v.view(np.uint64).copy())
        return batch.append_column(
            out, pa.array((h ^ np.uint64(1 << 63)).view(np.int64))
        )

    return ds.map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def group_top_k(
    ds: ray.data.Dataset,
    key: str | list[str],
    order_cols: str | list[str],
    k: int,
    descending: bool | list[bool] = True,
    n_buckets: int = 256,
    ties: bool = False,
) -> ray.data.Dataset:
    """Per-group top-k (e.g. the K best-scored images per cell): exact
    ``ROW_NUMBER() OVER (PARTITION BY key ORDER BY order_cols) <= k``.

    ``ties=True`` switches to ``RANK() <= k`` semantics: rows tying on
    every order column share a rank, so a tie straddling the kth place
    keeps ALL its members (output may exceed k rows per group — SQL's
    WITH TIES). The map-side prune stays valid: a row's within-batch
    rank never exceeds its global rank, so pruning batch-rank > k can
    only drop rows whose global rank is also > k.

    Scale shape: a map-side prune keeps each batch's own per-key top-k
    first (a batch can contribute at most k rows per key), so the one
    key-hash shuffle moves ≤ k·keys·blocks rows, not the corpus; the
    per-bucket finisher repeats the same vectorized pass. Group ranks
    are computed with ONE lexsort + boundary scan per call — key columns
    are dictionary-encoded per batch (exact, no hash collisions) so
    string keys group at C speed. ``n_buckets`` sizes tasks, it is not a
    parallelism cap.

    Determinism: include a unique tiebreak column in ``order_cols`` for
    a total order (ties are otherwise broken by batch position).
    Descending float columns are negated (NaN-free assumption, as
    ``top_k``); descending ints/bools are inverted bitwise.
    """
    keys = [key] if isinstance(key, str) else list(key)
    order_list = [order_cols] if isinstance(order_cols, str) else list(order_cols)
    desc = (
        [descending] * len(order_list)
        if isinstance(descending, bool)
        else list(descending)
    )

    def select_top(batch: pa.Table) -> pa.Table:
        n = len(batch)
        if n == 0:
            return batch
        # least-significant first for np.lexsort
        sort_arrays = [
            _order_key(batch, c, d)
            for c, d in zip(reversed(order_list), reversed(desc))
        ]
        codes = []
        for c in reversed(keys):
            col = batch[c]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            enc = pc.dictionary_encode(col)
            # nulls encode as null indices: fill with -1 (their own group;
            # a NaN→int cast would be undefined)
            codes.append(
                np.asarray(pc.fill_null(enc.indices, -1)).astype(np.int64)
            )
        sort_arrays.extend(codes)
        order = np.lexsort(tuple(sort_arrays))
        kc = [c[order] for c in codes]
        new = np.zeros(n, dtype=bool)
        new[0] = True
        for c in kc:
            new[1:] |= c[1:] != c[:-1]
        pos = np.arange(n, dtype=np.int64)
        grp_start = np.maximum.accumulate(np.where(new, pos, 0))
        if ties:
            # RANK(): rank = position of the first row of this tie run
            # within the key group. Order keys are equality-preserving
            # transforms (values, negations, or per-batch dense ranks),
            # so comparing them detects ties exactly.
            change = new.copy()
            for oa in sort_arrays[: len(order_list)]:
                oo = oa[order]
                change[1:] |= oo[1:] != oo[:-1]
            tie_start = np.maximum.accumulate(np.where(change, pos, 0))
            rank = tie_start - grp_start
        else:
            rank = pos - grp_start
        return batch.take(pa.array(order[rank < k]))

    def add_bucket(batch: pa.Table) -> pa.Table:
        h = _key_hash(batch, keys)
        if h is None:  # unhashable key type: single bucket (rare)
            h = np.zeros(len(batch), dtype=np.uint64)
        return batch.append_column(
            "_bucket", pa.array((h % np.uint64(n_buckets)).astype(np.int64))
        )

    def per_bucket(group: pa.Table) -> pa.Table:
        return select_top(group.drop_columns(["_bucket"]))

    pruned = ds.map_batches(
        select_top, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).map_batches(
        add_bucket, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return co_shuffle(pruned, "_bucket", per_bucket, coalesce=True)


# ----------------------------------------------------- vctr-level ops

def set_crs(
    ds: ray.data.Dataset,
    col: str,
    crs: str | None,
    edges=None,
) -> ray.data.Dataset:
    """wk_set_crs / wk_set_geodesic equivalent (R/pkg-wk.R:10-51): pure
    schema-metadata rewrite, the data buffers are untouched."""
    from georay.types import EdgeType

    def fn(batch: pa.Table) -> pa.Table:
        src = GeoType.from_field(batch.schema.field(col))
        t = src.with_crs(crs)
        if edges is not None:
            t = t.with_edges(EdgeType[edges.upper()] if isinstance(edges, str) else edges)
        i = batch.schema.get_field_index(col)
        return batch.set_column(i, t.field(col), batch[col])

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)


def get_crs(ds: ray.data.Dataset, col: str):
    """(crs, crs_type, edge_type) of a geometry column (wk_crs /
    wk_is_geodesic equivalent). Reads schema only."""
    f = ds.schema().base_schema.field(col)
    t = GeoType.from_field(f)
    return t.crs, t.crs_type, t.edge_type


def union_geo(
    datasets: list[ray.data.Dataset], col: str = "geometry"
) -> ray.data.Dataset:
    """``c()`` concatenation with common-type resolution
    (R/vctr.R:78-107): identical parsed ids → plain union; any mismatch →
    cast every input to WKB first."""
    types = []
    for d in datasets:
        types.append(GeoType.from_field(d.schema().base_schema.field(col)))
    ids = {t.id for t in types}
    if len(ids) > 1:
        datasets = [cast_geometry(d, col, GeoType.wkb()) for d in datasets]
    out = datasets[0]
    for d in datasets[1:]:
        out = out.union(d)
    return out


def add_wkt_column(
    ds: ray.data.Dataset,
    col: str,
    out: str = "wkt",
    precision: int = 16,
    max_element_size_bytes: int | None = None,
) -> ray.data.Dataset:
    """format/as.character equivalent (R/vctr.R:25-55): abbreviated WKT
    with precision + byte budget — the format_wkt kernel lifted to a
    Dataset column."""
    from georay.codecs import wkt as wkt_codec

    def fn(batch: pa.Table) -> pa.Table:
        src = GeoType.from_field(batch.schema.field(col))
        txt = wkt_codec.encode(
            batch[col],
            src,
            precision=precision,
            max_element_size_bytes=max_element_size_bytes,
        )
        return batch.append_column(out, txt)

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)


def format_geometry(
    arr: pa.Array | pa.ChunkedArray,
    geo: GeoType | None = None,
    width: int = 80,
    digits: int = 7,
) -> pa.Array:
    """``format.geoarrow_vctr`` replica (R/vctr.R:38-54): abbreviated WKT
    wrapped in angle brackets, truncated at ``width - 10`` bytes with
    ``digits`` precision. Expected literals pinned against
    /root/reference/tests/testthat/test-vctr.R:12-30."""
    from georay.codecs import wkt as wkt_codec

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    txt = wkt_codec.encode(
        arr, geo, precision=digits, max_element_size_bytes=max(width - 10, 1)
    )
    return pa.array(
        [None if s is None else f"<{s}>" for s in txt.to_pylist()], pa.string()
    )


# ------------------------------------------------------- tile assembly

def tile_assemble(
    ds: ray.data.Dataset,
    tile_col: str = "tile_key",
    id_col: str = "image_id",
    max_ids_per_tile: int = 64,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """B7: per-tile manifest rows — (tile, n_images, sample of member ids).

    Tiles are hash-bucketed (one ``map_groups`` call per BUCKET, not per
    tile — per-tile Python calls are a bottleneck at deep zooms); each
    bucket assembles all its tiles in one vectorized sort+boundary pass.
    The id sample is bounded so a dense city tile cannot blow up the
    output row (no silent cap: n_images is the true count). ``n_buckets``
    sizes tasks (≈ rows / target_rows_per_task), it is not a parallelism
    cap."""

    def assemble_bucket(group: pa.Table) -> pa.Table:
        tiles = group[tile_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ids = group[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        id_np = np.asarray(ids)
        order = np.lexsort((id_np, tiles))
        t_s, id_s = tiles[order], id_np[order]
        n = t_s.shape[0]
        brk = np.ones(n, dtype=bool)
        brk[1:] = t_s[1:] != t_s[:-1]
        starts = np.flatnonzero(brk)
        run_len = np.diff(np.append(starts, n))
        take = np.minimum(run_len, max_ids_per_tile)
        samples = [
            id_s[s : s + int(c)].tolist() for s, c in zip(starts, take)
        ]
        return pa.table(
            {
                tile_col: pa.array(t_s[starts], pa.int64()),
                "n_images": pa.array(run_len, pa.int64()),
                "sample_ids": pa.array(samples),
            }
        )

    return co_shuffle(ds, tile_col, assemble_bucket, n_buckets=n_buckets, coalesce=True)


def tile_polygon_assign(
    ds: ray.data.Dataset,
    polygons: pa.Table,
    zoom: int,
    tile_col: str = "tile_key",
    geometry_col: str = "geometry",
    id_col: str = "polygon_id",
) -> pa.Table:
    """B7: raster-tile → vector assignment. The distinct tiles observed in
    ``ds`` (small set, ≤4^zoom) are intersected against the broadcast
    polygon index (exact rect–polygon test) → (tile_key, polygon id).

    The distinct-tile reduction streams (Dataset.unique); only the tiny
    tile list and the small polygon side materialize on the driver.
    """
    from georay import cells as c
    from georay.index import PolygonIndex

    tiles = np.asarray(sorted(ds.unique(tile_col)), dtype=np.int64)
    zoom_arr, tx, ty = c.tile_from_key(tiles)
    xmin, ymin, xmax, ymax = c.tile_bounds(tx, ty, zoom)
    index = PolygonIndex.build(polygons, geometry_col=geometry_col, id_col=id_col)
    ridx, poly = index.intersects_rect(xmin, ymin, xmax, ymax)
    return pa.table(
        {
            tile_col: pa.array(tiles[ridx], pa.int64()),
            id_col: index.id_array.take(pa.array(poly)),
        }
    )


# ------------------------------------------------ filters & sketches

_BLOOM_K = 4  # hash functions; FPR ≈ (1 - e^{-k·n/m})^k


def bloom_build(values: np.ndarray, bits_per_key: int = 10) -> tuple[np.ndarray, int]:
    """Packed Bloom filter over int64 keys: (uint64 word array, m_bits).
    ~``bits_per_key``·n bits total (10 → FPR ≈ 0.8% with k=4) —
    8·64/bits_per_key× smaller to broadcast than the sorted-key array.
    Build and probe are fully vectorized (mix64 with per-hash seeds)."""
    v = np.asarray(values, dtype=np.int64).view(np.uint64)
    m_bits = int(max(64, 1 << int(np.ceil(np.log2(max(len(v), 1) * bits_per_key)))))
    words = np.zeros(m_bits // 64, dtype=np.uint64)
    for i in range(_BLOOM_K):
        seed = np.uint64((0x9E3779B97F4A7C15 * (i + 1)) & ((1 << 64) - 1))
        h = _mix64(v ^ seed) % np.uint64(m_bits)
        np.bitwise_or.at(words, (h >> np.uint64(6)).astype(np.int64),
                         np.uint64(1) << (h & np.uint64(63)))
    return words, m_bits


def bloom_probe(words: np.ndarray, m_bits: int, keys: np.ndarray) -> np.ndarray:
    """Membership mask (no false negatives; FPR per ``bloom_build``)."""
    k = np.asarray(keys, dtype=np.int64).view(np.uint64)
    hit = np.ones(k.shape[0], dtype=bool)
    for i in range(_BLOOM_K):
        seed = np.uint64((0x9E3779B97F4A7C15 * (i + 1)) & ((1 << 64) - 1))
        h = _mix64(k ^ seed) % np.uint64(m_bits)
        w = words[(h >> np.uint64(6)).astype(np.int64)]
        hit &= (w >> (h & np.uint64(63))) & np.uint64(1) != 0
    return hit


def semi_join_filter(
    ds: ray.data.Dataset,
    key: str,
    keep_values: np.ndarray,
    anti: bool = False,
    bloom_bits_per_key: int | None = None,
) -> ray.data.Dataset:
    """Broadcast semi/anti join: the (small) key set ships once via
    ``exchange.broadcast`` as a sorted array; each batch filters with one
    searchsorted — exact.

    ``bloom_bits_per_key`` switches the broadcast to a packed Bloom
    filter (the 10⁹-key slot: ~50× less broadcast bytes at 10 bits/key).
    Approximate: SEMI keeps ~FPR extra rows (never loses one); ANTI
    would false-DROP, so Bloom+anti is rejected."""
    if bloom_bits_per_key is not None:
        if anti:
            raise ValueError("Bloom filter is semi-only (anti would false-drop)")
        words, m_bits = bloom_build(np.unique(np.asarray(keep_values)),
                                    bloom_bits_per_key)
        bref = exchange.broadcast(words)

        def bloom_fn(batch: pa.Table) -> pa.Table:
            w = bref.get()
            k = batch[key].to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(bloom_probe(w, m_bits, k)))

        return ds.map_batches(
            bloom_fn, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
        )

    vals = np.unique(np.asarray(keep_values))
    ref = exchange.broadcast(vals)

    def fn(batch: pa.Table) -> pa.Table:
        v = ref.get()
        k = batch[key].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(v, k)
        pos = np.clip(pos, 0, max(len(v) - 1, 0))
        hit = (v[pos] == k) if len(v) else np.zeros(len(k), bool)
        return batch.filter(pa.array(~hit if anti else hit))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)


_HLL_P = 12  # 4096 registers, ~1.6% standard error


def hll_partial(values: np.ndarray) -> np.ndarray:
    """HyperLogLog register array for one batch (mergeable by max)."""
    import pandas as pd

    h = pd.util.hash_array(np.asarray(values)).astype(np.uint64)
    m = np.uint64((1 << _HLL_P) - 1)
    reg_idx = (h & m).astype(np.int64)
    w = h >> np.uint64(_HLL_P)
    # rank = position of first set bit in the remaining 52 bits (1-based);
    # w == 0 takes the max rank, and its log2 input is clamped to 1 so no
    # -inf reaches the int cast
    lz = np.where(
        w == 0,
        64 - _HLL_P + 1,
        64 - _HLL_P - np.floor(np.log2(np.maximum(w, 1).astype(np.float64))).astype(np.int64),
    )
    regs = np.zeros(1 << _HLL_P, dtype=np.int8)
    np.maximum.at(regs, reg_idx, lz.astype(np.int8))
    return regs


def hll_merge_estimate(partials) -> float:
    """Merge register arrays (elementwise max) → cardinality estimate."""
    regs = np.zeros(1 << _HLL_P, dtype=np.int8)
    for p in partials:
        np.maximum(regs, p, out=regs)
    m = float(1 << _HLL_P)
    alpha = 0.7213 / (1.0 + 1.079 / m)
    est = alpha * m * m / np.sum(np.power(2.0, -regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # small-range correction
    return float(est)


def approx_distinct(ds: ray.data.Dataset, col: str) -> float:
    """Approximate COUNT DISTINCT via per-batch HLL sketches max-merged
    through the combine tree, so the driver receives one 4 KB register
    row (the mergeable-sketch aggregation pattern; ~1.6% standard error
    at 2^12 registers). Empty input estimates 0.0."""

    def partial(batch: pa.Table) -> pa.Table:
        regs = hll_partial(batch[col].to_numpy(zero_copy_only=False))
        return pa.table({"regs": pa.array([regs.tobytes()], pa.binary())})

    def max_regs(batch: pa.Table) -> pa.Table:
        regs = np.frombuffer(
            b"".join(batch["regs"].to_pylist()), dtype=np.int8
        ).reshape(-1, 1 << _HLL_P).max(axis=0)
        return pa.table({"regs": pa.array([regs.tobytes()], pa.binary())})

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    merged = exchange.collect(
        exchange.gather(exchange.combine(parts, max_regs), max_regs)
    )
    return hll_merge_estimate(
        [np.frombuffer(r, dtype=np.int8) for r in merged["regs"].to_pylist()]
        if merged.num_rows else []
    )


def grouped_approx_distinct(
    ds: ray.data.Dataset,
    key: str,
    col: str,
) -> dict:
    """Per-key approximate COUNT DISTINCT (grouped HLL): each batch emits
    one (key, 4096-register sketch) row per key PRESENT; sketches merge
    by element-wise max per key in one groupby of sketch rows — the
    corpus never shuffles, only keys × 4 KB sketches. Assumes bounded
    key cardinality (categorical keys), like every histogram-final here.

    Returns {key_value: estimate} (~1.6% standard error)."""

    def partial(batch: pa.Table) -> pa.Table:
        karr = batch[key]
        if isinstance(karr, pa.ChunkedArray):
            karr = karr.combine_chunks()
        enc = pc.dictionary_encode(karr)
        codes = np.asarray(pc.fill_null(enc.indices, -1)).astype(np.int64)
        vals = batch[col].to_numpy(zero_copy_only=False)
        keys_out, regs_out = [], []
        for code in np.unique(codes):
            sel = codes == code
            keys_out.append(
                None if code < 0 else enc.dictionary[int(code)].as_py()
            )
            regs_out.append(hll_partial(vals[sel]).tobytes())
        return pa.table(
            {key: pa.array(keys_out), "regs": pa.array(regs_out, pa.binary())}
        )

    def merge(group: pa.Table) -> pa.Table:
        regs = np.zeros(1 << _HLL_P, dtype=np.int8)
        for b in group["regs"].to_pylist():
            np.maximum(regs, np.frombuffer(b, dtype=np.int8), out=regs)
        return pa.table(
            {key: group[key].slice(0, 1), "regs": pa.array([regs.tobytes()], pa.binary())}
        )

    merged = co_shuffle(
        ds.map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
        ),
        key, merge, coalesce=False,
    ).take_all()
    return {
        r[key]: hll_merge_estimate([np.frombuffer(r["regs"], dtype=np.int8)])
        for r in merged
    }


def systematic_sample(
    ds: ray.data.Dataset,
    key_cols: list[str],
    mod: int = 10,
    keep: int = 0,
) -> ray.data.Dataset:
    """Deterministic content-hash sampling: keep rows where
    ``md5(key) % mod == keep``. Unlike ``random_sample`` this is
    REPRODUCIBLE across runs/engines (the property training-data
    pipelines need for stable held-out splits) and exactly mirrors the
    SQL expression ``('0x' || substr(md5(key),1,8))::UBIGINT % mod``."""
    import hashlib

    def fn(batch: pa.Table) -> pa.Table:
        # the key string is built by ONE Arrow C kernel; md5 itself is
        # locked by the SQL oracle so the per-row digest remains, reduced
        # to digest()[:4] (== the hexdigest[:8] big-endian integer)
        key = pc.binary_join_element_wise(
            *[batch[c].cast(pa.string()) for c in key_cols], "-"
        )
        md5 = hashlib.md5
        sel = np.fromiter(
            (
                int.from_bytes(md5(s).digest()[:4], "big") % mod == keep
                for s in key.cast(pa.binary()).to_pylist()
            ),
            dtype=bool,
            count=len(batch),
        )
        return batch.filter(pa.array(sel))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)


# -------------------------------------------- temporal custom operators

def broadcast_join(
    ds: ray.data.Dataset,
    dim: pa.Table,
    on: str,
    dim_on: str | None = None,
    how: str = "inner",
) -> ray.data.Dataset:
    """Map-side equality join against a SMALL dimension table: the dim
    table is ``exchange.broadcast`` once and probed per batch with
    ``pc.index_in`` (Arrow's C hash lookup) — no shuffle, no per-row
    Python, the big side streams. The 100-TB pattern for attaching
    lookup columns (labels, names, configs) without an all-to-all
    exchange; for both-sides-large equality joins use Ray's
    ``Dataset.join``.

    ``how``: "inner" drops probe rows with no dim match; "left" keeps
    them with null dim columns. Duplicate dim keys keep the FIRST
    occurrence (dimension tables are expected unique on the key).
    """
    dkey = dim_on or on
    if how not in ("inner", "left"):
        raise ValueError(f"how must be inner|left, got {how!r}")
    dim_cols = [c for c in dim.column_names if c != dkey]
    ref = exchange.broadcast(dim.combine_chunks())

    def probe(batch: pa.Table) -> pa.Table:
        d: pa.Table = ref.get()
        keys = d[dkey].combine_chunks() if isinstance(d[dkey], pa.ChunkedArray) else d[dkey]
        pos = pc.index_in(batch[on], value_set=keys)
        if how == "inner":
            hit = pc.is_valid(pos)
            batch = batch.filter(hit)
            pos = pc.filter(pos, hit)
        for c in dim_cols:
            col = d[c].combine_chunks() if isinstance(d[c], pa.ChunkedArray) else d[c]
            batch = batch.append_column(c, pc.take(col, pos))
        return batch

    return ds.map_batches(
        probe, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def join_auto(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str,
    right_on: str | None = None,
    how: str = "inner",
    broadcast_limit: int = 1_000_000,
) -> ray.data.Dataset:
    """Plan-picking equality join — the broadcast-vs-partitioned switch
    ``movement_report``'s dwell gate does ad hoc, as a public operator:
    count the right side once; if it fits ``broadcast_limit`` AND is
    unique on its key (so map-side first-match probing IS join
    semantics) take ``broadcast_join`` (no shuffle, big side streams);
    otherwise — large, duplicate-keyed, or a semi/anti/outer shape the
    broadcast path doesn't cover — take ``equi_join_partitioned``.
    Output rows and columns are identical either way (pytest-pinned
    with ``broadcast_limit=0`` forcing the co-shuffle plan).

    The count is one metadata-cheap pass; at 100 TB the dimension side
    of a star join is known small and the switch saves the all-to-all
    exchange, while a mis-guessed "small" side degrades to the
    partitioned plan instead of a driver OOM."""
    rk = right_on or on
    right = right.materialize()  # count + collect/fallback share one execution
    if how in ("inner", "left") and right.count() <= broadcast_limit:
        tbl = exchange.collect(right)
        keys = tbl[rk]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        n_valid = len(tbl) - keys.null_count
        if pc.count_distinct(keys).as_py() == n_valid and keys.null_count == 0:
            return broadcast_join(left, tbl, on, dim_on=rk, how=how)
    return equi_join_partitioned(left, right, on, right_on=right_on, how=how)


def equi_join_partitioned(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str | list[str],
    right_on: str | list[str] | None = None,
    how: str = "inner",
    n_buckets: int = 64,
    n_salt: int = 1,
) -> ray.data.Dataset:
    """BOTH-SIDES-LARGE equality join (the scale twin of
    ``broadcast_join``, mirroring pip/knn/asof partitioned variants):
    both sides are hash-bucketed by key and co-shuffled with ONE
    ``groupby(bucket)``; each bucket joins locally with Arrow's C++ hash
    join (``pa.Table.join``). Built on the union+bucket plan rather than
    ``Dataset.join`` to sidestep the Ray 2.49 empty-partition schema
    loss (ROUND_NOTES) and to reuse the engine's one partitioning key.

    ``how``: "inner", "left", "outer" (full outer — unmatched rows of
    EITHER side survive with the other side nulled; keys coalesce),
    "semi" (left rows with ≥1 right match, emitted once), or "anti"
    (left rows with NO right match). For semi/anti only the right KEY
    column is shuffled (existence probe), never its payload.
    Non-key column names must be disjoint across sides. Duplicate keys
    produce full per-key pairs (true join semantics) — a single hot key
    concentrates in one bucket, so salt upstream if a key's match set
    exceeds a worker's heap. ``n_buckets`` sizes tasks, it is not a
    parallelism cap.

    ``n_salt`` > 1 spreads each key over ``n_salt`` buckets: left rows
    round-robin across salts, the right side is replicated ``n_salt``×
    so every salt bucket holds a full copy of its keys' right rows —
    exact for inner/left (outer would duplicate unmatched right rows,
    so it is rejected). Use when ONE hot key's match set exceeds a
    worker; costs right×n_salt.

    ``on`` / ``right_on`` accept a LIST for composite keys (rows match
    when every key column is equal; any NULL key never matches, SQL
    semantics) — the bucket hash covers all key columns, still one
    shuffle.
    """
    if how not in ("inner", "left", "outer", "semi", "anti"):
        raise ValueError(f"how must be inner|left|outer|semi|anti, got {how!r}")
    if n_salt > 1 and how == "outer":
        raise ValueError("n_salt requires inner|left|semi|anti (outer would duplicate)")
    lon = [on] if isinstance(on, str) else list(on)
    ron = lon if right_on is None else (
        [right_on] if isinstance(right_on, str) else list(right_on)
    )
    if len(lon) != len(ron):
        raise ValueError("on and right_on must name the same number of columns")
    l_schema = left.schema().base_schema
    r_schema = right.schema().base_schema
    l_cols = list(l_schema.names)
    # semi/anti emit left rows only — the right side ships just its key
    # column(s) (existence probe), so no right payload bytes move at all.
    r_cols = [] if how in ("semi", "anti") else [
        c for c in r_schema.names if c not in ron
    ]
    clash = set(l_cols) & set(r_cols)
    if clash:
        raise ValueError(f"non-key columns must be disjoint, shared: {sorted(clash)}")
    l_types = {c: l_schema.field(c).type for c in l_cols}
    r_types = {c: r_schema.field(c).type for c in r_cols}
    r_of_l = dict(zip(lon, ron))

    def key_left(batch: pa.Table) -> pa.Table:
        base = bucket_ids(batch, lon, n_buckets)
        salt = np.arange(len(batch), dtype=np.int64) % n_salt
        cols = {
            "_bucket": pa.array(base * n_salt + salt),
            "_side": pa.array(np.zeros(len(batch), np.int8)),
        }
        for c in l_cols:
            v = batch[c]
            # unify block-local types (e.g. an all-null block) to schema
            cols[c] = v if v.type == l_types[c] else v.cast(l_types[c])
        for c in r_cols:
            cols[c] = pa.nulls(len(batch), r_types[c])
        return pa.table(cols)

    def key_right(batch: pa.Table) -> pa.Table:
        base = bucket_ids(batch, ron, n_buckets)
        n = len(batch)
        if n_salt > 1:
            idx = np.repeat(np.arange(n, dtype=np.int64), n_salt)
            salt = np.tile(np.arange(n_salt, dtype=np.int64), n)
            batch = batch.take(pa.array(idx))
            bucket = base[idx] * n_salt + salt
        else:
            bucket = base
        cols = {
            "_bucket": pa.array(bucket),
            "_side": pa.array(np.ones(len(batch), np.int8)),
        }
        for c in l_cols:
            if c in r_of_l:
                cols[c] = batch[r_of_l[c]].cast(l_types[c])
            else:
                cols[c] = pa.nulls(len(batch), l_types[c])
        for c in r_cols:
            v = batch[c]
            cols[c] = v if v.type == r_types[c] else v.cast(r_types[c])
        return pa.table(cols)

    lk = left.map_batches(
        key_left, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    rk = right.map_batches(
        key_right, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )

    def join_bucket(group: pa.Table) -> pa.Table:
        side = group["_side"].to_numpy(zero_copy_only=False)
        lt = group.filter(pa.array(side == 0)).select(l_cols)
        rt = group.filter(pa.array(side == 1)).select(lon + r_cols)
        if how in ("semi", "anti"):
            if len(lon) == 1:
                keys = rt[lon[0]]
                if isinstance(keys, pa.ChunkedArray):
                    keys = keys.combine_chunks()
                # skip_nulls: SQL equality never matches NULL = NULL, so a
                # NULL-key left row is dropped by semi and kept by anti
                hit = pc.is_valid(
                    pc.index_in(
                        lt[lon[0]],
                        options=pc.SetLookupOptions(
                            value_set=keys, skip_nulls=True
                        ),
                    )
                )
                return lt.filter(hit if how == "semi" else pc.invert(hit))
            # composite keys: Arrow's own semi/anti hash join (NULL keys
            # never match, matching left rows emit once — SQL semantics)
            jt = "left semi" if how == "semi" else "left anti"
            return lt.join(rt, keys=lon, join_type=jt).select(l_cols)
        jt = {"inner": "inner", "left": "left outer", "outer": "full outer"}[how]
        joined = lt.join(rt, keys=lon, join_type=jt)
        return joined.select(l_cols + r_cols)

    joined = co_shuffle([lk, rk], "_bucket", join_bucket, coalesce=True)
    # typed-empty anchor: a zero-match join drops every block (Ray 2.49
    # discards empty blocks → schema() degrades to None and a 0-row
    # result loses its columns). The output schema is fully known here,
    # so prepend a 0-row block carrying it — free, streaming-safe.
    out_schema = pa.schema(
        [pa.field(c, l_types[c]) for c in l_cols]
        + [pa.field(c, r_types[c]) for c in r_cols]
    )
    return ray.data.from_arrow(out_schema.empty_table()).union(joined)


def asof_join_broadcast(
    ds: ray.data.Dataset,
    right: pa.Table,
    left_key: str,
    left_ts: str,
    right_key: str,
    right_ts: str,
    out_ts: str = "matched_ts",
    direction: str = "backward",
    tolerance: int | None = None,
) -> ray.data.Dataset:
    """As-of join, Ray Data lacking a built-in: broadcast the (small)
    right side sorted by (key, ts) with rank-compressed timestamps,
    probe per batch with two ``np.searchsorted`` calls — no shuffle of
    the big side. Inner join; ``out_ts`` carries the matched right
    timestamp (µs). ``direction``: "backward" (default — greatest right
    ts ≤ left ts per key, DuckDB/pandas asof semantics), "forward"
    (smallest right ts ≥ left ts per key), or "nearest" (minimum
    |Δts|; ties break BACKWARD, i.e. to the smaller right ts —
    deterministic and SQL-expressible as ORDER BY abs(Δ), ts LIMIT 1).
    ``tolerance`` (µs, pandas merge_asof parity): matches with
    |Δts| > tolerance are dropped — applied AFTER the directional pick,
    so a left row whose only in-direction match is too far is dropped,
    not rematched.

    For a LARGE right side the same kernel runs per key-hash bucket after
    bucketing both sides (partitioned asof) — documented scale path.
    """
    if direction not in ("backward", "forward", "nearest"):
        raise ValueError(
            f"direction must be backward|forward|nearest, got {direction!r}"
        )
    rk = right[right_key].to_numpy(zero_copy_only=False).astype(np.int64)
    rt = right[right_ts].cast(pa.int64()).to_numpy(zero_copy_only=False)
    order = np.lexsort((rt, rk))
    rk_s, rt_s = rk[order], rt[order]
    # rank-compress right timestamps so (key, rank) packs into one int64
    uniq_ts = np.unique(rt_s)
    ranks = np.searchsorted(uniq_ts, rt_s)
    shift = int(np.ceil(np.log2(max(len(uniq_ts), 2))))
    comp = (rk_s << np.int64(shift)) | ranks.astype(np.int64)
    payload = exchange.broadcast((comp, rt_s, rk_s, uniq_ts, shift))

    def probe(batch: pa.Table) -> pa.Table:
        comp_r, rt_sorted, rk_sorted, u_ts, sh = payload.get()
        lk = batch[left_key].to_numpy(zero_copy_only=False).astype(np.int64)
        lt = batch[left_ts].cast(pa.int64()).to_numpy(zero_copy_only=False)

        def match_backward():
            # greatest right rank with ts ≤ left ts
            r_up = np.searchsorted(u_ts, lt, side="right") - 1
            probe_comp = (lk << np.int64(sh)) | np.maximum(r_up, 0)
            pos = np.searchsorted(comp_r, probe_comp, side="right") - 1
            ok = (pos >= 0) & (r_up >= 0)
            pos_c = np.clip(pos, 0, len(comp_r) - 1)
            ok &= rk_sorted[pos_c] == lk  # landed inside this key's run
            return ok, pos_c

        def match_forward():
            # smallest right rank with ts ≥ left ts
            r_lo = np.searchsorted(u_ts, lt, side="left")
            in_range = r_lo < len(u_ts)
            probe_comp = (lk << np.int64(sh)) | np.minimum(
                r_lo, max(len(u_ts) - 1, 0)
            )
            pos = np.searchsorted(comp_r, probe_comp, side="left")
            ok = in_range & (pos < len(comp_r))
            pos_c = np.clip(pos, 0, len(comp_r) - 1)
            ok &= rk_sorted[pos_c] == lk
            return ok, pos_c

        if direction == "backward":
            ok, pos_c = match_backward()
        elif direction == "forward":
            ok, pos_c = match_forward()
        else:  # nearest: min |Δts|, tie → backward (smaller right ts)
            ok_b, pos_b = match_backward()
            ok_f, pos_f = match_forward()
            big = np.int64(np.iinfo(np.int64).max)
            db = np.where(ok_b, lt - rt_sorted[pos_b], big)
            df = np.where(ok_f, rt_sorted[pos_f] - lt, big)
            use_b = ok_b & (~ok_f | (db <= df))
            ok = ok_b | ok_f
            pos_c = np.where(use_b, pos_b, pos_f)
        if tolerance is not None:
            pos_cc = np.clip(pos_c, 0, len(rt_sorted) - 1)
            ok &= np.abs(lt - rt_sorted[pos_cc]) <= np.int64(tolerance)
        out = batch.filter(pa.array(ok))
        matched = rt_sorted[pos_c[ok]]
        return out.append_column(out_ts, pa.array(matched, pa.int64()))

    return ds.map_batches(
        probe, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def asof_interpolate(
    ds: ray.data.Dataset,
    right: pa.Table,
    left_key: str,
    left_ts: str,
    right_key: str,
    right_ts: str,
    right_val: str,
    out_col: str = "interp",
) -> ray.data.Dataset:
    """Linear interpolation at query times from a bracketing sample
    series (the sensor-alignment primitive a plain as-of join rounds
    away): for each left row, the greatest right ts ≤ qt (backward) and
    smallest right ts ≥ qt (forward) within the key bracket the query;
    ``interp = bv + (fv − bv) · ((qt − bts) / (fts − bts))`` in exactly
    that IEEE operation order (replicated verbatim in the SQL twin), or
    ``bv`` when the brackets coincide (exact sample hit). INNER
    semantics: rows without BOTH brackets are dropped. Duplicate right
    timestamps per key are pre-reduced to MIN(value) inside the op
    (deterministic, SQL ``MIN``), so the bracket value is well-defined.

    Same scale shape as ``asof_join_broadcast``: the (small) series
    broadcasts sorted + rank-compressed once; each batch probes with
    two ``searchsorted`` calls — the big side never shuffles. For a
    LARGE series run the same kernel per key-hash bucket (the
    ``asof_join_partitioned`` plan)."""
    rk0 = right[right_key].to_numpy(zero_copy_only=False).astype(np.int64)
    rt0 = right[right_ts].cast(pa.int64()).to_numpy(zero_copy_only=False)
    rv0 = right[right_val].to_numpy(zero_copy_only=False).astype(np.float64)
    # per-(key, ts) MIN(value): dedupe so each bracket has ONE value
    order = np.lexsort((rv0, rt0, rk0))
    rk1, rt1, rv1 = rk0[order], rt0[order], rv0[order]
    first = np.ones(rk1.shape[0], dtype=bool)
    if rk1.shape[0] > 1:
        first[1:] = (rk1[1:] != rk1[:-1]) | (rt1[1:] != rt1[:-1])
    # rows sorted by value within (key, ts): the first of each run IS
    # the min
    rk_s, rt_s, rv_s = rk1[first], rt1[first], rv1[first]
    uniq_ts = np.unique(rt_s)
    ranks = np.searchsorted(uniq_ts, rt_s)
    shift = int(np.ceil(np.log2(max(len(uniq_ts), 2))))
    comp = (rk_s << np.int64(shift)) | ranks.astype(np.int64)
    payload = exchange.broadcast((comp, rt_s, rk_s, rv_s, uniq_ts, shift))

    def probe(batch: pa.Table) -> pa.Table:
        comp_r, rts, rks, rvs, u_ts, sh = payload.get()
        lk = batch[left_key].to_numpy(zero_copy_only=False).astype(np.int64)
        lt = batch[left_ts].cast(pa.int64()).to_numpy(zero_copy_only=False)
        n = lk.shape[0]
        if n == 0 or len(comp_r) == 0:
            return batch.slice(0, 0).append_column(
                out_col, pa.array([], pa.float64())
            )
        # backward: greatest (key, ts-rank) ≤ (key, rank(qt))
        r_up = np.searchsorted(u_ts, lt, side="right") - 1
        pb = np.searchsorted(
            comp_r, (lk << np.int64(sh)) | np.maximum(r_up, 0), side="right"
        ) - 1
        okb = (r_up >= 0) & (pb >= 0)
        pbc = np.clip(pb, 0, len(comp_r) - 1)
        okb &= (rks[pbc] == lk) & (rts[pbc] <= lt)
        # forward: smallest (key, ts-rank) ≥ (key, rank(qt))
        r_lo = np.searchsorted(u_ts, lt, side="left")
        pf = np.searchsorted(
            comp_r,
            (lk << np.int64(sh)) | np.minimum(r_lo, max(len(u_ts) - 1, 0)),
            side="left",
        )
        okf = (r_lo < len(u_ts)) & (pf < len(comp_r))
        pfc = np.clip(pf, 0, len(comp_r) - 1)
        okf &= (rks[pfc] == lk) & (rts[pfc] >= lt)
        ok = okb & okf
        bts, fts = rts[pbc[ok]], rts[pfc[ok]]
        bv, fv = rvs[pbc[ok]], rvs[pfc[ok]]
        qt = lt[ok]
        same = fts == bts
        den = np.where(same, 1, fts - bts).astype(np.float64)
        ratio = (qt - bts).astype(np.float64) / den
        v = np.where(same, bv, bv + (fv - bv) * ratio)
        return batch.filter(pa.array(ok)).append_column(
            out_col, pa.array(v, pa.float64())
        )

    return ds.map_batches(
        probe, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def asof_join_partitioned(
    ds: ray.data.Dataset,
    right: ray.data.Dataset,
    left_key: str,
    left_ts: str,
    right_key: str,
    right_ts: str,
    out_ts: str = "matched_ts",
    left_payload: list[str] | None = None,
    n_buckets: int = 32,
) -> ray.data.Dataset:
    """BOTH-SIDES-LARGE as-of join (the scale twin of
    ``asof_join_broadcast``, mirroring pip_join_partitioned /
    knn_join_partitioned): both sides are hash-bucketed by key and
    co-shuffled with ONE ``groupby(bucket)``; inside each bucket the same
    lexsort + searchsorted kernel matches every left row to the greatest
    right ts ≤ its ts for its key. Inner join, bit-identical rows to the
    broadcast plan.

    Partitioning assumption: one bucket (≈ |keys|/n_buckets of BOTH
    sides) fits a worker — hash bucketing bounds skew to the hottest
    single key.
    """
    pay = list(left_payload or [])
    left_schema = ds.schema().base_schema
    pay_types = [left_schema.field(c).type for c in pay]

    def key_side(side: int, key_col: str, ts_col: str, payload: list[str]):
        def fn(batch: pa.Table) -> pa.Table:
            k = batch[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
            t = batch[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
            cols = {
                "side": pa.array(np.full(len(batch), side, np.int8)),
                "k": pa.array(k),
                "t": pa.array(t),
            }
            for i, c in enumerate(pay):
                cols[f"p{i}"] = batch[c].cast(pay_types[i])
            return pa.table(cols)

        return fn

    left_keyed = ds.map_batches(
        key_side(0, left_key, left_ts, pay),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )
    # right side must carry the same schema for union: null payloads
    def right_fn(batch: pa.Table) -> pa.Table:
        k = batch[right_key].to_numpy(zero_copy_only=False).astype(np.int64)
        t = batch[right_ts].cast(pa.int64()).to_numpy(zero_copy_only=False)
        cols = {
            "side": pa.array(np.full(len(batch), 1, np.int8)),
            "k": pa.array(k),
            "t": pa.array(t),
        }
        for i in range(len(pay)):
            cols[f"p{i}"] = pa.nulls(len(batch), pay_types[i])
        return pa.table(cols)

    right_keyed = right.map_batches(
        right_fn, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )

    def match_bucket(group: pa.Table) -> pa.Table:
        side = group["side"].to_numpy(zero_copy_only=False)
        left = group.filter(pa.array(side == 0))
        rt = group.filter(pa.array(side == 1))
        out_cols = {c: pa.array([], pa.int64()) for c in (left_key, left_ts, out_ts)}
        for i, c in enumerate(pay):
            out_cols[c] = pa.array([], group.schema.field(f"p{i}").type)
        if len(left) == 0 or len(rt) == 0:
            return pa.table(out_cols)
        lk = left["k"].to_numpy(zero_copy_only=False)
        lt = left["t"].to_numpy(zero_copy_only=False)
        rk = rt["k"].to_numpy(zero_copy_only=False)
        rts = rt["t"].to_numpy(zero_copy_only=False)
        order = np.lexsort((rts, rk))
        rk_s, rt_s = rk[order], rts[order]
        # greatest right (key, ts) ≤ (key, lt): searchsorted over the
        # lexicographic (key, ts) pairs via rank compression
        uniq_ts = np.unique(rt_s)
        ranks = np.searchsorted(uniq_ts, rt_s)
        shift = int(np.ceil(np.log2(max(len(uniq_ts), 2))))
        comp = (rk_s << np.int64(shift)) | ranks.astype(np.int64)
        r_up = np.searchsorted(uniq_ts, lt, side="right") - 1
        probe = (lk << np.int64(shift)) | np.maximum(r_up, 0)
        pos = np.searchsorted(comp, probe, side="right") - 1
        ok = (pos >= 0) & (r_up >= 0)
        pos_c = np.clip(pos, 0, len(comp) - 1)
        ok &= rk_s[pos_c] == lk
        sel = left.filter(pa.array(ok))
        out_cols = {
            left_key: pa.array(lk[ok], pa.int64()),
            left_ts: pa.array(lt[ok], pa.int64()),
            out_ts: pa.array(rt_s[pos_c[ok]], pa.int64()),
        }
        for i, c in enumerate(pay):
            out_cols[c] = sel[f"p{i}"]
        return pa.table(out_cols)

    return co_shuffle(
        [left_keyed, right_keyed], "k", match_bucket, n_buckets=n_buckets,
        coalesce=True,
    )


def interval_join_count(
    ds: ray.data.Dataset,
    right: pa.Table,
    probe_ts: str,
    start_col: str,
    width_us: int | None = None,
    end_col: str | None = None,
    out: str = "n_matches",
) -> ray.data.Dataset:
    """1-D RANGE JOIN with the count pushed into the probe (the
    ``pip_count`` precedent — the many-to-many pair intermediate never
    materializes): each probe row counts the right intervals containing
    its timestamp. Half-open ``[start, end)`` semantics.

    - Fixed width (``width_us``): exact with TWO ``searchsorted`` calls
      against the broadcast sorted starts — containment ⟺
      ``start ∈ (ts − width, ts]``.
    - Variable width (``end_col``): the same searchsorted window bounded
      by the MAX width, then a vectorized end check over the ragged
      candidate runs (cost ∝ candidates under the max-width bound — the
      documented density assumption; a handful of pathological long
      intervals should be split or handled by a dedicated long-list).

    No shuffle of the big side.
    """
    starts_raw = right[start_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
    if end_col is None:
        if width_us is None:
            raise ValueError("one of width_us / end_col is required")
        payload = (np.sort(starts_raw), np.int64(width_us), None)
    else:
        ends_raw = right[end_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        order = np.argsort(starts_raw)
        s_sorted = starts_raw[order]
        e_sorted = ends_raw[order]
        max_w = np.int64(max(int((ends_raw - starts_raw).max(initial=0)), 0))
        payload = (s_sorted, max_w, e_sorted)
    ref = exchange.broadcast(payload)

    def probe(batch: pa.Table) -> pa.Table:
        s, w, e = ref.get()
        ts = batch[probe_ts].cast(pa.int64()).to_numpy(zero_copy_only=False)
        hi = np.searchsorted(s, ts, side="right")
        lo = np.searchsorted(s, ts - w, side="right")
        if e is None:
            n = hi - lo
        else:
            from georay.index import _ragged_ranges

            cnts = hi - lo
            owner, within = _ragged_ranges(cnts)
            cand = np.repeat(lo, cnts) + within
            inside = e[cand] > ts[owner]
            n = np.zeros(ts.shape[0], dtype=np.int64)
            nz = cnts > 0
            if np.any(nz):
                run_starts = (np.cumsum(cnts) - cnts)[nz]
                n[nz] = np.add.reduceat(inside.astype(np.int64), run_starts)
        return batch.append_column(out, pa.array(n, pa.int64()))

    return ds.map_batches(
        probe, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def interval_join_count_partitioned(
    ds: ray.data.Dataset,
    right: ray.data.Dataset,
    probe_ts: str,
    start_col: str,
    width_us: int,
    bucket_us: int | None = None,
    payload: list[str] | None = None,
    out: str = "n_matches",
) -> ray.data.Dataset:
    """BOTH-SIDES-LARGE range join (the scale twin of
    ``interval_join_count``, completing the broadcast/partitioned pair
    matrix with pip/knn/asof): probes key by their time bucket, each
    fixed-width interval explodes to every bucket it overlaps
    (≤ 1 + width/bucket µs copies), ONE ``groupby(bucket)`` co-shuffle,
    and the bucket-local count uses the same sorted-starts searchsorted
    kernel. Each probe lives in exactly one bucket and sees each
    overlapping interval copy exactly once, so counts are complete
    locally — bit-identical to the broadcast plan.

    ``bucket_us`` defaults to ``width_us`` (amplification ≤ 2×); raise
    it when intervals are narrow relative to the time span.
    """
    B = np.int64(bucket_us or width_us)
    W = np.int64(width_us)
    pay = list(payload or [])
    probe_schema = ds.schema().base_schema
    pay_types = [probe_schema.field(c).type for c in pay]

    def key_probe(batch: pa.Table) -> pa.Table:
        ts = batch[probe_ts].cast(pa.int64()).to_numpy(zero_copy_only=False)
        cols = {
            "bucket": pa.array(ts // B),
            "side": pa.array(np.zeros(len(batch), np.int8)),
            "t": pa.array(ts),
        }
        for i, c in enumerate(pay):
            cols[f"p{i}"] = batch[c].cast(pay_types[i])
        return pa.table(cols)

    def key_interval(batch: pa.Table) -> pa.Table:
        s = batch[start_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        b_lo = s // B
        b_hi = (s + W - 1) // B  # last bucket the half-open window touches
        cnts = (b_hi - b_lo + 1).astype(np.int64)
        from georay.index import _ragged_ranges

        owner, within = _ragged_ranges(cnts)
        cols = {
            "bucket": pa.array(b_lo[owner] + within),
            "side": pa.array(np.ones(owner.shape[0], np.int8)),
            "t": pa.array(s[owner]),
        }
        for i, c in enumerate(pay):
            cols[f"p{i}"] = pa.nulls(owner.shape[0], pay_types[i])
        return pa.table(cols)

    lk = ds.map_batches(
        key_probe, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    rk = right.map_batches(
        key_interval, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )

    def count_bucket(group: pa.Table) -> pa.Table:
        side = group["side"].to_numpy(zero_copy_only=False)
        probes = group.filter(pa.array(side == 0))
        ivals = group.filter(pa.array(side == 1))
        ts = probes["t"].to_numpy(zero_copy_only=False)
        s = np.sort(ivals["t"].to_numpy(zero_copy_only=False))
        hi = np.searchsorted(s, ts, side="right")
        lo = np.searchsorted(s, ts - W, side="right")
        cols = {}
        for i, c in enumerate(pay):
            cols[c] = probes[f"p{i}"]
        cols[probe_ts] = pa.array(ts, pa.int64())
        cols[out] = pa.array(hi - lo, pa.int64())
        return pa.table(cols)

    return co_shuffle([lk, rk], "bucket", count_bucket, coalesce=True)


def grouped_spearman(
    ds: ray.data.Dataset,
    key: str,
    x_col: str,
    y_col: str,
    quantize_x: float = 100.0,
    quantize_y: float = 1.0,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """EXACT per-key Spearman rank correlation sufficient statistics —
    the monotonic-association detector (is this metric drifting with
    time / load / size?) that Pearson misses on nonlinear trends. Both
    columns quantize to integers, each key's values get DOUBLED
    average ranks (``2·avg_rank = 2·RANK() + |peers| − 1`` — an
    integer even through ties, replicated verbatim in the SQL twin),
    and the output row per key carries ``(n_pairs, cov_num, var_x,
    var_y)`` over those rank pairs: ``ρ = cov_num / √(var_x·var_y)``
    with ``cov_num = n·Σxy − Σx·Σy`` etc. — every value int64-exact so
    the oracle hash-matches. One key-bucket shuffle; ranks are ONE
    lexsort + run-boundary scan per column (no per-key Python).
    Overflow budget: ``4·n_key³ < 2^63`` (n_key ≲ 1.3M rows per key).
    NULL x/y rows are excluded listwise."""
    proj = ds.select_columns([key, x_col, y_col])

    def rank2(k: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Doubled average rank of v within each key (k pre-sorted rows
        not required — returns aligned to input order)."""
        order = np.lexsort((v, k))
        ks, vs = k[order], v[order]
        n = ks.shape[0]
        newkey = np.zeros(n, dtype=bool)
        newkey[0] = True
        newkey[1:] = ks[1:] != ks[:-1]
        keystart = np.maximum.accumulate(
            np.where(newkey, np.arange(n), 0)
        )
        newrun = newkey.copy()
        newrun[1:] |= vs[1:] != vs[:-1]
        runstart = np.maximum.accumulate(np.where(newrun, np.arange(n), 0))
        # run end (exclusive): next run's start
        run_ids = np.cumsum(newrun) - 1
        starts = np.flatnonzero(newrun)
        ends = np.append(starts[1:], n)
        runend = ends[run_ids]
        # 1-based within-key first+last rank of the tie run
        r2_sorted = (runstart - keystart + 1) + (runend - keystart)
        out = np.empty(n, dtype=np.int64)
        out[order] = r2_sorted
        return out

    def per_bucket(group: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(group[x_col]), pc.is_valid(group[y_col]))
        g = group.filter(keep)
        n = len(g)
        if n == 0:
            return pa.table(
                {
                    key: pa.array([], pa.int64()),
                    "n_pairs": pa.array([], pa.int64()),
                    "cov_num": pa.array([], pa.int64()),
                    "var_x": pa.array([], pa.int64()),
                    "var_y": pa.array([], pa.int64()),
                }
            )
        k = g[key].to_numpy(zero_copy_only=False).astype(np.int64)
        x = _quantize_i64(
            g[x_col].to_numpy(zero_copy_only=False).astype(np.float64),
            quantize_x, "grouped_spearman",
        )
        y = _quantize_i64(
            g[y_col].to_numpy(zero_copy_only=False).astype(np.float64),
            quantize_y, "grouped_spearman",
        )
        rx = rank2(k, x)
        ry = rank2(k, y)
        ks, vs = _group_reduce(
            [k],
            {
                "n": np.ones(n, np.int64), "sx": rx, "sy": ry,
                "sxx": rx * rx, "syy": ry * ry, "sxy": rx * ry,
            },
        )
        nk = vs["n"]
        return pa.table(
            {
                key: pa.array(ks[0], pa.int64()),
                "n_pairs": pa.array(nk, pa.int64()),
                "cov_num": pa.array(
                    nk * vs["sxy"] - vs["sx"] * vs["sy"], pa.int64()
                ),
                "var_x": pa.array(
                    nk * vs["sxx"] - vs["sx"] * vs["sx"], pa.int64()
                ),
                "var_y": pa.array(
                    nk * vs["syy"] - vs["sy"] * vs["sy"], pa.int64()
                ),
            }
        )

    return co_shuffle(proj, key, per_bucket, n_buckets=n_buckets, coalesce=True)


def grouped_kendall(
    ds: ray.data.Dataset,
    key: str,
    x_col: str,
    y_col: str,
    quantize_x: float = 100.0,
    quantize_y: float = 1.0,
    n_buckets: int = 256,
    max_pairs_per_bucket: int = 50_000_000,
) -> ray.data.Dataset:
    """EXACT per-key Kendall concordance sufficient statistics — the
    ``grouped_spearman`` companion whose tau-b is robust to the rank
    arithmetic entirely: per key, over all C(n,2) observation pairs,
    the counts ``(n_pairs, conc, disc, tie_x, tie_y, tie_xy)``
    (``tau_b = (conc − disc) / √((n_pairs − tie_x − tie_xy)·(n_pairs −
    tie_y − tie_xy))``). Both columns quantize to integers so pair
    comparisons are tie-exact and the DuckDB pair-self-join twin
    hash-matches.

    QUADRATIC per key BY DESIGN (pair enumeration is the definition):
    intended for bounded key sizes — pairs are generated fully
    vectorized (segment-offset arithmetic, no Python loop) and a bucket
    whose Σ n_k(n_k−1)/2 exceeds ``max_pairs_per_bucket`` raises rather
    than silently OOMing; for large keys use ``grouped_spearman``
    (O(n log n)) instead. NULL x/y rows are excluded listwise."""
    proj = ds.select_columns([key, x_col, y_col])

    _empty = pa.table(
        {
            key: pa.array([], pa.int64()),
            "n_pairs": pa.array([], pa.int64()),
            "conc": pa.array([], pa.int64()),
            "disc": pa.array([], pa.int64()),
            "tie_x": pa.array([], pa.int64()),
            "tie_y": pa.array([], pa.int64()),
            "tie_xy": pa.array([], pa.int64()),
        }
    )

    def per_bucket(group: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(group[x_col]), pc.is_valid(group[y_col]))
        g = group.filter(keep)
        n = len(g)
        if n == 0:
            return _empty
        k = g[key].to_numpy(zero_copy_only=False).astype(np.int64)
        x = _quantize_i64(
            g[x_col].to_numpy(zero_copy_only=False).astype(np.float64),
            quantize_x, "grouped_kendall",
        )
        y = _quantize_i64(
            g[y_col].to_numpy(zero_copy_only=False).astype(np.float64),
            quantize_y, "grouped_kendall",
        )
        order = np.argsort(k, kind="stable")
        k, x, y = k[order], x[order], y[order]
        idx = np.arange(n, dtype=np.int64)
        newkey = np.ones(n, dtype=bool)
        newkey[1:] = k[1:] != k[:-1]
        seg_start = np.maximum.accumulate(np.where(newkey, idx, 0))
        starts = np.flatnonzero(newkey)
        sizes = np.diff(np.append(starts, n))
        m_per_row = sizes[np.cumsum(newkey) - 1]
        loc = idx - seg_start
        left_counts = m_per_row - 1 - loc
        total = int(left_counts.sum())
        if total > max_pairs_per_bucket:
            raise ValueError(
                f"grouped_kendall: {total} pairs in one bucket exceeds "
                f"max_pairs_per_bucket={max_pairs_per_bucket}; use "
                "grouped_spearman for large keys"
            )
        if total == 0:
            return _empty
        L = np.repeat(idx, left_counts)
        pstart = np.cumsum(left_counts) - left_counts
        R = L + 1 + (np.arange(total, dtype=np.int64)
                     - np.repeat(pstart, left_counts))
        dx = np.sign(x[R] - x[L])
        dy = np.sign(y[R] - y[L])
        prod = dx * dy
        kp = k[L]
        ks, vs = _group_reduce(
            [kp],
            {
                "n_pairs": np.ones(total, np.int64),
                "conc": (prod > 0).astype(np.int64),
                "disc": (prod < 0).astype(np.int64),
                "tie_x": ((dx == 0) & (dy != 0)).astype(np.int64),
                "tie_y": ((dy == 0) & (dx != 0)).astype(np.int64),
                "tie_xy": ((dx == 0) & (dy == 0)).astype(np.int64),
            },
        )
        return pa.table(
            {key: pa.array(ks[0], pa.int64())}
            | {c: pa.array(vs[c], pa.int64())
               for c in ("n_pairs", "conc", "disc", "tie_x", "tie_y",
                         "tie_xy")}
        )

    return co_shuffle(proj, key, per_bucket, n_buckets=n_buckets, coalesce=True)


def grouped_theil_sen(
    ds: ray.data.Dataset,
    key: str,
    x_col: str,
    y_col: str,
    quantize_x: float = 1.0,
    quantize_y: float = 100.0,
    n_buckets: int = 256,
    max_pairs_per_bucket: int = 50_000_000,
) -> ray.data.Dataset:
    """Per-key THEIL–SEN robust slope: the median of all pairwise
    slopes ``(y_j − y_i)/(x_j − x_i)`` over pairs with distinct x — the
    outlier-immune trend estimate (one wild point drags OLS, not the
    pairwise median). Inputs quantize to integers so both engines
    compute THE SAME float64 division per pair; the median is the
    middle slope (IEEE mean of the two middles for even counts —
    DuckDB MEDIAN convention), so the SQL pair-self-join twin
    hash-matches bit-for-bit. Same vectorized pair enumeration and
    quadratic-budget guard as ``grouped_kendall``. Keys with no
    distinct-x pair are dropped. NULL x/y rows excluded listwise.

    Output: (key, n_slopes, slope)."""
    proj = ds.select_columns([key, x_col, y_col])

    _empty = pa.table(
        {
            key: pa.array([], pa.int64()),
            "n_slopes": pa.array([], pa.int64()),
            "slope": pa.array([], pa.float64()),
        }
    )

    def per_bucket(group: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(group[x_col]), pc.is_valid(group[y_col]))
        g = group.filter(keep)
        n = len(g)
        if n == 0:
            return _empty
        k = g[key].to_numpy(zero_copy_only=False).astype(np.int64)
        x = _quantize_i64(
            g[x_col].to_numpy(zero_copy_only=False).astype(np.float64),
            quantize_x, "grouped_theil_sen",
        )
        y = _quantize_i64(
            g[y_col].to_numpy(zero_copy_only=False).astype(np.float64),
            quantize_y, "grouped_theil_sen",
        )
        order = np.argsort(k, kind="stable")
        k, x, y = k[order], x[order], y[order]
        idx = np.arange(n, dtype=np.int64)
        newkey = np.ones(n, dtype=bool)
        newkey[1:] = k[1:] != k[:-1]
        seg_start = np.maximum.accumulate(np.where(newkey, idx, 0))
        starts = np.flatnonzero(newkey)
        sizes = np.diff(np.append(starts, n))
        m_per_row = sizes[np.cumsum(newkey) - 1]
        left_counts = m_per_row - 1 - (idx - seg_start)
        total = int(left_counts.sum())
        if total > max_pairs_per_bucket:
            raise ValueError(
                f"grouped_theil_sen: {total} pairs in one bucket exceeds "
                f"max_pairs_per_bucket={max_pairs_per_bucket}"
            )
        if total == 0:
            return _empty
        L = np.repeat(idx, left_counts)
        pstart = np.cumsum(left_counts) - left_counts
        R = L + 1 + (np.arange(total, dtype=np.int64)
                     - np.repeat(pstart, left_counts))
        dx = x[R] - x[L]
        ok = dx != 0
        kp, dx = k[L][ok], dx[ok]
        dy = (y[R] - y[L])[ok]
        slope = dy.astype(np.float64) / dx.astype(np.float64)
        m = kp.shape[0]
        if m == 0:
            return _empty
        o = np.lexsort((slope, kp))
        kp, slope = kp[o], slope[o]
        first = np.ones(m, dtype=bool)
        first[1:] = kp[1:] != kp[:-1]
        s0 = np.flatnonzero(first)
        cnt = np.diff(np.append(s0, m))
        lo = s0 + (cnt - 1) // 2
        hi = s0 + cnt // 2
        return pa.table(
            {
                key: pa.array(kp[s0], pa.int64()),
                "n_slopes": pa.array(cnt, pa.int64()),
                "slope": pa.array((slope[lo] + slope[hi]) / 2.0,
                                  pa.float64()),
            }
        )

    return co_shuffle(proj, key, per_bucket, n_buckets=n_buckets, coalesce=True)


def window_median(
    ds: ray.data.Dataset,
    key: str,
    ts: str | list[str],
    value_col: str,
    window_rows: int,
    out_col: str = "moving_median",
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Exact per-key ROLLING MEDIAN over a trailing row frame: SQL
    ``MEDIAN(value) OVER (PARTITION BY key ORDER BY ts ROWS BETWEEN
    window_rows−1 PRECEDING AND CURRENT ROW)`` — the robust rolling
    baseline a spike-tolerant alert wants where a moving MEAN gets
    dragged (``window_moving_sum``'s order-statistic sibling). One
    key-bucket shuffle; inside a bucket every frame materializes as one
    row of an (n, w) sentinel-padded sliding matrix, ONE vectorized
    ``np.sort`` ranks all frames at once (no per-row Python), and the
    median is the middle element — or the IEEE mean of the middle two,
    matching DuckDB's even-count convention. Frames shorter than
    ``window_rows`` (a key's first rows) use only the key's own rows.
    NULL values are skipped (SQL); a frame of all NULLs is NULL.
    Intended for small w (≤ ~64): cost is O(n·w log w) per bucket."""
    if window_rows <= 0:
        raise ValueError("window_rows must be positive")
    w = int(window_rows)
    order_list = [ts] if isinstance(ts, str) else list(ts)

    def emit(g: pa.Table, first: np.ndarray, pos: np.ndarray):
        n = len(g)
        if n == 0:
            return out_col, pa.array([], pa.float64())
        varr = g[value_col]
        if isinstance(varr, pa.ChunkedArray):
            varr = varr.combine_chunks()
        isnull = np.asarray(pc.is_null(varr))
        v = varr.to_numpy(zero_copy_only=False).astype(np.float64)
        v = np.where(isnull, np.inf, v)  # NULLs sort to the sentinel end
        if not np.isfinite(v[~isnull]).all():
            raise ValueError(
                "window_median requires finite values (the +inf sentinel "
                "marks NULL/out-of-frame slots)"
            )
        # frame start per row: clamp to the key's first row
        start = np.maximum.accumulate(np.where(first, pos, 0))
        lower = np.maximum(pos - w + 1, start)
        # pad w-1 sentinels in front so every frame is a fixed w-slice
        pad = np.full(w - 1, np.inf)
        vp = np.concatenate([pad, v])
        win = np.lib.stride_tricks.sliding_window_view(vp, w).copy()
        # mask positions before the frame start with the sentinel
        off = np.arange(w, dtype=np.int64)[None, :]  # 0..w-1 → row i-w+1..i
        idx = pos[:, None] - (w - 1) + off
        win[idx < lower[:, None]] = np.inf
        win.sort(axis=1)
        # non-null count per frame via prefix sums
        nn = np.cumsum(~isnull)
        base = np.where(lower > 0, nn[np.maximum(lower - 1, 0)], 0)
        cnt = nn - np.where(lower == 0, 0, base)
        lo_i = np.maximum((cnt - 1) // 2, 0)
        hi_i = np.maximum(cnt // 2, 0)
        rows = np.arange(n)
        med = (win[rows, lo_i] + win[rows, hi_i]) / 2.0
        return out_col, pa.array(med, pa.float64(), mask=(cnt == 0))

    return _window_over_buckets(ds, key, order_list, n_buckets, emit)


def late_event_stats(
    ds: ray.data.Dataset,
    ts_col: str,
    arrival_col: str,
    window_us: int,
    lateness_us: int,
    out_window: str = "window_start",
) -> ray.data.Dataset:
    """Streaming late-data accounting (the Flink/Beam watermark
    bookkeeping, as a batch-exact primitive): events fall into tumbling
    EVENT-TIME windows ``floor(ts / window_us)``; an event is LATE when
    its ARRIVAL time exceeds the window's close plus the allowed
    lateness (``arrival > window_end + lateness_us`` — the moment a
    watermark-driven executor would have sealed the pane). Per window:
    total events, late events (the ones a streaming job would drop or
    side-output), and the maximum arrival delay in µs (what the
    watermark lag dashboard plots). One narrow vectorized pass + one
    combine tree — the event stream never shuffles. NULL ts/arrival
    rows are excluded (SQL aggregate skip). Timestamps must be
    non-negative (numpy ``//`` floors, SQL ``//`` truncates — they
    diverge before the epoch)."""
    W = np.int64(window_us)
    L = np.int64(lateness_us)

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(batch[ts_col]),
                       pc.is_valid(batch[arrival_col]))
        sub = batch.filter(keep)
        ts = sub[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        ar = sub[arrival_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        win = (ts // W) * W
        late = ar > (win + W + L)
        delay = ar - ts
        ks, vs = _group_reduce(
            [win],
            {
                "partial_n": np.ones(ts.shape[0], np.int64),
                "partial_late": late.astype(np.int64),
                "partial_maxd": delay,
            },
            ufunc={"partial_n": np.add, "partial_late": np.add,
                   "partial_maxd": np.maximum},
        )
        return pa.table(
            {
                out_window: pa.array(ks[0], pa.int64()),
                "partial_n": pa.array(vs["partial_n"], pa.int64()),
                "partial_late": pa.array(vs["partial_late"], pa.int64()),
                "partial_maxd": pa.array(vs["partial_maxd"], pa.int64()),
            }
        )

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return tree_reduce(
        parts, [out_window],
        {"partial_n": "n_events", "partial_late": "n_late",
         "partial_maxd": "max_delay_us"},
        ufunc={"partial_n": np.add, "partial_late": np.add,
               "partial_maxd": np.maximum},
    )


def sessionize(
    ds: ray.data.Dataset,
    key: str,
    ts: str,
    gap_us: int,
    order_tiebreak: str | None = None,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Session windows over an event log (the streaming-shaped custom
    operator): per key, events sorted by (ts, tiebreak) split where the
    gap to the previous event exceeds ``gap_us``. One shuffle
    (groupby(key)); windowing itself is a vectorized per-group pass.

    Output: (key, session_start µs, session_end µs, n_events).
    Ordering assumption: within a key, (ts, tiebreak) is a total order.

    Integer and string/binary keys are hash-bucketed so each
    ``map_groups`` call processes a whole BUCKET of keys in one
    vectorized sort+boundary pass — one Python invocation per bucket,
    not per key (per-key calls are Python-rate at 10⁸ users). Other key
    types keep the per-key path. ``n_buckets`` is a task-granularity
    knob, NOT a parallelism cap on correctness: size it ≈ total_rows /
    target_rows_per_task (one bucket must fit a worker's heap).
    """
    key_type = ds.schema().base_schema.field(key).type
    if (
        pa.types.is_string(key_type)
        or pa.types.is_large_string(key_type)
        or pa.types.is_binary(key_type)
        or pa.types.is_large_binary(key_type)
    ):

        def per_bucket_str(group: pa.Table) -> pa.Table:
            sort_keys = [(key, "ascending")] + [
                (c, "ascending")
                for c in ([ts] if isinstance(ts, str) else list(ts))
            ]
            if order_tiebreak:
                sort_keys.append((order_tiebreak, "ascending"))
            g = group.take(pc.sort_indices(group, sort_keys=sort_keys))
            n = len(g)
            k = g[key].combine_chunks() if isinstance(g[key], pa.ChunkedArray) else g[key]
            t = g[ts].cast(pa.int64()).to_numpy(zero_copy_only=False)
            brk = np.ones(n, dtype=bool)
            if n > 1:
                neq = pc.fill_null(
                    pc.not_equal(k.slice(1), k.slice(0, n - 1)), False
                )
                nul = np.asarray(pc.is_null(k))
                brk[1:] = (
                    np.asarray(neq)
                    | (nul[1:] != nul[:-1])
                    | (t[1:] - t[:-1] > gap_us)
                )
            starts = np.flatnonzero(brk)
            run_len = np.diff(np.append(starts, n))
            ends = starts + run_len - 1
            return pa.table(
                {
                    key: k.take(pa.array(starts)),
                    "session_start": pa.array(t[starts], pa.int64()),
                    "session_end": pa.array(t[ends], pa.int64()),
                    "n_events": pa.array(run_len, pa.int64()),
                }
            )

        return co_shuffle(ds, key, per_bucket_str, n_buckets=n_buckets, coalesce=True)

    if pa.types.is_integer(key_type):

        def _keys_i64(col) -> np.ndarray:
            # nulls → INT64_MIN sentinel (their own session key, like
            # SQL's null group; a NaN→int cast would be undefined)
            filled = pc.fill_null(col, np.iinfo(np.int64).min)
            if isinstance(filled, pa.ChunkedArray):
                filled = filled.combine_chunks()
            return filled.to_numpy(zero_copy_only=False).astype(np.int64)

        def per_bucket(group: pa.Table) -> pa.Table:
            k = _keys_i64(group[key])
            t = group[ts].cast(pa.int64()).to_numpy(zero_copy_only=False)
            n = k.shape[0]
            if order_tiebreak:
                tb = group[order_tiebreak].to_numpy(zero_copy_only=False)
                order = np.lexsort((tb, t, k))
            else:
                order = np.lexsort((t, k))
            ks, tss = k[order], t[order]
            brk = np.ones(n, dtype=bool)
            brk[1:] = (ks[1:] != ks[:-1]) | (tss[1:] - tss[:-1] > gap_us)
            starts = np.flatnonzero(brk)
            run_len = np.diff(np.append(starts, n))
            ends = starts + run_len - 1
            return pa.table(
                {
                    key: pa.array(
                        ks[starts],
                        mask=ks[starts] == np.iinfo(np.int64).min,
                    ).cast(key_type),
                    "session_start": pa.array(tss[starts], pa.int64()),
                    "session_end": pa.array(tss[ends], pa.int64()),
                    "n_events": pa.array(run_len, pa.int64()),
                }
            )

        return co_shuffle(ds, key, per_bucket, n_buckets=n_buckets, coalesce=True)

    def per_key(group: pa.Table) -> pa.Table:
        import pandas as pd

        g = group.to_pandas()
        sort_cols = [ts] + ([order_tiebreak] if order_tiebreak else [])
        g = g.sort_values(sort_cols, kind="mergesort")
        t = g[ts].astype("int64").to_numpy()
        brk = np.zeros(len(g), dtype=np.int64)
        if len(g) > 1:
            brk[1:] = (t[1:] - t[:-1] > gap_us).astype(np.int64)
        sid = np.cumsum(brk)
        df = pd.DataFrame({key: g[key].to_numpy(), "_sid": sid, "_ts": t})
        agg = df.groupby([key, "_sid"], sort=False).agg(
            session_start=("_ts", "min"),
            session_end=("_ts", "max"),
            n_events=("_ts", "size"),
        ).reset_index().drop(columns="_sid")
        return pa.Table.from_pandas(agg, preserve_index=False)

    return co_shuffle(ds, key, per_key, coalesce=False)


# -------------------------------------------------- extension protocol

def window_lag(
    ds: ray.data.Dataset,
    key: str,
    ts: str | list[str],
    value_col: str,
    out_col: str = "lag_value",
    order_tiebreak: str | None = None,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Per-key LAG: each row gets the previous row's ``value_col`` in
    (ts, tiebreak) order within its key (SQL ``LAG(value) OVER
    (PARTITION BY key ORDER BY ts)``); the first row per key gets null.

    Same bucket plan as ``sessionize``: ONE key-hash shuffle, each
    bucket of keys resolved in one vectorized sort + shift (key
    boundaries nulled). Integer and string keys
    supported; ``n_buckets`` sizes tasks, it is not a parallelism cap.
    """
    order_list = _ts_order(ts, order_tiebreak)

    def emit(g: pa.Table, first: np.ndarray, pos: np.ndarray):
        n = len(g)
        varr = _chunk(g[value_col])
        # shift down by one, then null rows that start a new key
        lag = pa.concat_arrays([pa.nulls(1, varr.type), varr.slice(0, n - 1)]) if n else varr
        return out_col, pc.if_else(pa.array(~first), lag, pa.nulls(n, varr.type))

    return _window_over_buckets(ds, key, order_list, n_buckets, emit)


def markov_transitions(
    ds: ray.data.Dataset,
    key: str,
    ts: str | list[str],
    state_col: str,
    order_tiebreak: str | None = None,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Global STATE-TRANSITION (bigram) counts over per-key ordered
    event sequences: every consecutive (state_i → state_{i+1}) pair
    within a key, counted across all keys — the sufficient statistic
    of a first-order Markov chain over user journeys (next-event
    prediction, sequence-model curriculum stats). SQL twin:
    ``LAG(state) OVER (PARTITION BY key ORDER BY ts)`` + GROUP BY.

    Plan: ONE key-hash co-shuffle (the ``window_lag`` bucket plan);
    each bucket sorts its keys once, takes the vectorized shift with
    key-boundary masking, and emits LOCAL (from, to, c) partials; the
    combine tree merges them — no second exchange, result bounded by
    |states|² (the transition matrix), independent of row count.
    NULL keys form one partition, as under the SQL twin's ``PARTITION
    BY``: consecutive NULL-key rows make transitions too. A pair with a
    NULL state at either end is dropped, as the twin's ``WHERE`` does.
    Returns (from_state, to_state, c)."""
    order_list = _ts_order(ts, order_tiebreak)

    def per_bucket(group: pa.Table) -> pa.Table:
        g, first = _sort_runs(group, key, order_list)
        n = len(g)
        sarr = _chunk(g[state_col])
        empty = pa.table(
            {
                "from_state": pa.array([], sarr.type),
                "to_state": pa.array([], sarr.type),
                "c": pa.array([], pa.int64()),
            }
        )
        if n < 2:
            return empty
        same = pa.array(~first[1:])
        frm = sarr.slice(0, n - 1).filter(same)
        to = sarr.slice(1).filter(same)
        ok = pc.and_(pc.is_valid(frm), pc.is_valid(to))
        if not pc.all(ok).as_py():
            frm, to = frm.filter(ok), to.filter(ok)
        if len(frm) == 0:
            return empty
        # local combine: dictionary-encode the pair and count
        fe = frm.dictionary_encode()
        te = to.dictionary_encode()
        (fk, tk), outs = _group_reduce(
            [
                np.asarray(fe.indices).astype(np.int64),
                np.asarray(te.indices).astype(np.int64),
            ],
            {"c": np.ones(len(frm), np.int64)},
        )
        return pa.table(
            {
                "from_state": fe.dictionary.take(pa.array(fk, pa.int64())),
                "to_state": te.dictionary.take(pa.array(tk, pa.int64())),
                "c": pa.array(outs["c"].astype(np.int64), pa.int64()),
            }
        )

    partials = co_shuffle(ds, key, per_bucket, n_buckets=n_buckets, coalesce=True)
    return tree_sum(
        partials, ["from_state", "to_state"], {"c": "c"}, int_cols=("c",)
    )


def window_rank(
    ds: ray.data.Dataset,
    key: str,
    order_cols: str | list[str],
    out_col: str = "rank",
    descending: bool | list[bool] = False,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Per-key ROW_NUMBER as a column (1-based): SQL ``ROW_NUMBER() OVER
    (PARTITION BY key ORDER BY order_cols)``. Same bucket plan as the
    other window operators — one key-hash shuffle, whole-bucket
    vectorized sort + boundary rank. Include a unique tiebreak in
    ``order_cols`` for a total order."""
    order_list = [order_cols] if isinstance(order_cols, str) else list(order_cols)
    desc = (
        [descending] * len(order_list)
        if isinstance(descending, bool)
        else list(descending)
    )

    def emit(g: pa.Table, first: np.ndarray, pos: np.ndarray):
        start = np.maximum.accumulate(np.where(first, pos, 0))
        return out_col, pa.array(pos - start + 1, pa.int64())

    return _window_over_buckets(ds, key, order_list, n_buckets, emit, desc=desc)


def window_cumsum(
    ds: ray.data.Dataset,
    key: str,
    ts: str | list[str],
    value_col: str,
    out_col: str = "running_sum",
    order_tiebreak: str | None = None,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Per-key running total: SQL ``SUM(value) OVER (PARTITION BY key
    ORDER BY ts, tiebreak ROWS UNBOUNDED PRECEDING)``. Same bucket plan
    as ``window_lag`` — one key-hash shuffle, whole-bucket vectorized
    sort + segmented cumsum (global cumsum minus each key's base).

    NULL payloads follow SQL SUM: skipped from the total, and the
    running sum itself is NULL until the frame holds ≥1 non-null value.
    A non-null NaN still poisons the sum from its row on (SQL float
    arithmetic does the same)."""
    order_list = _ts_order(ts, order_tiebreak)

    def emit(g: pa.Table, first: np.ndarray, pos: np.ndarray):
        n = len(g)
        varr = _chunk(g[value_col])
        isnull = np.asarray(pc.is_null(varr)) if n else np.zeros(0, bool)
        v = varr.to_numpy(zero_copy_only=False).astype(np.float64)
        if isnull.any():
            v = np.where(isnull, 0.0, v)
        # segmented cumsum: global cumsum minus the sum before each key's
        # first row (index propagation, correct for negative values too).
        # Exact for integer-valued doubles below 2^53 — same caveat as
        # every float-sum oracle here.
        cum = np.cumsum(v)
        start = np.maximum.accumulate(np.where(first, pos, 0))
        base = cum[start] - v[start]
        out = cum - base
        if isnull.any():  # SQL: NULL until the frame has a non-null value
            nn = np.cumsum(~isnull)
            cnt = nn - (nn[start] - (~isnull)[start])
            return out_col, pa.array(out, pa.float64(), mask=(cnt == 0))
        return out_col, pa.array(out, pa.float64())

    return _window_over_buckets(ds, key, order_list, n_buckets, emit)


def window_clamped_cumsum(
    ds: ray.data.Dataset,
    key: str,
    ts: str | list[str],
    value_col: str,
    out_col: str = "level",
    order_tiebreak: str | None = None,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Per-key running sum CLAMPED AT A ZERO FLOOR (inventory / ledger
    balance that cannot go negative): for each key's rows ordered by
    (ts, tiebreak), ``level_i = S_i - min(0, min_{j<=i} S_j)`` where
    ``S`` is the plain running sum of the integer deltas — the closed
    form of "add delta, floor at 0" (the floor only ever absorbs the
    running minimum, so no sequential scan is needed). SQL twin::

        s - LEAST(0, MIN(s) OVER (PARTITION BY key ORDER BY ...
            ROWS UNBOUNDED PRECEDING))

    Exact int64 arithmetic end-to-end. NULL deltas follow SQL SUM
    (skipped — contribute 0). Same one-key-hash-shuffle bucket plan as
    ``window_cumsum``; the segmented running minimum uses the
    per-segment-offset trick (cumsum + seg_id·span, one
    ``np.minimum.accumulate``) with the ``(1 << 62)`` overflow guard
    and a per-segment fallback — the ``interval_union_length``
    convention."""
    order_list = _ts_order(ts, order_tiebreak)

    def emit(g: pa.Table, first: np.ndarray, pos: np.ndarray):
        n = len(g)
        if n == 0:
            return out_col, pa.array([], pa.int64())
        v = np.asarray(pc.fill_null(_chunk(g[value_col]), 0), dtype=np.int64)
        # overflow budget: the whole-bucket cumsum must stay in int64 —
        # Σ|delta| < 2^62 guards it with margin (float sum is a safe
        # upper-bound check; np.cumsum would WRAP silently otherwise)
        if float(np.abs(v, dtype=np.float64).sum()) >= float(1 << 62):
            raise OverflowError(
                "window_clamped_cumsum: Σ|delta| per bucket exceeds the "
                "int64 budget (2^62) — rescale the delta units"
            )
        # segmented cumsum (base subtraction — correct for negatives)
        cum = np.cumsum(v)
        start = np.maximum.accumulate(np.where(first, pos, 0))
        s = cum - (cum[start] - v[start])
        sid = np.cumsum(first) - 1
        lo, hi = int(s.min()), int(s.max())
        span = (hi - lo) + 1
        n_seg = int(sid[-1]) + 1
        if n_seg * span < (1 << 62):
            # NEGATIVE per-segment offsets: each later segment sits a
            # full span BELOW its predecessor, so an earlier segment's
            # minimum can never leak forward through the accumulate
            # (ascending offsets would — min, unlike max, carries the
            # smallest past value).
            rm = (
                np.minimum.accumulate(s - sid * span)
                + sid * span
            )
        else:  # per-segment fallback, same guard as interval_union_length
            rm = np.empty_like(s)
            starts = np.nonzero(first)[0]
            bounds = np.append(starts, n)
            for a, b in zip(bounds[:-1], bounds[1:]):
                rm[a:b] = np.minimum.accumulate(s[a:b])
        level = s - np.minimum(rm, 0)
        return out_col, pa.array(level, pa.int64())

    return _window_over_buckets(ds, key, order_list, n_buckets, emit)


def window_moving_sum(
    ds: ray.data.Dataset,
    key: str,
    ts: str | list[str],
    value_col: str,
    window_rows: int,
    out_col: str = "moving_sum",
    order_tiebreak: str | None = None,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Per-key moving sum over a row frame: SQL ``SUM(value) OVER
    (PARTITION BY key ORDER BY ts, tiebreak ROWS BETWEEN
    window_rows-1 PRECEDING AND CURRENT ROW)``. Same bucket plan as the
    other window operators; the frame sum is a vectorized cumsum
    difference with the frame start clamped to each key's first row —
    exact for integer-valued doubles (the float-sum caveat of every
    windowed sum here). NULL payloads follow SQL SUM: skipped, and the
    frame sum is NULL when every row in the frame is NULL. Non-finite
    payloads follow SQL per-FRAME semantics: a frame containing a NaN
    (or both +Inf and -Inf) sums to NaN, a frame containing only +Inf
    (-Inf) sums to +Inf (-Inf) — frames PAST the non-finite row are
    unaffected (a plain cumsum difference would poison them forever)."""
    order_list = _ts_order(ts, order_tiebreak)

    def emit(g: pa.Table, first: np.ndarray, pos: np.ndarray):
        n = len(g)
        varr = _chunk(g[value_col])
        isnull = np.asarray(pc.is_null(varr)) if n else np.zeros(0, bool)
        v = varr.to_numpy(zero_copy_only=False).astype(np.float64)
        if isnull.any():
            v = np.where(isnull, 0.0, v)
        nonfin = ~np.isfinite(v)
        if nonfin.any():
            isnan = np.isnan(v)
            posinf = np.isposinf(v)
            neginf = np.isneginf(v)
            v = np.where(nonfin, 0.0, v)
        cum = np.cumsum(v)
        start = np.maximum.accumulate(np.where(first, pos, 0))
        lower = np.maximum(pos - window_rows + 1, start)

        def frame_count(flag: np.ndarray) -> np.ndarray:
            c = np.cumsum(flag.astype(np.int64))
            b = np.where(lower > 0, c[np.maximum(lower - 1, 0)], 0)
            return c - np.where(lower == 0, 0, b)

        base = np.where(lower > 0, cum[np.maximum(lower - 1, 0)], 0.0)
        # lower == 0 means the frame starts at the global first row
        base = np.where(lower == 0, 0.0, base)
        out = cum - base
        if nonfin.any():  # per-frame IEEE semantics, not cumsum poison
            f_nan, f_pi, f_ni = map(frame_count, (isnan, posinf, neginf))
            out = np.where(f_pi > 0, np.inf, out)
            out = np.where(f_ni > 0, -np.inf, out)
            out = np.where((f_nan > 0) | ((f_pi > 0) & (f_ni > 0)), np.nan, out)
        if isnull.any():  # SQL: NULL when the whole frame is NULL
            return out_col, pa.array(
                out, pa.float64(), mask=(frame_count(~isnull) == 0)
            )
        return out_col, pa.array(out, pa.float64())

    return _window_over_buckets(ds, key, order_list, n_buckets, emit)


def apply_geo_kernel(
    ds: ray.data.Dataset,
    col: str,
    fn,
    batch_size=None,
    concurrency=None,
) -> ray.data.Dataset:
    """User-extension surface (the engine's wk-handler-protocol analogue,
    SURVEY §2.A.6): register any ``fn(batch: pa.Table, geo: GeoType) ->
    pa.Table`` as a pipeline stage. ``fn`` may be a callable class
    instance for stateful kernels; pass ``concurrency`` to run it as an
    actor pool."""

    def wrapper(batch: pa.Table) -> pa.Table:
        geo = GeoType.from_field(batch.schema.field(col))
        return fn(batch, geo)

    kw = dict(batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)
    if concurrency is not None:
        kw["concurrency"] = concurrency
    return ds.map_batches(wrapper, **kw)


def _window_over_buckets(
    ds: ray.data.Dataset,
    key: str,
    order_list: list[str],
    n_buckets: int,
    emit,
    desc: list[bool] | None = None,
) -> ray.data.Dataset:
    """Shared plan for per-key positional window functions: key-hash
    bucket column → one groupby shuffle → whole-bucket vectorized sort,
    then ``emit(sorted_table, first_of_key_mask, positions)`` returns
    (col_name, pa.Array) appended to the bucket."""

    def per_bucket(group: pa.Table) -> pa.Table:
        g, first = _sort_runs(group, key, order_list, desc)
        name, col = emit(g, first, np.arange(len(g), dtype=np.int64))
        return g.append_column(name, col)

    return co_shuffle(ds, key, per_bucket, n_buckets=n_buckets, coalesce=True)


def _sort_runs(
    group: pa.Table, key: str, order_list: list[str],
    desc: list[bool] | None = None,
) -> tuple[pa.Table, np.ndarray]:
    """``group`` sorted by (key, order_list), ascending unless ``desc``
    says otherwise, and the mask of each key's first row. NULL keys sort
    last and form one partition, as under SQL ``PARTITION BY``."""
    sort_keys = [(key, "ascending")] + [
        (c, "descending" if d else "ascending")
        for c, d in zip(order_list, desc or [False] * len(order_list))
    ]
    g = group.take(pc.sort_indices(group, sort_keys=sort_keys))
    n = len(g)
    karr = _chunk(g[key])
    first = np.zeros(n, dtype=bool)
    if n:
        first[0] = True
        neq = pc.fill_null(pc.not_equal(karr.slice(1), karr.slice(0, n - 1)), False)
        nul = np.asarray(pc.is_null(karr))
        first[1:] = np.asarray(neq) | (nul[1:] != nul[:-1])
    return g, first


def _ts_order(ts: str | list[str], order_tiebreak: str | None) -> list[str]:
    """Window order columns: ``ts`` (one or more), then the tiebreak."""
    return ([ts] if isinstance(ts, str) else list(ts)) + (
        [order_tiebreak] if order_tiebreak else []
    )


def _chunk(arr):
    return arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr


def window_dense_rank(
    ds: ray.data.Dataset,
    key: str,
    order_cols: str | list[str],
    out_col: str = "dense_rank",
    descending: bool | list[bool] = False,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """SQL ``DENSE_RANK() OVER (PARTITION BY key ORDER BY order_cols)``:
    ties share a rank and ranks have no gaps. Change flags over the
    sorted bucket, cumsum rebased at each key boundary."""
    order_list = [order_cols] if isinstance(order_cols, str) else list(order_cols)
    desc = (
        [descending] * len(order_list)
        if isinstance(descending, bool)
        else list(descending)
    )

    def emit(g: pa.Table, first: np.ndarray, pos: np.ndarray):
        n = len(g)
        new_val = first.copy()
        if n:
            new_val[1:] |= _order_change_mask(g, order_list, n)
        cs = np.cumsum(new_val)
        base = np.maximum.accumulate(np.where(first, cs - 1, 0))
        return out_col, pa.array(cs - base, pa.int64())

    return _window_over_buckets(ds, key, order_list, n_buckets, emit, desc=desc)


def window_share(
    ds: ray.data.Dataset,
    key: str,
    value_col: str,
    out_col: str = "share_q",
    scale_bits: int = 20,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Percent-of-total window in EXACT integer arithmetic: per row,
    ``floor(value · 2^scale_bits / per-key total)`` — SQL
    ``(CAST(value AS BIGINT) * 2^bits) // SUM(CAST(value AS BIGINT))
    OVER (PARTITION BY key)``. ``value_col`` must be integer-valued
    (the cast truncates); integer division makes the result independent
    of summation order, so the row-preserving output hash-matches the
    SQL twin exactly. Same one-shuffle bucket plan as the positional
    window functions (the whole-partition frame needs no ordering).

    Overflow budget: values must satisfy ``|v| < 2^(63-scale_bits)``
    (≈8.8e12 at the default 20 bits) — the shift raises otherwise
    rather than silently wrapping negative. A key whose total is 0
    (all-zero values) raises too: the SQL twin divides by zero there,
    so there is no hash-compatible answer to emit."""

    def emit(g: pa.Table, first: np.ndarray, pos: np.ndarray):
        v = g[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(g):
            if v.size and int(np.abs(v).max()) >= (1 << (63 - scale_bits)):
                raise OverflowError(
                    f"window_share: |{value_col}| max {np.abs(v).max()} "
                    f"overflows int64 at scale_bits={scale_bits}; lower "
                    "scale_bits or pre-scale the column"
                )
            starts = np.nonzero(first)[0]
            sums = np.add.reduceat(v, starts)
            if np.any(sums == 0):
                raise ZeroDivisionError(
                    "window_share: a key's total is 0 — the SQL twin "
                    "divides by zero; filter zero-total keys first"
                )
            gid = np.cumsum(first) - 1
            share = (v << scale_bits) // sums[gid]
        else:
            share = np.empty(0, np.int64)
        return out_col, pa.array(share, pa.int64())

    return _window_over_buckets(ds, key, [], n_buckets, emit)


def window_ntile(
    ds: ray.data.Dataset,
    key: str,
    order_cols: str | list[str],
    n_tiles: int,
    out_col: str = "tile",
    descending: bool | list[bool] = False,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """SQL ``NTILE(n) OVER (PARTITION BY key ORDER BY order_cols)``:
    each key's rows split into ``n`` tiles whose sizes differ by at most
    one, the first ``cnt % n`` tiles taking the extra row. Include a
    unique tiebreak in ``order_cols`` for a deterministic assignment."""
    order_list = [order_cols] if isinstance(order_cols, str) else list(order_cols)
    desc = (
        [descending] * len(order_list)
        if isinstance(descending, bool)
        else list(descending)
    )

    def emit(g: pa.Table, first: np.ndarray, pos: np.ndarray):
        n = len(g)
        if n == 0:
            return out_col, pa.array(np.empty(0, np.int64))
        starts = pos[first]
        seg_id = np.cumsum(first) - 1
        seg_len = np.diff(np.append(starts, n))
        cnt = seg_len[seg_id]
        p = pos - starts[seg_id]  # 0-based within key
        q, r = cnt // n_tiles, cnt % n_tiles
        big = p < r * (q + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            tile = np.where(
                big,
                p // np.maximum(q + 1, 1),
                r + (p - r * (q + 1)) // np.maximum(q, 1),
            )
        return out_col, pa.array(tile + 1, pa.int64())

    return _window_over_buckets(ds, key, order_list, n_buckets, emit, desc=desc)


def rollup_sum(
    ds: ray.data.Dataset,
    keys: list[str],
    value_col: str,
    out_col: str = "total",
) -> ray.data.Dataset:
    """SQL ``GROUP BY ROLLUP(keys...)`` with SUM: totals at every prefix
    granularity (k1..kn), (k1..kn-1), …, (), rolled-up key columns set
    to NULL. One distributed pass produces the finest-level exact totals
    (map-side combine + combine tree); every coarser level re-aggregates
    the SMALL finest table inside the tree's one merge task
    (``exchange.gather``), so the wide input is read exactly once and
    the plan has no all-to-all barrier. Keys must be non-null (SQL
    ROLLUP's NULL marker is otherwise ambiguous). Empty input gives no
    rows, where SQL gives one grand-total row."""

    def partial(batch: pa.Table) -> pa.Table:
        karrs = [batch[k].to_numpy(zero_copy_only=False) for k in keys]
        v = batch[value_col].to_numpy(zero_copy_only=False)
        ks, vs = _group_reduce(karrs, {"_v": v})
        cols = {k: pa.array(a) for k, a in zip(keys, ks)}
        cols["_v"] = pa.array(vs["_v"])
        return pa.table(cols)

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    finest = tree_sum(parts, keys, {"_v": out_col})

    def expand(batch: pa.Table) -> pa.Table:
        out = [batch]
        for lvl in range(len(keys) - 1, -1, -1):
            kept, dropped = keys[:lvl], keys[lvl:]
            if kept:
                g = batch.group_by(kept).aggregate([(out_col, "sum")])
                # select by the generated aggregate name, not position —
                # pyarrow's key-column ordering is version-dependent
                g = g.select(kept + [f"{out_col}_sum"])
                g = g.rename_columns(kept + [out_col])
            else:
                g = pa.table({out_col: pa.array(
                    [pc.sum(batch[out_col]).as_py()],
                    batch[out_col].type,
                )})
            for d in dropped:
                g = g.append_column(d, pa.nulls(len(g), batch[d].type))
            out.append(g.select(batch.column_names))
        return pa.concat_tables(out)

    return exchange.gather(finest, expand)


def cube_sum(
    ds: ray.data.Dataset,
    keys: list[str],
    value_col: str,
    out_col: str = "total",
) -> ray.data.Dataset:
    """SQL ``GROUP BY CUBE(keys...)`` with SUM: totals at EVERY subset
    of the keys (2^n grouping sets), rolled-up columns NULL. Same
    physics as rollup_sum — one distributed pass to the finest level,
    then each subset re-aggregates the small finest table inside the
    tree's merge task; no all-to-all barrier. Keys must be non-null.
    Empty input gives no rows, where SQL gives one grand-total row."""

    def partial(batch: pa.Table) -> pa.Table:
        karrs = [batch[k].to_numpy(zero_copy_only=False) for k in keys]
        v = batch[value_col].to_numpy(zero_copy_only=False)
        ks, vs = _group_reduce(karrs, {"_v": v})
        cols = {k: pa.array(a) for k, a in zip(keys, ks)}
        cols["_v"] = pa.array(vs["_v"])
        return pa.table(cols)

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    finest = tree_sum(parts, keys, {"_v": out_col})

    def expand(batch: pa.Table) -> pa.Table:
        out = []
        n_sets = 1 << len(keys)
        for mask in range(n_sets - 1, -1, -1):
            kept = [k for i, k in enumerate(keys) if mask & (1 << i)]
            dropped = [k for i, k in enumerate(keys) if not mask & (1 << i)]
            if mask == n_sets - 1:
                out.append(batch)
                continue
            if kept:
                g = batch.group_by(kept).aggregate([(out_col, "sum")])
                # select by the generated aggregate name, not position —
                # pyarrow's key-column ordering is version-dependent
                g = g.select(kept + [f"{out_col}_sum"])
                g = g.rename_columns(kept + [out_col])
            else:
                g = pa.table({out_col: pa.array(
                    [pc.sum(batch[out_col]).as_py()], batch[out_col].type
                )})
            for d in dropped:
                g = g.append_column(d, pa.nulls(len(g), batch[d].type))
            out.append(g.select(batch.column_names))
        return pa.concat_tables(out)

    return exchange.gather(finest, expand)


def semi_join_bloom(
    left: ray.data.Dataset,
    on: str,
    right: ray.data.Dataset,
    right_on: str,
    bits: int = 1 << 20,
    k: int = 4,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Bloom-prefiltered BOTH-SIDES-LARGE semi join: result identical
    to ``equi_join_partitioned(how="semi")``, shuffle volume reduced to
    the bloom's maybe-set. Plan: (1) the right key column folds to its
    distinct bloom bit positions (same distributed bit-pair build as
    the layout sidecar — only ≤ ``bits`` position ints ever move);
    (2) the packed ``bits/8``-byte bitmap broadcasts once via
    ``exchange.broadcast`` (128 KiB at 2²⁰ — constant, independent of right's
    size); (3) a stateless map drops every left row the bloom rules
    out (no false negatives, so nothing correct is lost); (4) the
    surviving maybes — true matches plus the bloom's false-positive
    trickle — go through the exact partitioned semi join. The standard
    shuffle-volume optimization when the left side is much larger than
    its match set; size ``bits`` ≈ 10× right's distinct keys to keep
    the FP rate ~1%. INT64-castable keys only (the bloom hashes the
    integer value; for string keys fingerprint upstream or use the
    plain partitioned semi)."""
    from georay.pipeline import _bloom_positions

    def right_positions(batch: pa.Table) -> pa.Table:
        x = (batch[right_on].cast(pa.int64())
             .to_numpy(zero_copy_only=False))
        pos = np.unique(_bloom_positions(x, bits, k).ravel())
        return pa.table(
            {
                "p": pa.array(pos, pa.int64()),
                "partial_one": pa.array(np.ones(pos.shape[0], np.int64)),
            }
        )

    pos_tbl = tree_sum(
        right.select_columns([right_on]).map_batches(
            right_positions, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        "p", {"partial_one": "c"}, int_cols=("partial_one",),
    )
    pos_tbl = exchange.collect(pos_tbl)
    pos = (
        pos_tbl["p"].to_numpy(zero_copy_only=False)
        if pos_tbl.num_rows else np.empty(0, np.int64)
    )
    bitmap = np.zeros(bits // 8, dtype=np.uint8)
    if pos.shape[0]:
        np.bitwise_or.at(bitmap, pos // 8, (1 << (pos % 8)).astype(np.uint8))
    ref = exchange.broadcast(bitmap)

    def prefilter(batch: pa.Table) -> pa.Table:
        bm = ref.get()
        x = batch[on].cast(pa.int64()).to_numpy(zero_copy_only=False)
        p = _bloom_positions(x, bits, k)
        hit = ((bm[p // 8] >> (p % 8).astype(np.uint8)) & 1).all(axis=1)
        return batch.filter(pa.array(hit))

    maybes = left.map_batches(
        prefilter, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    )
    return equi_join_partitioned(
        maybes, right.select_columns([right_on]), on=on, right_on=right_on,
        how="semi", n_buckets=n_buckets,
    )


def analyze_table(
    ds: ray.data.Dataset,
    int_cols=(),
    str_cols=(),
) -> ray.data.Dataset:
    """ANALYZE: per-column table statistics — ``(col, n, n_null,
    n_distinct, min_v, max_v)`` with min/max rendered as strings
    (numeric columns compare numerically, then cast — SQL
    ``CAST(MIN(col) AS VARCHAR)`` parity; string columns compare
    bytewise like DuckDB's default collation). The planner food for
    every prune decision this engine makes (zone maps, bloom sizing,
    broadcast-vs-shuffle thresholds).

    TWO passes total, whatever the column count: (1) one pruned scan
    folds every column's (n, n_null, min, max) partials through a
    single combine tree keyed by column name (numeric minima ride an
    order-isomorphic padded-decimal encoding so one bytewise
    np.minimum serves both type families); (2) one scan emits distinct
    ``(col, value-string)`` presence pairs — stringification is
    injective per column, so the dedup-tree count per column IS the
    exact n_distinct (the ``token_histogram`` bound: distinct values,
    not rows, move; swap ``approx_distinct`` for 10⁹-distinct ids).
    Only the per-column scalar summary reaches the driver."""
    int_cols = list(int_cols)
    str_cols = list(str_cols)
    cols = [(c, True) for c in int_cols] + [(c, False) for c in str_cols]
    if not cols:
        raise ValueError("analyze_table: no columns given")
    names = [c for c, _ in cols]
    proj = ds.select_columns(names)
    # order-isomorphic string key for int64: zero-padded decimal of
    # (v - INT64_MIN) — bytewise order == numeric order, 20 digits
    _OFF = 1 << 63
    _HI = "￿"  # sorts after every encoded/real value

    def _enc_int(v: int) -> str:
        return str(v + _OFF).zfill(20)

    def partial(batch: pa.Table) -> pa.Table:
        out_c, out_n, out_nu, out_lo, out_hi, out_has = [], [], [], [], [], []
        for c, is_int in cols:
            a = batch[c]
            if isinstance(a, pa.ChunkedArray):
                a = a.combine_chunks()
            n, n_null = len(a), a.null_count
            if n == 0:
                continue
            valid = a.drop_null()
            if len(valid):
                # numeric min/max taken natively; only the two SCALARS
                # get the order-isomorphic padded-decimal encoding
                lo = pc.min(valid).as_py()
                hi = pc.max(valid).as_py()
                if is_int:
                    lo, hi = _enc_int(int(lo)), _enc_int(int(hi))
            else:
                # identity sentinels (real values always win; the has
                # flag disambiguates a real "" maximum at the end)
                lo, hi = _HI, ""
            out_c.append(c)
            out_n.append(n)
            out_nu.append(n_null)
            out_lo.append(lo)
            out_hi.append(hi)
            out_has.append(int(len(valid) > 0))
        return pa.table(
            {
                "col": pa.array(out_c, pa.string()),
                "partial_n": pa.array(out_n, pa.int64()),
                "partial_null": pa.array(out_nu, pa.int64()),
                "partial_min": pa.array(out_lo, pa.string()),
                "partial_max": pa.array(out_hi, pa.string()),
                "partial_has": pa.array(out_has, pa.int64()),
            }
        )

    stats = tree_reduce(
        proj.map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["col"],
        {"partial_n": "n", "partial_null": "n_null",
         "partial_min": "min_v", "partial_max": "max_v",
         "partial_has": "has"},
        ufunc={"partial_n": np.add, "partial_null": np.add,
               "partial_min": np.minimum, "partial_max": np.maximum,
               "partial_has": np.maximum},
    ).to_pandas()

    def dpartial(batch: pa.Table) -> pa.Table:
        out_c, out_v = [], []
        for c, is_int in cols:
            a = batch[c]
            if isinstance(a, pa.ChunkedArray):
                a = a.combine_chunks()
            u = a.drop_null().unique()
            if is_int:
                v = u.cast(pa.string())
            else:
                v = u
            out_c.append(pa.array([c] * len(v), pa.string()))
            out_v.append(v)
        return pa.table(
            {
                "col": pa.concat_arrays(
                    [x.combine_chunks() if isinstance(x, pa.ChunkedArray)
                     else x for x in out_c]
                ),
                "v": pa.concat_arrays(
                    [x.combine_chunks() if isinstance(x, pa.ChunkedArray)
                     else x for x in out_v]
                ),
                "partial_one": pa.array(
                    np.ones(sum(len(x) for x in out_v), np.int64)
                ),
            }
        )

    nd_tbl = tree_sum(
        proj.map_batches(
            dpartial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["col", "v"], {"partial_one": "c"}, int_cols=("partial_one",),
    )

    def nd_count(batch: pa.Table) -> pa.Table:
        c = batch["col"].to_numpy(zero_copy_only=False)
        ks, vs = _group_reduce([c], {"partial_nd": np.ones(c.shape[0],
                                                           np.int64)})
        return pa.table(
            {"col": pa.array(ks[0], pa.string()),
             "partial_nd": pa.array(vs["partial_nd"], pa.int64())}
        )

    nd = tree_sum(
        nd_tbl.map_batches(
            nd_count, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        "col", {"partial_nd": "nd"}, int_cols=("partial_nd",),
    ).to_pandas()
    nd_map = dict(zip(nd["col"], nd["nd"])) if len(nd) else {}
    st_map = {r["col"]: r for _, r in stats.iterrows()} if len(stats) else {}

    def _dec_int(s: str) -> str:
        return str(int(s) - _OFF)

    rows = []
    for c, is_int in cols:
        r = st_map.get(c)
        if r is None:
            rows.append({"col": c, "n": 0, "n_null": 0, "n_distinct": 0,
                         "min_v": None, "max_v": None})
            continue
        if int(r["has"]):
            lo, hi = r["min_v"], r["max_v"]
            if is_int:
                lo, hi = _dec_int(lo), _dec_int(hi)
        else:
            lo = hi = None
        rows.append(
            {"col": c, "n": int(r["n"]), "n_null": int(r["n_null"]),
             "n_distinct": int(nd_map.get(c, 0)),
             "min_v": lo, "max_v": hi}
        )
    return ray.data.from_arrow(
        pa.table(
            {
                "col": pa.array([r["col"] for r in rows], pa.string()),
                "n": pa.array([r["n"] for r in rows], pa.int64()),
                "n_null": pa.array([r["n_null"] for r in rows], pa.int64()),
                "n_distinct": pa.array(
                    [r["n_distinct"] for r in rows], pa.int64()
                ),
                "min_v": pa.array([r["min_v"] for r in rows], pa.string()),
                "max_v": pa.array([r["max_v"] for r in rows], pa.string()),
            }
        )
    )


def grouping_sets_sum(
    ds: ray.data.Dataset,
    keys: list[str],
    sets: list[tuple[str, ...]],
    value_col: str,
    out_col: str = "total",
) -> ray.data.Dataset:
    """SQL ``GROUP BY GROUPING SETS (...)`` with SUM: totals at exactly
    the requested grouping sets (each a subset of ``keys``), rolled-up
    columns NULL. Same physics as rollup_sum / cube_sum — one
    distributed pass to the finest level (map-side combine + combine
    tree), then each requested set re-aggregates the SMALL finest
    table inside the tree's merge task; no all-to-all barrier. Keys
    must be non-null; duplicate sets produce duplicate result rows (SQL
    bag semantics). Empty input gives no rows, where SQL gives a
    grand-total row for a ``()`` set."""
    keyset = set(keys)
    for s in sets:
        if not set(s) <= keyset:
            raise ValueError(f"grouping_sets_sum: set {s} not within keys")

    def partial(batch: pa.Table) -> pa.Table:
        karrs = [batch[k].to_numpy(zero_copy_only=False) for k in keys]
        v = batch[value_col].to_numpy(zero_copy_only=False)
        ks, vs = _group_reduce(karrs, {"_v": v})
        cols = {k: pa.array(a) for k, a in zip(keys, ks)}
        cols["_v"] = pa.array(vs["_v"])
        return pa.table(cols)

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    finest = tree_sum(parts, keys, {"_v": out_col})

    def expand(batch: pa.Table) -> pa.Table:
        out = []
        for s in sets:
            kept = [k for k in keys if k in s]
            dropped = [k for k in keys if k not in s]
            if kept == keys:
                out.append(batch)
                continue
            if kept:
                g = batch.group_by(kept).aggregate([(out_col, "sum")])
                g = g.select(kept + [f"{out_col}_sum"])
                g = g.rename_columns(kept + [out_col])
            else:
                g = pa.table({out_col: pa.array(
                    [pc.sum(batch[out_col]).as_py()], batch[out_col].type
                )})
            for d in dropped:
                g = g.append_column(d, pa.nulls(len(g), batch[d].type))
            out.append(g.select(batch.column_names))
        return pa.concat_tables(out)

    return exchange.gather(finest, expand)


def value_histogram(
    ds: ray.data.Dataset,
    value_col: str,
    lo: float,
    hi: float,
    n_bins: int,
    count_alias: str = "n",
) -> ray.data.Dataset:
    """Fixed-bin histogram of a numeric column: bin = floor((x - lo) /
    w) clipped to [0, n_bins-1] (SQL ``least(greatest(...))`` replica),
    counted by map-side combine + tree merge — no shuffle of data rows,
    only of ≤ n_bins partial rows per batch."""
    w = (hi - lo) / n_bins

    def partial(batch: pa.Table) -> pa.Table:
        x = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        b = np.floor((x - lo) / w)
        b = np.clip(b, 0, n_bins - 1).astype(np.int64)
        b = b[np.isfinite(x)]
        ks, vs = _group_reduce([b], {"_n": np.ones(b.shape[0], np.int64)})
        return pa.table({"bin": pa.array(ks[0]), "_n": pa.array(vs["_n"])})

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return tree_sum(parts, "bin", {"_n": count_alias})


def _order_change_mask(g: pa.Table, order_list: list[str], n: int) -> np.ndarray:
    """changed[i] (length n-1): row i+1 differs from row i on any order
    column (nulls compared by validity)."""
    changed = np.zeros(max(n - 1, 0), dtype=bool)
    for c in order_list:
        arr = g[c].combine_chunks() if isinstance(g[c], pa.ChunkedArray) else g[c]
        neq = pc.fill_null(pc.not_equal(arr.slice(1), arr.slice(0, n - 1)), False)
        nul = np.asarray(pc.is_null(arr))
        changed |= np.asarray(neq) | (nul[1:] != nul[:-1])
    return changed


def window_percent_rank(
    ds: ray.data.Dataset,
    key: str,
    order_cols: str | list[str],
    out_col: str = "pct_rank",
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """SQL ``PERCENT_RANK() OVER (PARTITION BY key ORDER BY ...)``:
    (rank - 1) / (cnt - 1) with RANK() tie semantics, 0 for single-row
    keys. Integer rank and count are computed exactly; the one double
    division is written identically to the SQL replica."""
    order_list = [order_cols] if isinstance(order_cols, str) else list(order_cols)

    def emit(g: pa.Table, first: np.ndarray, pos: np.ndarray):
        n = len(g)
        if n == 0:
            return out_col, pa.array(np.empty(0, np.float64))
        runfirst = first.copy()
        runfirst[1:] |= _order_change_mask(g, order_list, n)
        key_start = np.maximum.accumulate(np.where(first, pos, 0))
        run_start = np.maximum.accumulate(np.where(runfirst, pos, 0))
        rank = run_start - key_start + 1
        starts = pos[first]
        seg_id = np.cumsum(first) - 1
        cnt = np.diff(np.append(starts, n))[seg_id]
        with np.errstate(invalid="ignore", divide="ignore"):
            pr = np.where(cnt > 1, (rank - 1) / np.maximum(cnt - 1, 1), 0.0)
        return out_col, pa.array(pr, pa.float64())

    return _window_over_buckets(ds, key, order_list, n_buckets, emit)


def window_cume_dist(
    ds: ray.data.Dataset,
    key: str,
    order_cols: str | list[str],
    out_col: str = "cume_dist",
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """SQL ``CUME_DIST()``: (# peers with order value ≤ current) / cnt —
    i.e. (global position of the current tie-run's END + 1 - key start)
    / key count."""
    order_list = [order_cols] if isinstance(order_cols, str) else list(order_cols)

    def emit(g: pa.Table, first: np.ndarray, pos: np.ndarray):
        n = len(g)
        if n == 0:
            return out_col, pa.array(np.empty(0, np.float64))
        runfirst = first.copy()
        runfirst[1:] |= _order_change_mask(g, order_list, n)
        key_start = np.maximum.accumulate(np.where(first, pos, 0))
        # run end = next run's start - 1; compute per run then gather
        run_id = np.cumsum(runfirst) - 1
        run_starts = pos[runfirst]
        run_ends = np.append(run_starts[1:], n) - 1
        le = run_ends[run_id] - key_start + 1
        starts = pos[first]
        seg_id = np.cumsum(first) - 1
        cnt = np.diff(np.append(starts, n))[seg_id]
        cd = le / cnt
        return out_col, pa.array(cd, pa.float64())

    return _window_over_buckets(ds, key, order_list, n_buckets, emit)


def grouped_corr(
    ds: ray.data.Dataset,
    key: str,
    x_col: str,
    y_col: str,
    out_col: str = "corr",
) -> ray.data.Dataset:
    """Per-key Pearson correlation in ONE pass: per-batch integer sums
    (n, Σx, Σy, Σx², Σy², Σxy) combined by tree merge, final formula
    computed once per key. Inputs must be integer-valued (cast upstream)
    so every sum is exact and the single float expression matches a SQL
    replica bit-for-bit; at larger magnitudes switch the sums to float
    and drop the bit-exact claim (int64 products bound documented in the
    query)."""

    def partial(batch: pa.Table) -> pa.Table:
        k = batch[key].to_numpy(zero_copy_only=False)
        x = batch[x_col].to_numpy(zero_copy_only=False).astype(np.int64)
        y = batch[y_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ks, vs = _group_reduce(
            [k],
            {
                "n": np.ones(x.shape[0], np.int64),
                "sx": x, "sy": y, "sxx": x * x, "syy": y * y, "sxy": x * y,
            },
        )
        cols = {key: pa.array(ks[0])}
        for name in ("n", "sx", "sy", "sxx", "syy", "sxy"):
            cols[name] = pa.array(vs[name])
        return pa.table(cols)

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    sums = tree_sum(
        parts, key, {c: c for c in ("n", "sx", "sy", "sxx", "syy", "sxy")}
    )

    def finish(batch: pa.Table) -> pa.Table:
        n = batch["n"].to_numpy(zero_copy_only=False)
        sx = batch["sx"].to_numpy(zero_copy_only=False)
        sy = batch["sy"].to_numpy(zero_copy_only=False)
        sxx = batch["sxx"].to_numpy(zero_copy_only=False)
        syy = batch["syy"].to_numpy(zero_copy_only=False)
        sxy = batch["sxy"].to_numpy(zero_copy_only=False)
        num = (n * sxy - sx * sy).astype(np.float64)
        dx = np.sqrt((n * sxx - sx * sx).astype(np.float64))
        dy = np.sqrt((n * syy - sy * sy).astype(np.float64))
        with np.errstate(invalid="ignore", divide="ignore"):
            r = num / (dx * dy)
        return pa.table(
            {key: batch[key], "n": batch["n"], out_col: pa.array(r, pa.float64())}
        )

    return sums.map_batches(
        finish, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def grouped_mode(
    ds: ray.data.Dataset,
    key: str,
    value_col: str,
    out_col: str = "mode",
    count_alias: str = "n",
) -> ray.data.Dataset:
    """Per-key mode (most frequent value; ties → smallest value): one
    distributed pass to (key, value) counts (map-side combine + combine
    tree), then the tree's merge task picks each key's winner from the
    small count table, vectorized; no all-to-all barrier."""

    def partial(batch: pa.Table) -> pa.Table:
        k = batch[key].to_numpy(zero_copy_only=False)
        v = batch[value_col].to_numpy(zero_copy_only=False)
        ks, vs = _group_reduce([k, v], {"_n": np.ones(v.shape[0], np.int64)})
        return pa.table(
            {key: pa.array(ks[0]), value_col: pa.array(ks[1]),
             "_n": pa.array(vs["_n"])}
        )

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    counts = tree_sum(parts, [key, value_col], {"_n": count_alias})

    def pick(batch: pa.Table) -> pa.Table:
        k = batch[key].to_numpy(zero_copy_only=False)
        v = batch[value_col].to_numpy(zero_copy_only=False)
        c = batch[count_alias].to_numpy(zero_copy_only=False)
        order = np.lexsort((v, -c, k))
        ks, vs_, cs = k[order], v[order], c[order]
        first = np.ones(ks.shape[0], dtype=bool)
        first[1:] = ks[1:] != ks[:-1]
        return pa.table(
            {key: pa.array(ks[first]), out_col: pa.array(vs_[first]),
             count_alias: pa.array(cs[first])}
        )

    return exchange.gather(counts, pick)


def set_op_distinct(
    ds_a: ray.data.Dataset,
    ds_b: ray.data.Dataset,
    keys: str | list[str],
    op: str = "except",
) -> ray.data.Dataset:
    """Distributed SQL ``EXCEPT`` / ``INTERSECT`` (distinct semantics)
    over key columns: tag each side, union the streams, one key-hash
    bucket shuffle, then per bucket keep each distinct key present only
    in A (except) or in both (intersect). Both inputs stream; only key
    columns move."""
    key_list = [keys] if isinstance(keys, str) else list(keys)
    if op not in ("except", "intersect"):
        raise ValueError(f"unknown set op: {op!r}")

    def tag(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            return batch.select(key_list).append_column(
                "_side", pa.array(np.full(len(batch), side, np.int64))
            )
        return fn

    sides = [
        d.map_batches(tag(i), batch_format="pyarrow", zero_copy_batch=True,
                      batch_size=None)
        for i, d in enumerate((ds_a, ds_b))
    ]

    def per_bucket(group: pa.Table) -> pa.Table:
        # Arrow-native sort + boundary segmentation: preserves key types
        # exactly (no numpy float promotion for nullable ints) and
        # groups all NULL keys as ONE distinct key, as SQL set ops do.
        g = group.take(
            pc.sort_indices(group, sort_keys=[(k, "ascending") for k in key_list])
        )
        n = len(g)
        if n == 0:
            return g.select(key_list)
        first = np.zeros(n, dtype=bool)
        first[0] = True
        for k in key_list:
            a = g[k].combine_chunks() if isinstance(g[k], pa.ChunkedArray) else g[k]
            neq = pc.fill_null(pc.not_equal(a.slice(1), a.slice(0, n - 1)), False)
            nul = np.asarray(pc.is_null(a))
            first[1:] |= np.asarray(neq) | (nul[1:] != nul[:-1])
        starts = np.flatnonzero(first)
        side = g["_side"].to_numpy(zero_copy_only=False)
        mn = np.minimum.reduceat(side, starts)
        mx = np.maximum.reduceat(side, starts)
        keep = mx == 0 if op == "except" else (mn == 0) & (mx == 1)
        return g.select(key_list).take(pa.array(starts[keep]))

    return co_shuffle(sides, key_list, per_bucket, n_buckets=256, coalesce=True)


def grouped_string_agg(
    ds: ray.data.Dataset,
    key: str,
    value_col: str,
    order_cols: str | list[str],
    sep: str = ",",
    out_col: str = "agg",
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """SQL ``STRING_AGG(value, sep ORDER BY ...)`` per key: one key-hash
    bucket shuffle, whole-bucket Arrow sort, then per-key list offsets +
    a single ``pc.binary_join`` C call — no per-key Python. Null values
    are dropped (as SQL does); a key whose values are ALL null is
    omitted (SQL would emit the key with NULL — filter upstream if that
    distinction matters). Per-key output strings must fit a worker heap
    (they are the whole point of the op); key count is unbounded."""
    order_list = [order_cols] if isinstance(order_cols, str) else list(order_cols)

    def per_bucket(group: pa.Table) -> pa.Table:
        valid = pc.is_valid(group[value_col])
        if not pc.all(valid).as_py():
            group = group.filter(valid)
        sort_keys = [(key, "ascending")] + [(c, "ascending") for c in order_list]
        g = group.take(pc.sort_indices(group, sort_keys=sort_keys))
        n = len(g)
        karr = g[key].combine_chunks() if isinstance(g[key], pa.ChunkedArray) else g[key]
        if n == 0:
            return pa.table(
                {key: karr, out_col: pa.array([], pa.string())}
            )
        first = np.zeros(n, dtype=bool)
        first[0] = True
        neq = pc.fill_null(pc.not_equal(karr.slice(1), karr.slice(0, n - 1)), False)
        nul = np.asarray(pc.is_null(karr))
        first[1:] = np.asarray(neq) | (nul[1:] != nul[:-1])
        starts = np.flatnonzero(first)
        offsets = pa.array(np.append(starts, n), pa.int64())
        vals = g[value_col]
        if isinstance(vals, pa.ChunkedArray):
            vals = vals.combine_chunks()
        vals = pc.cast(vals, pa.string())
        joined = pc.binary_join(
            pa.LargeListArray.from_arrays(offsets, vals), sep
        )
        return pa.table({key: karr.take(pa.array(starts)), out_col: joined})

    return co_shuffle(ds, key, per_bucket, n_buckets=n_buckets, coalesce=True)


def time_gap_fill(
    ds: ray.data.Dataset,
    key: str,
    bucket_col: str,
    count_alias: str = "n",
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Per-key dense time series: counts per (key, integer time bucket),
    then EVERY bucket between each key's min and max emitted — missing
    buckets with count 0 (SQL generate_series + left join). Two stages:
    map-side combined counts (``tree_sum`` — the wide input never
    concentrates), then the small counts table is key-hash bucketed so
    range generation stays distributed; per group the dense ranges are
    built with one marker+cumsum expansion and existing counts are
    scattered by direct index (no join). A key's full span must fit a
    task (spans are output rows, so this is inherent to the result)."""
    from georay.index import _ragged_ranges

    def partial(batch: pa.Table) -> pa.Table:
        k = batch[key].to_numpy(zero_copy_only=False)
        b = batch[bucket_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ks, vs = _group_reduce([k, b], {"_n": np.ones(b.shape[0], np.int64)})
        return pa.table(
            {key: pa.array(ks[0]), bucket_col: pa.array(ks[1]),
             "_n": pa.array(vs["_n"])}
        )

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    counts = tree_sum(parts, [key, bucket_col], {"_n": count_alias})

    key_type = ds.schema().base_schema.field(key).type

    def fill(group: pa.Table) -> pa.Table:
        k = group[key].to_numpy(zero_copy_only=False)
        b = group[bucket_col].to_numpy(zero_copy_only=False)
        c = group[count_alias].to_numpy(zero_copy_only=False)
        if k.shape[0] == 0:
            return pa.table(
                {key: pa.array([], key_type),
                 bucket_col: pa.array([], pa.int64()),
                 count_alias: pa.array([], pa.int64())}
            )
        order = np.lexsort((b, k))
        k, b, c = k[order], b[order], c[order]
        first = np.ones(k.shape[0], dtype=bool)
        first[1:] = k[1:] != k[:-1]
        seg_id = np.cumsum(first) - 1
        mn = b[first]
        ends = np.append(np.flatnonzero(first)[1:], k.shape[0]) - 1
        mx = b[ends]
        lens = mx - mn + 1
        owner, within = _ragged_ranges(lens)
        out_k = k[first][owner]
        out_b = mn[owner] + within
        out_n = np.zeros(out_b.shape[0], np.int64)
        starts = np.cumsum(lens) - lens
        out_n[starts[seg_id] + (b - mn[seg_id])] = c
        return pa.table(
            {key: pa.array(out_k), bucket_col: pa.array(out_b),
             count_alias: pa.array(out_n)}
        )

    return co_shuffle(counts, key, fill, n_buckets=n_buckets, coalesce=False)


def window_row_number(
    ds: ray.data.Dataset,
    key: str,
    order_cols: str | list[str],
    out_col: str = "row_number",
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """SQL ``ROW_NUMBER() OVER (PARTITION BY key ORDER BY ...)``:
    position within the key, 1-based, ties broken by the bucket sort —
    pass a unique tiebreak column for determinism."""
    order_list = [order_cols] if isinstance(order_cols, str) else list(order_cols)

    def emit(g: pa.Table, first: np.ndarray, pos: np.ndarray):
        key_start = np.maximum.accumulate(np.where(first, pos, 0))
        return out_col, pa.array(pos - key_start + 1, pa.int64())

    return _window_over_buckets(ds, key, order_list, n_buckets, emit)


def window_lead(
    ds: ray.data.Dataset,
    key: str,
    order_cols: str | list[str],
    value_col: str,
    out_col: str = "lead_value",
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """SQL ``LEAD(value) OVER (PARTITION BY key ORDER BY ...)``: each
    row gets the NEXT row's value within its key; the last row per key
    gets null. Same one-shuffle bucket plan as ``window_lag``."""
    order_list = [order_cols] if isinstance(order_cols, str) else list(order_cols)

    def emit(g: pa.Table, first: np.ndarray, pos: np.ndarray):
        n = len(g)
        varr = (
            g[value_col].combine_chunks()
            if isinstance(g[value_col], pa.ChunkedArray)
            else g[value_col]
        )
        if n == 0:
            return out_col, varr
        lead = pa.concat_arrays([varr.slice(1), pa.nulls(1, varr.type)])
        last = np.empty(n, dtype=bool)
        last[:-1] = first[1:]
        last[-1] = True
        return out_col, pc.if_else(pa.array(~last), lead, pa.scalar(None, varr.type))

    return _window_over_buckets(ds, key, order_list, n_buckets, emit)


def unpivot(
    ds: ray.data.Dataset,
    id_cols: list[str],
    value_cols: list[str],
    var_name: str = "variable",
    value_name: str = "value",
    value_type: pa.DataType | None = None,
) -> ray.data.Dataset:
    """Wide→long melt (SQL UNPIVOT): each input row emits one output row
    per value column. Pure row-expanding ``map_batches`` — the loop is
    over COLUMNS (a handful), each iteration a zero-copy column select +
    cast, so no shuffle and no per-row Python. Value columns are cast to
    ``value_type`` (default float64) to share one output column."""
    if not value_cols:
        raise ValueError("unpivot requires at least one value column")
    vt = value_type or pa.float64()

    def melt(batch: pa.Table) -> pa.Table:
        n = len(batch)
        pieces = []
        for c in value_cols:
            cols = {ic: batch[ic] for ic in id_cols}
            cols[var_name] = pa.DictionaryArray.from_arrays(
                pa.array(np.zeros(n, np.int32)), pa.array([c], pa.string())
            ).cast(pa.string())
            cols[value_name] = batch[c].cast(vt)
            pieces.append(pa.table(cols))
        return pa.concat_tables(pieces)

    return ds.map_batches(
        melt, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def peak_concurrency(
    ds: ray.data.Dataset,
    ts_col: str,
    delta_col: str,
    n_shards: int = 64,
) -> ray.data.Dataset:
    """EXACT peak of a ±1 delta stream (max concurrent sessions /
    connections / jobs): the classic sweep — sort deltas by
    ``(t, delta DESC)`` (all starts at an instant count before any end:
    closed-interval semantics) and take the max running sum —
    distributed with the ``pack_sequences`` two-pass prefix plan keyed
    by TIME: (1) global [min, max] and per-equi-width-shard delta
    totals via the combine tree give each shard's exclusive base
    (driver fold over n_shards scalars); (2) one shard co-shuffle,
    each shard sorts locally and reports ``base + local max prefix``;
    the answer is the max over shards. Equal timestamps land in one
    shard by construction, so the tie rule is purely local. Returns
    one row ``(peak,)``."""

    def mm_partial(batch: pa.Table) -> pa.Table:
        t = batch[ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if t.shape[0] == 0:
            return pa.table(
                {"one": pa.array([], pa.int64()),
                 "partial_lo": pa.array([], pa.int64()),
                 "partial_hi": pa.array([], pa.int64())}
            )
        return pa.table(
            {"one": pa.array([1], pa.int64()),
             "partial_lo": pa.array([int(t.min())], pa.int64()),
             "partial_hi": pa.array([int(t.max())], pa.int64())}
        )

    mm = tree_reduce(
        ds.map_batches(mm_partial, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["one"], {"partial_lo": "lo", "partial_hi": "hi"},
        ufunc={"partial_lo": np.minimum, "partial_hi": np.maximum},
    ).to_pandas()
    if len(mm) == 0 or "lo" not in mm.columns:
        return ray.data.from_arrow(
            pa.table({"peak": pa.array([0], pa.int64())})
        )
    lo, hi = int(mm["lo"].iloc[0]), int(mm["hi"].iloc[0])
    width = max(1, (hi - lo + n_shards) // n_shards)

    def tot_partial(batch: pa.Table) -> pa.Table:
        t = batch[ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch[delta_col].to_numpy(zero_copy_only=False).astype(np.int64)
        sh = np.clip((t - lo) // width, 0, n_shards - 1)
        ks, vs = _group_reduce([sh], {"partial_d": d})
        return pa.table(
            {"shard": pa.array(ks[0], pa.int64()),
             "partial_d": pa.array(vs["partial_d"], pa.int64())}
        )

    tot = tree_sum(
        ds.map_batches(tot_partial, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["shard"], {"partial_d": "d"}, int_cols=("partial_d",),
    ).to_pandas().sort_values("shard")
    bases = np.zeros(n_shards, np.int64)
    sh = tot["shard"].to_numpy().astype(np.int64)
    dd = tot["d"].to_numpy().astype(np.int64)
    per = np.zeros(n_shards, np.int64)
    per[sh] = dd
    bases[1:] = np.cumsum(per)[:-1]

    base_ref = exchange.broadcast(bases)

    def add_shard(batch: pa.Table) -> pa.Table:
        t = batch[ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.append_column(
            "_shard",
            pa.array(np.clip((t - lo) // width, 0, n_shards - 1), pa.int64()),
        )

    def shard_max(group: pa.Table) -> pa.Table:
        bs = base_ref.get()
        t = group[ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = group[delta_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if t.shape[0] == 0:
            return pa.table({"partial_peak": pa.array([], pa.int64())})
        order = np.lexsort((-d, t))
        run = np.cumsum(d[order])
        sh0 = int(np.clip((t[0] - lo) // width, 0, n_shards - 1))
        return pa.table(
            {"partial_peak": pa.array(
                [int(bs[sh0]) + int(run.max())], pa.int64()
            )}
        )

    peaks = co_shuffle(
        ds.map_batches(add_shard, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=None),
        "_shard", shard_max, coalesce=False,
    )

    def fold(batch: pa.Table) -> pa.Table:
        p = batch["partial_peak"].to_numpy(zero_copy_only=False)
        if p.shape[0] == 0:
            return pa.table(
                {"one": pa.array([], pa.int64()),
                 "partial_m": pa.array([], pa.int64())}
            )
        return pa.table(
            {"one": pa.array([1], pa.int64()),
             "partial_m": pa.array([int(p.max())], pa.int64())}
        )

    out = tree_reduce(
        peaks.map_batches(fold, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None),
        ["one"], {"partial_m": "peak"}, ufunc=np.maximum,
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({"peak": batch["peak"]})

    return out.map_batches(
        finish, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def pack_sequences(
    ds: ray.data.Dataset,
    id_col: str,
    len_col: str,
    budget: int,
    n_shards: int = 256,
    pack_col: str = "pack_id",
    offset_col: str = "pack_offset",
) -> ray.data.Dataset:
    """GPT-style sequence packing (concat-and-chunk): documents are laid
    end-to-end in a deterministic pseudo-random global order — the
    murmur-finalizer hash of ``id_col`` (SQL-replicable, see
    ``add_splitmix_column``) — and cut into fixed ``budget``-token
    packs. Each doc gets (pack_id, pack_offset) = divmod(its exclusive
    prefix sum, budget); docs may straddle pack boundaries, exactly as
    pretraining packing splits them.

    Distributed global prefix sum in two passes over the (id, len)
    projection: (1) per-SHARD length totals via the combine tree —
    shards are contiguous hash ranges (top byte of the order key), so
    the ~``n_shards`` totals give each shard's exclusive base, computed
    on the driver (tiny) and broadcast; (2) one bucket shuffle by shard,
    each shard sorted by (hash, id) and locally prefix-summed + base.
    Only (id, len) columns move; pass a pruned 2-column dataset."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    hcol, scol = "_pack_h", "_pack_shard"
    keyed = add_splitmix_column(ds, id_col, out=hcol)

    def add_shard(batch: pa.Table) -> pa.Table:
        h = batch[hcol].to_numpy(zero_copy_only=False)
        # arithmetic shift of the signed order key is monotone in it
        return batch.append_column(scol, pa.array(h >> 56))

    keyed = keyed.map_batches(
        add_shard, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    # both passes below consume `keyed`; materialize the pruned
    # (id, len, hash, shard) projection ONCE (distributed, ~24 B/row) so
    # a long upstream chain (e.g. the pretrain_prep composition) is not
    # re-executed for the second pass
    keyed = keyed.materialize()

    def partial(batch: pa.Table) -> pa.Table:
        s = batch[scol].to_numpy(zero_copy_only=False)
        ln = batch[len_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ks, vs = _group_reduce([s], {"_t": ln})
        return pa.table({scol: pa.array(ks[0]), "_t": pa.array(vs["_t"])})

    totals = (
        keyed.map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        )
        .materialize()
    )
    rows = tree_sum(totals, scol, {"_t": "_t"}).take_all()
    shards = sorted((r[scol], r["_t"]) for r in rows)
    base = {}
    acc = 0
    for sid, tot in shards:
        base[sid] = acc
        acc += int(tot)
    base_ref = exchange.broadcast(base)

    def per_shard(group: pa.Table) -> pa.Table:
        bases = base_ref.get()
        g = group.take(
            pc.sort_indices(group, sort_keys=[(hcol, "ascending"),
                                              (id_col, "ascending")])
        )
        ln = g[len_col].to_numpy(zero_copy_only=False).astype(np.int64)
        sid = int(g[scol][0].as_py()) if len(g) else 0
        off = np.cumsum(ln) - ln + bases.get(sid, 0)
        g = g.drop_columns([hcol, scol])
        return g.append_column(
            pack_col, pa.array(off // budget, pa.int64())
        ).append_column(offset_col, pa.array(off % budget, pa.int64()))

    return co_shuffle(keyed, scol, per_shard, coalesce=True)


def json_extract_scalar(
    ds: ray.data.Dataset,
    col: str,
    key: str,
    out_col: str | None = None,
    as_type: str = "int",
) -> ray.data.Dataset:
    """Extract one scalar field from a JSON-string column — the
    schema-on-read pattern for semi-structured payload columns —
    entirely inside Arrow's RE2 kernel (``pc.extract_regex``), no JSON
    parser and no per-row Python. Missing key / null input → null.
    ``as_type``: "int" (fractional values round half-away like SQL
    CAST(x AS BIGINT); |x| must fit a double exactly, < 2^53), "double"
    (bare numbers) or "string" (quoted values). Limitations, by design
    of the regex path: no escape handling inside strings, and a
    same-named key inside a NESTED object also matches — flat payload
    objects only; feed anything richer through a real parser upstream."""
    out = out_col or key
    esc = re.escape(key)
    if as_type in ("int", "double"):
        pattern = rf'"{esc}"\s*:\s*(?P<v>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)'
        target = pa.float64()
    elif as_type == "string":
        pattern = rf'"{esc}"\s*:\s*"(?P<v>[^"]*)"'
        target = pa.string()
    else:
        raise ValueError(f"as_type must be int|double|string, got {as_type!r}")

    def fn(batch: pa.Table) -> pa.Table:
        ex = pc.extract_regex(batch[col], pattern)
        v = pc.cast(pc.struct_field(ex, "v"), target)
        if as_type == "int":
            # SQL CAST(double AS BIGINT) rounds half away from zero
            v = pc.cast(
                pc.round(v, round_mode="half_towards_infinity"), pa.int64()
            )
        return batch.append_column(out, v)

    return ds.map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def exact_quantiles_cont(
    ds: ray.data.Dataset,
    col: str,
    qs: list[float],
) -> ray.data.Dataset:
    """Interpolated exact quantiles (``quantile_cont`` /
    PERCENTILE_CONT semantics: linear interpolation at rank q·(n-1))
    over the same bounded-cardinality value-histogram plan as
    ``exact_quantiles`` — only (distinct value, count) rows move. The
    interpolation is DuckDB's form lo·(1−f) + hi·f, f = q·(n−1) −
    floor (see ``_pick_quantile``). NULLs are ignored (as SQL does); an
    empty/all-null column yields null v."""
    _check_qs("exact_quantiles_cont", qs)
    return _histogram_quantiles(ds, col, qs, "cont")


# ------------------------------------------------- weighted sampling / CDC

def weighted_sample(
    ds: ray.data.Dataset,
    key_col: str,
    weight_col: str,
    k: int,
    priority_col: str = "priority",
) -> ray.data.Dataset:
    """Priority sampling (Duffield–Lund–Thorup): a weight-proportional
    without-replacement sample of ``k`` rows — each row gets priority
    ``w / u`` with ``u = (mix64(key)+1) / 2^64`` and the ``k`` largest
    priorities win. Deterministic and RNG-free: the same row set comes
    out regardless of run, engine, or partitioning, and the priorities
    are pure IEEE ``*``/``/`` over exact integers, so a SQL twin is
    bit-identical (no transcendental functions — numpy ``log`` and
    DuckDB ``ln`` differ at ulp level on this host).

    One stateless map pass + the combine-tree ``top_k`` — the corpus
    never shuffles; only ``k``-row partials merge. Weights must be
    positive (priority is unbounded at w→∞, excluded at w=0). Note
    mix64(0)=0, so key 0 gets u=2^-64 (near-certain selection) — use
    nonzero keys."""
    pr = add_priority_column(ds, key_col, weight_col, priority_col)
    return top_k(pr, [priority_col, key_col], k, descending=[True, False])


def add_priority_column(
    ds: ray.data.Dataset,
    key_col: str,
    weight_col: str,
    priority_col: str = "priority",
) -> ray.data.Dataset:
    """The priority-sampling key ``w / ((mix64(key)+1)/2^64)`` as a
    column — shared by ``weighted_sample`` (global top-k) and
    ``weighted_sample_grouped`` (per-group top-k)."""

    def fn(batch: pa.Table) -> pa.Table:
        v = batch[key_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        h = _mix64(v.view(np.uint64).copy())
        u = (h.astype(np.float64) + 1.0) / float(1 << 64)
        w = batch[weight_col].to_numpy(zero_copy_only=False).astype(np.float64)
        return batch.append_column(priority_col, pa.array(w / u, pa.float64()))

    return ds.map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def weighted_sample_grouped(
    ds: ray.data.Dataset,
    key_col: str,
    group_col: str,
    weight_col: str,
    k: int,
    priority_col: str = "priority",
) -> ray.data.Dataset:
    """Per-GROUP weighted sampling without replacement: ``k`` rows per
    group, weight-proportional within the group (priority sampling per
    stratum — the weighted version of the stratified hash sample). Same
    deterministic transcendental-free priority as ``weighted_sample``,
    finished by ``group_top_k``'s map-side-pruned shuffle: each batch
    contributes at most k rows per group to the exchange."""
    pr = add_priority_column(ds, key_col, weight_col, priority_col)
    return group_top_k(
        pr, group_col, [priority_col, key_col], k, descending=[True, False]
    )


def merge_upsert(
    base: ray.data.Dataset,
    updates: ray.data.Dataset,
    key: str | list[str],
    version_col: str,
    op_col: str = "op",
    delete_marker: str = "D",
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """CDC merge (Delta/Iceberg ``MERGE INTO`` semantics): apply an
    updates table to a base table by key. An update row SUPERSEDES the
    base row with the same key regardless of version; among several
    updates to one key the largest ``version_col`` wins (stable sort —
    pass a unique tiebreak inside version for full determinism); a
    winning update whose ``op_col`` equals ``delete_marker`` removes the
    key. Keys present only in updates are inserts.

    Both sides are LARGE: no broadcast — each side is tagged with a
    source rank, unioned, hash-bucketed on the key (the same vectorized
    ``_key_hash`` the partitioned joins use), and resolved per bucket
    with ONE Arrow sort + boundary pass (no per-key Python). One
    shuffle of (key, version, payload); at 100 TB this is the same
    plan an incremental lakehouse compaction runs.

    ``updates`` must carry ``base``'s columns plus ``op_col``; the
    output schema is ``base``'s."""
    keys = [key] if isinstance(key, str) else list(key)
    base_cols = [f.name for f in base.schema().base_schema]

    def tag_base(batch: pa.Table) -> pa.Table:
        n = len(batch)
        batch = batch.append_column(op_col, pa.nulls(n, pa.string()))
        return batch.append_column("_src", pa.array(np.zeros(n, np.int8)))

    def tag_upd(batch: pa.Table) -> pa.Table:
        batch = batch.select(base_cols + [op_col])
        return batch.append_column(
            "_src", pa.array(np.ones(len(batch), np.int8))
        )

    sides = [
        d.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True,
                      batch_size=None)
        for d, tag in ((base, tag_base), (updates, tag_upd))
    ]

    def resolve(group: pa.Table) -> pa.Table:
        sort_keys = [(k, "ascending") for k in keys] + [
            ("_src", "descending"),
            (version_col, "descending"),
        ]
        g = group.take(pc.sort_indices(group, sort_keys=sort_keys))
        n = len(g)
        first = np.zeros(n, dtype=bool)
        if n:
            first[0] = True
        for k in keys:
            a = g[k].combine_chunks() if isinstance(g[k], pa.ChunkedArray) else g[k]
            neq = pc.fill_null(pc.not_equal(a.slice(1), a.slice(0, n - 1)), False)
            first[1:] |= np.asarray(neq)
            nul = np.asarray(pc.is_null(a))
            first[1:] |= nul[1:] != nul[:-1]
        live = first & ~np.asarray(
            pc.fill_null(pc.equal(g[op_col], delete_marker), False)
        )
        return g.filter(pa.array(live)).select(base_cols)

    return co_shuffle(sides, keys, resolve, n_buckets=n_buckets, coalesce=True)


def tile_pyramid(
    ds: ray.data.Dataset,
    geom_col: str = "geotag",
    zoom: int = 8,
    levels: int = 4,
) -> ray.data.Dataset:
    """Multi-zoom tile pyramid in ONE pass: per-tile point counts at
    ``zoom, zoom-1, …, zoom-levels+1`` — the map-serving rollup that
    normally runs as ``levels`` separate groupbys. Parent tiles are the
    child coordinates shifted right (slippy-map prefix property, same
    idea as the S2 prefix parent), so each batch emits its partials for
    every level from the SAME base tile computation and everything
    merges through one combine tree keyed ``(zoom, tx, ty)``. Output:
    ``(zoom, tile_x, tile_y, n)``; the input never shuffles."""
    from georay import cells as _cells

    zooms = [zoom - i for i in range(levels)]
    if zooms[-1] < 0:
        raise ValueError("levels exceeds zoom")

    def partial(batch: pa.Table) -> pa.Table:
        lon, lat = point_lonlat(batch, geom_col)
        tx, ty = _cells.mercator_tile(lon, lat, zoom)
        zs, xs, ys = [], [], []
        for z in zooms:
            shift = zoom - z
            xs.append(tx >> shift)
            ys.append(ty >> shift)
            zs.append(np.full(tx.shape[0], z, np.int64))
        zc = np.concatenate(zs)
        xc = np.concatenate(xs)
        yc = np.concatenate(ys)
        ks, vs = _group_reduce(
            [zc, xc, yc], {"partial_n": np.ones(zc.shape[0], np.int64)}
        )
        return pa.table(
            {
                "zoom": pa.array(ks[0], pa.int64()),
                "tile_x": pa.array(ks[1], pa.int64()),
                "tile_y": pa.array(ks[2], pa.int64()),
                "partial_n": pa.array(vs["partial_n"], pa.int64()),
            }
        )

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return tree_sum(
        parts, ["zoom", "tile_x", "tile_y"], {"partial_n": "n"},
        int_cols=("partial_n",),
    )


def window_first_value(
    ds: ray.data.Dataset,
    key: str,
    order_cols: str | list[str],
    value_col: str,
    out_col: str = "first_value",
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """SQL ``FIRST_VALUE(value) OVER (PARTITION BY key ORDER BY ...)``:
    every row gets its key's first value in the total order. Same
    one-shuffle bucket plan as the other positional windows."""
    order_list = [order_cols] if isinstance(order_cols, str) else list(order_cols)

    def emit(g: pa.Table, first: np.ndarray, pos: np.ndarray):
        varr = (
            g[value_col].combine_chunks()
            if isinstance(g[value_col], pa.ChunkedArray)
            else g[value_col]
        )
        n = len(g)
        if n == 0:
            return out_col, varr
        key_start = np.maximum.accumulate(np.where(first, pos, 0))
        return out_col, varr.take(pa.array(key_start))

    return _window_over_buckets(ds, key, order_list, n_buckets, emit)


def window_last_value(
    ds: ray.data.Dataset,
    key: str,
    order_cols: str | list[str],
    value_col: str,
    out_col: str = "last_value",
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """SQL ``LAST_VALUE(value) OVER (PARTITION BY key ORDER BY ... ROWS
    BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING)`` — the whole-
    partition frame (SQL's confusing default frame would return the
    CURRENT row; this is the variant people actually want)."""
    order_list = [order_cols] if isinstance(order_cols, str) else list(order_cols)

    def emit(g: pa.Table, first: np.ndarray, pos: np.ndarray):
        varr = (
            g[value_col].combine_chunks()
            if isinstance(g[value_col], pa.ChunkedArray)
            else g[value_col]
        )
        n = len(g)
        if n == 0:
            return out_col, varr
        # last row of each key: positions before the NEXT key's first row
        last_of_key = np.empty(n, dtype=np.int64)
        boundaries = np.flatnonzero(first)
        ends = np.append(boundaries[1:], n) - 1
        # broadcast each key's end position to its rows
        key_id = np.cumsum(first) - 1
        last_of_key = ends[key_id]
        return out_col, varr.take(pa.array(last_of_key))

    return _window_over_buckets(ds, key, order_list, n_buckets, emit)


def window_range_sum(
    ds: ray.data.Dataset,
    key: str,
    ts_col: str,
    value_col: str,
    range_us: int,
    out_col: str = "range_sum",
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """SQL ``SUM(value) OVER (PARTITION BY key ORDER BY ts RANGE BETWEEN
    range_us PRECEDING AND CURRENT ROW)`` — the TIME-window frame
    (a rows-frame moving sum is ``window_moving_sum``). SQL RANGE peer
    semantics: rows with EQUAL ts are all included.

    One key-bucket shuffle; per bucket a segmented prefix sum + two
    ``searchsorted`` calls give every row its frame sum in O(n log n).
    Use an integer-valued value column when an exact SQL twin matters
    (float prefix-diff and SQL's accumulation round differently).
    NULL payloads follow SQL SUM: skipped, NULL result when the whole
    frame is NULL."""

    def emit(g: pa.Table, first: np.ndarray, pos: np.ndarray):
        n = len(g)
        varr = g[value_col]
        if isinstance(varr, pa.ChunkedArray):
            varr = varr.combine_chunks()
        isnull = np.asarray(pc.is_null(varr)) if n else np.zeros(0, bool)
        vf = pc.fill_null(varr, 0).to_numpy(zero_copy_only=False)
        if vf.dtype.kind == "f" and not np.isfinite(vf).all():
            raise ValueError(
                "window_range_sum requires finite values (exact integer "
                "frame sums; NaN/Inf→int64 is undefined)"
            )
        v = vf.astype(np.int64)
        ts = g[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        if n == 0:
            return out_col, pa.array([], pa.int64())
        cum = np.cumsum(v)
        starts = np.flatnonzero(first)
        key_id = np.cumsum(first) - 1
        # one GLOBAL searchsorted over key-offset timestamps (no per-key
        # Python): shift each key's segment onto its own disjoint range
        t0 = np.int64(ts.min())
        span = np.int64(int(ts.max()) - int(t0) + int(range_us) + 2)
        if int(starts.shape[0]) * int(span) < (1 << 62):
            packed = key_id * span + (ts - t0)
            lo = np.searchsorted(packed, key_id * span + (ts - t0 - range_us),
                                 side="left")
            hi = np.searchsorted(packed, packed, side="right")
        else:  # degenerate span — per-key segments (rare)
            lo = np.empty(n, dtype=np.int64)
            hi = np.empty(n, dtype=np.int64)
            for s, e in zip(starts, np.append(starts[1:], n)):
                seg = ts[s:e]
                lo[s:e] = s + np.searchsorted(seg, ts[s:e] - range_us, "left")
                hi[s:e] = s + np.searchsorted(seg, ts[s:e], "right")
        total = cum[hi - 1] - np.where(lo > 0, cum[lo - 1], 0)
        if isnull.any():  # SQL: NULL when the whole frame is NULL
            nn = np.cumsum(~isnull)
            cnt = nn[hi - 1] - np.where(lo > 0, nn[lo - 1], 0)
            return out_col, pa.array(total, pa.int64(), mask=(cnt == 0))
        return out_col, pa.array(total, pa.int64())

    order_list = [ts_col]
    return _window_over_buckets(ds, key, order_list, n_buckets, emit)


def window_range_minmax(
    ds: ray.data.Dataset,
    key: str,
    ts_col: str,
    value_col: str,
    range_us: int,
    stat: str = "min",
    out_col: str | None = None,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """SQL ``MIN/MAX(value) OVER (PARTITION BY key ORDER BY ts RANGE
    BETWEEN range_us PRECEDING AND CURRENT ROW)`` — the time-window
    extreme (``window_range_sum`` covers SUM; a prefix-difference trick
    doesn't exist for min/max, so this builds a SPARSE TABLE per bucket:
    O(n log n) build, every row's variable-width frame answered by two
    table lookups). RANGE peer semantics: equal-ts rows are all in the
    frame. Exact for floats (no accumulation), so the SQL twin is
    bit-identical without quantization.

    NULL payloads are skipped (SQL MIN/MAX), the result is NULL when
    the whole frame is NULL, and a non-null NaN orders GREATER than
    every value (DuckDB's float total order) — all via the bit-exact
    IEEE-754 order-key transform, so NaN payloads round-trip."""
    out_name = out_col or f"range_{stat}"
    ufunc = np.minimum if stat == "min" else np.maximum

    def emit(g: pa.Table, first: np.ndarray, pos: np.ndarray):
        n = len(g)
        varr = g[value_col]
        if isinstance(varr, pa.ChunkedArray):
            varr = varr.combine_chunks()
        isnull = np.asarray(pc.is_null(varr)) if n else np.zeros(0, bool)
        vf = varr.to_numpy(zero_copy_only=False).astype(np.float64)
        # monotone float64 → uint64 order keys (-NaN < -inf < … < +inf
        # < +NaN); nulls get the losing sentinel so they never win, and
        # all-null frames are masked below
        u = np.ascontiguousarray(vf).view(np.uint64)
        neg = (u >> np.uint64(63)).astype(bool)
        v = np.where(neg, ~u, u | np.uint64(1 << 63))
        if isnull.any():
            v = np.where(
                isnull,
                np.uint64(0xFFFFFFFFFFFFFFFF) if stat == "min" else np.uint64(0),
                v,
            )
        ts = g[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        if n == 0:
            return out_name, pa.array([], pa.float64())
        starts = np.flatnonzero(first)
        key_id = np.cumsum(first) - 1
        t0 = np.int64(ts.min())
        span = np.int64(int(ts.max()) - int(t0) + int(range_us) + 2)
        if int(starts.shape[0]) * int(span) < (1 << 62):
            packed = key_id * span + (ts - t0)
            lo = np.searchsorted(packed, key_id * span + (ts - t0 - range_us),
                                 side="left")
            hi = np.searchsorted(packed, packed, side="right")
        else:  # degenerate span — per-key segments (rare)
            lo = np.empty(n, dtype=np.int64)
            hi = np.empty(n, dtype=np.int64)
            for s, e in zip(starts, np.append(starts[1:], n)):
                seg = ts[s:e]
                lo[s:e] = s + np.searchsorted(seg, ts[s:e] - range_us, "left")
                hi[s:e] = s + np.searchsorted(seg, ts[s:e], "right")
        # sparse table: sp[k][i] = reduce over v[i : i + 2^k)
        sp = [v]
        k = 1
        while (1 << k) <= n:
            prev = sp[-1]
            half = 1 << (k - 1)
            sp.append(ufunc(prev[: prev.shape[0] - half], prev[half:]))
            k += 1
        m = hi - lo  # ≥ 1 (own row always in frame)
        kq = np.floor(np.log2(m)).astype(np.int64)
        outk = np.empty(n, dtype=np.uint64)
        for lev in np.unique(kq):
            idx = np.flatnonzero(kq == lev)
            w = 1 << int(lev)
            t = sp[int(lev)]
            outk[idx] = ufunc(t[lo[idx]], t[hi[idx] - w])
        # inverse order-key transform back to float64 (bit-exact)
        pos_bit = (outk >> np.uint64(63)).astype(bool)
        uo = np.where(pos_bit, outk ^ np.uint64(1 << 63), ~outk)
        out = uo.view(np.float64)
        if isnull.any():  # SQL: NULL when the whole frame is NULL
            nn = np.cumsum(~isnull)
            cnt = nn[hi - 1] - np.where(lo > 0, nn[lo - 1], 0)
            return out_name, pa.array(out, pa.float64(), mask=(cnt == 0))
        return out_name, pa.array(out, pa.float64())

    return _window_over_buckets(ds, key, [ts_col], n_buckets, emit)


def skyline2(
    ds: ray.data.Dataset,
    col_a: str,
    col_b: str,
    maximize_a: bool = False,
    maximize_b: bool = False,
    keep_cols: list[str] | None = None,
) -> ray.data.Dataset:
    """Two-criteria SKYLINE (Pareto front): rows not dominated by any
    other row — r dominates s when r is ≤ s on both criteria (after
    orientation) and strictly better on at least one. Equal pairs never
    dominate each other, so exact duplicates all survive (matching the
    SQL ``NOT EXISTS`` domination twin).

    Distributed by the skyline algebra: the front of a union is the
    front of the union of per-part fronts, so each block reduces to its
    LOCAL front in the map stage (vectorized: lexsort + group-min +
    strict-prefix cummin — no per-row Python) and one final task reduces
    the union of fronts (o(front), typically ≪ table; worst case —
    everything Pareto-optimal — degenerates to the input, the same
    bound every combine-tree aggregate here has)."""
    cols = list(keep_cols or [])
    for c in (col_a, col_b):
        if c not in cols:
            cols.append(c)

    def local_front(batch: pa.Table) -> pa.Table:
        a = batch[col_a].to_numpy(zero_copy_only=False).astype(np.float64)
        b = batch[col_b].to_numpy(zero_copy_only=False).astype(np.float64)
        if maximize_a:
            a = -a
        if maximize_b:
            b = -b
        n = a.shape[0]
        if n == 0:
            return batch.select(cols)
        order = np.lexsort((b, a))
        a_s, b_s = a[order], b[order]
        first = np.zeros(n, dtype=bool)
        first[0] = True
        first[1:] = a_s[1:] != a_s[:-1]
        gid = np.cumsum(first) - 1
        starts = np.flatnonzero(first)
        # within an equal-a group only rows at the group's min b survive
        gmin = b_s[starts][gid]
        # strict-prefix min of b over smaller-a groups
        grp_min = np.minimum.reduceat(b_s, starts)
        prev = np.concatenate(([np.inf], np.minimum.accumulate(grp_min)[:-1]))
        keep_s = (b_s == gmin) & (b_s < prev[gid])
        keep = np.zeros(n, dtype=bool)
        keep[order] = keep_s
        return batch.select(cols).filter(pa.array(keep))

    fronts = ds.map_batches(
        local_front, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    # final reduce: one task over the union of local fronts
    return exchange.gather(fronts, local_front)


def ohlc_bars(
    ds: ray.data.Dataset,
    key: str,
    ts_col: str,
    value_col: str,
    bucket_us: int,
) -> ray.data.Dataset:
    """Time-series resampling to OHLC bars: per (key, period) the
    open/high/low/close of ``value_col`` plus count — the market-data /
    telemetry downsampling primitive. Open/close tie rule: among rows
    sharing the period's min (max) timestamp, the SMALLEST value wins —
    deterministic and SQL-expressible (``MIN(value) FILTER (ts = …)``).

    TWO streaming passes, ZERO corpus shuffles: (1) per-batch partials
    (min/max ts, min/max value, count) merge through the combine tree;
    (2) the small bars table is broadcast and a second scan picks the
    open/close values at the recorded boundary timestamps (only
    boundary rows emit partials). Bars (key × period) must fit a
    worker — the same bound every combine-tree aggregate here has."""
    per = np.int64(bucket_us)

    def partial(batch: pa.Table) -> pa.Table:
        k = batch[key].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = batch[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        v = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        period = ts // per
        ks, vs = _group_reduce(
            [k, period],
            {
                "min_ts": ts, "max_ts": ts,
                "low": v, "high": v,
                "partial_n": np.ones(k.shape[0], np.int64),
            },
            ufunc={
                "min_ts": np.minimum, "max_ts": np.maximum,
                "low": np.minimum, "high": np.maximum,
                "partial_n": np.add,
            },
        )
        return pa.table(
            {
                key: pa.array(ks[0], pa.int64()),
                "period": pa.array(ks[1], pa.int64()),
                "min_ts": pa.array(vs["min_ts"], pa.int64()),
                "max_ts": pa.array(vs["max_ts"], pa.int64()),
                "low": pa.array(vs["low"], pa.float64()),
                "high": pa.array(vs["high"], pa.float64()),
                "partial_n": pa.array(vs["partial_n"], pa.int64()),
            }
        )

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    bars = tree_reduce(
        parts,
        [key, "period"],
        {"min_ts": "min_ts", "max_ts": "max_ts", "low": "low",
         "high": "high", "partial_n": "n"},
        ufunc={
            "min_ts": np.minimum, "max_ts": np.maximum,
            "low": np.minimum, "high": np.maximum, "partial_n": np.add,
        },
    )
    bt = exchange.collect(bars)
    bk = bt[key].to_numpy(zero_copy_only=False).astype(np.int64)
    bp = bt["period"].to_numpy(zero_copy_only=False).astype(np.int64)
    bmin = bt["min_ts"].to_numpy(zero_copy_only=False)
    bmax = bt["max_ts"].to_numpy(zero_copy_only=False)
    # pack (key, period) for the probe; periods are epoch_us//bucket_us
    # (< 2^31 for microsecond epochs and sane buckets). The pack is only
    # injective inside those bounds — enforce them here (the bars table
    # contains every (key, period) the probe will see, so this one
    # o(bars) check guards the probe side too) rather than silently
    # colliding keys ≥ 2^32 or negative periods across distinct bars.
    if bp.size:
        if bp.min() < 0 or bp.max() >= (1 << 31):
            raise ValueError(
                "ohlc_bars: period out of packable range [0, 2^31) — "
                "negative timestamps or too-fine bucket_us"
            )
        if np.abs(bk).max() >= (1 << 32):
            raise ValueError("ohlc_bars: |key| must be < 2^32 to pack")
    pack = bk * np.int64(1 << 31) + bp
    o = np.argsort(pack, kind="stable")
    pack_s, bmin_s, bmax_s = pack[o], bmin[o], bmax[o]
    ref = exchange.broadcast((pack_s, bmin_s, bmax_s))

    def boundary_partial(batch: pa.Table) -> pa.Table:
        ps, mn, mx = ref.get()
        k = batch[key].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = batch[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        v = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        period = ts // per
        pk = k * np.int64(1 << 31) + period
        pos = np.searchsorted(ps, pk)
        is_open = ts == mn[pos]
        is_close = ts == mx[pos]
        sel = is_open | is_close
        inf = np.inf
        opens = np.where(is_open[sel], v[sel], inf)
        closes = np.where(is_close[sel], v[sel], inf)
        ks, vs = _group_reduce(
            [k[sel], period[sel]],
            {"open": opens, "close": closes},
            ufunc={"open": np.minimum, "close": np.minimum},
        )
        return pa.table(
            {
                key: pa.array(ks[0], pa.int64()),
                "period": pa.array(ks[1], pa.int64()),
                "open": pa.array(vs["open"], pa.float64()),
                "close": pa.array(vs["close"], pa.float64()),
            }
        )

    oc = tree_reduce(
        ds.map_batches(
            boundary_partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        [key, "period"],
        {"open": "open", "close": "close"},
        ufunc={"open": np.minimum, "close": np.minimum},
    )
    oct_ = exchange.collect(oc)
    # align the two small tables on (key, period) — driver-side, o(bars)
    opack = (
        oct_[key].to_numpy(zero_copy_only=False).astype(np.int64)
        * np.int64(1 << 31)
        + oct_["period"].to_numpy(zero_copy_only=False).astype(np.int64)
    )
    oo = np.argsort(opack, kind="stable")
    pos = np.searchsorted(opack[oo], pack_s)
    open_v = oct_["open"].to_numpy(zero_copy_only=False)[oo][pos]
    close_v = oct_["close"].to_numpy(zero_copy_only=False)[oo][pos]
    out = pa.table(
        {
            key: pa.array(bk[o], pa.int64()),
            "period": pa.array(bp[o], pa.int64()),
            "open": pa.array(open_v, pa.float64()),
            "high": pa.array(bt["high"].to_numpy(zero_copy_only=False)[o]),
            "low": pa.array(bt["low"].to_numpy(zero_copy_only=False)[o]),
            "close": pa.array(close_v, pa.float64()),
            "n": pa.array(bt["n"].to_numpy(zero_copy_only=False)[o], pa.int64()),
        }
    )
    return ray.data.from_arrow(out)


def target_encode(
    ds: ray.data.Dataset,
    cat_col: str,
    target_q_col: str,
    m: float = 10.0,
    out_col: str = "te",
) -> ray.data.Dataset:
    """Smoothed target encoding — the classic categorical ML feature:
    ``te(c) = (Σ_c target + m·prior) / (n_c + m)`` with the global mean
    as prior. Pass an INTEGER-QUANTIZED target column (exact partial
    sums → deterministic doubles → bit-exact SQL twin; see the money
    quantization note on the TPC-H compositions).

    Plan: per-category (sum, count) via the combine tree (the category
    table is the small side by definition), encoded table broadcast
    back with a map-side ``pc.index_in`` probe — one streaming pass
    plus a vocabulary-sized reduce, no corpus shuffle."""

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                cat_col: batch[cat_col],
                "partial_sum": batch[target_q_col].cast(pa.int64()),
                "partial_n": pa.array(np.ones(len(batch), np.int64)),
            }
        )
        g = t.group_by(cat_col).aggregate(
            [("partial_sum", "sum"), ("partial_n", "sum")]
        )
        return pa.table(
            {
                cat_col: g[cat_col],
                "partial_sum": g["partial_sum_sum"],
                "partial_n": g["partial_n_sum"],
            }
        )

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    enc = tree_sum(
        parts, [cat_col], {"partial_sum": "s", "partial_n": "n"},
        int_cols=("partial_sum", "partial_n"),
    )
    et = exchange.collect(enc)
    s = et["s"].to_numpy(zero_copy_only=False).astype(np.float64)
    cnt = et["n"].to_numpy(zero_copy_only=False).astype(np.float64)
    prior = float(s.sum()) / float(cnt.sum())
    te = (s + m * prior) / (cnt + m)
    cats = et[cat_col].combine_chunks() if isinstance(
        et[cat_col], pa.ChunkedArray) else et[cat_col]
    ref = exchange.broadcast((cats, te))

    def probe(batch: pa.Table) -> pa.Table:
        cv, tv = ref.get()
        pos = pc.index_in(batch[cat_col], value_set=cv)
        vals = tv[pos.to_numpy(zero_copy_only=False).astype(np.int64)]
        return batch.append_column(out_col, pa.array(vals, pa.float64()))

    return ds.map_batches(
        probe, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )

def interval_union_length(
    ds: ray.data.Dataset,
    key: str,
    start_col: str,
    end_col: str,
    out_col: str = "covered",
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Per-key total length of the UNION of [start, end) intervals
    (coverage / uptime / overlap-collapsed duration). One key-bucket
    shuffle; inside a bucket one lexsort by (key, start, end) and a
    single running-max sweep: each interval contributes
    ``max(0, end - max(start, max_prev_end))``. The per-key reset of
    the running max is FREE via key-offset packing (key ids ascend, so
    offsetting both bounds by key_id·span makes one global
    ``np.maximum.accumulate`` respect segment boundaries). Integer
    arithmetic end-to-end — the SQL window twin is bit-exact."""
    proj = ds.select_columns([key, start_col, end_col])

    def per_bucket(group: pa.Table) -> pa.Table:
        k = group[key].to_numpy(zero_copy_only=False).astype(np.int64)
        s = group[start_col].to_numpy(zero_copy_only=False).astype(np.int64)
        e = group[end_col].to_numpy(zero_copy_only=False).astype(np.int64)
        n = k.shape[0]
        if n == 0:
            return pa.table(
                {key: pa.array([], pa.int64()), out_col: pa.array([], pa.int64())}
            )
        order = np.lexsort((e, s, k))
        k_s, s_s, e_s = k[order], s[order], e[order]
        first = np.zeros(n, dtype=bool)
        first[0] = True
        first[1:] = k_s[1:] != k_s[:-1]
        kid = np.cumsum(first) - 1
        starts = np.flatnonzero(first)
        lo = min(int(s_s.min()), int(e_s.min()))
        hi = max(int(s_s.max()), int(e_s.max()))
        span = np.int64(hi - lo + 2)
        # key-offset packing overflows int64 when n_keys × span grows
        # (e.g. ~40k keys × years-in-µs); same guard + per-key-segment
        # fallback as window_range_minmax above.
        if int(starts.shape[0]) * int(span) < (1 << 62):
            sp = kid * span + (s_s - lo)
            ep = kid * span + (e_s - lo)
            runmax = np.maximum.accumulate(ep)
            prev = np.concatenate(([np.int64(-1)], runmax[:-1]))
            covered = np.maximum(ep - np.maximum(sp, prev), 0)
        else:  # degenerate span — per-key segments (rare)
            covered = np.empty(n, dtype=np.int64)
            sentinel = np.int64(np.iinfo(np.int64).min // 2)
            for a, b in zip(starts, np.append(starts[1:], n)):
                runmax = np.maximum.accumulate(e_s[a:b])
                prev = np.concatenate(([sentinel], runmax[: b - a - 1]))
                covered[a:b] = np.maximum(
                    e_s[a:b] - np.maximum(s_s[a:b], prev), 0)
        totals = np.add.reduceat(covered, starts)
        return pa.table(
            {
                key: pa.array(k_s[starts], pa.int64()),
                out_col: pa.array(totals, pa.int64()),
            }
        )

    return co_shuffle(proj, key, per_bucket, n_buckets=n_buckets, coalesce=False)


def dissolve_area(
    ds: ray.data.Dataset,
    key: str,
    x1_col: str,
    y1_col: str,
    x2_col: str,
    y2_col: str,
    out_col: str = "union_area",
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Per-key AREA OF THE UNION of axis-aligned rectangles — the GIS
    *dissolve* aggregate over box geometries (the reference's box
    storage semantics, src/geoarrow.c:45-72, lifted to an aggregate the
    reference does not have). Coordinates must be integer-valued
    (quantize upstream) so the sweep is exact int64 and the SQL twin
    (slab CTE + windowed running-max) is bit-identical.

    One key-bucket shuffle; per bucket, fully vectorized across keys:
    (1) coordinate-compress each key's x edges into slabs (sorted
    unique edges, consecutive pairs); (2) expand each rect onto the
    slabs it spans with two ``searchsorted`` calls over key-offset-
    packed slab coordinates + one ragged repeat — no per-key Python;
    (3) per (key, slab) the covering rects' y intervals are
    union-summed by the same offset-packed running-max sweep as
    ``interval_union_length``; (4) area = Σ slab_width × covered_y,
    reduced per key with one ``reduceat`` (pairs arrive slab-sorted,
    hence key-sorted). Degenerate rects (x1 ≥ x2 or y1 ≥ y2) are
    dropped on both sides — min > max is the reference's EMPTY box
    (src/geoarrow.c:2986-3016). Overflow guards mirror
    ``interval_union_length`` (falls back to per-key / per-slab
    segment loops when the packed range would exceed 2^62).

    Work per bucket is O(P log P), P = Σ_rect slabs-spanned — the
    standard sweep bound; at 100 TB the shuffle is the only wide step
    and a key's rect set is the unit of locality."""
    proj = ds.select_columns([key, x1_col, y1_col, x2_col, y2_col])

    def per_bucket(group: pa.Table) -> pa.Table:
        karr = group[key].to_numpy(zero_copy_only=False)
        x1 = group[x1_col].to_numpy(zero_copy_only=False).astype(np.int64)
        y1 = group[y1_col].to_numpy(zero_copy_only=False).astype(np.int64)
        x2 = group[x2_col].to_numpy(zero_copy_only=False).astype(np.int64)
        y2 = group[y2_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ok = (x1 < x2) & (y1 < y2)
        karr, x1, y1, x2, y2 = karr[ok], x1[ok], y1[ok], x2[ok], y2[ok]
        m = x1.shape[0]
        key_type = pa.int64() if karr.dtype.kind in "if" else pa.string()
        empty = pa.table(
            {key: pa.array([], key_type), out_col: pa.array([], pa.int64())}
        )
        if m == 0:
            return empty
        if karr.dtype.kind == "O":
            import pandas as _pd

            kid, ks = _pd.factorize(karr, use_na_sentinel=False)
            kid = kid.astype(np.int64)
            ks = np.asarray(ks, dtype=object)
        else:
            ks, kid = np.unique(karr, return_inverse=True)
        # (1) slabs: per-key sorted unique x edges, consecutive pairs
        ek = np.concatenate([kid, kid])
        ex = np.concatenate([x1, x2])
        eo = np.lexsort((ex, ek))
        ek, ex = ek[eo], ex[eo]
        efirst = np.ones(ek.shape[0], bool)
        efirst[1:] = (ek[1:] != ek[:-1]) | (ex[1:] != ex[:-1])
        ek_u, ex_u = ek[efirst], ex[efirst]
        same = ek_u[1:] == ek_u[:-1]
        slab_kid = ek_u[:-1][same]
        slab_x0 = ex_u[:-1][same]
        slab_x1 = ex_u[1:][same]
        S = slab_kid.shape[0]
        if S == 0:
            return empty
        width = slab_x1 - slab_x0
        # (2) rect → spanned slab range via packed searchsorted
        xmin = int(ex_u.min())
        xspan = np.int64(int(ex_u.max()) - xmin + 2)
        if int(ks.shape[0]) * int(xspan) < (1 << 62):
            packed = slab_kid * xspan + (slab_x0 - xmin)
            lo = np.searchsorted(packed, kid * xspan + (x1 - xmin), "left")
            hi = np.searchsorted(packed, kid * xspan + (x2 - xmin), "left")
        else:  # degenerate x range — per-key segments (rare)
            lo = np.empty(m, np.int64)
            hi = np.empty(m, np.int64)
            kstart = np.searchsorted(slab_kid, np.arange(ks.shape[0]))
            kend = np.append(kstart[1:], S)
            for i in range(m):
                a, b = kstart[kid[i]], kend[kid[i]]
                lo[i] = a + np.searchsorted(slab_x0[a:b], x1[i], "left")
                hi[i] = a + np.searchsorted(slab_x0[a:b], x2[i], "left")
        cnt = hi - lo
        P = int(cnt.sum())
        off = np.concatenate(([0], np.cumsum(cnt)[:-1]))
        pair_slab = np.repeat(lo, cnt) + (np.arange(P) - np.repeat(off, cnt))
        py1 = np.repeat(y1, cnt)
        py2 = np.repeat(y2, cnt)
        # (3) per-slab y interval union (offset-packed running max)
        o2 = np.lexsort((py2, py1, pair_slab))
        ps, py1, py2 = pair_slab[o2], py1[o2], py2[o2]
        ymin = int(py1.min())
        yspan = np.int64(int(py2.max()) - ymin + 2)
        if int(S) * int(yspan) < (1 << 62):
            sp = ps * yspan + (py1 - ymin)
            ep = ps * yspan + (py2 - ymin)
            runmax = np.maximum.accumulate(ep)
            prev = np.concatenate(([np.int64(-1)], runmax[:-1]))
            covered = np.maximum(ep - np.maximum(sp, prev), 0)
        else:  # per-slab segments (rare)
            covered = np.empty(P, np.int64)
            sfirst = np.ones(P, bool)
            sfirst[1:] = ps[1:] != ps[:-1]
            sstarts = np.flatnonzero(sfirst)
            sentinel = np.int64(np.iinfo(np.int64).min // 2)
            for a, b in zip(sstarts, np.append(sstarts[1:], P)):
                rm = np.maximum.accumulate(py2[a:b])
                pv = np.concatenate(([sentinel], rm[: b - a - 1]))
                covered[a:b] = np.maximum(py2[a:b] - np.maximum(py1[a:b], pv), 0)
        # (4) area contributions reduced per key (ps ascending ⇒ slab
        # kid non-decreasing ⇒ one reduceat)
        contrib = covered * width[ps]
        kp = slab_kid[ps]
        kfirst = np.ones(P, bool)
        kfirst[1:] = kp[1:] != kp[:-1]
        kstarts = np.flatnonzero(kfirst)
        areas = np.add.reduceat(contrib, kstarts)
        out_keys = ks[kp[kstarts]]
        if karr.dtype.kind == "O":
            kcol = pa.array(out_keys, pa.string())
        else:
            kcol = pa.array(out_keys.astype(np.int64), pa.int64())
        return pa.table({key: kcol, out_col: pa.array(areas, pa.int64())})

    return co_shuffle(proj, key, per_bucket, n_buckets=n_buckets, coalesce=False)


def time_weighted_avg(
    ds: ray.data.Dataset,
    key: str,
    ts_col: str,
    value_col: str,
    scale: float = 1000.0,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Per-key TIME-WEIGHTED average of a step signal (telemetry /
    pricing: each value holds until the next sample): Σ vᵢ·(tᵢ₊₁−tᵢ)
    over (t_last − t_first). Values quantize to ``floor(v·scale+0.5)``
    ints so the weighted sum is order-free and the SQL LEAD twin is
    bit-exact; the final average is ONE int/int division. Keys whose
    samples all share one timestamp (zero duration) are dropped, like
    SQL's ``HAVING den > 0``. Ties in ts order by quantized value (both
    sides), making the held value at a tied timestamp deterministic.

    One key-bucket shuffle; per bucket one lexsort + diff + reduceat.
    Output: (key, twa_num int64, twa_den int64, twa float64)."""
    proj = ds.select_columns([key, ts_col, value_col])

    def per_bucket(group: pa.Table) -> pa.Table:
        k = group[key].to_numpy(zero_copy_only=False).astype(np.int64)
        t = group[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        v = group[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        vq = np.floor(v * scale + 0.5).astype(np.int64)
        n = k.shape[0]
        empty = pa.table(
            {
                key: pa.array([], pa.int64()),
                "twa_num": pa.array([], pa.int64()),
                "twa_den": pa.array([], pa.int64()),
                "twa": pa.array([], pa.float64()),
            }
        )
        if n == 0:
            return empty
        order = np.lexsort((vq, t, k))
        k_s, t_s, v_s = k[order], t[order], vq[order]
        first = np.zeros(n, dtype=bool)
        first[0] = True
        first[1:] = k_s[1:] != k_s[:-1]
        starts = np.flatnonzero(first)
        last = np.append(starts[1:], n) - 1
        # dt to the NEXT row within the key; last row of a key gets 0
        dt = np.zeros(n, dtype=np.int64)
        dt[:-1] = t_s[1:] - t_s[:-1]
        dt[last] = 0
        num = np.add.reduceat(v_s * dt, starts)
        den = t_s[last] - t_s[starts]
        keep = den > 0
        return pa.table(
            {
                key: pa.array(k_s[starts][keep], pa.int64()),
                "twa_num": pa.array(num[keep], pa.int64()),
                "twa_den": pa.array(den[keep], pa.int64()),
                "twa": pa.array(
                    num[keep].astype(np.float64) / den[keep].astype(np.float64),
                    pa.float64(),
                ),
            }
        )

    return co_shuffle(proj, key, per_bucket, n_buckets=n_buckets, coalesce=False)

def compact_cells(
    ds: ray.data.Dataset,
    cell_col: str = "cell",
    from_level: int = 12,
    min_level: int = 4,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """S2/H3-style cell-set COMPACTION: given the distinct cells at
    ``from_level``, iteratively replace every complete sibling quartet
    by its parent, down to ``min_level`` — the standard representation
    shrink for coverage sets (a fully-covered city block collapses to
    one coarse cell). Returns ``(cell int64, level int64)``.

    One hash-bucket groupby per level, fully distributed: siblings
    share their parent's hash bucket, so each bucket decides
    promote-vs-keep with one vectorized sort + reduceat — no broadcast,
    no driver set. Promotions CASCADE (16 grandchildren → 4 parents →
    1 grandparent) because each round's parents re-enter the next
    round's candidate level. Input cells must all be at ``from_level``
    (distinct-ness is enforced here with one exact dedup)."""
    from georay import cells as _c

    cur = dedup_exact(ds.select_columns([cell_col]), cell_col)

    def add_level(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cell": batch[cell_col],
                "level": pa.array(
                    np.full(len(batch), from_level, np.int64)
                ),
            }
        )

    cur = cur.map_batches(
        add_level, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).materialize()

    for lvl in range(from_level - 1, min_level - 1, -1):
        child_lvl = lvl + 1

        def split_bucket(batch: pa.Table, _lvl=lvl, _cl=child_lvl) -> pa.Table:
            cells_i = batch["cell"].to_numpy(zero_copy_only=False)
            level = batch["level"].to_numpy(zero_copy_only=False)
            cand = level == _cl
            par = np.zeros(len(batch), dtype=np.int64)
            if cand.any():
                par[cand] = _c.to_i64(
                    _c.cell_parent(_c.to_u64(cells_i[cand]), _lvl)
                )
            h = _mix64(par.view(np.uint64).copy()) % np.uint64(n_buckets)
            # non-candidates pass through bucket 0 tagged done
            return pa.table(
                {
                    "_b": pa.array(
                        np.where(cand, h.astype(np.int64), np.int64(0))
                    ),
                    "cell": batch["cell"],
                    "level": batch["level"],
                    "parent": pa.array(par, pa.int64()),
                    "cand": pa.array(cand),
                }
            )

        def promote(group: pa.Table, _lvl=lvl) -> pa.Table:
            cand = group["cand"].to_numpy(zero_copy_only=False)
            cells_i = group["cell"].to_numpy(zero_copy_only=False)
            level = group["level"].to_numpy(zero_copy_only=False)
            par = group["parent"].to_numpy(zero_copy_only=False)
            keep_cells = [cells_i[~cand]]
            keep_levels = [level[~cand]]
            cc, pp = cells_i[cand], par[cand]
            if cc.shape[0]:
                order = np.argsort(pp, kind="stable")
                pp_s, cc_s = pp[order], cc[order]
                first = np.zeros(pp_s.shape[0], dtype=bool)
                first[0] = True
                first[1:] = pp_s[1:] != pp_s[:-1]
                starts = np.flatnonzero(first)
                sizes = np.diff(np.append(starts, pp_s.shape[0]))
                full = sizes == 4
                gid = np.cumsum(first) - 1
                promoted = pp_s[starts[full]]
                keep_mask = ~full[gid]
                keep_cells.append(cc_s[keep_mask])
                keep_levels.append(
                    np.full(int(keep_mask.sum()), _lvl + 1, np.int64)
                )
                keep_cells.append(promoted)
                keep_levels.append(np.full(promoted.shape[0], _lvl, np.int64))
            return pa.table(
                {
                    "cell": pa.array(np.concatenate(keep_cells), pa.int64()),
                    "level": pa.array(np.concatenate(keep_levels), pa.int64()),
                }
            )

        cur = co_shuffle(
            cur.map_batches(
                split_bucket, batch_format="pyarrow", zero_copy_batch=True,
                batch_size=None,
            ),
            "_b", promote, coalesce=False,
        ).materialize()

    return cur

def uncompact_cells(
    ds: ray.data.Dataset,
    to_level: int,
    cell_col: str = "cell",
    level_col: str = "level",
) -> ray.data.Dataset:
    """Inverse of ``compact_cells``: expand a mixed-level cell set to
    uniform ``to_level`` cells. Pure per-row arithmetic — a cell's
    level-T descendants form one arithmetic progression
    (``first = c - s_l + s_T``, step ``2·s_T``, count ``4^(T-l)``,
    because position ids inside a parent's range are contiguous) — so
    the whole expansion is one stateless vectorized ``map_batches``
    with the ragged-range enumerator; no shuffle, no driver state.
    ``uncompact(compact(S), L) == S`` for any level-L cell set S (the
    round-trip the oracle pins)."""
    from georay import cells as _c
    from georay.index import _ragged_ranges

    def expand(batch: pa.Table) -> pa.Table:
        cell = _c.to_u64(batch[cell_col].to_numpy(zero_copy_only=False))
        lvl = batch[level_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if np.any(lvl > to_level):
            raise ValueError("uncompact_cells: rows deeper than to_level")
        s_t = np.uint64(1 << (60 - 2 * to_level))
        lsb = cell & (~cell + np.uint64(1))  # own sentinel = s_l
        first = cell - lsb + s_t
        counts = (np.int64(1) << (2 * (to_level - lvl))).astype(np.int64)
        owner, within = _ragged_ranges(counts)
        out = first[owner] + np.uint64(2) * s_t * within.astype(np.uint64)
        return pa.table({cell_col: pa.array(_c.to_i64(out), pa.int64())})

    return ds.map_batches(
        expand, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def _div_trunc(num: int, den: int) -> int:
    """Integer division TRUNCATED TOWARD ZERO — DuckDB's ``//`` (and C's
    ``/``) semantics, not Python's floor. Every oracled rational that
    can go negative must divide this way so both engines agree."""
    q = abs(num) // abs(den)
    return -q if (num < 0) != (den < 0) else q


def roc_auc(
    ds: ray.data.Dataset,
    label_col: str,
    score_col: str,
    quantize: float | None = None,
) -> ray.data.Dataset:
    """EXACT ROC AUC of an integer score against a 0/1 label as a
    RATIONAL — one row ``(auc_num, auc_den)`` with
    ``AUC = auc_num / auc_den``, ties counted half (the Mann–Whitney U
    convention, identical to sklearn's ``roc_auc_score``). The ranking
    metric every quality-classifier gate needs, computed without a
    global sort: per distinct score the (n_pos, n_neg) VALUE HISTOGRAM
    merges through the combine tree (bounded by the score domain, not
    the corpus), then one driver fold in arbitrary-precision ints:
    a score run with ``p`` positives and ``n`` negatives above ``B``
    lower-scored negatives contributes ``2·p·B + p·n`` to the doubled
    numerator; ``auc_den = 2·n_pos·n_neg``. Pass ``quantize`` to bucket
    a float score (``floor(x·q + 0.5)``); integer scores pass through."""

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.drop_null()  # NULL label/score rows are excluded
        y = batch[label_col].to_numpy(zero_copy_only=False).astype(np.int64)
        s = batch[score_col].to_numpy(zero_copy_only=False)
        if quantize is not None:
            s = _quantize_i64(s.astype(np.float64), quantize, "roc_auc")
        else:
            if s.dtype.kind == "f" and not np.isfinite(s).all():
                raise ValueError(
                    "roc_auc requires finite scores (NaN/Inf→int64 undefined)"
                )
            s = s.astype(np.int64)
        ks, vs = _group_reduce(
            [s], {"partial_p": y, "partial_n": (1 - y).astype(np.int64)}
        )
        return pa.table(
            {
                "s": pa.array(ks[0], pa.int64()),
                "partial_p": pa.array(vs["partial_p"], pa.int64()),
                "partial_n": pa.array(vs["partial_n"], pa.int64()),
            }
        )

    partials = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    hist = tree_sum(
        partials, ["s"], {"partial_p": "p", "partial_n": "n"},
        int_cols=("partial_p", "partial_n"),
    )
    df = hist.to_pandas().sort_values("s")
    num = 0
    below = 0
    tot_p = 0
    for p, n in zip(df["p"].tolist(), df["n"].tolist()):
        num += 2 * p * below + p * n
        below += n
        tot_p += p
    den = 2 * tot_p * below
    if not (0 <= num < 2**63 and 0 <= den < 2**63):
        raise OverflowError("roc_auc: rational exceeds int64")
    return ray.data.from_arrow(
        pa.table(
            {
                "auc_num": pa.array([int(num)], pa.int64()),
                "auc_den": pa.array([int(den)], pa.int64()),
            }
        )
    )


def cusum_alarms(
    ds: ray.data.Dataset,
    key: str,
    order_cols: str | list[str],
    value_col: str,
    drift_q: int,
    threshold_q: int,
    quantize: float = 100.0,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Per-key one-sided CUSUM changepoint statistic, EXACT and fully
    vectorized: over each key's (order_cols)-sorted sequence of
    quantized values ``x_t``, the recurrence
    ``s_t = max(0, s_{t-1} + x_t - drift_q)`` flags an alarm whenever
    ``s_t > threshold_q``. Output one row per key:
    ``(key, n_alarms, max_stat)``.

    The sequential recurrence has the closed form
    ``s_t = P_t - min(0, min_{j<=t} P_j)`` with ``P`` the running sum of
    ``(x - drift)`` — a segmented prefix sum plus a segmented running
    min, both one numpy pass via the same key-offset packing as
    ``interval_union_length`` (with the identical 2^62 overflow guard
    and per-key-segment fallback). One key-hash bucket shuffle total;
    the SQL twin is two window cumulatives, bit-exact in integers."""
    order_list = [order_cols] if isinstance(order_cols, str) else list(order_cols)
    proj = ds.select_columns([key, *order_list, value_col])

    def per_bucket(group: pa.Table) -> pa.Table:
        sort_keys = [(key, "ascending")] + [(c, "ascending") for c in order_list]
        g = group.take(pc.sort_indices(group, sort_keys=sort_keys))
        k = g[key].to_numpy(zero_copy_only=False).astype(np.int64)
        x = g[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        d = np.floor(x * quantize + 0.5).astype(np.int64) - np.int64(drift_q)
        n = k.shape[0]
        if n == 0:
            return pa.table(
                {
                    key: pa.array([], pa.int64()),
                    "n_alarms": pa.array([], pa.int64()),
                    "max_stat": pa.array([], pa.int64()),
                }
            )
        first = np.zeros(n, dtype=bool)
        first[0] = True
        first[1:] = k[1:] != k[:-1]
        starts = np.flatnonzero(first)
        kid = np.cumsum(first) - 1
        c = np.cumsum(d)
        base = np.repeat(c[starts] - d[starts], np.diff(np.append(starts, n)))
        P = c - base  # segmented prefix sum
        lo, hi = int(P.min()), int(P.max())
        span = np.int64(hi - lo + 2)
        if int(starts.shape[0]) * int(span) < (1 << 62):
            # MIN accumulate needs earlier segments packed ABOVE later
            # ones (the mirror of interval_union_length's max packing):
            # subtract kid·span so a previous key's values are strictly
            # larger than anything in the current key's range and never
            # win the running min across the boundary.
            packed = (P - lo) - kid * span
            runmin = np.minimum.accumulate(packed) + kid * span + lo
        else:  # degenerate span — per-key segments (rare)
            runmin = np.empty(n, np.int64)
            for a, b in zip(starts, np.append(starts[1:], n)):
                runmin[a:b] = np.minimum.accumulate(P[a:b])
        s = P - np.minimum(runmin, 0)
        alarm = (s > threshold_q).astype(np.int64)
        ks, vs = _group_reduce(
            [k],
            {"n_alarms": alarm, "max_stat": s},
            ufunc={"n_alarms": np.add, "max_stat": np.maximum},
        )
        return pa.table(
            {
                key: pa.array(ks[0], pa.int64()),
                "n_alarms": pa.array(vs["n_alarms"], pa.int64()),
                "max_stat": pa.array(vs["max_stat"], pa.int64()),
            }
        )

    return co_shuffle(proj, key, per_bucket, n_buckets=n_buckets, coalesce=True)


def grouped_ols(
    ds: ray.data.Dataset,
    keys: str | list[str],
    x_col: str,
    y_col: str,
    scale_bits: int = 20,
) -> ray.data.Dataset:
    """Per-key ordinary-least-squares line fit on INTEGER-QUANTIZED
    columns, exact: one streaming pass accumulates the five integer
    sufficient statistics ``(n, Σx, Σy, Σxy, Σx²)`` per key through the
    combine tree, then a driver fold over the small per-key table forms
    ``slope = (n·Σxy − Σx·Σy) / (n·Σx² − (Σx)²)`` and
    ``intercept = (Σy·D − N·Σx) / (n·D)`` in arbitrary-precision ints,
    emitting both quantized to ``2^scale_bits`` with DuckDB's
    truncate-toward-zero division (``_div_trunc``) so the HUGEINT SQL
    twin is bit-identical. Keys whose x is constant (D = 0) are dropped
    — the fit is undefined there (SQL twin filters them identically).
    Quantize upstream so per-key Σxy stays under 2^62."""
    key_list = [keys] if isinstance(keys, str) else list(keys)

    def partial(batch: pa.Table) -> pa.Table:
        karrs = [batch[c].to_numpy(zero_copy_only=False) for c in key_list]
        x = batch[x_col].to_numpy(zero_copy_only=False).astype(np.int64)
        y = batch[y_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ks, vs = _group_reduce(
            karrs,
            {
                "partial_n": np.ones(x.shape[0], np.int64),
                "partial_sx": x,
                "partial_sy": y,
                "partial_sxy": x * y,
                "partial_sxx": x * x,
            },
        )
        cols = {c: pa.array(a) for c, a in zip(key_list, ks)}
        for s in ("partial_n", "partial_sx", "partial_sy", "partial_sxy",
                  "partial_sxx"):
            cols[s] = pa.array(vs[s], pa.int64())
        return pa.table(cols)

    partials = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    sums = tree_sum(
        partials,
        key_list,
        {
            "partial_n": "n", "partial_sx": "sx", "partial_sy": "sy",
            "partial_sxy": "sxy", "partial_sxx": "sxx",
        },
        int_cols=("partial_n", "partial_sx", "partial_sy", "partial_sxy",
                  "partial_sxx"),
    )
    df = sums.to_pandas()
    scale = 1 << scale_bits
    out_keys: dict[str, list] = {c: [] for c in key_list}
    n_out, slope_out, icept_out = [], [], []
    for row in df.itertuples(index=False):
        r = row._asdict()
        n, sx, sy = int(r["n"]), int(r["sx"]), int(r["sy"])
        sxy, sxx = int(r["sxy"]), int(r["sxx"])
        D = n * sxx - sx * sx
        if D == 0:
            continue
        N = n * sxy - sx * sy
        slope_q = _div_trunc(N * scale, D)
        icept_q = _div_trunc((sy * D - N * sx) * scale, n * D)
        if not (-(2**63) <= slope_q < 2**63 and -(2**63) <= icept_q < 2**63):
            raise OverflowError("grouped_ols: quantized fit exceeds int64")
        for c in key_list:
            out_keys[c].append(r[c])
        n_out.append(n)
        slope_out.append(slope_q)
        icept_out.append(icept_q)
    cols: dict = {c: pa.array(out_keys[c]) for c in key_list}
    cols["n"] = pa.array(n_out, pa.int64())
    cols["slope_q"] = pa.array(slope_out, pa.int64())
    cols["icept_q"] = pa.array(icept_out, pa.int64())
    return ray.data.from_arrow(pa.table(cols))


def morans_i(
    ds: ray.data.Dataset,
    gx_col: str,
    gy_col: str,
    scale_bits: int = 20,
) -> ray.data.Dataset:
    """Global Moran's I spatial autocorrelation of per-cell point
    counts on an integer grid, EXACT: one row
    ``(n_cells, w_pairs, morans_q)`` with
    ``I = n/W · Σ_adj z_i z_j / Σ z_i²`` over rook-adjacent cell pairs
    (|Δgx|+|Δgy| = 1, no wraparound; W counts directed pairs), z the
    count deviation scaled by n (``z = n·c − Σc`` — the n² factor
    cancels). The clustered-vs-dispersed diagnostic for any gridded
    layer. One streaming cell-count pass through the combine tree; the
    final fold runs in arbitrary-precision Python ints over the cell
    table, whose size is bounded by the GRID RESOLUTION, not the data
    (648 cells at 10° — same bounded-domain driver fold as
    ``gini_exact``). ``morans_q = trunc(I · 2^scale_bits)`` with
    DuckDB ``//`` semantics so the HUGEINT SQL twin is bit-identical."""

    def partial(batch: pa.Table) -> pa.Table:
        gx = batch[gx_col].to_numpy(zero_copy_only=False).astype(np.int64)
        gy = batch[gy_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ks, vs = _group_reduce(
            [gx, gy], {"partial_c": np.ones(gx.shape[0], np.int64)}
        )
        return pa.table(
            {
                "gx": pa.array(ks[0], pa.int64()),
                "gy": pa.array(ks[1], pa.int64()),
                "partial_c": pa.array(vs["partial_c"], pa.int64()),
            }
        )

    partials = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    cellt = tree_sum(
        partials, ["gx", "gy"], {"partial_c": "c"}, int_cols=("partial_c",)
    ).to_pandas()
    n = len(cellt)
    if n == 0:
        raise ValueError("morans_i: no cells")
    s = int(cellt["c"].sum())
    gx = cellt["gx"].to_numpy()
    gy = cellt["gy"].to_numpy()
    z = {  # arbitrary-precision deviations keyed by cell
        (int(a), int(b)): n * int(c) - s
        for a, b, c in zip(gx, gy, cellt["c"].to_numpy())
    }
    cross = 0
    w = 0
    for (a, b), zv in z.items():
        for na, nb in ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1)):
            zn = z.get((na, nb))
            if zn is not None:
                cross += zv * zn
                w += 1
    if w == 0:
        raise ValueError("morans_i: no adjacent cell pairs (W = 0)")
    var = sum(v * v for v in z.values())
    if var == 0:
        raise ValueError(
            "morans_i: constant field (all deviations zero) — I is "
            "undefined; the SQL twin divides by zero here too"
        )
    mq = _div_trunc(n * cross * (1 << scale_bits), w * var)
    if not (-(2**63) <= mq < 2**63):
        raise OverflowError("morans_i: quantized I exceeds int64")
    return ray.data.from_arrow(
        pa.table(
            {
                "n_cells": pa.array([n], pa.int64()),
                "w_pairs": pa.array([w], pa.int64()),
                "morans_q": pa.array([int(mq)], pa.int64()),
            }
        )
    )


def geary_c(
    ds: ray.data.Dataset,
    gx_col: str,
    gy_col: str,
    scale_bits: int = 20,
) -> ray.data.Dataset:
    """Global Geary's C of per-cell point counts on an integer grid,
    EXACT — the local-variation complement of ``morans_i`` (C ≈ 1
    random, < 1 clustered, > 1 dispersed; C weights squared NEIGHBOR
    DIFFERENCES where I weights cross-products, so C is the more
    sensitive detector of local boundaries/edges in the field):
    ``C = (n−1)·Σ_adj (x_i−x_j)² / (2W·Σ(x_i−x̄)²)`` over rook-adjacent
    pairs. Same integerization as Moran: with ``z = n·c − Σc`` the n²
    factors cancel, so ``geary_q = trunc((n−1)·Σ_adj (z_i−z_j)²·2^bits
    / (2W·Σz²))`` in arbitrary-precision ints. Same scale shape too:
    one streaming combine-tree cell-count pass; the driver fold is
    bounded by the grid resolution, not the data."""

    def partial(batch: pa.Table) -> pa.Table:
        gx = batch[gx_col].to_numpy(zero_copy_only=False).astype(np.int64)
        gy = batch[gy_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ks, vs = _group_reduce(
            [gx, gy], {"partial_c": np.ones(gx.shape[0], np.int64)}
        )
        return pa.table(
            {
                "gx": pa.array(ks[0], pa.int64()),
                "gy": pa.array(ks[1], pa.int64()),
                "partial_c": pa.array(vs["partial_c"], pa.int64()),
            }
        )

    partials = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    cellt = tree_sum(
        partials, ["gx", "gy"], {"partial_c": "c"}, int_cols=("partial_c",)
    ).to_pandas()
    n = len(cellt)
    if n == 0:
        raise ValueError("geary_c: no cells")
    s = int(cellt["c"].sum())
    z = {
        (int(a), int(b)): n * int(c) - s
        for a, b, c in zip(
            cellt["gx"].to_numpy(), cellt["gy"].to_numpy(), cellt["c"].to_numpy()
        )
    }
    sqdiff = 0
    w = 0
    for (a, b), zv in z.items():
        for na, nb in ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1)):
            zn = z.get((na, nb))
            if zn is not None:
                d = zv - zn
                sqdiff += d * d
                w += 1
    if w == 0:
        raise ValueError("geary_c: no adjacent cell pairs (W = 0)")
    var = sum(v * v for v in z.values())
    if var == 0:
        raise ValueError(
            "geary_c: constant field — C is undefined; the SQL twin "
            "divides by zero here too"
        )
    gq = _div_trunc((n - 1) * sqdiff * (1 << scale_bits), 2 * w * var)
    if not (-(2**63) <= gq < 2**63):
        raise OverflowError("geary_c: quantized C exceeds int64")
    return ray.data.from_arrow(
        pa.table(
            {
                "n_cells": pa.array([n], pa.int64()),
                "w_pairs": pa.array([w], pa.int64()),
                "geary_q": pa.array([int(gq)], pa.int64()),
            }
        )
    )


def grid_gradient(
    ds: ray.data.Dataset,
    gx_col: str,
    gy_col: str,
) -> ray.data.Dataset:
    """Max-gradient field of per-cell point counts on an integer grid:
    for every OBSERVED cell, ``grad = max |c − c_nbr|`` over its four
    rook neighbors, ABSENT neighbors counting 0 (the field is a count
    surface, so no-data genuinely means zero) — the raster "slope"
    layer that turns a density grid into an edge/boundary map. Exact
    integers throughout. Same plan as ``morans_i``/``geary_c``: one
    streaming combine-tree count pass; the neighbor fold runs
    driver-side, bounded by the GRID RESOLUTION, not the data. Returns
    ``(gx, gy, grad)`` for observed cells."""

    def partial(batch: pa.Table) -> pa.Table:
        gx = batch[gx_col].to_numpy(zero_copy_only=False).astype(np.int64)
        gy = batch[gy_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ks, vs = _group_reduce(
            [gx, gy], {"partial_c": np.ones(gx.shape[0], np.int64)}
        )
        return pa.table(
            {
                "gx": pa.array(ks[0], pa.int64()),
                "gy": pa.array(ks[1], pa.int64()),
                "partial_c": pa.array(vs["partial_c"], pa.int64()),
            }
        )

    cellt = tree_sum(
        ds.map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["gx", "gy"], {"partial_c": "c"}, int_cols=("partial_c",),
    ).to_pandas()
    if len(cellt) == 0 or "gx" not in cellt.columns:
        return ray.data.from_arrow(
            pa.table(
                {
                    "gx": pa.array([], pa.int64()),
                    "gy": pa.array([], pa.int64()),
                    "grad": pa.array([], pa.int64()),
                }
            )
        )
    gx = cellt["gx"].to_numpy().astype(np.int64)
    gy = cellt["gy"].to_numpy().astype(np.int64)
    c = cellt["c"].to_numpy().astype(np.int64)
    cnt = {(int(a), int(b)): int(v) for a, b, v in zip(gx, gy, c)}
    grad = np.empty(gx.shape[0], np.int64)
    for i, ((a, b), v) in enumerate(zip(zip(gx, gy), c)):
        g = 0
        for na, nb in ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1)):
            d = abs(int(v) - cnt.get((int(na), int(nb)), 0))
            if d > g:
                g = d
        grad[i] = g
    return ray.data.from_arrow(
        pa.table(
            {
                "gx": pa.array(gx, pa.int64()),
                "gy": pa.array(gy, pa.int64()),
                "grad": pa.array(grad, pa.int64()),
            }
        )
    )


def grouped_autocorr(
    ds: ray.data.Dataset,
    key: str,
    order_cols: str | list[str],
    value_col: str,
    quantize: float = 100.0,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Per-key lag-1 serial-correlation sufficient statistics, exact:
    over each key's (order_cols)-sorted quantized sequence, the
    consecutive pairs (a, b) = (x_t, x_{t+1}) reduce to one row
    ``(key, n_pairs, cov_num, var_a, var_b)`` where
    ``cov_num = n·Σab − Σa·Σb`` and ``var_* = n·Σ*² − (Σ*)²`` — the
    Pearson autocorrelation is ``cov_num / sqrt(var_a·var_b)`` (the
    sqrt is left to the consumer; every emitted column is an exact
    int64). Keys with fewer than two rows emit nothing (no pairs —
    SQL's LAG/WHERE does the same). One key-hash bucket shuffle; pair
    formation is a shifted-mask slice, no per-row loop. Overflow bound:
    ``n_pairs·Σa² < 2^63`` per key — with cent-quantized values ≤ 2^15
    that holds to ~2 billion rows per key."""
    order_list = [order_cols] if isinstance(order_cols, str) else list(order_cols)
    proj = ds.select_columns([key, *order_list, value_col])

    _empty = pa.table(
        {
            key: pa.array([], pa.int64()),
            "n_pairs": pa.array([], pa.int64()),
            "cov_num": pa.array([], pa.int64()),
            "var_a": pa.array([], pa.int64()),
            "var_b": pa.array([], pa.int64()),
        }
    )

    def per_bucket(group: pa.Table) -> pa.Table:
        # SQL skip: NULL-value rows leave the series (their neighbors pair)
        group = group.filter(pc.is_valid(group[value_col]))
        sort_keys = [(key, "ascending")] + [(c, "ascending") for c in order_list]
        g = group.take(pc.sort_indices(group, sort_keys=sort_keys))
        k = g[key].to_numpy(zero_copy_only=False).astype(np.int64)
        x = g[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        v = _quantize_i64(x, quantize, "grouped_autocorr")
        if k.shape[0] < 2:
            return _empty
        same = k[1:] == k[:-1]
        a, b, kk = v[:-1][same], v[1:][same], k[1:][same]
        if kk.shape[0] == 0:
            return _empty
        ks, vs = _group_reduce(
            [kk],
            {
                "n": np.ones(kk.shape[0], np.int64),
                "sa": a, "sb": b, "sab": a * b, "saa": a * a, "sbb": b * b,
            },
        )
        n = vs["n"].astype(np.int64)
        sa, sb = vs["sa"].astype(np.int64), vs["sb"].astype(np.int64)
        sab = vs["sab"].astype(np.int64)
        saa, sbb = vs["saa"].astype(np.int64), vs["sbb"].astype(np.int64)
        return pa.table(
            {
                key: pa.array(ks[0], pa.int64()),
                "n_pairs": pa.array(n),
                "cov_num": pa.array(n * sab - sa * sb),
                "var_a": pa.array(n * saa - sa * sa),
                "var_b": pa.array(n * sbb - sb * sb),
            }
        )

    return co_shuffle(proj, key, per_bucket, n_buckets=n_buckets, coalesce=True)


def hoover_exact(
    ds: ray.data.Dataset,
    col: str,
    quantize: float = 100.0,
) -> ray.data.Dataset:
    """EXACT Hoover (Robin Hood) inequality index as a RATIONAL — one
    row ``(hoover_num, hoover_den)`` with
    ``H = Σ|x_i − x̄| / (2·Σx) = Σ|n·x_i − S| / (2·n·S)`` — the share
    of the total that would have to move to equalize everyone. The
    gini_exact companion, same physics: values quantize to integers,
    the VALUE HISTOGRAM merges through the combine tree (one streaming
    pass; the mean never needs a second scan because the histogram
    carries every value), and the driver folds the bounded-domain
    histogram in arbitrary-precision ints."""

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch[col]))  # SQL: NULLs skipped
        x = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        v = _quantize_i64(x, quantize, "hoover_exact")
        ks, vs = _group_reduce([v], {"partial_c": np.ones(v.shape[0], np.int64)})
        return pa.table(
            {"v": pa.array(ks[0], pa.int64()), "partial_c": pa.array(vs["partial_c"])}
        )

    partials = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    hist = tree_sum(partials, ["v"], {"partial_c": "c"}, int_cols=("partial_c",))
    df = hist.to_pandas()
    if len(df) == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "hoover_num": pa.array([0], pa.int64()),
                    "hoover_den": pa.array([0], pa.int64()),
                }
            )
        )
    n = int(df["c"].sum())
    s = int((df["v"].astype(object) * df["c"].astype(object)).sum())
    num = sum(
        int(c) * abs(n * int(v) - s)
        for v, c in zip(df["v"].tolist(), df["c"].tolist())
    )
    den = 2 * n * s
    if not (0 <= num < 2**63 and -(2**63) <= den < 2**63):
        raise OverflowError("hoover_exact: rational exceeds int64; rescale")
    return ray.data.from_arrow(
        pa.table(
            {
                "hoover_num": pa.array([int(num)], pa.int64()),
                "hoover_den": pa.array([int(den)], pa.int64()),
            }
        )
    )


def idw_grid(
    ds: ray.data.Dataset,
    x_col: str,
    y_col: str,
    val_col: str,
    grid_res_deg: float = 30.0,
    radius_deg: float = 25.0,
    quantize: float = 20.0,
    w_bits: int = 24,
) -> ray.data.Dataset:
    """Inverse-distance-weighted interpolation onto a regular grid,
    EXACT: every grid-cell CENTER gets
    ``idw_q = (Σ w·v) // (Σ w)`` over the sample points within
    ``radius_deg``, with integer weights ``w = 2^w_bits // (1 + d²_q)``
    (d² in quantized coordinate units) — the classic IDW surface with
    the float-sum order-dependence engineered out, so the cross-join
    SQL twin is bit-identical. Values must be non-negative ints (the
    truncated division then equals floor on both engines).

    One streaming pass: the query grid is a CONSTANT (lon/lat cells at
    ``grid_res_deg``, centers quantized exactly), each batch scores its
    points against all centers in one (n × G) vectorized distance
    matrix and folds to per-center partials; the combine tree merges
    G-sized rows. No shuffle, no materialization. Output:
    (qi, qj, n_pts, idw_q) for centers with ≥1 sample in radius."""
    nx = int(round(360.0 / grid_res_deg))
    ny = int(round(180.0 / grid_res_deg))
    cx = np.floor(
        (-180.0 + (np.arange(nx) + 0.5) * grid_res_deg) * quantize + 0.5
    ).astype(np.int64)
    cy = np.floor(
        (-90.0 + (np.arange(ny) + 0.5) * grid_res_deg) * quantize + 0.5
    ).astype(np.int64)
    gx = np.repeat(np.arange(nx, dtype=np.int64), ny)
    gy = np.tile(np.arange(ny, dtype=np.int64), nx)
    qx = np.repeat(cx, ny)
    qy = np.tile(cy, nx)
    r2 = np.int64(int(round(radius_deg * quantize)) ** 2)
    wmax = np.int64(1 << w_bits)

    def partial(batch: pa.Table) -> pa.Table:
        x0 = batch[x_col].to_numpy(zero_copy_only=False).astype(np.float64)
        y0 = batch[y_col].to_numpy(zero_copy_only=False).astype(np.float64)
        keep = np.isfinite(x0) & np.isfinite(y0)  # NULL/NaN points excluded
        if not keep.all():
            batch = batch.filter(pa.array(keep))
            x0, y0 = x0[keep], y0[keep]
        px = np.floor(x0 * quantize + 0.5).astype(np.int64)
        py = np.floor(y0 * quantize + 0.5).astype(np.int64)
        v = batch[val_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d2 = (px[:, None] - qx[None, :]) ** 2 + (py[:, None] - qy[None, :]) ** 2
        inside = d2 <= r2
        w = np.where(inside, wmax // (1 + d2), 0)
        sw = w.sum(axis=0)
        swv = (w * v[:, None]).sum(axis=0)
        npts = inside.sum(axis=0).astype(np.int64)
        keep = npts > 0
        return pa.table(
            {
                "qi": pa.array(gx[keep], pa.int64()),
                "qj": pa.array(gy[keep], pa.int64()),
                "partial_n": pa.array(npts[keep], pa.int64()),
                "partial_sw": pa.array(sw[keep], pa.int64()),
                "partial_swv": pa.array(swv[keep], pa.int64()),
            }
        )

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    tot = tree_sum(
        parts, ["qi", "qj"],
        {"partial_n": "n_pts", "partial_sw": "sw", "partial_swv": "swv"},
        int_cols=("partial_n", "partial_sw", "partial_swv"),
    )

    def finish(batch: pa.Table) -> pa.Table:
        sw = batch["sw"].to_numpy(zero_copy_only=False).astype(np.int64)
        swv = batch["swv"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "qi": batch["qi"],
                "qj": batch["qj"],
                "n_pts": batch["n_pts"],
                "idw_q": pa.array(swv // sw, pa.int64()),
            }
        )

    return tot.map_batches(
        finish, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def grouped_impurity(
    ds: ray.data.Dataset,
    key: str,
    cat_col: str,
) -> ray.data.Dataset:
    """Per-key Gini IMPURITY sufficient statistics, EXACT: one row
    ``(key, n, sum_c2)`` per key where ``n`` is the key's row count and
    ``sum_c2 = Σ_categories count²`` — impurity is ``1 − sum_c2/n²``
    downstream (the category-diversity score every curation pipeline
    reports per source/user/domain). Entropy needs a log, so its float
    sum is order-dependent; the Gini form is a RATIONAL of integer
    moments, so the result hash-matches SQL bit-for-bit.

    Plan: per-batch (key, category) counts fold map-side, merge once
    through the combine tree (bounded by keys × categories), then a
    second tiny tree folds each key's count vector into (n, Σc²) —
    the corpus itself never shuffles."""
    proj = ds.select_columns([key, cat_col])

    def partial(batch: pa.Table) -> pa.Table:
        k = batch[key].to_numpy(zero_copy_only=False)
        c = batch[cat_col].to_numpy(zero_copy_only=False)
        ks, vs = _group_reduce(
            [k, c], {"partial_c": np.ones(k.shape[0], np.int64)}
        )
        return pa.table(
            {
                key: pa.array(ks[0]),
                cat_col: pa.array(ks[1]),
                "partial_c": pa.array(vs["partial_c"], pa.int64()),
            }
        )

    hist = tree_sum(
        proj.map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        [key, cat_col], {"partial_c": "c"}, int_cols=("partial_c",),
    )

    def fold(batch: pa.Table) -> pa.Table:
        k = batch[key].to_numpy(zero_copy_only=False)
        c = batch["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        # Σc² stays exact while every count < 2^31 (Σ of squares below
        # 2^62 per key would need ~2^31 categories on top — impossible
        # for a merged histogram row set)
        if c.size and int(c.max()) >= (1 << 31):
            raise OverflowError(
                "grouped_impurity: a (key, category) count ≥ 2^31 would "
                "overflow the Σcount² accumulator"
            )
        ks, vs = _group_reduce([k], {"partial_n": c, "partial_c2": c * c})
        return pa.table(
            {
                key: pa.array(ks[0]),
                "partial_n": pa.array(vs["partial_n"], pa.int64()),
                "partial_c2": pa.array(vs["partial_c2"], pa.int64()),
            }
        )

    return tree_sum(
        hist.map_batches(
            fold, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        [key], {"partial_n": "n", "partial_c2": "sum_c2"},
        int_cols=("partial_n", "partial_c2"),
    )


def window_decayed_sum(
    ds: ray.data.Dataset,
    key: str,
    order_cols: str | list[str],
    value_col: str,
    w: int = 16,
    out_col: str = "decayed_q",
    descending: bool | list[bool] = False,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Recency-weighted rolling score in EXACT integer arithmetic: per
    row, ``Σ_{j=0}^{w-1} v[pos−j] >> j`` over the current and previous
    ``w−1`` rows of the key's order — an exponential half-life window
    (each lag halves) whose shift-truncation makes the result
    independent of evaluation order, so it hash-matches the SQL
    self-join twin (``SUM(b.v >> (a.rn − b.rn))`` over a ROW_NUMBER
    band) bit-for-bit. ``value_col`` must be integer-valued and
    NON-NEGATIVE (arithmetic vs logical shift semantics diverge on
    negatives across engines — raise rather than guess).

    Same one-shuffle bucket plan as the positional window functions;
    inside the bucket the window is w vectorized shifted adds, not a
    per-row loop."""
    order_list = [order_cols] if isinstance(order_cols, str) else list(order_cols)
    desc = (
        [descending] * len(order_list)
        if isinstance(descending, bool)
        else list(descending)
    )

    def emit(g: pa.Table, first: np.ndarray, pos: np.ndarray):
        # NULL values contribute nothing to any window (SQL SUM skips
        # NULLs) — fill with 0 BEFORE the numpy cast (NaN→int64 is
        # undefined and surfaces as a bogus negative sentinel)
        v = (
            pc.fill_null(g[value_col], 0)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        n = len(g)
        if n == 0:
            return out_col, pa.array(np.empty(0, np.int64))
        if int(v.min()) < 0:
            raise ValueError(
                "window_decayed_sum: negative values — shift semantics "
                "on negatives are engine-dependent; offset the column"
            )
        if int(v.max()) >= (1 << 61):
            raise OverflowError(
                "window_decayed_sum: value ≥ 2^61 could overflow the "
                "windowed sum (bounded by 2·max at w lags)"
            )
        starts = np.nonzero(first)[0]
        seg = np.cumsum(first) - 1
        pik = pos - starts[seg]  # 0-based position within key
        out = np.zeros(n, np.int64)
        for j in range(min(w, n)):
            contrib = v[: n - j] >> j
            m = pik[j:] >= j  # lag-j row must belong to the same key
            out[j:][m] += contrib[m]
        return out_col, pa.array(out, pa.int64())

    return _window_over_buckets(ds, key, order_list, n_buckets, emit, desc=desc)


def rolling_active_count(
    ds: ray.data.Dataset,
    entity_col: str,
    ts_col: str,
    window: int = 7,
    bucket_us: int = 86_400_000_000,
    out_col: str = "n_active",
) -> ray.data.Dataset:
    """Trailing-window distinct-entity count per time bucket — the
    DAU/WAU/MAU family: for every OBSERVED day, how many distinct
    entities were active in the last ``window`` days (inclusive).

    Exact and shuffle-light: (1) the corpus folds map-side to distinct
    (day, entity) pairs and merges once through the combine tree —
    bounded by entities × active-days, not events; (2) each distinct
    pair fans out to the ≤``window`` future days it keeps alive,
    filtered against the broadcast OBSERVED-day set (calendar-sized);
    (3) a second tree dedups (window_day, entity) — an entity active on
    several source days counts once — and a final tiny tree folds the
    per-day counts. The event stream itself never shuffles."""
    proj = ds.select_columns([entity_col, ts_col])

    def pair_partial(batch: pa.Table) -> pa.Table:
        t = batch[ts_col].to_numpy(zero_copy_only=False)
        day = (t.view(np.int64) // bucket_us).astype(np.int64)
        e = batch[entity_col].to_numpy(zero_copy_only=False)
        ks, _ = _group_reduce(
            [day, e], {"partial_c": np.ones(day.shape[0], np.int64)}
        )
        return pa.table(
            {
                "day": pa.array(ks[0], pa.int64()),
                "ent": pa.array(ks[1]),
                "partial_c": pa.array(
                    np.ones(ks[0].shape[0], np.int64)
                ),
            }
        )

    pairs = tree_sum(
        proj.map_batches(
            pair_partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["day", "ent"], {"partial_c": "c"}, int_cols=("partial_c",),
    )

    # observed-day set: calendar-sized by construction — broadcast once
    def day_partial(batch: pa.Table) -> pa.Table:
        d = np.unique(batch["day"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "day": pa.array(d, pa.int64()),
                "partial_c": pa.array(np.ones(d.shape[0], np.int64)),
            }
        )

    days_t = exchange.collect(
        tree_sum(
            pairs.map_batches(
                day_partial, batch_format="pyarrow",
                zero_copy_batch=True, batch_size=None,
            ),
            ["day"], {"partial_c": "c"}, int_cols=("partial_c",),
        )
    )
    if days_t.num_rows == 0 or "day" not in days_t.column_names:
        # EMPTY input loses its column schema through Ray 2.49's empty
        # blocks (ROUND_NOTES quirk) — return the typed empty result
        return ray.data.from_arrow(
            pa.table(
                {"day": pa.array([], pa.int64()), out_col: pa.array([], pa.int64())}
            )
        )
    obs = np.sort(days_t["day"].to_numpy(zero_copy_only=False).astype(np.int64))
    ref = exchange.broadcast(obs)

    def expand(batch: pa.Table, _w=window) -> pa.Table:
        ov = ref.get()
        d = batch["day"].to_numpy(zero_copy_only=False).astype(np.int64)
        e = batch["ent"]
        if isinstance(e, pa.ChunkedArray):
            e = e.combine_chunks()
        outs = []
        for j in range(_w):
            wd = d + j
            pos = np.searchsorted(ov, wd)
            keep = (pos < ov.shape[0]) & (
                ov[np.minimum(pos, ov.shape[0] - 1)] == wd
            )
            if not keep.any():
                continue
            outs.append(
                pa.table(
                    {
                        "wday": pa.array(wd[keep], pa.int64()),
                        "ent": e.filter(pa.array(keep)),
                        "partial_c": pa.array(
                            np.ones(int(keep.sum()), np.int64)
                        ),
                    }
                )
            )
        if not outs:
            return pa.table(
                {
                    "wday": pa.array([], pa.int64()),
                    "ent": e.slice(0, 0),
                    "partial_c": pa.array([], pa.int64()),
                }
            )
        return pa.concat_tables(outs)

    memb = tree_sum(
        pairs.map_batches(
            expand, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["wday", "ent"], {"partial_c": "c"}, int_cols=("partial_c",),
    )

    def fold(batch: pa.Table) -> pa.Table:
        d = batch["wday"].to_numpy(zero_copy_only=False).astype(np.int64)
        ks, vs = _group_reduce([d], {"partial_n": np.ones(d.shape[0], np.int64)})
        return pa.table(
            {
                "day": pa.array(ks[0], pa.int64()),
                "partial_n": pa.array(vs["partial_n"], pa.int64()),
            }
        )

    return tree_sum(
        memb.map_batches(
            fold, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["day"], {"partial_n": out_col}, int_cols=("partial_n",),
    )



def ks_statistic(
    ds: ray.data.Dataset,
    value_col: str,
    side_col: str,
    side_a,
    side_b,
    quantize: float = 100.0,
) -> ray.data.Dataset:
    """EXACT two-sample Kolmogorov–Smirnov statistic as a RATIONAL —
    one row ``(d_num, n_a, n_b)`` with
    ``D = max_v |F_a(v) − F_b(v)| = d_num / (n_a · n_b)`` — the
    standard drift test between two cohorts' value distributions
    (A/B gates, feature-drift monitors). Values quantize to integers;
    the per-(value, side) histogram merges once through the combine
    tree (bounded by distinct values, the corpus never shuffles) and
    the final single-task sweep takes the running-max of
    ``|cum_a·n_b − cum_b·n_a|`` over the sorted value domain —
    integer end-to-end, so the SQL window twin hashes identically.
    Rows with a NULL value are EXCLUDED (no place for NULL on an
    ordered CDF axis)."""

    def partial(batch: pa.Table) -> pa.Table:
        s = batch[side_col]
        if isinstance(s, pa.ChunkedArray):
            s = s.combine_chunks()
        in_a = pc.equal(s, side_a)
        in_b = pc.equal(s, side_b)
        keep = pc.and_(
            pc.fill_null(pc.or_(in_a, in_b), False),
            pc.is_valid(batch[value_col]),  # NULL values excluded (doc'd)
        )
        sub = batch.filter(keep)
        if len(sub) == 0:
            return pa.table(
                {
                    "v": pa.array([], pa.int64()),
                    "partial_a": pa.array([], pa.int64()),
                    "partial_b": pa.array([], pa.int64()),
                }
            )
        x = sub[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        v = _quantize_i64(x, quantize, "ks_statistic")
        sa = np.asarray(pc.fill_null(pc.equal(sub[side_col], side_a), False))
        ks, vs = _group_reduce(
            [v],
            {
                "partial_a": sa.astype(np.int64),
                "partial_b": (~sa).astype(np.int64),
            },
        )
        return pa.table(
            {
                "v": pa.array(ks[0], pa.int64()),
                "partial_a": pa.array(vs["partial_a"], pa.int64()),
                "partial_b": pa.array(vs["partial_b"], pa.int64()),
            }
        )

    hist = tree_sum(
        ds.select_columns([value_col, side_col]).map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["v"], {"partial_a": "ca", "partial_b": "cb"},
        int_cols=("partial_a", "partial_b"),
    )

    def sweep(batch: pa.Table) -> pa.Table:
        v = batch["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        ca = batch["ca"].to_numpy(zero_copy_only=False).astype(np.int64)
        cb = batch["cb"].to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.argsort(v)
        ca, cb = ca[o], cb[o]
        na, nb = int(ca.sum()), int(cb.sum())
        if na and nb and max(na, nb) >= (1 << 31):
            raise OverflowError(
                "ks_statistic: cohort size ≥ 2^31 would overflow the "
                "cross product; subsample or rescale first"
            )
        cum_a = np.cumsum(ca)
        cum_b = np.cumsum(cb)
        d = int(np.abs(cum_a * nb - cum_b * na).max()) if v.size else 0
        # total-variation companion (L1 over the same histogram):
        # TV = tv_num / (2·n_a·n_b)
        tv = int(np.abs(ca * nb - cb * na).sum()) if v.size else 0
        return pa.table(
            {
                "d_num": pa.array([d], pa.int64()),
                "tv_num": pa.array([tv], pa.int64()),
                "n_a": pa.array([na], pa.int64()),
                "n_b": pa.array([nb], pa.int64()),
            }
        )

    return exchange.gather(hist, sweep)


def window_locf(
    ds: ray.data.Dataset,
    key: str,
    order_cols: str | list[str],
    value_col: str,
    out_col: str = "filled",
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Forward fill (LOCF — last observation carried forward) per key:
    SQL ``LAST_VALUE(value IGNORE NULLS) OVER (PARTITION BY key ORDER
    BY ... ROWS UNBOUNDED PRECEDING)``. The sensor/tick-data gap
    repair. Vectorized: one running max over last-valid positions, with
    carries from the previous key masked off by the key-start bound
    (no per-row loop, no per-key loop)."""
    order_list = [order_cols] if isinstance(order_cols, str) else list(order_cols)

    def emit(g: pa.Table, first: np.ndarray, pos: np.ndarray):
        col = g[value_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n = len(g)
        if n == 0:
            return out_col, col
        valid = np.asarray(pc.is_valid(col))
        lv = np.maximum.accumulate(np.where(valid, pos, np.int64(-1)))
        starts = np.nonzero(first)[0]
        seg = np.cumsum(first) - 1
        has = lv >= starts[seg]  # a carry from an earlier key is stale
        idx = pa.array(np.where(has, lv, 0), pa.int64())
        filled = col.take(idx)
        return out_col, pc.if_else(pa.array(has), filled, pa.scalar(None, col.type))

    return _window_over_buckets(ds, key, order_list, n_buckets, emit)


def grouped_weighted_median(
    ds: ray.data.Dataset,
    key: str,
    value_col: str,
    weight_col: str,
    quantize: float = 100.0,
    out_col: str = "wmedian",
) -> ray.data.Dataset:
    """Per-key EXACT lower weighted median: the smallest quantized
    value v with ``2·cumweight(v) ≥ totalweight`` — the robust center
    when rows carry importance weights (quantity-weighted price, size-
    weighted latency). Values and weights quantize to integers; the
    (key, value) weight histogram merges once through the combine tree
    (bounded by keys × distinct values) and a single merge-task sweep
    picks each key's median — integer end-to-end, bit-exact vs the SQL
    window twin. NULL values or weights are excluded (SQL aggregate
    semantics)."""

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.is_valid(batch[value_col]), pc.is_valid(batch[weight_col])
        )
        sub = batch.filter(keep)
        k = sub[key].to_numpy(zero_copy_only=False)
        x = sub[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        v = _quantize_i64(x, quantize, "grouped_weighted_median")
        w = sub[weight_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ks, vs = _group_reduce([k, v], {"partial_w": w})
        return pa.table(
            {
                key: pa.array(ks[0]),
                "v": pa.array(ks[1], pa.int64()),
                "partial_w": pa.array(vs["partial_w"], pa.int64()),
            }
        )

    hist = tree_sum(
        ds.select_columns([key, value_col, weight_col]).map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        [key, "v"], {"partial_w": "w"}, int_cols=("partial_w",),
    )

    def sweep(batch: pa.Table) -> pa.Table:
        k = batch[key].to_numpy(zero_copy_only=False)
        v = batch["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        w = batch["w"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = k.shape[0]
        if n == 0:
            return pa.table(
                {key: batch[key], out_col: pa.array([], pa.int64())}
            )
        order = np.lexsort((v, k))
        k, v, w = k[order], v[order], w[order]
        first = np.ones(n, bool)
        first[1:] = k[1:] != k[:-1]
        starts = np.nonzero(first)[0]
        seg = np.cumsum(first) - 1
        cw = np.cumsum(w)
        base = np.concatenate(([np.int64(0)], cw[starts[1:] - 1]))
        cum = cw - base[seg]  # per-key cumulative weight
        tot = np.add.reduceat(w, starts)
        hit = 2 * cum >= tot[seg]
        # first hit per key = the lower weighted median
        hi = np.flatnonzero(hit)
        pick = hi[np.searchsorted(seg[hi], np.arange(starts.shape[0]))]
        return pa.table(
            {
                key: pa.array(k[starts]),
                out_col: pa.array(v[pick], pa.int64()),
            }
        )

    return exchange.gather(hist, sweep)


def survival_risk_table(
    ds: ray.data.Dataset,
    time_col: str,
    event_col: str,
) -> ray.data.Dataset:
    """Kaplan–Meier RISK TABLE — the exact integer sufficient
    statistics of the survival curve: per distinct (integer) time t,
    ``d`` subjects with the event at t, ``c`` censored at t, and
    ``n_risk`` = subjects still at risk (time ≥ t). The KM estimate
    ``S(t) = Π (1 − d/n_risk)`` is a cumulative float product, so the
    engine emits the rational risk table instead (bit-exact vs SQL) and
    leaves the product to the caller. ``time_col`` must be integer;
    ``event_col`` boolean (true = event, false = censored).

    One combine tree over the per-time histogram (bounded by distinct
    times), then a single merge-task reverse cumsum."""

    def partial(batch: pa.Table) -> pa.Table:
        t = batch[time_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ev = np.asarray(pc.fill_null(batch[event_col], False)).astype(np.int64)
        ks, vs = _group_reduce(
            [t], {"partial_d": ev, "partial_c": 1 - ev}
        )
        return pa.table(
            {
                "t": pa.array(ks[0], pa.int64()),
                "partial_d": pa.array(vs["partial_d"], pa.int64()),
                "partial_c": pa.array(vs["partial_c"], pa.int64()),
            }
        )

    hist = tree_sum(
        ds.select_columns([time_col, event_col]).map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["t"], {"partial_d": "d", "partial_c": "c"},
        int_cols=("partial_d", "partial_c"),
    )

    def sweep(batch: pa.Table) -> pa.Table:
        t = batch["t"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch["d"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = batch["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.argsort(t)[::-1]  # descending time
        n_risk = np.cumsum(d[o] + c[o])
        out = np.empty(t.shape[0], np.int64)
        out[o] = n_risk
        return pa.table(
            {
                "t": pa.array(t, pa.int64()),
                "d": pa.array(d, pa.int64()),
                "c": pa.array(c, pa.int64()),
                "n_risk": pa.array(out, pa.int64()),
            }
        )

    return exchange.gather(hist, sweep)


def window_distinct_count(
    ds: ray.data.Dataset,
    key: str,
    order_cols: str | list[str],
    value_col: str,
    w: int = 16,
    out_col: str = "n_distinct",
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Per row: COUNT(DISTINCT value) over the current and previous
    ``w−1`` rows of the key's order — behavioral-diversity windows
    (distinct event types a user touched recently). EXACT for value
    domains of ≤ 64 distinct values (raises above): the global value
    vocabulary is collected once through a combine tree (vocabulary-
    sized by assumption), broadcast as sorted bit positions, and the
    window is ``w`` vectorized bitmask ORs + one popcount — the same
    shifted-adds shape as ``window_decayed_sum``, no per-row loop.
    NULL values carry no bit (SQL COUNT(DISTINCT) skips NULLs)."""
    order_list = [order_cols] if isinstance(order_cols, str) else list(order_cols)

    def vocab_partial(batch: pa.Table) -> pa.Table:
        col = batch[value_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        u = pc.unique(col.drop_null())
        return pa.table(
            {"v": u, "partial_c": pa.array(np.ones(len(u), np.int64))}
        )

    vt = exchange.collect(
        tree_sum(
            ds.select_columns([value_col]).map_batches(
                vocab_partial, batch_format="pyarrow",
                zero_copy_batch=True, batch_size=None,
            ),
            ["v"], {"partial_c": "c"}, int_cols=("partial_c",),
        )
    )
    if vt.num_rows > 64:
        raise ValueError(
            f"window_distinct_count: {vt.num_rows} distinct values — the "
            "bitmask window supports ≤ 64; bucket the column first"
        )
    vocab = vt["v"].combine_chunks() if vt.num_rows else pa.array([], pa.string())
    if isinstance(vocab, pa.ChunkedArray):
        vocab = vocab.combine_chunks()
    ref = exchange.broadcast(vocab)

    def emit(g: pa.Table, first: np.ndarray, pos: np.ndarray):
        n = len(g)
        if n == 0:
            return out_col, pa.array(np.empty(0, np.int64))
        vv = ref.get()
        col = g[value_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        bitpos = pc.index_in(col, value_set=vv).to_numpy(zero_copy_only=False)
        valid = ~np.isnan(bitpos)
        bits = np.zeros(n, np.uint64)
        bp = np.where(valid, bitpos, 0).astype(np.int64)
        bits[valid] = np.uint64(1) << bp[valid].astype(np.uint64)
        starts = np.nonzero(first)[0]
        seg = np.cumsum(first) - 1
        pik = pos - starts[seg]
        acc = bits.copy()
        for j in range(1, min(w, n)):
            m = pik[j:] >= j
            sl = acc[j:]
            sl[m] |= bits[: n - j][m]
        # vectorized popcount over uint64
        x = acc
        cnt = np.zeros(n, np.int64)
        for shift in range(0, 64, 8):
            byte = ((x >> np.uint64(shift)) & np.uint64(0xFF)).astype(np.int64)
            cnt += _POPCOUNT8[byte]
        return out_col, pa.array(cnt, pa.int64())

    return _window_over_buckets(ds, key, order_list, n_buckets, emit)


_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], np.int64)


def grouped_ks_vs_rest(
    ds: ray.data.Dataset,
    group_col: str,
    value_col: str,
    quantize: float = 1.0,
) -> ray.data.Dataset:
    """Per-cohort drift scan: for EVERY group g, the exact two-sample
    KS statistic of g's value distribution against the REST of the
    corpus, as a rational — one row ``(group, d_num, n_g, n_rest)``
    with ``D_g = d_num / (n_g · n_rest)``. The fleet-wide version of
    ``ks_statistic`` (which outlier source/shard/day drifted?).

    One (group, value) histogram through the combine tree (bounded by
    groups × distinct values — the standing grouped-histogram
    assumption), then a single merge-task sweep evaluates every group's
    CDF gap at ALL global value steps (a step of either side can be the
    argmax) via one searchsorted per group. NULL values excluded."""

    def partial(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pc.is_valid(batch[value_col]))
        g = sub[group_col].to_numpy(zero_copy_only=False)
        x = sub[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        v = _quantize_i64(x, quantize, "grouped_ks_vs_rest")
        ks, vs = _group_reduce(
            [g, v], {"partial_c": np.ones(g.shape[0], np.int64)}
        )
        return pa.table(
            {
                group_col: pa.array(ks[0]),
                "v": pa.array(ks[1], pa.int64()),
                "partial_c": pa.array(vs["partial_c"], pa.int64()),
            }
        )

    hist = tree_sum(
        ds.select_columns([group_col, value_col]).map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        [group_col, "v"], {"partial_c": "c"}, int_cols=("partial_c",),
    )

    def sweep(batch: pa.Table) -> pa.Table:
        g = batch[group_col].to_numpy(zero_copy_only=False)
        v = batch["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = batch["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = g.shape[0]
        if n == 0:
            return pa.table(
                {
                    group_col: batch[group_col],
                    "d_num": pa.array([], pa.int64()),
                    "n_g": pa.array([], pa.int64()),
                    "n_rest": pa.array([], pa.int64()),
                }
            )
        # global value axis + cumulative totals
        gv = np.unique(v)
        tot = np.zeros(gv.shape[0], np.int64)
        np.add.at(tot, np.searchsorted(gv, v), c)
        cum_all = np.cumsum(tot)
        n_all = int(cum_all[-1])
        order = np.lexsort((v, g))
        g, v, c = g[order], v[order], c[order]
        first = np.ones(n, bool)
        first[1:] = g[1:] != g[:-1]
        starts = np.nonzero(first)[0]
        ends = np.append(starts[1:], n)
        out_g, out_d, out_ng = [], [], []
        for s, e in zip(starts, ends):
            ng = int(c[s:e].sum())
            no = n_all - ng
            # group CDF at every global step: step function via
            # searchsorted into the group's own value list
            pos = np.searchsorted(v[s:e], gv, side="right")
            cumg_at = np.concatenate(([np.int64(0)], np.cumsum(c[s:e])))[pos]
            cumo_at = cum_all - cumg_at
            d = int(np.abs(cumg_at * no - cumo_at * ng).max()) if no else 0
            out_g.append(g[s])
            out_d.append(d)
            out_ng.append(ng)
        return pa.table(
            {
                group_col: pa.array(out_g),
                "d_num": pa.array(out_d, pa.int64()),
                "n_g": pa.array(out_ng, pa.int64()),
                "n_rest": pa.array(
                    [n_all - x for x in out_ng], pa.int64()
                ),
            }
        )

    return exchange.gather(hist, sweep)


def pr_curve(
    ds: ray.data.Dataset,
    label_col: str,
    score_col: str,
    quantize: float | None = None,
) -> ray.data.Dataset:
    """EXACT precision–recall curve of an integer(-quantized) score
    against a 0/1 label: one row per DISTINCT score threshold ``s`` with
    the confusion counts when everything scoring ``>= s`` is predicted
    positive — ``(s, tp, fp, fn)``, all int64 (precision = tp/(tp+fp),
    recall = tp/(tp+fn) are left as rationals for the caller). The
    companion to ``roc_auc`` for imbalanced gates (dedup verdicts,
    quality filters) where ROC flatters the negative class.

    Same plan as ``roc_auc``: per-batch ``(score → n_pos, n_neg)``
    VALUE-HISTOGRAM partials merge through the combine tree (bounded by
    the score domain, not the corpus), then ONE task sweeps the sorted
    histogram with two cumulative sums. ``quantize`` buckets a float
    score via ``floor(x·q + 0.5)``."""

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.drop_null()  # NULL label/score rows are excluded
        y = batch[label_col].to_numpy(zero_copy_only=False).astype(np.int64)
        s = batch[score_col].to_numpy(zero_copy_only=False)
        if quantize is not None:
            s = _quantize_i64(s.astype(np.float64), quantize, "pr_curve")
        else:
            if s.dtype.kind == "f" and not np.isfinite(s).all():
                raise ValueError(
                    "pr_curve requires finite scores (NaN/Inf→int64 undefined)"
                )
            s = s.astype(np.int64)
        ks, vs = _group_reduce(
            [s], {"partial_p": y, "partial_n": (1 - y).astype(np.int64)}
        )
        return pa.table(
            {
                "s": pa.array(ks[0], pa.int64()),
                "partial_p": pa.array(vs["partial_p"], pa.int64()),
                "partial_n": pa.array(vs["partial_n"], pa.int64()),
            }
        )

    hist = tree_sum(
        ds.map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["s"], {"partial_p": "p", "partial_n": "n"},
        int_cols=("partial_p", "partial_n"),
    )

    def sweep(batch: pa.Table) -> pa.Table:
        s = batch["s"].to_numpy(zero_copy_only=False).astype(np.int64)
        p = batch["p"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.argsort(-s, kind="stable")  # descending threshold
        s, p, n = s[o], p[o], n[o]
        tp = np.cumsum(p)
        fp = np.cumsum(n)
        fn = (tp[-1] if tp.shape[0] else 0) - tp
        return pa.table(
            {
                "s": pa.array(s, pa.int64()),
                "tp": pa.array(tp, pa.int64()),
                "fp": pa.array(fp, pa.int64()),
                "fn": pa.array(fn, pa.int64()),
            }
        )

    return exchange.gather(hist, sweep)


def calibration_bins(
    ds: ray.data.Dataset,
    label_col: str,
    score_col: str,
    quantize: float = 100.0,
    bin_width_q: int = 1000,
) -> ray.data.Dataset:
    """Reliability-diagram sufficient statistics, EXACT: scores are
    quantized to integers (``floor(x·q + 0.5)``, must be NON-NEGATIVE —
    raises otherwise so the floor-division bin key matches SQL's ``//``
    on every engine) and bucketed into width-``bin_width_q`` bins; each
    bin row carries ``(bin, n, n_pos, sum_score_q)`` so mean predicted
    score (``sum_score_q / (n·q)``) vs empirical rate (``n_pos/n``) is a
    pair of rationals. One combine tree over a bin-bounded histogram —
    the corpus never shuffles."""

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.drop_null()  # NULL label/score rows are excluded
        y = batch[label_col].to_numpy(zero_copy_only=False).astype(np.int64)
        x = batch[score_col].to_numpy(zero_copy_only=False).astype(np.float64)
        sq = np.floor(x * quantize + 0.5).astype(np.int64)
        if sq.shape[0] and int(sq.min()) < 0:
            raise ValueError("calibration_bins: scores must be non-negative")
        b = sq // np.int64(bin_width_q)
        ks, vs = _group_reduce(
            [b],
            {
                "partial_n": np.ones(b.shape[0], np.int64),
                "partial_p": y,
                "partial_s": sq,
            },
        )
        return pa.table(
            {
                "bin": pa.array(ks[0], pa.int64()),
                "partial_n": pa.array(vs["partial_n"], pa.int64()),
                "partial_p": pa.array(vs["partial_p"], pa.int64()),
                "partial_s": pa.array(vs["partial_s"], pa.int64()),
            }
        )

    return tree_sum(
        ds.map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["bin"],
        {"partial_n": "n", "partial_p": "n_pos", "partial_s": "sum_score_q"},
        int_cols=("partial_n", "partial_p", "partial_s"),
    )


def contingency_profile(
    ds: ray.data.Dataset,
    row_col: str,
    col_col: str,
) -> ray.data.Dataset:
    """Exact contingency table of two categorical columns with the
    independence deviations attached: per cell ``(r, c)`` emit
    ``(obs, row_tot, col_tot, n, dev)`` where
    ``dev = obs·n − row_tot·col_tot`` — the integer numerator of
    ``obs − expected`` scaled by ``n`` (χ², mutual information, Cramér's
    V are all functions of these five integers; the caller picks the
    float recipe). Cell counts merge through the combine tree (bounded
    by the category-domain product); marginals are a single sweep over
    the finished cell table. Overflow guard: requires ``n < 2^31`` so
    ``obs·n`` and ``row_tot·col_tot`` stay in int64 — beyond that drop
    the ``dev`` column and compute it downstream in big ints."""

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.drop_null()  # NULL-category rows are excluded
        r = batch[row_col]
        c = batch[col_col]
        out = pa.table({"r": r, "c": c}).group_by(["r", "c"]).aggregate(
            [([], "count_all")]
        )
        return out.rename_columns(["r", "c", "partial_n"])

    cells_t = tree_sum(
        ds.map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["r", "c"], {"partial_n": "obs"}, int_cols=("partial_n",),
    )

    def sweep(batch: pa.Table) -> pa.Table:
        r = batch["r"].to_numpy(zero_copy_only=False)
        c = batch["c"].to_numpy(zero_copy_only=False)
        obs = batch["obs"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = int(obs.sum())
        if n >= (1 << 31):
            raise OverflowError(
                "contingency_profile: n >= 2^31 — dev would overflow int64"
            )
        ur, ir = np.unique(r, return_inverse=True)
        uc, ic = np.unique(c, return_inverse=True)
        row_tot = np.bincount(ir, weights=obs).astype(np.int64)
        col_tot = np.bincount(ic, weights=obs).astype(np.int64)
        dev = obs * n - row_tot[ir] * col_tot[ic]
        return pa.table(
            {
                row_col: pa.array(r),
                col_col: pa.array(c),
                "obs": pa.array(obs, pa.int64()),
                "row_tot": pa.array(row_tot[ir], pa.int64()),
                "col_tot": pa.array(col_tot[ic], pa.int64()),
                "n": pa.array(np.full(obs.shape[0], n), pa.int64()),
                "dev": pa.array(dev, pa.int64()),
            }
        )

    return exchange.gather(cells_t, sweep)


def activity_islands(
    ds: ray.data.Dataset,
    key: str,
    ts_col: str,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Gaps-and-islands per key over a timestamp stream: collapse each
    key's events to DISTINCT ACTIVE DAYS, then group consecutive days
    into islands (streaks). One row per key:
    ``(key, n_days, n_islands, max_streak)`` — the retention/streak
    shape every engagement pipeline computes.

    Plan: one key-hash bucket shuffle; inside each bucket the
    (key, epoch-day) pairs dedupe with one lexsort, island boundaries
    are a vectorized ``diff != 1``, and island lengths fall out of two
    ``reduceat``-style segment reductions (``_group_reduce`` with max).
    No driver state, no per-key Python."""
    proj = ds.select_columns([key, ts_col])

    def per_bucket(group: pa.Table) -> pa.Table:
        group = group.drop_null()  # NULL key/ts rows are excluded
        k = group[key].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group[ts_col].to_numpy(zero_copy_only=False)
        d = ts.astype("datetime64[D]").astype(np.int64)
        if k.shape[0] == 0:
            return pa.table(
                {
                    key: pa.array([], pa.int64()),
                    "n_days": pa.array([], pa.int64()),
                    "n_islands": pa.array([], pa.int64()),
                    "max_streak": pa.array([], pa.int64()),
                }
            )
        o = np.lexsort((d, k))
        k, d = k[o], d[o]
        keep = np.ones(k.shape[0], dtype=bool)
        keep[1:] = (k[1:] != k[:-1]) | (d[1:] != d[:-1])
        k, d = k[keep], d[keep]
        m = k.shape[0]
        first = np.zeros(m, dtype=bool)
        first[0] = True
        first[1:] = k[1:] != k[:-1]
        new_island = first.copy()
        new_island[1:] |= d[1:] != d[:-1] + 1
        iid = np.cumsum(new_island) - 1  # global island id (keys nest)
        starts = np.flatnonzero(new_island)
        ilen = np.diff(np.append(starts, m)).astype(np.int64)
        ikey = k[starts]
        ks, vs = _group_reduce(
            [ikey],
            {
                "n_days": ilen,
                "n_islands": np.ones(ilen.shape[0], np.int64),
                "max_streak": ilen,
            },
            ufunc={
                "n_days": np.add,
                "n_islands": np.add,
                "max_streak": np.maximum,
            },
        )
        return pa.table(
            {
                key: pa.array(ks[0], pa.int64()),
                "n_days": pa.array(vs["n_days"], pa.int64()),
                "n_islands": pa.array(vs["n_islands"], pa.int64()),
                "max_streak": pa.array(vs["max_streak"], pa.int64()),
            }
        )

    return co_shuffle(proj, key, per_bucket, n_buckets=n_buckets, coalesce=True)


def corr_pairs(
    ds: ray.data.Dataset,
    cols: dict[str, float],
) -> ray.data.Dataset:
    """Pairwise-Pearson sufficient statistics for every column pair in
    ONE streaming pass, exact in quantized integers: ``cols`` maps each
    numeric column to its quantizer ``q`` (value → ``floor(x·q+0.5)``);
    for each unordered pair ``(cx < cy)`` emit
    ``(cx, cy, n, sx, sy, sxx, syy, sxy)`` int64 — correlation, slope,
    covariance are rationals of these. The corpus never shuffles: each
    batch contributes one row per pair and the partials merge through
    the combine tree.

    Overflow budget (documented, same convention as ``grouped_moments``):
    requires ``n · max|xq|·max|yq| < 2^63`` per pair — pick quantizers so
    quantized magnitudes stay ≤ ~10^5 at 10^9 rows; beyond that split
    the pass or move the merge to big-int columns."""
    names = sorted(cols)
    pairs = [
        (names[i], names[j])
        for i in range(len(names))
        for j in range(i + 1, len(names))
    ]

    def partial(batch: pa.Table) -> pa.Table:
        qv = {}
        ok = {}
        for c, q in cols.items():
            x = batch[c].to_numpy(zero_copy_only=False).astype(np.float64)
            ok[c] = ~np.isnan(x)
            qv[c] = np.floor(np.where(ok[c], x, 0.0) * q + 0.5).astype(np.int64)
        rows = {"cx": [], "cy": [], "partial_n": [], "partial_sx": [],
                "partial_sy": [], "partial_sxx": [], "partial_syy": [],
                "partial_sxy": []}
        for cx, cy in pairs:
            # pairwise-complete: a row enters a pair's stats only when
            # BOTH columns are non-null (pandas corr convention)
            m = ok[cx] & ok[cy]
            x, y = qv[cx][m], qv[cy][m]
            rows["cx"].append(cx)
            rows["cy"].append(cy)
            rows["partial_n"].append(x.shape[0])
            rows["partial_sx"].append(int(x.sum()))
            rows["partial_sy"].append(int(y.sum()))
            rows["partial_sxx"].append(int((x * x).sum()))
            rows["partial_syy"].append(int((y * y).sum()))
            rows["partial_sxy"].append(int((x * y).sum()))
        return pa.table(
            {
                "cx": pa.array(rows["cx"], pa.string()),
                "cy": pa.array(rows["cy"], pa.string()),
                **{
                    k: pa.array(rows[k], pa.int64())
                    for k in rows
                    if k.startswith("partial_")
                },
            }
        )

    return tree_sum(
        ds.map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["cx", "cy"],
        {
            "partial_n": "n", "partial_sx": "sx", "partial_sy": "sy",
            "partial_sxx": "sxx", "partial_syy": "syy",
            "partial_sxy": "sxy",
        },
        int_cols=(
            "partial_n", "partial_sx", "partial_sy", "partial_sxx",
            "partial_syy", "partial_sxy",
        ),
    )


def cross_corr_daily(
    ds: ray.data.Dataset,
    key_col: str,
    ts_col: str,
    key_a,
    key_b,
    max_lag: int = 6,
) -> ray.data.Dataset:
    """Lagged cross-correlation sufficient statistics between two keys'
    DAILY COUNT series, exact: for each lag ℓ in ``0..max_lag`` emit
    ``(lag, dot, sa, sb, n_days)`` over the zero-filled day grid
    ``[lo, hi]`` spanning both series — ``dot = Σ_d a(d)·b(d+ℓ)``,
    ``sa``/``sb`` the window sums of each series on its side of the
    overlap, ``n_days = hi-lo+1-ℓ``; Pearson-at-lag is a rational of
    these plus the (cheap) squared sums. The lead/lag detector for
    event streams (does A today predict B tomorrow?).

    Plan: per-day counts for both keys merge through ONE combine tree
    (histogram bounded by the calendar, not the corpus); one task
    densifies the grid and sweeps the ≤ max_lag+1 shifted dot products
    vectorized."""

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.drop_null()  # NULL key/ts rows are excluded
        k = batch[key_col].to_numpy(zero_copy_only=False)
        d = (
            batch[ts_col].to_numpy(zero_copy_only=False)
            .astype("datetime64[D]").astype(np.int64)
        )
        ma = k == key_a
        mb = k == key_b
        day = np.concatenate([d[ma], d[mb]])
        side = np.concatenate(
            [np.zeros(int(ma.sum()), np.int64), np.ones(int(mb.sum()), np.int64)]
        )
        ks, vs = _group_reduce(
            [day, side], {"partial_n": np.ones(day.shape[0], np.int64)}
        )
        return pa.table(
            {
                "d": pa.array(ks[0], pa.int64()),
                "side": pa.array(ks[1], pa.int64()),
                "partial_n": pa.array(vs["partial_n"], pa.int64()),
            }
        )

    hist = tree_sum(
        ds.map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["d", "side"], {"partial_n": "n"}, int_cols=("partial_n",),
    )

    def sweep(batch: pa.Table) -> pa.Table:
        d = batch["d"].to_numpy(zero_copy_only=False).astype(np.int64)
        side = batch["side"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        empty = pa.table(
            {
                "lag": pa.array([], pa.int64()),
                "dot": pa.array([], pa.int64()),
                "sa": pa.array([], pa.int64()),
                "sb": pa.array([], pa.int64()),
                "n_days": pa.array([], pa.int64()),
            }
        )
        if d.shape[0] == 0:
            return empty
        lo, hi = int(d.min()), int(d.max())
        span = hi - lo + 1
        a = np.zeros(span, np.int64)
        b = np.zeros(span, np.int64)
        am = side == 0
        a[d[am] - lo] = n[am]
        b[d[~am] - lo] = n[~am]
        lags = np.arange(min(max_lag, span - 1) + 1, dtype=np.int64)
        dot = np.array(
            [int((a[: span - l] * b[l:]).sum()) for l in lags], np.int64
        )
        sa = np.array([int(a[: span - l].sum()) for l in lags], np.int64)
        sb = np.array([int(b[l:].sum()) for l in lags], np.int64)
        return pa.table(
            {
                "lag": pa.array(lags, pa.int64()),
                "dot": pa.array(dot, pa.int64()),
                "sa": pa.array(sa, pa.int64()),
                "sb": pa.array(sb, pa.int64()),
                "n_days": pa.array(span - lags, pa.int64()),
            }
        )

    return exchange.gather(hist, sweep)


def seasonal_dow_anomaly(
    ds: ray.data.Dataset,
    key_col: str,
    ts_col: str,
) -> ray.data.Dataset:
    """Day-of-week seasonal baseline + exact anomaly numerators: per
    ``(key, date)`` emit the daily event count next to its key's
    same-weekday aggregate over the GLOBAL calendar span —
    ``(key, d, dow, daily_n, dow_total, dow_days, anom_num)`` with
    ``anom_num = daily_n·dow_days − dow_total`` (positive ⇒ above the
    weekday average; the average includes zero-activity weekdays, so
    ``dow_days`` counts CALENDAR occurrences of that weekday in
    ``[min_day, max_day]`` across the whole dataset). Weekday is
    engine-defined as ``(epoch_days + 4) % 7`` (0 = Monday) so SQL
    replicates it without library conventions.

    One combine tree builds the (key, day) counts (calendar-bounded);
    one task attaches the per-(key, dow) totals and the span counts —
    the event stream never shuffles."""

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.drop_null()  # NULL key/ts rows are excluded
        k = batch[key_col].to_numpy(zero_copy_only=False)
        d = (
            batch[ts_col].to_numpy(zero_copy_only=False)
            .astype("datetime64[D]").astype(np.int64)
        )
        ks, vs = _group_reduce(
            [k, d], {"partial_n": np.ones(d.shape[0], np.int64)}
        )
        return pa.table(
            {
                key_col: pa.array(ks[0]),
                "d": pa.array(ks[1], pa.int64()),
                "partial_n": pa.array(vs["partial_n"], pa.int64()),
            }
        )

    daily = tree_sum(
        ds.map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        [key_col, "d"], {"partial_n": "daily_n"}, int_cols=("partial_n",),
    )

    def sweep(batch: pa.Table) -> pa.Table:
        k = batch[key_col].to_numpy(zero_copy_only=False)
        d = batch["d"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = batch["daily_n"].to_numpy(zero_copy_only=False).astype(np.int64)
        empty = pa.table(
            {
                key_col: pa.array([], pa.string()),
                "d": pa.array([], pa.int64()),
                "dow": pa.array([], pa.int64()),
                "daily_n": pa.array([], pa.int64()),
                "dow_total": pa.array([], pa.int64()),
                "dow_days": pa.array([], pa.int64()),
                "anom_num": pa.array([], pa.int64()),
            }
        )
        if d.shape[0] == 0:
            return empty
        lo, hi = int(d.min()), int(d.max())
        dow = (d + 4) % 7
        # calendar occurrences of each weekday in [lo, hi]
        all_dow = (np.arange(lo, hi + 1, dtype=np.int64) + 4) % 7
        occ = np.bincount(all_dow, minlength=7).astype(np.int64)
        uk, ik = np.unique(k, return_inverse=True)
        cell = ik * 7 + dow
        dow_tot = np.bincount(
            cell, weights=n, minlength=uk.shape[0] * 7
        ).astype(np.int64)
        dt = dow_tot[cell]
        dd = occ[dow]
        return pa.table(
            {
                key_col: pa.array(k),
                "d": pa.array(d, pa.int64()),
                "dow": pa.array(dow, pa.int64()),
                "daily_n": pa.array(n, pa.int64()),
                "dow_total": pa.array(dt, pa.int64()),
                "dow_days": pa.array(dd, pa.int64()),
                "anom_num": pa.array(n * dd - dt, pa.int64()),
            }
        )

    return exchange.gather(daily, sweep)


def interarrival_stats(
    ds: ray.data.Dataset,
    key: str,
    ts_col: str,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Per-key inter-arrival-time statistics over an event stream,
    exact in int64 microseconds: ``(key, n_events, span_us, min_gap_us,
    max_gap_us)`` where gaps are consecutive differences of the
    ts-sorted sequence (ties ⇒ gap 0; keys with one event emit NULL
    gaps; Σgaps = span telescopes, so the mean gap is
    ``span_us/(n_events−1)``). One key-hash bucket shuffle, vectorized
    diff with cross-key boundaries masked."""
    proj = ds.select_columns([key, ts_col])

    def per_bucket(group: pa.Table) -> pa.Table:
        group = group.drop_null()  # NULL key/ts rows are excluded
        k = group[key].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group[ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if k.shape[0] == 0:
            return pa.table(
                {
                    key: pa.array([], pa.int64()),
                    "n_events": pa.array([], pa.int64()),
                    "span_us": pa.array([], pa.int64()),
                    "min_gap_us": pa.array([], pa.int64()),
                    "max_gap_us": pa.array([], pa.int64()),
                }
            )
        o = np.lexsort((ts, k))
        k, ts = k[o], ts[o]
        n = k.shape[0]
        same = np.zeros(n, dtype=bool)
        same[1:] = k[1:] == k[:-1]
        gap = np.empty(n, np.int64)
        gap[0] = 0
        gap[1:] = ts[1:] - ts[:-1]
        ks_n, vs_n = _group_reduce(
            [k],
            {
                "n_events": np.ones(n, np.int64),
                "t_min": ts,
                "t_max": ts,
            },
            ufunc={"n_events": np.add, "t_min": np.minimum,
                   "t_max": np.maximum},
        )
        kg = k[same]
        gg = gap[same]
        out_min = np.full(ks_n[0].shape[0], -1, np.int64)
        out_max = np.full(ks_n[0].shape[0], -1, np.int64)
        has_gap = np.zeros(ks_n[0].shape[0], dtype=bool)
        if kg.shape[0]:
            ks_g, vs_g = _group_reduce(
                [kg], {"gmin": gg, "gmax": gg},
                ufunc={"gmin": np.minimum, "gmax": np.maximum},
            )
            pos = np.searchsorted(ks_n[0], ks_g[0])
            out_min[pos] = vs_g["gmin"]
            out_max[pos] = vs_g["gmax"]
            has_gap[pos] = True
        return pa.table(
            {
                key: pa.array(ks_n[0], pa.int64()),
                "n_events": pa.array(vs_n["n_events"], pa.int64()),
                "span_us": pa.array(
                    vs_n["t_max"] - vs_n["t_min"], pa.int64()
                ),
                "min_gap_us": pc.if_else(
                    pa.array(has_gap), pa.array(out_min, pa.int64()),
                    pa.scalar(None, pa.int64()),
                ),
                "max_gap_us": pc.if_else(
                    pa.array(has_gap), pa.array(out_max, pa.int64()),
                    pa.scalar(None, pa.int64()),
                ),
            }
        )

    return co_shuffle(proj, key, per_bucket, n_buckets=n_buckets, coalesce=True)


def window_trend(
    ds: ray.data.Dataset,
    key: str,
    order_cols: str | list[str],
    value_col: str,
    w: int = 5,
    quantize: float = 100.0,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Per-row rolling TREND: the exact OLS slope of the quantized
    value against within-key row position over the trailing ``w``-row
    window — one row per event with the rational
    ``slope = slope_num / slope_den`` where
    ``slope_num = n·Σjv − Σj·Σv`` and ``slope_den = n·Σj² − (Σj)²``
    (all int64; ``slope_den = 0`` for single-row windows). The
    is-this-metric-rising primitive for alerting pipelines, exact so
    the SQL twin (five window sums over ROWS BETWEEN w−1 PRECEDING) is
    bit-identical.

    One key-hash bucket shuffle; inside a bucket all five trailing sums
    are segmented-cumsum differences — no per-row Python. Overflow
    budget: requires ``w · max|v_q| · rows_per_key < 2^63``."""
    order_list = [order_cols] if isinstance(order_cols, str) else list(order_cols)
    proj = ds.select_columns([key, *order_list, value_col])

    def per_bucket(group: pa.Table) -> pa.Table:
        group = group.drop_null()  # NULL key/order/value rows are excluded
        sort_keys = [(key, "ascending")] + [(c, "ascending") for c in order_list]
        g = group.take(pc.sort_indices(group, sort_keys=sort_keys))
        k = g[key].to_numpy(zero_copy_only=False).astype(np.int64)
        x = g[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        v = _quantize_i64(x, quantize, "window_trend")
        n = k.shape[0]
        if n == 0:
            cols = {key: pa.array([], pa.int64())}
            for c in order_list:
                cols[c] = g[c]
            cols["slope_num"] = pa.array([], pa.int64())
            cols["slope_den"] = pa.array([], pa.int64())
            return pa.table(cols)
        first = np.zeros(n, dtype=bool)
        first[0] = True
        first[1:] = k[1:] != k[:-1]
        starts = np.flatnonzero(first)
        seg = np.repeat(starts, np.diff(np.append(starts, n)))
        j = np.arange(n, dtype=np.int64) - seg  # within-key position

        def trailing(vals: np.ndarray) -> np.ndarray:
            c = np.cumsum(vals)
            base = np.repeat(c[starts] - vals[starts], np.diff(np.append(starts, n)))
            P = c - base  # segmented inclusive prefix sum
            out = P.copy()
            far = j >= w  # window fully inside: subtract prefix at i-w
            idx = np.arange(n, dtype=np.int64) - w
            out[far] = P[far] - P[idx[far]]
            return out

        cnt = np.minimum(j + 1, w)
        sx = trailing(j)
        sy = trailing(v)
        sxx = trailing(j * j)
        sxy = trailing(j * v)
        cols = {key: pa.array(k, pa.int64())}
        for c in order_list:
            cols[c] = g[c]
        cols["slope_num"] = pa.array(cnt * sxy - sx * sy, pa.int64())
        cols["slope_den"] = pa.array(cnt * sxx - sx * sx, pa.int64())
        return pa.table(cols)

    return co_shuffle(proj, key, per_bucket, n_buckets=n_buckets, coalesce=True)


def window_burst(
    ds: ray.data.Dataset,
    key: str,
    ts_col: str,
    window_us: int,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Per-key BURST detection: the maximum number of events falling in
    any trailing ``window_us``-microsecond time window —
    ``(key, peak_count, n_events)``. Peers at the same timestamp all
    count (SQL RANGE-frame semantics, so the
    ``COUNT(*) OVER (... RANGE window_us−1 PRECEDING)`` twin is
    bit-identical). The rate-limit / anomaly-burst primitive.

    One key-hash bucket shuffle; inside a bucket the per-row window
    count is TWO vectorized ``searchsorted`` calls over the
    key-offset-packed timestamp array (the ``cusum_alarms`` packing,
    same 2^62 guard with a per-key fallback), then a per-key max."""
    proj = ds.select_columns([key, ts_col])

    def per_bucket(group: pa.Table) -> pa.Table:
        group = group.drop_null()  # NULL key/ts rows are excluded
        k = group[key].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group[ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
        n = k.shape[0]
        if n == 0:
            return pa.table(
                {
                    key: pa.array([], pa.int64()),
                    "peak_count": pa.array([], pa.int64()),
                    "n_events": pa.array([], pa.int64()),
                }
            )
        o = np.lexsort((ts, k))
        k, ts = k[o], ts[o]
        first = np.zeros(n, dtype=bool)
        first[0] = True
        first[1:] = k[1:] != k[:-1]
        kid = np.cumsum(first) - 1
        lo, hi = int(ts.min()), int(ts.max())
        span = np.int64(hi - lo + window_us + 2)
        nkeys = int(first.sum())
        if nkeys * int(span) < (1 << 62):
            packed = (ts - lo) + kid * span
            left = np.searchsorted(packed, packed - (window_us - 1), side="left")
            right = np.searchsorted(packed, packed, side="right")
            cnt = (right - left).astype(np.int64)
        else:  # degenerate span — per-key segments (rare)
            starts = np.flatnonzero(first)
            cnt = np.empty(n, np.int64)
            for a, b in zip(starts, np.append(starts[1:], n)):
                t = ts[a:b]
                l_ = np.searchsorted(t, t - (window_us - 1), side="left")
                r_ = np.searchsorted(t, t, side="right")
                cnt[a:b] = r_ - l_
        ks, vs = _group_reduce(
            [k],
            {"peak_count": cnt, "n_events": np.ones(n, np.int64)},
            ufunc={"peak_count": np.maximum, "n_events": np.add},
        )
        return pa.table(
            {
                key: pa.array(ks[0], pa.int64()),
                "peak_count": pa.array(vs["peak_count"], pa.int64()),
                "n_events": pa.array(vs["n_events"], pa.int64()),
            }
        )

    return co_shuffle(proj, key, per_bucket, n_buckets=n_buckets, coalesce=True)


def conversion_lag(
    ds: ray.data.Dataset,
    key: str,
    ts_col: str,
    type_col: str,
    from_type,
    to_type,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Time-to-convert per key, exact int64 microseconds: the lag from
    the key's FIRST ``from_type`` event to the first ``to_type`` event
    STRICTLY AFTER it — one ``(key, lag_us)`` row per key that
    converts (the funnel-latency companion to ``funnel``'s counts).

    One key-hash bucket shuffle; inside a bucket both firsts are
    ``_group_reduce`` mins (the to-side filtered by a searchsorted
    attach of the from-side first) — no per-key Python."""
    proj = ds.select_columns([key, ts_col, type_col])

    def per_bucket(group: pa.Table) -> pa.Table:
        group = group.drop_null()
        k = group[key].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group[ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
        t = group[type_col].to_numpy(zero_copy_only=False)
        empty = pa.table(
            {
                key: pa.array([], pa.int64()),
                "lag_us": pa.array([], pa.int64()),
            }
        )
        ma = t == from_type
        if not ma.any():
            return empty
        ka, va = _group_reduce([k[ma]], {"t0": ts[ma]}, ufunc={"t0": np.minimum})
        a_keys, a_first = ka[0], va["t0"]
        mb = t == to_type
        kb, tb = k[mb], ts[mb]
        pos = np.searchsorted(a_keys, kb)
        hit = (pos < a_keys.shape[0]) & (
            a_keys[np.minimum(pos, a_keys.shape[0] - 1)] == kb
        )
        after = np.zeros(kb.shape[0], dtype=bool)
        after[hit] = tb[hit] > a_first[pos[hit]]
        if not after.any():
            return empty
        kc, vc = _group_reduce(
            [kb[after]], {"t1": tb[after]}, ufunc={"t1": np.minimum}
        )
        lag = vc["t1"] - a_first[np.searchsorted(a_keys, kc[0])]
        return pa.table(
            {
                key: pa.array(kc[0], pa.int64()),
                "lag_us": pa.array(lag, pa.int64()),
            }
        )

    return co_shuffle(proj, key, per_bucket, n_buckets=n_buckets, coalesce=True)


def debounce_count(
    ds: ray.data.Dataset,
    key: str,
    ts_col: str,
    window_us: int,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Debounce survivorship per key: an event is KEPT when it is the
    key's first or arrives more than ``window_us`` after the PREVIOUS
    EVENT (gap-based debounce — well-defined under timestamp ties, and
    exactly SQL's ``gap IS NULL OR gap > w`` over a LAG window) —
    output ``(key, n_events, n_kept)``. The dedup-noise estimator for
    at-least-once event streams. One key-hash bucket shuffle,
    vectorized diffs."""
    proj = ds.select_columns([key, ts_col])

    def per_bucket(group: pa.Table) -> pa.Table:
        group = group.drop_null()
        k = group[key].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group[ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
        n = k.shape[0]
        if n == 0:
            return pa.table(
                {
                    key: pa.array([], pa.int64()),
                    "n_events": pa.array([], pa.int64()),
                    "n_kept": pa.array([], pa.int64()),
                }
            )
        o = np.lexsort((ts, k))
        k, ts = k[o], ts[o]
        first = np.zeros(n, dtype=bool)
        first[0] = True
        first[1:] = k[1:] != k[:-1]
        gap = np.empty(n, np.int64)
        gap[0] = 0
        gap[1:] = ts[1:] - ts[:-1]
        kept = (first | (gap > window_us)).astype(np.int64)
        ks, vs = _group_reduce(
            [k], {"n_events": np.ones(n, np.int64), "n_kept": kept}
        )
        return pa.table(
            {
                key: pa.array(ks[0], pa.int64()),
                "n_events": pa.array(vs["n_events"], pa.int64()),
                "n_kept": pa.array(vs["n_kept"], pa.int64()),
            }
        )

    return co_shuffle(proj, key, per_bucket, n_buckets=n_buckets, coalesce=True)
