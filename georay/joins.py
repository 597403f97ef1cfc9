"""Spatial joins (SURVEY.md §2.B5/B6), two execution shapes:

1. **Broadcast + fused stateless tasks**: the small-side index ships
   once via ``exchange.broadcast`` and is fetched once per worker
   process; the probe fuses with the upstream read chain. The big side
   never shuffles.
2. **Co-partitioned** (``pip_join_partitioned``): both sides large — one
   ``groupby(cell)`` shuffle co-locates points with the polygons covering
   their cell; the same vectorized kernel joins each bucket locally.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from georay import exchange, ops
from georay.exchange import co_shuffle
from georay.index import PointIndex, PolygonIndex


def pip_join(
    points: ray.data.Dataset,
    polygons: pa.Table,
    geom_col: str = "geotag",
    geometry_col: str = "geometry",
    id_col: str = "polygon_id",
    mode: str = "inner",
    res: float | None = None,
    index: str = "grid",
) -> ray.data.Dataset:
    """B5: broadcast PIP join. ``polygons`` must be the SMALL side (it is
    materialized once per worker process); the points Dataset streams
    through stateless tasks that FUSE with the upstream read/map chain
    (no extra object-store hop for wide rows, no pool spin-up).

    modes: "inner" (one output row per match, point cols + polygon cols),
    "left" (every point, null polygon_id when no match), "semi" (points
    with ≥1 match), "anti" (points with no match). Left takes the lowest
    polygon index that contains the point. These three modes probe with
    ``contains_first``: candidates are tested in doubling rank waves
    (rank 0, then ranks [1, 2), [2, 4), ...), each only for points with
    no hit yet, so a batch runs at most ceil(log2 R) + 1 exact tests, R
    being its largest candidate count per point.

    ``index``: "grid" (default — exact-cover grid buckets) or "str"
    (STR-packed R-tree, ``STRPolygonIndex`` — the north star's literal
    index shape); both share the exact even-odd kernel and return
    identical match sets (parity-pinned), differing only in candidate
    generation cost profile (grid wins on uniform small polygons, the
    R-tree on wildly mixed extents where one grid resolution fits
    nobody).
    """
    if index == "str":
        from georay.index import STRPolygonIndex

        idx = STRPolygonIndex.build(
            polygons, geometry_col=geometry_col, id_col=id_col
        )
    else:
        idx = PolygonIndex.build(
            polygons, geometry_col=geometry_col, id_col=id_col, res=res
        )
    ref = exchange.broadcast(idx)

    def pip_fn(batch: pa.Table) -> pa.Table:
        polys: PolygonIndex = ref.get()
        lon, lat = ops.point_lonlat(batch, geom_col)
        # NaNs (null/empty points) match nothing: encode to a probe value
        # that cannot hit the index
        bad = ~(np.isfinite(lon) & np.isfinite(lat))
        lon = np.where(bad, 1e9, lon)
        lat = np.where(bad, 1e9, lat)
        if mode == "inner":
            pidx, poly = polys.contains(lon, lat)
            out = batch.take(pa.array(pidx))
            return out.append_column(
                "polygon_id", polys.id_array.take(pa.array(poly))
            )
        # left/semi/anti need only the FIRST match → early-exit probe
        first = polys.contains_first(lon, lat)
        has = first >= 0
        if mode == "semi":
            return batch.filter(pa.array(has))
        if mode == "anti":
            return batch.filter(pa.array(~has))
        if mode == "left":
            hit = pa.array(first, mask=~has)
            return batch.append_column("polygon_id", polys.id_array.take(hit))
        raise ValueError(f"unknown mode {mode}")

    return points.map_batches(
        pip_fn, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def pip_count(
    points: ray.data.Dataset,
    polygons: pa.Table,
    geom_col: str = "geotag",
    geometry_col: str = "geometry",
    id_col: str = "polygon_id",
    res: float | None = None,
    count_alias: str = "n",
    index: str = "grid",
) -> ray.data.Dataset:
    """PIP join + per-polygon COUNT with the aggregation pushed INTO the
    probe stage: each batch emits one (polygon, partial count) row per
    matched polygon instead of materializing every joined row — the
    join-then-aggregate pattern with no wide intermediate. Exact.
    ``index``: "grid" or "str" (same selector as ``pip_join``)."""
    if index == "str":
        from georay.index import STRPolygonIndex

        idx0 = STRPolygonIndex.build(
            polygons, geometry_col=geometry_col, id_col=id_col
        )
    else:
        idx0 = PolygonIndex.build(
            polygons, geometry_col=geometry_col, id_col=id_col, res=res
        )
    ref = exchange.broadcast(idx0)

    def probe_count(batch: pa.Table) -> pa.Table:
        idx: PolygonIndex = ref.get()
        lon, lat = ops.point_lonlat(batch, geom_col)
        bad = ~(np.isfinite(lon) & np.isfinite(lat))
        pidx, poly = idx.contains(
            np.where(bad, 1e9, lon), np.where(bad, 1e9, lat)
        )
        counts = np.bincount(poly, minlength=idx.n_polygons)
        nz = np.nonzero(counts)[0]
        return pa.table(
            {
                id_col: idx.id_array.take(pa.array(nz)),
                "partial_n": pa.array(counts[nz], pa.int64()),
            }
        )

    partials = points.map_batches(
        probe_count, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    # combine-tree merge of the tiny per-batch partials — no shuffle
    return ops.tree_sum(
        partials, id_col, {"partial_n": count_alias}, int_cols=("partial_n",)
    )


def pip_zonal_stats(
    points: ray.data.Dataset,
    polygons: pa.Table,
    value_col: str,
    geom_col: str = "geotag",
    geometry_col: str = "geometry",
    id_col: str = "polygon_id",
    res: float | None = None,
) -> ray.data.Dataset:
    """Zonal statistics: PIP join + per-polygon COUNT/SUM/MIN/MAX/AVG of
    a point-side value column, with the whole aggregation pushed INTO the
    probe stage — each batch emits one partial row per matched polygon
    (lexsort+reduceat), then a combine-tree merge with per-column
    reducers. No joined-pair intermediate ever materializes; the only
    data movement is (polygon_id, 4 partials) rows.

    Output: (id_col, n, v_sum, v_min, v_max, v_avg). Exact when the
    value column is integer-valued (float sums are order-independent
    then); AVG is computed as sum/n after the merge.
    """
    index = PolygonIndex.build(
        polygons, geometry_col=geometry_col, id_col=id_col, res=res
    )
    ref = exchange.broadcast(index)

    def probe_stats(batch: pa.Table) -> pa.Table:
        idx: PolygonIndex = ref.get()
        # SQL aggregate semantics skip NULLs: drop null-value rows before
        # the reduce (astype would turn them into NaN and poison
        # sum/min/max/avg for the whole polygon)
        vcol = batch[value_col]
        if vcol.null_count:
            batch = batch.filter(pc.is_valid(vcol))
        lon, lat = ops.point_lonlat(batch, geom_col)
        vals = batch[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        bad = ~(np.isfinite(lon) & np.isfinite(lat))
        pidx, poly = idx.contains(
            np.where(bad, 1e9, lon), np.where(bad, 1e9, lat)
        )
        v = vals[pidx]
        (keys,), outs = ops._group_reduce(
            [poly],
            {
                "partial_n": np.ones(poly.shape[0], dtype=np.int64),
                "partial_sum": v,
                "partial_min": v,
                "partial_max": v,
            },
            ufunc={
                "partial_n": np.add,
                "partial_sum": np.add,
                "partial_min": np.minimum,
                "partial_max": np.maximum,
            },
        )
        return pa.table(
            {
                id_col: idx.id_array.take(pa.array(keys)),
                "partial_n": pa.array(outs["partial_n"], pa.int64()),
                "partial_sum": pa.array(outs["partial_sum"], pa.float64()),
                "partial_min": pa.array(outs["partial_min"], pa.float64()),
                "partial_max": pa.array(outs["partial_max"], pa.float64()),
            }
        )

    partials = points.map_batches(
        probe_stats, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    merged = ops.tree_reduce(
        partials,
        id_col,
        {
            "partial_n": "n",
            "partial_sum": "v_sum",
            "partial_min": "v_min",
            "partial_max": "v_max",
        },
        ufunc={
            "partial_n": np.add,
            "partial_sum": np.add,
            "partial_min": np.minimum,
            "partial_max": np.maximum,
        },
    )

    def add_avg(batch: pa.Table) -> pa.Table:
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        s = batch["v_sum"].to_numpy(zero_copy_only=False)
        return batch.append_column("v_avg", pa.array(s / n, pa.float64()))

    return merged.map_batches(
        add_avg, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def pip_join_partitioned(
    points: ray.data.Dataset,
    polygons: ray.data.Dataset,
    geom_col: str = "geotag",
    geometry_col: str = "geometry",
    id_col: str = "polygon_id",
    point_id_col: str = "image_id",
    res: float = 2.0,
    value_col: str | None = None,
) -> ray.data.Dataset:
    """BOTH-SIDES-LARGE PIP join: no broadcast. Each side is keyed by the
    same grid cell (points: their cell; polygons: every cell of their
    exact bbox cover), co-partitioned with one ``groupby(cell)``
    shuffle, and joined bucket-locally with the same vectorized even-odd
    kernel. Duplicate matches from multi-cell polygons are impossible:
    a point's single cell meets each covering polygon exactly once.

    Output: inner-join pairs (point id columns + polygon id;
    ``value_col`` rides along as ``pval`` when given, enabling
    zonal-stats composition without a second shuffle). Pick ``res``
    so a bucket's polygons fit a worker's heap (document the skew: a
    dense city cell = one map_groups task; split res finer to shard it).
    """
    from georay import cells as c
    from georay.codecs import native as nat
    from georay.codecs import wkb as wkb_codec
    from georay.types import GeoType

    # polygon ids transport in their own dtype (r4: string ids — the
    # broadcast plan's make_polygons_table shape — used to crash the
    # int64-hardcoded union schema); the union schema is fixed at plan
    # time from the polygon side's metadata
    _pid_type = polygons.schema().base_schema.field(id_col).type
    id_is_str = pa.types.is_string(_pid_type) or pa.types.is_large_string(
        _pid_type
    )
    transport = pa.string() if id_is_str else pa.int64()

    def key_points(batch: pa.Table) -> pa.Table:
        lon, lat = ops.point_lonlat(batch, geom_col)
        bad = ~(np.isfinite(lon) & np.isfinite(lat))
        cell = c.grid_cell(np.where(bad, 1e9, lon), np.where(bad, 1e9, lat), res)
        return pa.table(
            {
                "cell": pa.array(cell, pa.int64()),
                "side": pa.array(np.zeros(len(batch), np.int8)),
                # string-typed so the union with the polygon side always
                # type-checks regardless of the caller's id dtype
                "pt_id": batch[point_id_col].cast(pa.string()),
                "lon": pa.array(lon),
                "lat": pa.array(lat),
                id_col: pa.array([None] * len(batch), transport),
                "wkb": pa.array([None] * len(batch), pa.binary()),
                "pval": (
                    batch[value_col].cast(pa.float64())
                    if value_col is not None
                    else pa.array([None] * len(batch), pa.float64())
                ),
            }
        )

    def key_polygons(batch: pa.Table) -> pa.Table:
        from georay import kernels

        geo = GeoType.from_field(batch.schema.field(geometry_col))
        b = kernels.box(batch[geometry_col], geo)
        mins, maxes, valid = nat.box_view(b, GeoType.box())
        bbox = np.concatenate([mins, maxes], axis=1)
        ok = np.isfinite(bbox[:, 0]) & (bbox[:, 2] >= bbox[:, 0])
        if valid is not None:
            ok &= valid
        from georay.index import _cover_bboxes_grid

        keys, poly_idx = _cover_bboxes_grid(bbox, ok, res)
        wkb_col = wkb_codec.encode(batch[geometry_col], geo)
        ids = batch[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        n = keys.shape[0]
        return pa.table(
            {
                "cell": pa.array(keys, pa.int64()),
                "side": pa.array(np.ones(n, np.int8)),
                "pt_id": pa.array([None] * n, pa.string()),
                "lon": pa.array(np.full(n, np.nan)),
                "lat": pa.array(np.full(n, np.nan)),
                id_col: ids.cast(transport).take(pa.array(poly_idx)),
                "wkb": wkb_col.take(pa.array(poly_idx)),
                "pval": pa.array(np.full(n, np.nan)),
            }
        )

    pts_keyed = points.map_batches(
        key_points, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    polys_keyed = polygons.map_batches(
        key_polygons, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )

    def join_bucket(group: pa.Table) -> pa.Table:
        side = group["side"].to_numpy(zero_copy_only=False)
        pts = group.filter(pa.array(side == 0))
        pls = group.filter(pa.array(side == 1))
        ecols = {
            "pt_id": pa.array([], pts.column("pt_id").type),
            id_col: pa.array([], transport),
        }
        if value_col is not None:
            ecols["pval"] = pa.array([], pa.float64())
        empty = pa.table(ecols)
        if len(pts) == 0 or len(pls) == 0:
            return empty
        from georay.index import PolygonIndex
        from georay.types import GeoType

        # decode to MULTIPOLYGON: POLYGON upcasts losslessly, and the
        # broadcast path (PolygonIndex.build) accepts MULTIPOLYGON too, so
        # both physical plans take the same inputs
        nat_poly, t = wkb_codec.decode(
            pls["wkb"].combine_chunks(), GeoType.multipolygon()
        )
        tbl = pa.table(
            {id_col: pls[id_col]},
            schema=pa.schema([pa.field(id_col, transport)]),
        ).append_column(GeoType.multipolygon().field(geometry_col), nat_poly)
        idx = PolygonIndex.build(tbl, geometry_col=geometry_col, id_col=id_col, res=res)
        lon = pts["lon"].to_numpy(zero_copy_only=False)
        lat = pts["lat"].to_numpy(zero_copy_only=False)
        # restrict matches to THIS bucket's cell so multi-cell polygons
        # can't double-match a point probed in a different bucket
        cell_here = group["cell"][0].as_py()
        own_cell = c.grid_cell(lon, lat, res) == cell_here
        pidx, poly = idx.contains(np.where(own_cell, lon, 1e9), np.where(own_cell, lat, 1e9))
        out = {
            "pt_id": pts["pt_id"].take(pa.array(pidx)),
            id_col: idx.id_array.take(pa.array(poly)),
        }
        if value_col is not None:
            out["pval"] = pts["pval"].take(pa.array(pidx))
        return pa.table(out)

    return co_shuffle([pts_keyed, polys_keyed], "cell", join_bucket, coalesce=False)


def rect_intersect_count(
    rects: ray.data.Dataset,
    polygons: pa.Table,
    rect_cols: tuple = ("xmin", "ymin", "xmax", "ymax"),
    id_col: str = "rect_id",
    geometry_col: str = "geometry",
    poly_id_col: str = "polygon_id",
    res: float | None = None,
    count_alias: str = "n",
    index: str = "grid",
) -> ray.data.Dataset:
    """Rect↔polygon INTERSECTS join, counted per rect: for every
    streaming rectangle, the number of broadcast polygons whose interior
    overlaps it (exact rect–polygon decomposition —
    ``PolygonIndex.intersects_rect``). Per-rect counts are complete
    inside each batch, so there is NO shuffle; the polygon side ships
    once via ``exchange.broadcast``. Rects with zero matches are dropped.
    ``index``: "grid" bbox-cover buckets or "str" R-tree descent —
    identical pairs (shared exact decomposition), parity-pinned.
    """
    if index == "str":
        from georay.index import STRPolygonIndex

        idx0 = STRPolygonIndex.build(
            polygons, geometry_col=geometry_col, id_col=poly_id_col
        )
    else:
        idx0 = PolygonIndex.build(
            polygons, geometry_col=geometry_col, id_col=poly_id_col, res=res
        )
    ref = exchange.broadcast(idx0)
    cx0, cy0, cx1, cy1 = rect_cols

    def probe(batch: pa.Table) -> pa.Table:
        idx = ref.get()
        ridx, _poly = idx.intersects_rect(
            batch[cx0].to_numpy(zero_copy_only=False),
            batch[cy0].to_numpy(zero_copy_only=False),
            batch[cx1].to_numpy(zero_copy_only=False),
            batch[cy1].to_numpy(zero_copy_only=False),
        )
        counts = np.bincount(ridx, minlength=len(batch))
        nz = np.nonzero(counts)[0]
        rid = batch[id_col]
        if isinstance(rid, pa.ChunkedArray):
            rid = rid.combine_chunks()
        return pa.table(
            {
                id_col: rid.take(pa.array(nz)),
                count_alias: pa.array(counts[nz], pa.int64()),
            }
        )

    return rects.map_batches(
        probe, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def rect_intersect_pairs(
    rects: ray.data.Dataset,
    polygons: pa.Table,
    rect_cols: tuple = ("xmin", "ymin", "xmax", "ymax"),
    id_col: str = "rect_id",
    geometry_col: str = "geometry",
    poly_id_col: str = "polygon_id",
    res: float | None = None,
    index: str = "grid",
) -> ray.data.Dataset:
    """Pair-emitting twin of ``rect_intersect_count``: one output row per
    intersecting (rect, polygon) pair. Same broadcast plan (and the
    same "grid"/"str" index choice); use the count variant when only
    cardinalities are needed (no pair intermediate)."""
    if index == "str":
        from georay.index import STRPolygonIndex

        idx0 = STRPolygonIndex.build(
            polygons, geometry_col=geometry_col, id_col=poly_id_col
        )
    else:
        idx0 = PolygonIndex.build(
            polygons, geometry_col=geometry_col, id_col=poly_id_col, res=res
        )
    ref = exchange.broadcast(idx0)
    cx0, cy0, cx1, cy1 = rect_cols

    def probe(batch: pa.Table) -> pa.Table:
        idx = ref.get()
        ridx, poly = idx.intersects_rect(
            batch[cx0].to_numpy(zero_copy_only=False),
            batch[cy0].to_numpy(zero_copy_only=False),
            batch[cx1].to_numpy(zero_copy_only=False),
            batch[cy1].to_numpy(zero_copy_only=False),
        )
        rid = batch[id_col]
        if isinstance(rid, pa.ChunkedArray):
            rid = rid.combine_chunks()
        return pa.table(
            {
                id_col: rid.take(pa.array(ridx)),
                poly_id_col: idx.id_array.take(pa.array(poly)),
            }
        )

    return rects.map_batches(
        probe, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def _radius_res(radius: float, metric: str, res: float | None) -> float:
    """Default cell size for the within-distance index: roughly one
    radius per cell (clipped), converted from km to degrees first for
    the geodesic metric."""
    if res is not None:
        return res
    from georay.kernels import KM_PER_DEG

    deg = radius / KM_PER_DEG if metric == "haversine" else radius
    return float(np.clip(deg, 0.25, 30.0))


def radius_join_pairs(
    probes: ray.data.Dataset,
    ref_lon: np.ndarray,
    ref_lat: np.ndarray,
    ref_ids: np.ndarray,
    radius: float,
    geom_col: str = "geotag",
    probe_id_col: str = "p_partkey",
    neighbor_out: str = "neighbor_id",
    res: float | None = None,
    metric: str = "planar",
    ref_payload: dict[str, np.ndarray] | None = None,
    dist_out: str | None = None,
    radius2: float | None = None,
    count_out: str | None = None,
) -> ray.data.Dataset:
    """Pair-emitting twin of ``radius_join_count``: one output row per
    (probe, ref-within-radius) pair.

    ``metric`` — ``"planar"`` (degrees, the default, matching the
    reference's planar-only kernels) or ``"haversine"`` (``radius`` in
    km, great-circle). ``ref_payload`` — extra reference-side columns
    (name → array aligned with ``ref_ids``) carried onto each pair, so
    the join emits real payload rows, not just id pairs; the arrays ride
    inside the one broadcast ``exchange.broadcast``. ``dist_out`` — optionally emit
    the distance (squared degrees for planar, km for haversine).
    ``radius2`` (planar only) — PRE-SQUARED exact threshold: the exact
    filter compares ``d2 <= radius2`` instead of ``radius*radius``, for
    callers whose contract is expressed on squared distance (e.g. a SQL
    twin with an exactly-representable eps² whose square root is not);
    ``radius`` then only sizes the candidate disk and must satisfy
    radius² ≥ radius2. ``count_out`` — optionally emit, on every pair
    row, the probe's TOTAL within-radius neighbor count (complete
    locally: each probe's candidates are resolved inside one batch)."""
    res = _radius_res(radius, metric, res)
    ref_lon = np.asarray(ref_lon, np.float64)
    ref_lat = np.asarray(ref_lat, np.float64)
    index = PointIndex.build(ref_lon, ref_lat, np.asarray(ref_ids), res)
    # build() drops non-finite refs; ref_pos indexes the filtered arrays,
    # so payload columns must be filtered by the same mask.
    ok = np.isfinite(ref_lon) & np.isfinite(ref_lat)
    payload = {
        k: np.asarray(v)[ok] for k, v in (ref_payload or {}).items()
    }
    ref = exchange.broadcast((index, payload))

    def probe_pairs(batch: pa.Table) -> pa.Table:
        idx, pay = ref.get()
        lon, lat = ops.point_lonlat(batch, geom_col)
        if metric == "haversine":
            P, R, d = idx.within_geodesic(lon, lat, radius)
        else:
            P, R, d = idx.within(lon, lat, radius, radius2=radius2)
        pid = batch[probe_id_col]
        if isinstance(pid, pa.ChunkedArray):
            pid = pid.combine_chunks()
        cols = {
            probe_id_col: pid.take(pa.array(P)),
            neighbor_out: pa.array(idx.ref_ids[R].tolist()),
        }
        for name, arr in pay.items():
            cols[name] = pa.array(arr[R].tolist())
        if dist_out is not None:
            cols[dist_out] = pa.array(d, pa.float64())
        if count_out is not None:
            counts = np.bincount(P, minlength=len(batch))
            cols[count_out] = pa.array(counts[P], pa.int64())
        return pa.table(cols)

    return probes.map_batches(
        probe_pairs, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def radius_join_count(
    probes: ray.data.Dataset,
    ref_lon: np.ndarray,
    ref_lat: np.ndarray,
    ref_ids: np.ndarray,
    radius: float,
    geom_col: str = "geotag",
    probe_id_col: str = "p_partkey",
    res: float | None = None,
    count_alias: str = "n",
    metric: str = "planar",
) -> ray.data.Dataset:
    """Within-distance (radius) join, counted per probe: for every probe
    point, the number of broadcast reference points within ``radius``
    (planar degrees by default; km great-circle with
    ``metric="haversine"``). One fixed cell disk of Chebyshev radius
    ``ceil(radius/res)`` bounds the candidate set (no ring expansion
    loop, unlike kNN), the exact filter runs per batch, and because each
    probe lives in exactly one batch the per-probe counts are complete
    locally — NO shuffle at all. Probes with zero matches are dropped
    (inner-join counting semantics).
    """
    res = _radius_res(radius, metric, res)
    index = PointIndex.build(
        np.asarray(ref_lon, np.float64), np.asarray(ref_lat, np.float64),
        np.asarray(ref_ids), res,
    )
    ref = exchange.broadcast(index)

    def probe_count(batch: pa.Table) -> pa.Table:
        idx: PointIndex = ref.get()
        lon, lat = ops.point_lonlat(batch, geom_col)
        if metric == "haversine":
            P, _, _ = idx.within_geodesic(lon, lat, radius)
        else:
            P, _, _ = idx.within(lon, lat, radius)
        counts = np.bincount(P, minlength=len(batch))
        nz = np.nonzero(counts)[0]
        pid = batch[probe_id_col]
        if isinstance(pid, pa.ChunkedArray):
            pid = pid.combine_chunks()
        return pa.table(
            {
                probe_id_col: pid.take(pa.array(nz)),
                count_alias: pa.array(counts[nz], pa.int64()),
            }
        )

    return probes.map_batches(
        probe_count, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def knn_join(
    probes: ray.data.Dataset,
    ref_lon: np.ndarray,
    ref_lat: np.ndarray,
    ref_ids: np.ndarray,
    k: int = 3,
    geom_col: str = "geotag",
    res: float | None = None,
    id_out: str = "neighbor_id",
    index: str = "grid",
) -> ray.data.Dataset:
    """B6: broadcast kNN join: each probe row fans out to ≤k result rows
    (neighbor id, squared planar distance, rank) via grid-cell ring
    expansion (exact under the planar (lon,lat) metric; ring-r stop
    bound proven in PointIndex.knn). Same broadcast plan as
    ``pip_join``. ``index``: "grid" (uniform cell ring expansion — wins
    on evenly spread refs) or "str" (STR-packed R-tree radius doubling —
    wins on wildly mixed-density refs); identical output,
    parity-pinned."""
    if index not in ("grid", "str"):
        raise ValueError("knn_join: index must be 'grid' or 'str'")
    if res is None:
        # aim for ~a few refs per cell: res ≈ sqrt(area/ n_ref) over the
        # lon/lat rectangle, clamped to sane bounds
        n = max(len(ref_ids), 1)
        res = float(np.clip(np.sqrt(360.0 * 180.0 / n) * 2.0, 0.25, 30.0))
    if index == "str":
        from georay.index import STRPointIndex

        idx = STRPointIndex.build(
            np.asarray(ref_lon, np.float64),
            np.asarray(ref_lat, np.float64), np.asarray(ref_ids), r0=res,
        )
    else:
        idx = PointIndex.build(
            np.asarray(ref_lon, np.float64), np.asarray(ref_lat, np.float64),
            ref_ids, res,
        )
    ref = exchange.broadcast(idx)

    def knn_fn(batch: pa.Table) -> pa.Table:
        refs: PointIndex = ref.get()
        lon, lat = ops.point_lonlat(batch, geom_col)
        P, R, D = refs.knn(lon, lat, k)
        out = batch.take(pa.array(P))
        ids = refs.ref_ids[R]
        out = out.append_column(id_out, pa.array(ids.tolist()))
        out = out.append_column("knn_dist2", pa.array(D, pa.float64()))
        rank = np.zeros(P.shape[0], dtype=np.int64)
        if P.shape[0]:
            # D is sorted within each probe; rank = position within probe
            new = np.ones(P.shape[0], dtype=bool)
            new[1:] = P[1:] != P[:-1]
            starts = np.nonzero(new)[0]
            rank = np.arange(P.shape[0]) - np.repeat(starts, np.diff(np.append(starts, P.shape[0])))
        out = out.append_column("knn_rank", pa.array(rank + 1, pa.int64()))
        return out

    return probes.map_batches(
        knn_fn, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def _topk_reduce(batch: pa.Table, k: int) -> pa.Table:
    """Keep the k smallest-(d2, rid) candidates per probe and sum the
    per-probe candidate counts — one lexsort + boundary pass; associative,
    so it serves as both the combine and the final stage of the top-k
    merge tree (dedups (pid, rid) repeats from wrap-around disks).

    Rows with rid < 0 are PROBE-STATE rows (r4 slim schema: rid=-1
    carries the ring in nc, rid=-2 carries lon in d2 / lat bit-cast in
    nc) — they pass through unconditionally (dedup by (pid, rid); the
    copies are identical) and never enter the top-k ranking, so the hot
    candidate stream stays 4 columns × 32 bytes/row."""
    pid = batch["pid"].to_numpy(zero_copy_only=False)
    rid = batch["rid"].to_numpy(zero_copy_only=False)
    d2 = batch["d2"].to_numpy(zero_copy_only=False)
    nc = batch["nc"].to_numpy(zero_copy_only=False)
    if pid.shape[0] == 0:
        return batch
    # dedup (pid, rid) pairs first (a ref can reach a probe through two
    # buckets only via longitude wrap; state-row copies are identical)
    order = np.lexsort((rid, pid))
    pid, rid, d2, nc = (a[order] for a in (pid, rid, d2, nc))
    first = np.ones(pid.shape[0], dtype=bool)
    first[1:] = (pid[1:] != pid[:-1]) | (rid[1:] != rid[:-1])
    pid, rid, d2, nc = (a[first] for a in (pid, rid, d2, nc))
    special = rid < 0
    s_pid, s_rid, s_d2, s_nc = pid[special], rid[special], d2[special], nc[special]
    pid, rid, d2, nc = pid[~special], rid[~special], d2[~special], nc[~special]
    order = np.lexsort((rid, d2, pid))
    pid, rid, d2, nc = (a[order] for a in (pid, rid, d2, nc))
    if pid.shape[0]:
        uniq, starts = np.unique(pid, return_index=True)
        run_len = np.diff(np.append(starts, pid.shape[0]))
        within = np.arange(pid.shape[0]) - np.repeat(starts, run_len)
        keep = within < k
        totals = np.add.reduceat(nc, starts)
        nc_kept = np.repeat(totals, np.minimum(run_len, k))
    else:
        keep = np.zeros(0, dtype=bool)
        nc_kept = np.zeros(0, dtype=np.int64)
    pid = np.concatenate([pid[keep], s_pid])
    rid = np.concatenate([rid[keep], s_rid])
    d2 = np.concatenate([d2[keep], s_d2])
    nc_kept = np.concatenate([nc_kept, s_nc])
    return pa.table(
        {
            "pid": pa.array(pid, pa.int64()),
            "rid": pa.array(rid, pa.int64()),
            "d2": pa.array(d2, pa.float64()),
            "nc": pa.array(nc_kept, pa.int64()),
        }
    )


# Row budget of one ring co-shuffle wave (see ``_ring_knn``): a single
# 239M-row exchange stalls the streaming executor; 120M-row waves run clean.
_KNN_MSG_BUDGET = 100_000_000


class _PlanarMetric:
    """Planar (lon, lat)-degree metric of ``_ring_knn``: squared
    distance, and the Chebyshev ring bound of ``PointIndex.knn`` — a ref
    outside ring r is farther than r·res, so a probe whose kth d² ≤
    (r·res)² is exact (the planar metric does not wrap, so the narrow
    wrap column only adds far-away candidates). No polar stall."""

    stalls = False

    def __init__(self, res: float):
        self.res = res

    def score(self, plon, plat, rlon, rlat) -> np.ndarray:
        return (plon[:, None] - rlon[None, :]) ** 2 + (
            plat[:, None] - rlat[None, :]
        ) ** 2

    def stop(self, kth, r, lat):
        return kth <= (r * self.res) ** 2, np.zeros(kth.shape[0], bool)

    def grow(self, r, kth):
        need = np.maximum(r * 2, r + 1)
        known = np.isfinite(kth)
        # once kth is known, jump straight to the proven-sufficient ring
        need[known] = np.maximum(
            r[known] + 1, np.ceil(np.sqrt(kth[known]) / self.res)
        ).astype(np.int64)
        return need


class _GeodesicMetric:
    """Great-circle metric of ``_ring_knn``: haversine QUANTIZED to
    integer milli-km (``floor(km·1000 + 0.5)``, the broadcast twins'
    decision metric) and the POLE-SAFE stopping bound of
    ``PointIndex.knn_geodesic`` (georay/index.py:699): a ref outside
    Chebyshev ring r is > r·res° away in latitude (distance ≥
    r·res·KM_PER_DEG, meridian arc ≤ haversine) OR > r·res − slack° in
    longitude within the probe's latitude band (distance ≥
    2R·asin(√(cosφ₁·cosφ_max)·sin(Δλ/2))). The strict quantized
    comparison kth_mkm < bound_mkm makes the stop bit-identical to the
    brute scan. A probe whose φ_max pins at 90° has a dead longitude
    bound — it STALLS and ``_ring_knn`` finishes it by latitude band.

    ``kernels.haversine_km`` is looked up at call time so a wrapper
    installed on the module attribute sees every call."""

    stalls = True

    def __init__(self, res: float, nx: int):
        self.res = res
        self.half_row = int(np.ceil(nx / 2)) + 1
        self.slack = max(nx * res - 360.0, 0.0)

    def score(self, plon, plat, rlon, rlat) -> np.ndarray:
        from georay import kernels

        km = kernels.haversine_km(
            plon[:, None], plat[:, None], rlon[None, :], rlat[None, :]
        )
        return np.floor(km * 1000.0 + 0.5)

    def stop(self, kth, r, lat):
        from georay.kernels import EARTH_RADIUS_KM, KM_PER_DEG

        res = self.res
        phi1 = np.abs(lat)
        lat_bound = r * res * KM_PER_DEG
        phi_max = np.minimum(phi1 + (r + 1) * res, 90.0)
        lon_sep = np.maximum(r * res - self.slack, 0.0)
        arg = np.sqrt(
            np.maximum(
                np.cos(np.radians(phi1)) * np.cos(np.radians(phi_max)), 0.0
            )
        ) * np.sin(np.radians(np.minimum(lon_sep, 180.0)) / 2.0)
        lon_bound = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(arg, 1.0))
        d_min = np.where(
            r < self.half_row, np.minimum(lat_bound, lon_bound), lat_bound
        )
        polar = (phi_max >= 90.0) & (r >= 1) & (r < self.half_row)
        return kth < np.floor(d_min * 1000.0 + 0.5), polar

    def grow(self, r, kth):
        from georay.kernels import KM_PER_DEG

        # double; once kth is known, jump at least to the
        # latitude-sufficient radius (lat_bound > kth)
        need = np.maximum(r * 2, r + 1)
        known = np.isfinite(kth)
        r_lat = np.ceil(
            ((kth[known] + 1) / 1000.0) / KM_PER_DEG / self.res
        ).astype(np.int64) + 1
        need[known] = np.maximum(need[known], r_lat)
        return need


def _probe_msgs(key: str, keys, pid, lon, lat) -> pa.Table:
    """Probe-side message rows of a ring co-shuffle (side 0, rid −1)."""
    n = keys.shape[0]
    return pa.table(
        {
            key: pa.array(keys, pa.int64()),
            "side": pa.array(np.zeros(n, np.int8)),
            "pid": pa.array(pid, pa.int64()),
            "rid": pa.array(np.full(n, -1, np.int64)),
            "lon": pa.array(lon, pa.float64()),
            "lat": pa.array(lat, pa.float64()),
        }
    )


def _id_points(ds: ray.data.Dataset, id_col: str, id_out: str, lonlat):
    """(id_out, lon, lat) projection; ``lonlat(batch)`` → float64 arrays."""

    def proj(batch: pa.Table) -> pa.Table:
        lon, lat = lonlat(batch)
        return pa.table(
            {
                id_out: batch[id_col].cast(pa.int64()),
                "lon": pa.array(lon, pa.float64()),
                "lat": pa.array(lat, pa.float64()),
            }
        )

    return ds.map_batches(
        proj, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def _xy_cols(x_col: str, y_col: str):
    def lonlat(batch: pa.Table):
        return (
            batch[x_col].to_numpy(zero_copy_only=False).astype(np.float64),
            batch[y_col].to_numpy(zero_copy_only=False).astype(np.float64),
        )

    return lonlat


def _flagged(ds: ray.data.Dataset, flag: int, cols: list[str]):
    return ds.map_batches(
        lambda b: b.filter(pc.equal(b["flag"], flag)).select(cols),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )


def _union_all(dss: list[ray.data.Dataset]) -> ray.data.Dataset:
    return dss[0].union(*dss[1:]) if len(dss) > 1 else dss[0]


def _ring_knn(
    probes: ray.data.Dataset,
    refs: ray.data.Dataset,
    k: int,
    res: float,
    metric,
    max_rounds: int,
    n_pid_buckets: int,
    msg_budget: int,
    emit,
) -> ray.data.Dataset:
    """Driver-free partitioned kNN by cell-ring expansion — the one
    engine behind ``knn_join_partitioned`` (planar) and
    ``knn_geodesic_partitioned``. ``probes`` is (pid, lon, lat), ``refs``
    is (rid, lon, lat); rows with non-finite coordinates are dropped.
    ``metric`` (``_PlanarMetric`` / ``_GeodesicMetric``) supplies the
    bucket scorer, the stopping bound + ring growth, and whether probes
    can stall at a pole. ``emit`` maps the (pid, rid, rank, d) result
    table to the wrapper's output columns.

    Per round: unresolved probes expand their ring-r grid disk into
    per-cell message rows, ONE ``groupby(cell)`` co-locates them with
    the refs, each bucket scores its probes × refs and keeps a local
    top-k in the (d, rid) total order (refs rid-sorted + STABLE argsort:
    argpartition would drop an arbitrary member of a tie class
    straddling the kth boundary), a combine tree (``_topk_reduce``)
    shrinks candidates, and a ``groupby(hash(pid))`` merge applies the
    metric's stopping bound, assigns ranks, and re-emits unresolved
    probes with a grown ring. Probe state (pid, lon, lat, ring) is a
    DATASET whose rows ride the exchanges as in-band sentinel rows, so
    a probe with an empty disk still reaches the merge; the driver
    holds only per-round counts. Rounds start at ring 1 (the ring-0
    bound is 0 for both metrics, so a ring-0 round is a wasted global
    exchange — measured 95.4 s → 78.9 s at 10M geodesic probes) and
    stop after ``max_rounds`` + 1; the last one keeps whatever each
    probe holds (best effort) and drops probes that hold nothing. At
    ``full_cover`` a disk spans the grid, so whatever it holds is exact.

    BOUNDED EXCHANGE: a round's message volume is Σ_probes (2r+1)² rows,
    30–50 cells per probe after a kth-informed jump, and a single
    239M-row exchange stalls the streaming executor (measured 10M
    probes/32 cpus; 120M-row waves run clean, 92.8 s vs 128.1 s at 50M
    waves). Each round therefore splits the unresolved set into hash(pid)
    WAVES sized so one wave's expansion stays under ``msg_budget`` rows.
    The per-ring histogram that picks the wave count is skipped when
    even a full-cover disk per probe fits the budget. A state spread over
    more than ~250k-row blocks is then COMPACTED (the wave unions and
    per-group filters leave hundreds of near-empty blocks, and a
    fragmented input multiplies the next sort's shuffle metadata on the
    driver — a measured 3 GiB spike at 5M probes).

    POLAR STALL (``metric.stalls``): a stalled probe holding ≥k
    candidates is finished exactly by its latitude band — every ref at
    distance ≤ kth lies within |Δφ| ≤ (kth+1)/1000/KM_PER_DEG — via one
    extra ``groupby(row)`` co-shuffle and pid-bucket merge (its current
    top-k is inside the band, so the band re-scan is a superset).

    Partitioning assumption (custom-operator rule): per-round candidate
    volume ≤ k·|unresolved-in-wave|·cells-per-disk rows sharded over
    ``n_pid_buckets`` merge groups; the stall finish assumes one
    latitude row of refs fits a task (chunked scoring bounds the
    matrix). Ref ids must be ≥ 0: negative ids are the state sentinels.
    """
    import os
    import time

    import ray.data as rd

    from georay import cells as c

    nx = int(np.ceil(360.0 / res))
    ny = int(np.ceil(180.0 / res))
    full_cover = max(int(np.ceil(nx / 2)) + 1, ny) + 1
    nb = np.uint64(n_pid_buckets)

    def key_refs(batch: pa.Table) -> pa.Table:
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        okm = np.isfinite(lon) & np.isfinite(lat)
        lon, lat = lon[okm], lat[okm]
        rid = batch["rid"].filter(pa.array(okm)).to_numpy(zero_copy_only=False)
        if rid.shape[0] and int(rid.min()) < 0:
            raise ValueError(
                "partitioned kNN: ref ids must be >= 0 (negative ids are "
                "the in-band probe-state sentinels)"
            )
        n = lon.shape[0]
        return pa.table(
            {
                "cell": pa.array(c.grid_cell_wrapped(lon, lat, res), pa.int64()),
                "side": pa.array(np.ones(n, np.int8)),
                "pid": pa.array(np.full(n, -1, np.int64)),
                "rid": pa.array(rid, pa.int64()),
                "lon": pa.array(lon, pa.float64()),
                "lat": pa.array(lat, pa.float64()),
            }
        )

    refs_keyed = refs.map_batches(
        key_refs, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).materialize()

    def probe_state(batch: pa.Table) -> pa.Table:
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        okm = np.isfinite(lon) & np.isfinite(lat)
        return pa.table(
            {
                "pid": batch["pid"].filter(pa.array(okm)),
                "lon": pa.array(lon[okm], pa.float64()),
                "lat": pa.array(lat[okm], pa.float64()),
                "r": pa.array(np.ones(int(okm.sum()), np.int64)),
            }
        )

    un = probes.map_batches(
        probe_state, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    ).materialize()
    n_un = un.count()

    def expand(batch: pa.Table) -> pa.Table:
        """Probe state → its ring-r disk message rows, vectorized per
        distinct ring value within the batch."""
        pid = batch["pid"].to_numpy(zero_copy_only=False)
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        rr = batch["r"].to_numpy(zero_copy_only=False)
        cells_ = c.grid_cell(lon, lat, res)
        keys, owner = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        for rv in np.unique(rr):
            m = np.flatnonzero(rr == rv)
            disk = c.grid_disk(cells_[m], int(rv), nx)
            keys.append(disk.reshape(-1))
            owner.append(np.repeat(m, disk.shape[1]))
        o = np.concatenate(owner)
        return _probe_msgs("cell", np.concatenate(keys), pid[o], lon[o], lat[o])

    def sentinel(batch: pa.Table) -> pa.Table:
        """TWO probe-state rows per live probe in the slim 4-column
        candidate schema (a probe with zero candidates still reaches the
        pid-bucket merge and grows its ring there):
        rid=-1 → presence + ring (nc = -(r+1), never a candidate count);
        rid=-2 → coords (d2 = lon, nc = lat bit-cast to int64)."""
        n = len(batch)
        r = batch["r"].to_numpy(zero_copy_only=False).astype(np.int64)
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        pid = batch["pid"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "pid": pa.array(np.concatenate([pid, pid]), pa.int64()),
                "rid": pa.array(
                    np.concatenate(
                        [np.full(n, -1, np.int64), np.full(n, -2, np.int64)]
                    )
                ),
                "d2": pa.array(
                    np.concatenate([np.full(n, np.inf), lon]), pa.float64()
                ),
                "nc": pa.array(
                    np.concatenate(
                        [-(r + 1), np.ascontiguousarray(lat).view(np.int64)]
                    ),
                    pa.int64(),
                ),
            }
        )

    def score(group: pa.Table) -> pa.Table:
        """Local top-k of one cell (or latitude row) bucket, chunked
        over probes to bound the scoring matrix."""
        side = group["side"].to_numpy(zero_copy_only=False)
        prb = group.filter(pa.array(side == 0))
        rf = group.filter(pa.array(side == 1))
        pids = prb["pid"].to_numpy(zero_copy_only=False)
        rids = rf["rid"].to_numpy(zero_copy_only=False)
        nref = rids.shape[0]
        if nref == 0:
            pids = pids[:0]
        plon = prb["lon"].to_numpy(zero_copy_only=False)
        plat = prb["lat"].to_numpy(zero_copy_only=False)
        # rid-sorted refs + STABLE argsort keep the (d, rid) total order
        ro = np.argsort(rids)
        rlon = rf["lon"].to_numpy(zero_copy_only=False)[ro]
        rlat = rf["lat"].to_numpy(zero_copy_only=False)[ro]
        rids = rids[ro]
        take = min(k, nref)
        chunk = max(1, (1 << 22) // max(nref, 1))
        P, R, D = [pids[:0]], [rids[:0]], [np.empty(0)]
        for p0 in range(0, pids.shape[0], chunk):
            d = metric.score(plon[p0:p0 + chunk], plat[p0:p0 + chunk], rlon, rlat)
            top = np.argsort(d, axis=1, kind="stable")[:, :take]
            rows = np.repeat(np.arange(d.shape[0]), take)
            cols = top.reshape(-1)
            P.append(pids[p0 + rows])
            R.append(rids[cols])
            D.append(d[rows, cols])
        n = sum(p.shape[0] for p in P)
        return pa.table(
            {
                "pid": pa.array(np.concatenate(P), pa.int64()),
                "rid": pa.array(np.concatenate(R), pa.int64()),
                "d2": pa.array(np.concatenate(D), pa.float64()),
                "nc": pa.array(np.full(n, nref, np.int64)),
            }
        )

    def add_pb(batch: pa.Table) -> pa.Table:
        pid = batch["pid"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = ops._mix64(pid.view(np.uint64).copy())
        return batch.append_column("_pb", pa.array((h % nb).astype(np.int64)))

    def merge(cand: ray.data.Dataset, finish) -> ray.data.Dataset:
        """Combine tree + pid-bucket merge of candidate/state rows."""
        return co_shuffle(
            exchange.combine(cand, lambda b: _topk_reduce(b, k)).map_batches(
                add_pb, batch_format="pyarrow", zero_copy_batch=True,
                batch_size=None,
            ),
            "_pb", finish, coalesce=False,
        )

    # merge output: flag 1 = resolved (rid/rank/d), 0 = grow ring
    # (lon/lat/r), 2 = polar stall → lat-band finish (lon/lat, r = kth)
    fin_schema = {
        "flag": pa.int8(), "pid": pa.int64(), "rid": pa.int64(),
        "rank": pa.int64(), "d": pa.float64(), "lon": pa.float64(),
        "lat": pa.float64(), "r": pa.int64(),
    }

    def fin_rows(flag, pid, rid=None, rank=None, d=None, lon=None, lat=None, r=None):
        n = pid.shape[0]
        vals = {"flag": np.full(n, flag, np.int8), "pid": pid, "rid": rid,
                "rank": rank, "d": d, "lon": lon, "lat": lat, "r": r}
        return pa.table({
            n_: pa.array(
                np.zeros(n, t_.to_pandas_dtype()) if vals[n_] is None
                else vals[n_], t_,
            )
            for n_, t_ in fin_schema.items()
        })

    def make_finish(final_round: bool):
        def finish(group: pa.Table) -> pa.Table:
            g = _topk_reduce(group.drop_columns(["_pb"]), k)
            pid = g["pid"].to_numpy(zero_copy_only=False)
            rid = g["rid"].to_numpy(zero_copy_only=False)
            d2 = g["d2"].to_numpy(zero_copy_only=False)
            nc = g["nc"].to_numpy(zero_copy_only=False)
            # real candidates (rid ≥ 0) come sorted by (pid, d, rid);
            # state rows are pid-sorted with identical pid sets
            real = rid >= 0
            rp, rd2, rrid, rnc = pid[real], d2[real], rid[real], nc[real]
            all_pid = pid[rid == -1]
            a_r = -nc[rid == -1] - 1
            a_lon = d2[rid == -2]
            a_lat = np.ascontiguousarray(nc[rid == -2]).view(np.float64)
            uq, st = np.unique(rp, return_index=True)
            rl = np.diff(np.append(st, rp.shape[0]))
            kth_of = np.full(all_pid.shape[0], np.inf)
            if final_round:  # best effort: keep whatever each probe holds
                resolved = np.ones(uq.shape[0], bool)
            else:
                kth = rd2[st + rl - 1]
                nfound = rnc[st]
                pos = np.searchsorted(all_pid, uq)
                r_of = a_r[pos]
                have_k = (nfound >= k) & (rl >= np.minimum(k, nfound))
                bound_ok, polar = metric.stop(kth, r_of, a_lat[pos])
                resolved = (have_k & bound_ok) | (r_of >= full_cover)
                stalled = polar & ~resolved & have_k
                kth_of[pos[have_k]] = kth[have_k]
            parts = []
            sel = np.repeat(resolved, rl)
            if sel.any():
                within = np.arange(rp.shape[0]) - np.repeat(st, rl)
                parts.append(fin_rows(
                    1, rp[sel], rid=rrid[sel], rank=within[sel] + 1, d=rd2[sel]
                ))
            if not final_round:
                stall_m = np.isin(all_pid, uq[stalled])
                if stall_m.any():
                    parts.append(fin_rows(
                        2, all_pid[stall_m], lon=a_lon[stall_m],
                        lat=a_lat[stall_m], r=kth_of[stall_m].astype(np.int64),
                    ))
                still = ~np.isin(all_pid, uq[resolved]) & ~stall_m
                if still.any():
                    need = metric.grow(a_r[still], kth_of[still])
                    parts.append(fin_rows(
                        0, all_pid[still], lon=a_lon[still], lat=a_lat[still],
                        r=np.minimum(need, full_cover),
                    ))
            if not parts:
                return fin_rows(0, np.empty(0, np.int64))
            return pa.concat_tables(parts)

        return finish

    def r_histogram(ds_un: ray.data.Dataset) -> dict[int, int]:
        """Per-ring unresolved counts (≤ log(full_cover) distinct rings)
        — drives the wave count; the driver never holds probe rows."""
        def partial(batch: pa.Table) -> pa.Table:
            vals, cnts = np.unique(
                batch["r"].to_numpy(zero_copy_only=False), return_counts=True
            )
            return pa.table({
                "rv": pa.array(vals.astype(np.int64), pa.int64()),
                "c": pa.array(cnts.astype(np.int64), pa.int64()),
            })

        h = ops.tree_sum(
            ds_un.map_batches(
                partial, batch_format="pyarrow", zero_copy_batch=True,
                batch_size=None,
            ),
            "rv", {"c": "c"}, int_cols=("c",),
        ).to_pandas()
        return dict(zip(h["rv"].astype(int), h["c"].astype(int)))

    def wave_of(batch: pa.Table, w: int, nw: np.uint64) -> pa.Table:
        pid = batch["pid"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = ops._mix64((pid + 1).view(np.uint64).copy())
        return batch.filter(pa.array((h % nw).astype(np.int64) == w))

    dbg = bool(os.environ.get("GEORAY_KNN_DEBUG"))
    state_cols = ["pid", "lon", "lat", "r"]
    out_cols = ["pid", "rid", "rank", "d"]
    results: list[ray.data.Dataset] = []
    stalls: list[ray.data.Dataset] = []
    rounds = 0
    while n_un and rounds <= max_rounds:
        rounds += 1
        t0 = time.time()
        est = n_un * (2 * full_cover + 1) ** 2
        if est > msg_budget:
            est = sum(n * (2 * rv + 1) ** 2 for rv, n in r_histogram(un).items())
        n_waves = max(1, int(np.ceil(est / msg_budget)))
        finish = make_finish(rounds > max_rounds)
        fins = []
        for w in range(n_waves):
            uw = un if n_waves == 1 else un.map_batches(
                lambda b, _w=w: wave_of(b, _w, np.uint64(n_waves)),
                batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
            )
            msgs = uw.map_batches(
                expand, batch_format="pyarrow", zero_copy_batch=True,
                batch_size=None,
            )
            sent = uw.map_batches(
                sentinel, batch_format="pyarrow", zero_copy_batch=True,
                batch_size=None,
            )
            cand = co_shuffle([msgs, refs_keyed], "cell", score, coalesce=False)
            fins.append(merge(cand.union(sent), finish).materialize())
        fin = _union_all(fins)
        results.append(_flagged(fin, 1, out_cols))
        n_stall = 0
        if metric.stalls:
            stall = _flagged(fin, 2, state_cols).materialize()
            n_stall = stall.count()
            if n_stall:
                stalls.append(stall)
        un = _flagged(fin, 0, state_cols).materialize()
        n_un = un.count()
        # compaction only ever merges: splitting a state held in one or
        # two blocks into 8 costs ~0.4 s per round at 20k probes
        target = int(np.clip(n_un // 250_000, 8, 256))
        if un.num_blocks() > target:
            un = un.repartition(target).materialize()
        if dbg:
            import resource

            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1 << 20)
            print(
                f"[knn_ring] round {rounds}: {time.time() - t0:.1f}s, "
                f"waves={n_waves} (est {est} msgs), stalled={n_stall}, "
                f"unresolved={n_un}, driver_rss={rss:.2f}GiB", flush=True,
            )

    if stalls:
        def expand_rows(batch: pa.Table) -> pa.Table:
            """Stalled probe → one message per latitude row of its band."""
            from georay.kernels import KM_PER_DEG

            pid = batch["pid"].to_numpy(zero_copy_only=False)
            lon = batch["lon"].to_numpy(zero_copy_only=False)
            lat = batch["lat"].to_numpy(zero_copy_only=False)
            kth = batch["r"].to_numpy(zero_copy_only=False)
            dlat = ((kth + 1) / 1000.0) / KM_PER_DEG + 1e-12
            lo = np.clip(np.floor((lat - dlat + 90.0) / res), 0, ny - 1)
            hi = np.clip(np.floor((lat + dlat + 90.0) / res), 0, ny - 1)
            cnt = (hi - lo + 1).astype(np.int64)
            tot = int(cnt.sum())
            off = np.cumsum(cnt) - cnt
            rows = (
                np.repeat(lo.astype(np.int64), cnt) + np.arange(tot)
                - np.repeat(off, cnt)
            )
            return _probe_msgs(
                "row", rows, np.repeat(pid, cnt), np.repeat(lon, cnt),
                np.repeat(lat, cnt),
            )

        refs_rows = refs_keyed.map_batches(
            lambda b: b.set_column(
                0, "row",
                pa.array(b["cell"].to_numpy(zero_copy_only=False) % c.GRID_MULT),
            ),
            batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
        )
        band_msgs = _union_all(stalls).map_batches(
            expand_rows, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        )
        band = co_shuffle([band_msgs, refs_rows], "row", score, coalesce=False)
        results.append(_flagged(merge(band, make_finish(True)), 1, out_cols))

    if not results:
        return rd.from_arrow(emit(fin_rows(0, np.empty(0, np.int64)).select(out_cols)))
    return _union_all(results).map_batches(
        emit, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def knn_join_partitioned(
    probes: ray.data.Dataset,
    refs: ray.data.Dataset,
    k: int = 3,
    geom_col: str = "geotag",
    probe_id_col: str = "p_partkey",
    ref_geom_col: str = "geotag",
    ref_id_col: str = "s_suppkey",
    res: float | None = None,
    max_ring: int = 16,
    n_pid_buckets: int = 64,
) -> ray.data.Dataset:
    """BOTH-SIDES-LARGE planar kNN join: no broadcast index, NO DRIVER
    STATE. Both sides key by the same grid cell and ``_ring_knn`` runs
    the per-round ring co-shuffle with the planar metric: a probe
    resolves when it holds ≥k candidates whose kth squared distance ≤
    (r·res)² (the ring-bound guarantee of ``PointIndex.knn``), else its
    ring grows. Most probes resolve in ≤2 rounds at a sane ``res``.
    ``max_ring`` caps the number of ROUNDS (not the ring radius): the
    round after the cap keeps whatever each probe holds.

    Partitioning assumption (custom-operator rule): the unresolved-probe
    set is a DATASET; per-round candidate volume is bounded by
    k·|unresolved|·cells-per-disk rows, sharded across ``n_pid_buckets``
    merge groups, and each round's exchange splits into hash(pid) waves
    under the engine's default message budget. Ref ids must be ≥ 0.

    Returns a Dataset of (probe_id_col, ref_id_col, knn_rank) —
    identical rows to the broadcast ``knn_join`` plan.
    """
    if res is None:
        n = max(refs.count(), 1)
        res = float(np.clip(np.sqrt(360.0 * 180.0 / n) * 2.0, 0.25, 30.0))

    def emit(b: pa.Table) -> pa.Table:
        return pa.table(
            {probe_id_col: b["pid"], ref_id_col: b["rid"], "knn_rank": b["rank"]}
        )

    return _ring_knn(
        _id_points(probes, probe_id_col, "pid",
                   lambda b: ops.point_lonlat(b, geom_col)),
        _id_points(refs, ref_id_col, "rid",
                   lambda b: ops.point_lonlat(b, ref_geom_col)),
        k, res, _PlanarMetric(res), max_ring, n_pid_buckets,
        _KNN_MSG_BUDGET, emit,
    )


def _radius_cover_count(
    probes: ray.data.Dataset,
    refs: ray.data.Dataset,
    cover,
    count,
    res: float,
    probe_id_col: str,
    ref_lon_col: str,
    ref_lat_col: str,
    count_alias: str,
) -> ray.data.Dataset:
    """Cover co-shuffle shared by the partitioned radius twins. Refs key
    by their single (wrapped) grid cell; ``cover(batch)`` →
    (cells, probe_row, lon, lat) replicates each probe to every cell its
    radius can reach, so every true (probe, ref) pair meets in EXACTLY one
    bucket — the ref's cell. ONE ``groupby(cell)`` co-shuffle, then
    ``count(plon, plat, rlon, rlat)`` → per-probe in-bucket counts, and
    per-probe partials merge through the combine tree. Probes with zero
    refs in range emit no row (SQL GROUP BY COUNT semantics)."""
    from georay import cells as c

    def key_probes(batch: pa.Table) -> pa.Table:
        keys, pidx, lon, lat = cover(batch)
        pid = batch[probe_id_col]
        if isinstance(pid, pa.ChunkedArray):
            pid = pid.combine_chunks()
        n = keys.shape[0]
        return pa.table(
            {
                "cell": pa.array(keys, pa.int64()),
                "side": pa.array(np.zeros(n, np.int8)),
                "pid": pid.take(pa.array(pidx, pa.int64())).cast(pa.int64()),
                "lon": pa.array(lon[pidx], pa.float64()),
                "lat": pa.array(lat[pidx], pa.float64()),
            }
        )

    def key_refs(batch: pa.Table) -> pa.Table:
        lon, lat = _xy_cols(ref_lon_col, ref_lat_col)(batch)
        okm = np.isfinite(lon) & np.isfinite(lat)
        lon, lat = lon[okm], lat[okm]
        n = lon.shape[0]
        return pa.table(
            {
                "cell": pa.array(c.grid_cell_wrapped(lon, lat, res), pa.int64()),
                "side": pa.array(np.ones(n, np.int8)),
                "pid": pa.array(np.full(n, -1, np.int64)),
                "lon": pa.array(lon),
                "lat": pa.array(lat),
            }
        )

    def count_bucket(group: pa.Table) -> pa.Table:
        side = group["side"].to_numpy(zero_copy_only=False)
        p = group.filter(pa.array(side == 0))
        r = group.filter(pa.array(side == 1))
        if len(p) == 0 or len(r) == 0:
            cnt, pid = np.zeros(0, np.int64), np.zeros(0, np.int64)
        else:
            cnt = count(
                p["lon"].to_numpy(zero_copy_only=False),
                p["lat"].to_numpy(zero_copy_only=False),
                r["lon"].to_numpy(zero_copy_only=False),
                r["lat"].to_numpy(zero_copy_only=False),
            )
            pid = p["pid"].to_numpy(zero_copy_only=False)
        nz = np.flatnonzero(cnt)
        return pa.table(
            {
                "pid": pa.array(pid[nz], pa.int64()),
                "partial_n": pa.array(cnt[nz], pa.int64()),
            }
        )

    sides = [
        d.map_batches(key, batch_format="pyarrow", zero_copy_batch=True,
                      batch_size=None)
        for d, key in ((probes, key_probes), (refs, key_refs))
    ]
    partials = co_shuffle(sides, "cell", count_bucket, coalesce=True)
    out = ops.tree_sum(
        partials, ["pid"], {"partial_n": count_alias}, int_cols=("partial_n",)
    )
    return out.map_batches(
        lambda b: b.rename_columns([probe_id_col, count_alias]),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )


def radius_join_count_partitioned(
    probes: ray.data.Dataset,
    refs: ray.data.Dataset,
    radius: float,
    geom_col: str = "geotag",
    probe_id_col: str = "p_partkey",
    ref_lon_col: str = "lon",
    ref_lat_col: str = "lat",
    res: float | None = None,
    count_alias: str = "n",
) -> ray.data.Dataset:
    """BOTH-SIDES-LARGE within-distance join, counted per probe — the
    scale twin of ``radius_join_count``, completing the broadcast/
    partitioned matrix (PIP, kNN, as-of, equality, range, radius). No
    broadcast: probes replicate to the exact grid cover of their
    ``±radius`` box (``_cover_bboxes_grid``) and meet the refs in
    ``_radius_cover_count``'s one cell co-shuffle; each bucket builds a
    local ``PointIndex`` over its refs and probes its probes with the same
    exact kernel the broadcast plan uses. Planar metric (degrees);
    bit-identical counts to the broadcast plan.

    Pick ``res`` (default ≈ radius) so one cell's refs fit a worker;
    probe replication is the disk cover (~9 cells at res = radius)."""
    res = _radius_res(radius, "planar", res)
    from georay.index import _cover_bboxes_grid

    def cover(batch: pa.Table):
        lon, lat = ops.point_lonlat(batch, geom_col)
        ok = np.isfinite(lon) & np.isfinite(lat)
        bbox = np.column_stack([lon - radius, lat - radius,
                                lon + radius, lat + radius])
        keys, pidx = _cover_bboxes_grid(bbox, ok, res)
        return keys, pidx, lon, lat

    def count(plon, plat, rlon, rlat):
        # within() candidates come from the ref grid; refs here are only
        # this bucket's cell, so candidates are exact for its probes
        idx = PointIndex.build(
            rlon, rlat, np.arange(rlon.shape[0], dtype=np.int64), res
        )
        P, _, _ = idx.within(plon, plat, radius)
        return np.bincount(P, minlength=plon.shape[0])

    return _radius_cover_count(
        probes, refs, cover, count, res, probe_id_col, ref_lon_col,
        ref_lat_col, count_alias,
    )


def radius_geodesic_count_partitioned(
    probes: ray.data.Dataset,
    refs: ray.data.Dataset,
    radius_km: float,
    probe_id_col: str = "pid",
    x_col: str = "lon",
    y_col: str = "lat",
    ref_x_col: str = "lon",
    ref_y_col: str = "lat",
    res: float | None = None,
    count_alias: str = "n",
) -> ray.data.Dataset:
    """BOTH-SIDES-LARGE GEODESIC within-distance join, counted per
    probe — the radius sibling of the partitioned geodesic kNN/nearest
    twins. No broadcast: each probe replicates to its POLE-SAFE cover —
    the latitude band ``|Δφ| ≤ radius/KM_PER_DEG`` crossed with the
    longitude span evaluated at the poleward-most latitude its circle
    reaches (``radius/(KM_PER_DEG·cos φ_max)``, full row when the circle
    nears a pole; lon wraps mod nx) — the same per-probe bound
    ``PointIndex.within_geodesic`` uses batch-wide, but exact per probe.
    ``_radius_cover_count`` runs the one cell co-shuffle; each bucket
    applies the exact haversine filter. Bit-identical counts to the
    broadcast plan.

    Partitioning note: near-polar probes replicate to a full latitude
    row of cells (the broadcast plan pays the same conservative disk)."""
    from georay import cells as c
    from georay import kernels
    from georay.kernels import KM_PER_DEG

    if res is None:
        n = max(refs.count(), 1)
        res = float(np.clip(np.sqrt(360.0 * 180.0 / n) * 2.0, 0.25, 30.0))
        res = 360.0 / max(int(round(360.0 / res)), 1)  # seam-free grid
    nx = int(np.ceil(360.0 / res))
    ny = int(np.ceil(180.0 / res))
    deg_lat = radius_km / KM_PER_DEG
    probe_xy = _xy_cols(x_col, y_col)

    def cover(batch: pa.Table):
        lon_all, lat_all = probe_xy(batch)
        idx = np.flatnonzero(np.isfinite(lon_all) & np.isfinite(lat_all))
        lon, lat = lon_all[idx], lat_all[idx]
        phi = np.minimum(np.abs(lat) + deg_lat, 89.999)
        deg_lon = radius_km / (
            KM_PER_DEG * np.maximum(np.cos(np.radians(phi)), 1e-6)
        )
        row_lo = np.clip(
            np.floor((lat - deg_lat + 90.0) / res), 0, ny - 1
        ).astype(np.int64)
        row_hi = np.clip(
            np.floor((lat + deg_lat + 90.0) / res), 0, ny - 1
        ).astype(np.int64)
        col0 = np.floor((lon + 180.0) / res).astype(np.int64)
        # +1 column of slack covers the narrow wrap column (res ∤ 360)
        half_w = np.minimum(np.ceil(deg_lon / res).astype(np.int64) + 1, nx)
        ncol = np.minimum(2 * half_w + 1, nx)
        cnt = (row_hi - row_lo + 1) * ncol
        tot = int(cnt.sum())
        off = np.cumsum(cnt) - cnt
        within = np.arange(tot) - np.repeat(off, cnt)
        ncol_r = np.repeat(ncol, cnt)
        rows = np.repeat(row_lo, cnt) + within // ncol_r
        cols = (np.repeat(col0 - half_w, cnt) + within % ncol_r) % nx
        return cols * c.GRID_MULT + rows, np.repeat(idx, cnt), lon_all, lat_all

    def count(plon, plat, rlon, rlat):
        chunk = max(1, (1 << 22) // rlon.shape[0])
        return np.concatenate([
            (kernels.haversine_km(
                plon[p0:p0 + chunk, None], plat[p0:p0 + chunk, None],
                rlon[None, :], rlat[None, :],
            ) <= radius_km).sum(axis=1)
            for p0 in range(0, plon.shape[0], chunk)
        ])

    return _radius_cover_count(
        probes, refs, cover, count, res, probe_id_col, ref_x_col,
        ref_y_col, count_alias,
    )


def _blocked_nearest(
    px, py, sid, ax, ay, dxs, dys, len2, point_chunk: int, seg_chunk: int
):
    """Blocked running-min point→segment argmin (shared by the
    broadcast and partitioned snap joins). Segments MUST be sorted by
    seg_id ascending: chunks walk in order and update on STRICT
    improvement, so ties resolve to the lowest seg_id — the SQL
    ``ORDER BY d2, seg_id`` contract."""
    n = px.shape[0]
    best_seg = np.empty(n, np.int64)
    best_d2 = np.empty(n, np.float64)
    for p0 in range(0, n, point_chunk):
        p1 = min(p0 + point_chunk, n)
        qx = px[p0:p1, None]
        qy = py[p0:p1, None]
        bd = np.full(p1 - p0, np.inf)
        bs = np.zeros(p1 - p0, np.int64)
        for s0 in range(0, sid.shape[0], seg_chunk):
            s1 = min(s0 + seg_chunk, sid.shape[0])
            tr = (
                (qx - ax[s0:s1]) * dxs[s0:s1]
                + (qy - ay[s0:s1]) * dys[s0:s1]
            ) / len2[s0:s1]
            t = np.minimum(1.0, np.maximum(0.0, tr))
            ex = qx - (ax[s0:s1] + t * dxs[s0:s1])
            ey = qy - (ay[s0:s1] + t * dys[s0:s1])
            d2 = ex * ex + ey * ey
            j = np.argmin(d2, axis=1)
            dmin = d2[np.arange(p1 - p0), j]
            upd = dmin < bd
            bd[upd] = dmin[upd]
            bs[upd] = sid[s0:s1][j[upd]]
        best_d2[p0:p1] = bd
        best_seg[p0:p1] = bs
    return best_seg, best_d2


def nearest_segment_join(
    points: ray.data.Dataset,
    segments: pa.Table,
    x_col: str = "lon",
    y_col: str = "lat",
    seg_cols: tuple[str, str, str, str, str] = (
        "seg_id", "ax", "ay", "bx", "by"
    ),
    out_seg: str = "seg_id",
    out_d2: str = "d2_q",
    scale_bits: int = 20,
    point_chunk: int = 8192,
    seg_chunk: int = 512,
) -> ray.data.Dataset:
    """Snap every probe point to its NEAREST polyline segment (map-
    matching / road-snapping primitive): for each point, the segment
    minimizing the clamped point-to-segment squared distance, ties
    broken by ascending seg_id. Output = point columns + ``seg_id`` +
    ``floor(d2 · 2^scale_bits + 0.5)``.

    Execution shape 1 (broadcast): the segment table ships once via
    ``exchange.broadcast`` and is probed per batch with a blocked running-min —
    point slices × segment chunks, each inner block a pure numpy
    broadcast (≤ point_chunk·seg_chunk doubles live at once), so memory
    stays bounded regardless of block size. Chunks walk seg_id
    ascending and update on STRICT improvement, which reproduces the
    SQL ``ORDER BY d2, seg_id`` tie-break exactly; every arithmetic
    step (dot, divide, clamp, square) is an IEEE correctly-rounded
    double op an ANSI-SQL twin replicates term-for-term. For a
    segment corpus too big to broadcast, bucket segments by covering
    cell and co-shuffle (the ``radius_join_partitioned`` plan) —
    this entry is the exact baseline the bucketed variant verifies
    against."""
    sid_c, ax_c, ay_c, bx_c, by_c = seg_cols
    seg = segments.combine_chunks()
    order = pc.sort_indices(seg[sid_c])
    seg = seg.take(order)
    sid = seg[sid_c].to_numpy(zero_copy_only=False).astype(np.int64)
    ax = seg[ax_c].to_numpy(zero_copy_only=False).astype(np.float64)
    ay = seg[ay_c].to_numpy(zero_copy_only=False).astype(np.float64)
    bx = seg[bx_c].to_numpy(zero_copy_only=False).astype(np.float64)
    by = seg[by_c].to_numpy(zero_copy_only=False).astype(np.float64)
    dxs = bx - ax
    dys = by - ay
    len2 = dxs * dxs + dys * dys
    if np.any(len2 == 0.0):
        raise ValueError("nearest_segment_join: zero-length segment")
    ref = exchange.broadcast((sid, ax, ay, dxs, dys, len2))
    scale = float(1 << scale_bits)

    def probe(batch: pa.Table) -> pa.Table:
        sid, ax, ay, dxs, dys, len2 = ref.get()
        px = batch[x_col].to_numpy(zero_copy_only=False).astype(np.float64)
        py = batch[y_col].to_numpy(zero_copy_only=False).astype(np.float64)
        best_seg, best_d2 = _blocked_nearest(
            px, py, sid, ax, ay, dxs, dys, len2, point_chunk, seg_chunk
        )
        d2q = np.floor(best_d2 * scale + 0.5).astype(np.int64)
        return batch.append_column(out_seg, pa.array(best_seg)).append_column(
            out_d2, pa.array(d2q)
        )

    return points.map_batches(
        probe, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def nearest_segment_join_partitioned(
    points: ray.data.Dataset,
    segments: ray.data.Dataset,
    max_radius: float,
    point_id_col: str = "pid",
    x_col: str = "lon",
    y_col: str = "lat",
    seg_cols: tuple[str, str, str, str, str] = (
        "seg_id", "ax", "ay", "bx", "by"
    ),
    res: float | None = None,
    out_seg: str = "seg_id",
    out_d2: str = "d2_q",
    scale_bits: int = 20,
    point_chunk: int = 8192,
    seg_chunk: int = 512,
) -> ray.data.Dataset:
    """BOTH-SIDES-LARGE nearest-segment snap join, bounded by
    ``max_radius`` — the scale twin of ``nearest_segment_join``
    (completing the broadcast/partitioned matrix alongside PIP, kNN,
    equality, as-of, interval and radius). Points whose nearest
    segment lies farther than ``max_radius`` are DROPPED (a bounded
    search radius is what makes the problem partitionable without
    ring iteration).

    No broadcast: points replicate to the exact grid cover of their
    ``±max_radius`` box, segments key by the grid cover of their own
    bbox, so every (point, segment-within-radius) pair meets in ≥1
    bucket (the segment has a point inside the probe's box; that
    point's cell is in both covers). One ``groupby(cell)`` co-shuffle;
    each bucket runs the same ``_blocked_nearest`` kernel over its
    seg-id-sorted local segments, gates at ``max_radius²``, and emits
    ``(pid, seg_id, d2_bits)`` partials. Duplicate meetings are
    harmless: the global min per point is taken with ``group_top_k``
    (k=1) on ``(d2_bits, seg_id)`` — non-negative doubles viewed as
    int64 are order-isomorphic, so the lexicographic min reproduces
    the broadcast twin's ``(d2, seg_id)`` tie-break bit-exactly.

    Partitioning assumption: a segment replicates to its bbox cover —
    near-degenerate for map-spanning segments (their bbox covers
    everything); intended for locally-bounded segment corpora (road
    networks), with ``res`` (default ≈ max_radius) sized so one cell's
    segments fit a worker."""
    from georay import cells as c
    from georay.index import _cover_bboxes_grid

    if res is None:
        # replication per point is ~(1 + 2r/res)² cells: res = r gives 9
        # copies, res = 4r gives ~2 — measured 6× faster end-to-end at
        # 10M×10k (ROUND_NOTES) with bit-identical output. Larger res
        # packs more segments per bucket; override when buckets outgrow
        # a worker.
        res = 4.0 * float(max_radius)
    r2 = float(max_radius) * float(max_radius)
    sid_c, ax_c, ay_c, bx_c, by_c = seg_cols
    scale = float(1 << scale_bits)

    def key_points(batch: pa.Table) -> pa.Table:
        px = batch[x_col].to_numpy(zero_copy_only=False).astype(np.float64)
        py = batch[y_col].to_numpy(zero_copy_only=False).astype(np.float64)
        ok = np.isfinite(px) & np.isfinite(py)
        bbox = np.column_stack(
            [px - max_radius, py - max_radius, px + max_radius, py + max_radius]
        )
        keys, idx = _cover_bboxes_grid(bbox, ok, res)
        pid = batch[point_id_col]
        if isinstance(pid, pa.ChunkedArray):
            pid = pid.combine_chunks()
        return pa.table(
            {
                "cell": pa.array(keys, pa.int64()),
                "side": pa.array(np.zeros(keys.shape[0], np.int8)),
                "id": pid.take(pa.array(idx)).cast(pa.int64()),
                "x0": pa.array(px[idx]),
                "y0": pa.array(py[idx]),
                "x1": pa.array(np.zeros(keys.shape[0])),
                "y1": pa.array(np.zeros(keys.shape[0])),
            }
        )

    def key_segs(batch: pa.Table) -> pa.Table:
        ax = batch[ax_c].to_numpy(zero_copy_only=False).astype(np.float64)
        ay = batch[ay_c].to_numpy(zero_copy_only=False).astype(np.float64)
        bx = batch[bx_c].to_numpy(zero_copy_only=False).astype(np.float64)
        by = batch[by_c].to_numpy(zero_copy_only=False).astype(np.float64)
        if np.any((ax == bx) & (ay == by)):
            raise ValueError("nearest_segment_join_partitioned: zero-length segment")
        bbox = np.column_stack(
            [np.minimum(ax, bx), np.minimum(ay, by),
             np.maximum(ax, bx), np.maximum(ay, by)]
        )
        ok = np.ones(ax.shape[0], bool)
        keys, idx = _cover_bboxes_grid(bbox, ok, res)
        sid = batch[sid_c]
        if isinstance(sid, pa.ChunkedArray):
            sid = sid.combine_chunks()
        return pa.table(
            {
                "cell": pa.array(keys, pa.int64()),
                "side": pa.array(np.ones(keys.shape[0], np.int8)),
                "id": sid.take(pa.array(idx)).cast(pa.int64()),
                "x0": pa.array(ax[idx]),
                "y0": pa.array(ay[idx]),
                "x1": pa.array(bx[idx]),
                "y1": pa.array(by[idx]),
            }
        )

    sides = [
        d.map_batches(key, batch_format="pyarrow", zero_copy_batch=True,
                      batch_size=None)
        for d, key in ((points, key_points), (segments, key_segs))
    ]

    def bucket(group: pa.Table) -> pa.Table:
        side = group["side"].to_numpy(zero_copy_only=False)
        p = group.filter(pa.array(side == 0))
        s = group.filter(pa.array(side == 1))
        empty = pa.table(
            {
                "pid": pa.array([], pa.int64()),
                out_seg: pa.array([], pa.int64()),
                "d2_bits": pa.array([], pa.int64()),
            }
        )
        if len(p) == 0 or len(s) == 0:
            return empty
        sid = s["id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(sid, kind="stable")
        sid = sid[order]
        ax = s["x0"].to_numpy(zero_copy_only=False)[order]
        ay = s["y0"].to_numpy(zero_copy_only=False)[order]
        bx = s["x1"].to_numpy(zero_copy_only=False)[order]
        by = s["y1"].to_numpy(zero_copy_only=False)[order]
        dxs = bx - ax
        dys = by - ay
        len2 = dxs * dxs + dys * dys
        px = p["x0"].to_numpy(zero_copy_only=False)
        py = p["y0"].to_numpy(zero_copy_only=False)
        best_seg, best_d2 = _blocked_nearest(
            px, py, sid, ax, ay, dxs, dys, len2, point_chunk, seg_chunk
        )
        keep = best_d2 <= r2
        return pa.table(
            {
                "pid": pa.array(
                    p["id"].to_numpy(zero_copy_only=False)[keep], pa.int64()
                ),
                out_seg: pa.array(best_seg[keep], pa.int64()),
                "d2_bits": pa.array(best_d2[keep].view(np.int64), pa.int64()),
            }
        )

    partials = co_shuffle(sides, "cell", bucket, coalesce=True)
    best = ops.group_top_k(
        partials, "pid", ["d2_bits", out_seg], 1, descending=False
    )

    def finish(batch: pa.Table) -> pa.Table:
        d2 = batch["d2_bits"].to_numpy(zero_copy_only=False).view(np.float64)
        return pa.table(
            {
                point_id_col: batch["pid"],
                out_seg: batch[out_seg],
                out_d2: pa.array(
                    np.floor(d2 * scale + 0.5).astype(np.int64), pa.int64()
                ),
            }
        )

    return best.map_batches(
        finish, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def nearest_geodesic_join(
    points: ray.data.Dataset,
    ref_lon: np.ndarray,
    ref_lat: np.ndarray,
    ref_ids: np.ndarray,
    x_col: str = "lon",
    y_col: str = "lat",
    out_id: str = "ref_id",
    out_d: str = "d_mkm",
    ref_chunk: int = 1024,
    point_chunk: int = 8192,
    brute_cutoff: int = 2048,
    res: float | None = None,
) -> ray.data.Dataset:
    """GEODESIC nearest-neighbor join: each probe point snaps to the
    reference point minimizing the great-circle (haversine) distance —
    the spherical companion of the planar kNN k=1. The decision metric
    is the distance QUANTIZED to integer milli-km
    (``floor(km·1000 + 0.5)``), ties by ascending ref id: asin/sin
    differ from an oracle engine's in the last ulp, so comparing raw
    doubles would make near-ties engine-dependent; at ~1 m resolution
    both engines see identical integers except on astronomically
    unlikely boundary straddles.

    Two plans, same output bit-for-bit: refs below ``brute_cutoff``
    use the blocked running-min over the broadcast set (O(n·m), cheap
    for dimension-table refs); larger sets broadcast a grid
    ``PointIndex`` and prune candidates with the pole-safe geodesic
    ring expansion (``PointIndex.knn_geodesic``, k=1) — per-probe work
    scales with local density instead of |refs|."""
    from georay.kernels import haversine_km

    order = np.argsort(ref_ids, kind="stable")
    rlon = np.asarray(ref_lon, np.float64)[order]
    rlat = np.asarray(ref_lat, np.float64)[order]
    rid = np.asarray(ref_ids, np.int64)[order]
    use_index = rid.shape[0] >= brute_cutoff
    if use_index:
        if res is None:
            n = max(rid.shape[0], 1)
            res = float(
                np.clip(np.sqrt(360.0 * 180.0 / n) * 2.0, 0.25, 30.0)
            )
            # snap so nx·res == 360: kills the seam slack that guts the
            # small-ring longitude bound (see knn_geodesic_partitioned)
            res = 360.0 / max(int(round(360.0 / res)), 1)
        ref = exchange.broadcast(PointIndex.build(rlon, rlat, rid, res))
    else:
        ref = exchange.broadcast((rlon, rlat, rid))

    def probe_index(batch: pa.Table) -> pa.Table:
        idx: PointIndex = ref.get()
        px = batch[x_col].to_numpy(zero_copy_only=False).astype(np.float64)
        py = batch[y_col].to_numpy(zero_copy_only=False).astype(np.float64)
        n = px.shape[0]
        best_id = np.zeros(n, np.int64)
        best_d = np.full(n, np.iinfo(np.int64).max, np.int64)
        P, R, mkm = idx.knn_geodesic(px, py, 1)
        best_id[P] = idx.ref_ids[R]
        best_d[P] = mkm
        return batch.append_column(out_id, pa.array(best_id)).append_column(
            out_d, pa.array(best_d)
        )

    def probe(batch: pa.Table) -> pa.Table:
        rlon, rlat, rid = ref.get()
        px = batch[x_col].to_numpy(zero_copy_only=False).astype(np.float64)
        py = batch[y_col].to_numpy(zero_copy_only=False).astype(np.float64)
        n = px.shape[0]
        best_id = np.empty(n, np.int64)
        best_d = np.empty(n, np.int64)
        for p0 in range(0, n, point_chunk):
            p1 = min(p0 + point_chunk, n)
            bd = np.full(p1 - p0, np.iinfo(np.int64).max, np.int64)
            bi = np.zeros(p1 - p0, np.int64)
            for s0 in range(0, rid.shape[0], ref_chunk):
                s1 = min(s0 + ref_chunk, rid.shape[0])
                km = haversine_km(
                    px[p0:p1, None], py[p0:p1, None],
                    rlon[None, s0:s1], rlat[None, s0:s1],
                )
                mkm = np.floor(km * 1000.0 + 0.5).astype(np.int64)
                j = np.argmin(mkm, axis=1)
                dmin = mkm[np.arange(p1 - p0), j]
                upd = dmin < bd
                bd[upd] = dmin[upd]
                bi[upd] = rid[s0:s1][j[upd]]
            best_d[p0:p1] = bd
            best_id[p0:p1] = bi
        return batch.append_column(out_id, pa.array(best_id)).append_column(
            out_d, pa.array(best_d)
        )

    return points.map_batches(
        probe_index if use_index else probe,
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )


def knn_geodesic_join(
    points: ray.data.Dataset,
    ref_lon: np.ndarray,
    ref_lat: np.ndarray,
    ref_ids: np.ndarray,
    k: int,
    x_col: str = "lon",
    y_col: str = "lat",
    out_id: str = "ref_id",
    out_d: str = "d_mkm",
    out_rank: str = "rank",
    ref_chunk: int = 1024,
    point_chunk: int = 4096,
    brute_cutoff: int = 2048,
    res: float | None = None,
) -> ray.data.Dataset:
    """Geodesic k-NEAREST-neighbor join: k reference points per probe
    by great-circle distance, rank 1..k — generalizing
    ``nearest_geodesic_join``. The tie rule is a total order on
    (quantized d_mkm, ref_id) (ROUND_NOTES: argpartition drops
    arbitrary tie members; never feed it into an exact gate), so output
    is engine-stable at ~1 m resolution. Emits k rows per probe (fewer
    if the reference set is smaller).

    Same two plans as ``nearest_geodesic_join``: blocked brute top-k
    merge below ``brute_cutoff`` refs, pole-safe geodesic ring
    expansion over a broadcast grid index above it — identical rows."""
    from georay.kernels import haversine_km

    order = np.argsort(ref_ids, kind="stable")
    rlon = np.asarray(ref_lon, np.float64)[order]
    rlat = np.asarray(ref_lat, np.float64)[order]
    rid = np.asarray(ref_ids, np.int64)[order]
    if rid.size and (rid.min() < 0 or rid.max() >= 1 << 32):
        raise ValueError("knn_geodesic_join: ref ids must fit uint32 (packed order key)")
    big = np.iinfo(np.int64).max
    use_index = rid.shape[0] >= brute_cutoff
    if use_index:
        if res is None:
            n = max(rid.shape[0], 1)
            res = float(
                np.clip(np.sqrt(360.0 * 180.0 / n) * 2.0, 0.25, 30.0)
            )
            # snap so nx·res == 360: kills the seam slack that guts the
            # small-ring longitude bound (see knn_geodesic_partitioned)
            res = 360.0 / max(int(round(360.0 / res)), 1)
        ref = exchange.broadcast(PointIndex.build(rlon, rlat, rid, res))
    else:
        ref = exchange.broadcast((rlon, rlat, rid))

    def probe_index(batch: pa.Table) -> pa.Table:
        idx: PointIndex = ref.get()
        px = batch[x_col].to_numpy(zero_copy_only=False).astype(np.float64)
        py = batch[y_col].to_numpy(zero_copy_only=False).astype(np.float64)
        P, R, mkm = idx.knn_geodesic(px, py, k)
        # P is sorted (runs per probe, rows ordered (mkm, rid)) → ranks
        # are positions within each run
        uniqp, starts = np.unique(P, return_index=True)
        run_len = np.diff(np.append(starts, P.shape[0]))
        ranks = (
            np.arange(P.shape[0]) - np.repeat(starts, run_len) + 1
        ).astype(np.int64)
        out = batch.take(pa.array(P))
        return (
            out.append_column(out_id, pa.array(idx.ref_ids[R], pa.int64()))
            .append_column(out_d, pa.array(mkm, pa.int64()))
            .append_column(out_rank, pa.array(ranks))
        )

    def probe(batch: pa.Table) -> pa.Table:
        rlon, rlat, rid = ref.get()
        px = batch[x_col].to_numpy(zero_copy_only=False).astype(np.float64)
        py = batch[y_col].to_numpy(zero_copy_only=False).astype(np.float64)
        n = px.shape[0]
        kk = min(k, rid.shape[0])
        all_ids = np.empty((n, kk), np.int64)
        all_d = np.empty((n, kk), np.int64)
        for p0 in range(0, n, point_chunk):
            p1 = min(p0 + point_chunk, n)
            b = p1 - p0
            bd = np.full((b, kk), big, np.int64)
            bi = np.zeros((b, kk), np.int64)
            for s0 in range(0, rid.shape[0], ref_chunk):
                s1 = min(s0 + ref_chunk, rid.shape[0])
                km = haversine_km(
                    px[p0:p1, None], py[p0:p1, None],
                    rlon[None, s0:s1], rlat[None, s0:s1],
                )
                mkm = np.floor(km * 1000.0 + 0.5).astype(np.int64)
                # pack (d, id) into one int64 for a per-row total-order
                # sort: d ≤ ~2·10⁷ mkm (half the globe), id < 2³² — the
                # pack is collision-free and np.sort(axis=1) suffices
                packed_new = (mkm << np.int64(32)) | np.broadcast_to(
                    rid[s0:s1], (b, s1 - s0)
                )
                packed_old = np.where(
                    bd == big, big, (bd << np.int64(32)) | bi
                )
                cand = np.concatenate([packed_old, packed_new], axis=1)
                cand.sort(axis=1)
                top = cand[:, :kk]
                bd = np.where(top == big, big, top >> np.int64(32))
                bi = np.where(top == big, 0, top & np.int64(0xFFFFFFFF))
            all_d[p0:p1] = bd
            all_ids[p0:p1] = bi
        keep = all_d.ravel() != big
        owner = np.repeat(np.arange(n, dtype=np.int64), kk)[keep]
        ranks = np.tile(np.arange(1, kk + 1, dtype=np.int64), n)[keep]
        out = batch.take(pa.array(owner))
        return (
            out.append_column(out_id, pa.array(all_ids.ravel()[keep]))
            .append_column(out_d, pa.array(all_d.ravel()[keep]))
            .append_column(out_rank, pa.array(ranks))
        )

    return points.map_batches(
        probe_index if use_index else probe,
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )


def knn_geodesic_partitioned(
    probes: ray.data.Dataset,
    refs: ray.data.Dataset,
    k: int = 3,
    probe_id_col: str = "pid",
    x_col: str = "lon",
    y_col: str = "lat",
    ref_id_col: str = "rid",
    ref_x_col: str = "lon",
    ref_y_col: str = "lat",
    res: float | None = None,
    max_rounds: int = 16,
    n_pid_buckets: int = 64,
    out_d: str = "d_mkm",
    out_rank: str = "rank",
    msg_budget: int = _KNN_MSG_BUDGET,
) -> ray.data.Dataset:
    """BOTH-SIDES-LARGE geodesic kNN join — the partitioned twin of
    ``knn_geodesic_join`` (same (quantized milli-km, ref id) total
    order, identical rows): no broadcast index, NO DRIVER STATE.
    ``_ring_knn`` runs the ring co-shuffle with the geodesic metric —
    the pole-safe stopping bound of ``PointIndex.knn_geodesic`` and the
    lat-band finish for probes that stall at a pole. Unresolved probes
    double their ring (jumping at least to the latitude-sufficient
    radius once their kth is known), so rounds are O(log full_cover);
    ``max_rounds`` caps them. Each round's exchange splits into
    hash(pid) waves of at most ``msg_budget`` message rows.

    The default ``res`` is snapped so the column count divides 360
    EXACTLY: otherwise the wrap column is narrower than res and the seam
    slack (nx·res − 360, up to ~res) is subtracted from every ring's
    longitude separation — at small rings the lon bound collapses and NO
    probe can resolve early (measured: ring-1 resolution went 0% → ~60%
    after snapping). Ref ids must be ≥ 0.

    Returns (probe_id_col, ref_id_col, out_d int64 milli-km, out_rank)
    — identical rows to the broadcast ``knn_geodesic_join`` plan
    projected to ids/distance/rank.
    """
    if res is None:
        n = max(refs.count(), 1)
        res = float(np.clip(np.sqrt(360.0 * 180.0 / n) * 2.0, 0.25, 30.0))
        res = 360.0 / max(int(round(360.0 / res)), 1)

    def emit(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                probe_id_col: b["pid"],
                ref_id_col: b["rid"],
                out_d: b["d"].cast(pa.int64()),
                out_rank: b["rank"],
            }
        )

    return _ring_knn(
        _id_points(probes, probe_id_col, "pid", _xy_cols(x_col, y_col)),
        _id_points(refs, ref_id_col, "rid", _xy_cols(ref_x_col, ref_y_col)),
        k, res, _GeodesicMetric(res, int(np.ceil(360.0 / res))), max_rounds,
        n_pid_buckets, msg_budget, emit,
    )


def nearest_geodesic_partitioned(
    probes: ray.data.Dataset,
    refs: ray.data.Dataset,
    probe_id_col: str = "pid",
    x_col: str = "lon",
    y_col: str = "lat",
    ref_id_col: str = "rid",
    ref_x_col: str = "lon",
    ref_y_col: str = "lat",
    res: float | None = None,
    out_d: str = "d_mkm",
) -> ray.data.Dataset:
    """Both-sides-large geodesic NEAREST join: ``knn_geodesic_partitioned``
    at k=1, rank dropped — (probe_id_col, ref_id_col, out_d) rows
    identical to the broadcast ``nearest_geodesic_join`` projection."""
    out = knn_geodesic_partitioned(
        probes, refs, k=1, probe_id_col=probe_id_col, x_col=x_col,
        y_col=y_col, ref_id_col=ref_id_col, ref_x_col=ref_x_col,
        ref_y_col=ref_y_col, res=res, out_d=out_d,
    )
    return out.map_batches(
        lambda b: b.drop_columns(["rank"]),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )


def rect_overlap_area(
    rects: ray.data.Dataset,
    polygons: pa.Table,
    rect_cols: tuple = ("xmin", "ymin", "xmax", "ymax"),
    id_col: str = "rect_id",
    geometry_col: str = "geometry",
    poly_id_col: str = "polygon_id",
    quantize: float = 20.0,
    res: float | None = None,
    out_col: str = "overlap_q",
    index: str = "grid",
) -> ray.data.Dataset:
    """Per probe rect: TOTAL INTERSECTION AREA with the broadcast box
    set, in exact quantized integer units — the coverage/zonal-overlap
    aggregate (how much of each query window the reference footprints
    cover, counting overlaps multiplicatively). Reference footprints
    must be axis-aligned boxes stored as box→polygon rings (the
    reference's box semantics, src/geoarrow.c:45-72): the area uses the
    polygon BBOX, which for box rings IS the polygon.

    Candidates come from the same grid / STR index descent as
    ``rect_intersect_count`` (exact pair set, parity-pinned); the area
    is then ``max(0, min(xmaxs)−max(xmins)) · max(0, …y…)`` on
    coordinates quantized to integers (coords must be exact multiples
    of 1/quantize for the SQL twin to hash-match). Per-rect sums are
    complete inside each batch — no shuffle, zero-match rects dropped
    (the SQL inner join drops them too)."""
    if index == "str":
        from georay.index import STRPolygonIndex

        idx0 = STRPolygonIndex.build(
            polygons, geometry_col=geometry_col, id_col=poly_id_col
        )
    else:
        idx0 = PolygonIndex.build(
            polygons, geometry_col=geometry_col, id_col=poly_id_col, res=res
        )
    ref = exchange.broadcast(idx0)
    cx0, cy0, cx1, cy1 = rect_cols

    def _q(a: np.ndarray) -> np.ndarray:
        if not np.isfinite(a).all():
            raise ValueError(
                "rect_overlap_area requires finite rect coordinates "
                "(NaN/Inf quantization to int64 is undefined)"
            )
        return np.floor(a * quantize + 0.5).astype(np.int64)

    def probe(batch: pa.Table) -> pa.Table:
        idx = ref.get()
        rxmin = batch[cx0].to_numpy(zero_copy_only=False)
        rymin = batch[cy0].to_numpy(zero_copy_only=False)
        rxmax = batch[cx1].to_numpy(zero_copy_only=False)
        rymax = batch[cy1].to_numpy(zero_copy_only=False)
        ridx, poly = idx.intersects_rect(rxmin, rymin, rxmax, rymax)
        rid = batch[id_col]
        if isinstance(rid, pa.ChunkedArray):
            rid = rid.combine_chunks()
        if ridx.size == 0:
            return pa.table(
                {
                    id_col: rid.slice(0, 0),
                    out_col: pa.array([], pa.int64()),
                }
            )
        bbox = idx.bbox if hasattr(idx, "bbox") else idx.base.bbox
        bb = bbox[poly]
        dx = np.minimum(_q(rxmax[ridx]), _q(bb[:, 2])) - np.maximum(
            _q(rxmin[ridx]), _q(bb[:, 0])
        )
        dy = np.minimum(_q(rymax[ridx]), _q(bb[:, 3])) - np.maximum(
            _q(rymin[ridx]), _q(bb[:, 1])
        )
        area = np.maximum(dx, 0) * np.maximum(dy, 0)
        sums = np.zeros(len(batch), np.int64)
        np.add.at(sums, ridx, area)
        nz = np.nonzero(np.bincount(ridx, minlength=len(batch)))[0]
        return pa.table(
            {
                id_col: rid.take(pa.array(nz)),
                out_col: pa.array(sums[nz], pa.int64()),
            }
        )

    return rects.map_batches(
        probe, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
