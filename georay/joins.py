"""Spatial joins (SURVEY.md §2.B5/B6), three execution shapes:

1. **Broadcast + fused stateless tasks** (default): the small-side index
   ships once via ``ray.put`` and is cached per worker process; the probe
   fuses with the upstream read chain. The big side never shuffles.
2. **Broadcast + actor pool**: a callable CLASS materializes the index
   ONCE per actor in ``__init__`` (the reference's kernel ``start()``
   analogue, src/geoarrow.c:1936-1996) — for huge indexes / heavy state.
3. **Co-partitioned** (``pip_join_partitioned``): both sides large — one
   ``groupby(cell)`` shuffle co-locates points with the polygons covering
   their cell; the same vectorized kernel joins each bucket locally.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from georay import ops
from georay.index import PointIndex, PolygonIndex


class PIPJoiner:
    """Point-in-polygon probe stage.

    modes: "inner" (one output row per match, point cols + polygon cols),
    "left" (every point, null polygon_id when no match), "semi" (points
    with ≥1 match), "anti" (points with no match).
    """

    def __init__(self, index_ref, geom_col: str, mode: str, payload_cols):
        self.index: PolygonIndex = ray.get(index_ref)
        self.geom_col = geom_col
        self.mode = mode
        self.payload_cols = payload_cols

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon, lat = ops.point_lonlat(batch, self.geom_col)
        # NaNs (null/empty points) match nothing: encode to a probe value
        # that cannot hit the index
        bad = ~(np.isfinite(lon) & np.isfinite(lat))
        lon = np.where(bad, 1e9, lon)
        lat = np.where(bad, 1e9, lat)
        n = len(batch)
        if self.mode == "inner":
            pidx, poly = self.index.contains(lon, lat)
            out = batch.take(pa.array(pidx))
            out = out.append_column(
                "polygon_id", pa.array(self.index.polygon_ids[poly].tolist())
            )
            return out
        # left/semi/anti need only the FIRST match → early-exit probe
        first = self.index.contains_first(lon, lat)
        has = first >= 0
        if self.mode == "semi":
            return batch.filter(pa.array(has))
        if self.mode == "anti":
            return batch.filter(pa.array(~has))
        if self.mode == "left":
            ids = np.full(n, None, dtype=object)
            ids[has] = self.index.polygon_ids[first[has]]
            return batch.append_column("polygon_id", pa.array(ids.tolist()))
        raise ValueError(f"unknown mode {self.mode}")


def pip_join(
    points: ray.data.Dataset,
    polygons: pa.Table,
    geom_col: str = "geotag",
    geometry_col: str = "geometry",
    id_col: str = "polygon_id",
    mode: str = "inner",
    res: float | None = None,
    concurrency=(2, 8),
    batch_size=None,
    num_cpus: float = 1.0,
    actor_pool: bool = False,
    index: str = "grid",
) -> ray.data.Dataset:
    """B5: broadcast PIP join. ``polygons`` must be the SMALL side (it is
    materialized once per worker); the points Dataset streams through.

    ``index``: "grid" (default — exact-cover grid buckets) or "str"
    (STR-packed R-tree, ``STRPolygonIndex`` — the north star's literal
    index shape); both share the exact even-odd kernel and return
    identical match sets (parity-pinned), differing only in candidate
    generation cost profile (grid wins on uniform small polygons, the
    R-tree on wildly mixed extents where one grid resolution fits
    nobody).

    Two execution shapes:
    - ``actor_pool=False`` (default): stateless tasks + ``ray.put``
      broadcast with a per-worker-process cache. The stage FUSES with the
      upstream read/map chain (no extra object-store hop for wide rows,
      no pool spin-up) — right when the index is small-to-medium.
    - ``actor_pool=True``: a dedicated ``map_batches(Cls, concurrency=…)``
      actor pool — right when the index is huge (load it exactly
      ``concurrency`` times) or probes need GPU/heavy per-actor state.
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
    ref = ray.put(idx)
    if actor_pool:
        return points.map_batches(
            PIPJoiner,
            fn_constructor_args=(ref, geom_col, mode, None),
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=batch_size,
            concurrency=concurrency,
            num_cpus=num_cpus,
        )

    cache: dict = {}

    def pip_fn(batch: pa.Table) -> pa.Table:
        # one fetch per worker process (the dict deserializes fresh into
        # each worker, then persists across that worker's tasks)
        joiner = cache.get("j")
        if joiner is None:
            joiner = PIPJoiner(ref, geom_col, mode, None)
            cache["j"] = joiner
        return joiner(batch)

    return points.map_batches(
        pip_fn,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
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
    ref = ray.put(idx0)
    cache: dict = {}

    def probe_count(batch: pa.Table) -> pa.Table:
        if "i" not in cache:  # one fetch per worker process
            cache["i"] = ray.get(ref)
        idx: PolygonIndex = cache["i"]
        lon, lat = ops.point_lonlat(batch, geom_col)
        bad = ~(np.isfinite(lon) & np.isfinite(lat))
        pidx, poly = idx.contains(
            np.where(bad, 1e9, lon), np.where(bad, 1e9, lat)
        )
        counts = np.bincount(poly, minlength=idx.n_polygons)
        nz = np.nonzero(counts)[0]
        return pa.table(
            {
                id_col: pa.array(idx.polygon_ids[nz].tolist()),
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
    ref = ray.put(index)
    cache: dict = {}

    def probe_stats(batch: pa.Table) -> pa.Table:
        if "i" not in cache:  # one fetch per worker process
            cache["i"] = ray.get(ref)
        idx: PolygonIndex = cache["i"]
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
                id_col: pa.array(idx.polygon_ids[keys].tolist()),
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
    both = pts_keyed.union(polys_keyed)

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
        matched = idx.polygon_ids[poly]
        out = {
            "pt_id": pts["pt_id"].take(pa.array(pidx)),
            id_col: pa.array(
                matched.tolist() if id_is_str else matched.astype(np.int64),
                transport,
            ),
        }
        if value_col is not None:
            out["pval"] = pts["pval"].take(pa.array(pidx))
        return pa.table(out)

    return both.groupby("cell").map_groups(join_bucket, batch_format="pyarrow")


class KNNJoiner:
    """kNN probe stage via grid-cell ring expansion (exact under the
    planar (lon,lat) metric; ring-r stop bound proven in PointIndex.knn)."""

    def __init__(self, index_ref, geom_col: str, k: int, id_out: str, probe_id_col):
        self.index: PointIndex = ray.get(index_ref)
        self.geom_col = geom_col
        self.k = k
        self.id_out = id_out
        self.probe_id_col = probe_id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        lon, lat = ops.point_lonlat(batch, self.geom_col)
        P, R, D = self.index.knn(lon, lat, self.k)
        out = batch.take(pa.array(P))
        ids = self.index.ref_ids[R]
        out = out.append_column(self.id_out, pa.array(ids.tolist()))
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
    once via ``ray.put``. Rects with zero matches are dropped.
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
    ref = ray.put(idx0)
    cache: dict = {}
    cx0, cy0, cx1, cy1 = rect_cols

    def probe(batch: pa.Table) -> pa.Table:
        idx = cache.setdefault("i", ray.get(ref))
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
    ref = ray.put(idx0)
    cache: dict = {}
    cx0, cy0, cx1, cy1 = rect_cols

    def probe(batch: pa.Table) -> pa.Table:
        idx = cache.setdefault("i", ray.get(ref))
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
                poly_id_col: pa.array(idx.polygon_ids[poly].tolist()),
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
    inside the one broadcast ``ray.put``. ``dist_out`` — optionally emit
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
    ref = ray.put((index, payload))
    cache: dict = {}

    def probe_pairs(batch: pa.Table) -> pa.Table:
        idx, pay = cache.setdefault("i", ray.get(ref))
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
    ref = ray.put(index)
    cache: dict = {}

    def probe_count(batch: pa.Table) -> pa.Table:
        idx: PointIndex = cache.setdefault("i", ray.get(ref))
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
    concurrency=(2, 8),
    batch_size=None,
    num_cpus: float = 1.0,
    actor_pool: bool = False,
    index: str = "grid",
) -> ray.data.Dataset:
    """B6: broadcast kNN join: each probe row fans out to ≤k result rows
    (neighbor id, squared planar distance, rank). Same stateless-task vs
    actor-pool tradeoff as ``pip_join``. ``index``: "grid" (uniform
    cell ring expansion — wins on evenly spread refs) or "str"
    (STR-packed R-tree radius doubling — wins on wildly mixed-density
    refs); identical output, parity-pinned."""
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
    ref = ray.put(idx)
    if actor_pool:
        return probes.map_batches(
            KNNJoiner,
            fn_constructor_args=(ref, geom_col, k, id_out, None),
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=batch_size,
            concurrency=concurrency,
            num_cpus=num_cpus,
        )

    cache: dict = {}

    def knn_fn(batch: pa.Table) -> pa.Table:
        joiner = cache.get("j")
        if joiner is None:
            joiner = KNNJoiner(ref, geom_col, k, id_out, None)
            cache["j"] = joiner
        return joiner(batch)

    return probes.map_batches(
        knn_fn,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
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
    """BOTH-SIDES-LARGE kNN join: no broadcast index, NO DRIVER STATE.
    Both sides are keyed by the same grid cell; each round co-shuffles
    the unresolved probes' ring-r disks with the refs via ONE
    ``groupby(cell)``, scores candidates bucket-locally, batch-combines
    with ``_topk_reduce``, then finishes with a ``groupby(hash(pid))``
    that merges each probe's exact top-k, tests the ring bound, assigns
    ranks, and re-emits still-unresolved probes as next-round state. A
    probe resolves when it holds ≥k candidates whose kth distance ≤
    (r·res)² (the same ring-bound guarantee as ``PointIndex.knn``), else
    its ring grows. Most probes resolve in ≤2 rounds at a sane ``res``.

    Partitioning assumption (documented per the custom-operator rule):
    the unresolved-probe set is a DATASET (pid, lon, lat, ring) — the
    driver holds only its row count per round; per-round candidate
    volume is bounded by k·|unresolved|·cells-per-disk rows, sharded
    across ``n_pid_buckets`` merge groups. Every probe flows through the
    merge via a sentinel row (rid=-1, d2=∞), so empty-disk probes keep
    growing instead of vanishing.

    Returns a Dataset of (probe_id_col, ref_id_col, knn_rank) —
    identical rows to the broadcast ``knn_join`` plan.
    """
    import ray.data as rd

    from georay import cells as c

    if res is None:
        n = max(refs.count(), 1)
        res = float(np.clip(np.sqrt(360.0 * 180.0 / n) * 2.0, 0.25, 30.0))
    nx = int(np.ceil(360.0 / res))
    # at ``full_cover`` the probe's disk spans the whole grid, so
    # whatever it holds is exact by construction
    full_cover = int(max(np.ceil(nx / 2.0), np.ceil(180.0 / res))) + 1
    nb = np.uint64(n_pid_buckets)

    def key_refs(batch: pa.Table) -> pa.Table:
        lon, lat = ops.point_lonlat(batch, ref_geom_col)
        okm = np.isfinite(lon) & np.isfinite(lat)
        sub = batch.filter(pa.array(okm))
        lon, lat = lon[okm], lat[okm]
        return pa.table(
            {
                "cell": pa.array(c.grid_cell(lon, lat, res), pa.int64()),
                "side": pa.array(np.ones(len(sub), np.int8)),
                "pid": pa.array(np.full(len(sub), -1), pa.int64()),
                "rid": sub[ref_id_col].cast(pa.int64()),
                "lon": pa.array(lon),
                "lat": pa.array(lat),
            }
        )

    refs_keyed = refs.map_batches(
        key_refs, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).materialize()

    def probe_tbl(batch: pa.Table) -> pa.Table:
        lon, lat = ops.point_lonlat(batch, geom_col)
        okm = np.isfinite(lon) & np.isfinite(lat)
        sub = batch.filter(pa.array(okm))
        return pa.table(
            {
                "pid": sub[probe_id_col].cast(pa.int64()),
                "lon": pa.array(lon[okm]),
                "lat": pa.array(lat[okm]),
                "r": pa.array(np.zeros(int(okm.sum()), np.int64)),
            }
        )

    # Dataset-resident probe state: (pid, lon, lat, r)
    un = probes.map_batches(
        probe_tbl, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
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
        parts = []
        for rv in np.unique(rr):
            m = rr == rv
            disk = c.grid_disk(cells_[m], int(rv), nx)
            width = disk.shape[1]
            npm = int(m.sum())
            parts.append(
                pa.table(
                    {
                        "cell": pa.array(disk.reshape(-1), pa.int64()),
                        "side": pa.array(np.zeros(npm * width, np.int8)),
                        "pid": pa.array(np.repeat(pid[m], width), pa.int64()),
                        "rid": pa.array(np.full(npm * width, -1), pa.int64()),
                        "lon": pa.array(np.repeat(lon[m], width)),
                        "lat": pa.array(np.repeat(lat[m], width)),
                    }
                )
            )
        if not parts:
            return pa.table(
                {
                    "cell": pa.array([], pa.int64()),
                    "side": pa.array([], pa.int8()),
                    "pid": pa.array([], pa.int64()),
                    "rid": pa.array([], pa.int64()),
                    "lon": pa.array([], pa.float64()),
                    "lat": pa.array([], pa.float64()),
                }
            )
        return pa.concat_tables(parts)

    def sentinel(batch: pa.Table) -> pa.Table:
        """TWO probe-state rows per live probe in the slim 4-column
        schema (a probe with zero candidates still reaches the
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

    def bucket_score(group: pa.Table) -> pa.Table:
        side = group["side"].to_numpy(zero_copy_only=False)
        prb = group.filter(pa.array(side == 0))
        rf = group.filter(pa.array(side == 1))
        empty = pa.table(
            {
                "pid": pa.array([], pa.int64()),
                "rid": pa.array([], pa.int64()),
                "d2": pa.array([], pa.float64()),
                "nc": pa.array([], pa.int64()),
            }
        )
        if len(prb) == 0 or len(rf) == 0:
            return empty
        plon = prb["lon"].to_numpy(zero_copy_only=False)
        plat = prb["lat"].to_numpy(zero_copy_only=False)
        rlon = rf["lon"].to_numpy(zero_copy_only=False)
        rlat = rf["lat"].to_numpy(zero_copy_only=False)
        rids = rf["rid"].to_numpy(zero_copy_only=False)
        pids = prb["pid"].to_numpy(zero_copy_only=False)
        # refs sorted by rid so the STABLE d2 argsort below breaks
        # exact-distance ties by rid ascending — the same total order
        # as _topk_reduce and the broadcast plan. argpartition would
        # drop an arbitrary member of a tie class straddling the kth
        # boundary before the merge ever sees it (one-in-60k at
        # sf0.1, caught by the broadcast-parity gate).
        ro = np.argsort(rids)
        rlon, rlat, rids = rlon[ro], rlat[ro], rids[ro]
        d2 = (plon[:, None] - rlon[None, :]) ** 2 + (
            plat[:, None] - rlat[None, :]
        ) ** 2
        take = min(k, rlon.shape[0])
        top = np.argsort(d2, axis=1, kind="stable")[:, :take]
        rows = np.repeat(np.arange(pids.shape[0]), take)
        cols = top.reshape(-1)
        return pa.table(
            {
                "pid": pa.array(pids[rows], pa.int64()),
                "rid": pa.array(rids[cols], pa.int64()),
                "d2": pa.array(d2[rows, cols], pa.float64()),
                "nc": pa.array(
                    np.full(rows.shape[0], rlon.shape[0], np.int64)
                ),
            }
        )

    def add_pb(batch: pa.Table) -> pa.Table:
        pid = batch["pid"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = ops._mix64(pid.view(np.uint64).copy())
        return batch.append_column(
            "_pb", pa.array((h % nb).astype(np.int64))
        )

    _fin_schema = {
        "flag": pa.int8(), "pid": pa.int64(), "rid": pa.int64(),
        "rank": pa.int64(), "lon": pa.float64(), "lat": pa.float64(),
        "r": pa.int64(),
    }

    def _fin_empty() -> pa.Table:
        return pa.table({n_: pa.array([], t_) for n_, t_ in _fin_schema.items()})

    def make_finish(final_round: bool):
        def finish(group: pa.Table) -> pa.Table:
            g = _topk_reduce(group.drop_columns(["_pb"]), k)
            pid = g["pid"].to_numpy(zero_copy_only=False)
            if pid.shape[0] == 0:
                return _fin_empty()
            rid = g["rid"].to_numpy(zero_copy_only=False)
            d2 = g["d2"].to_numpy(zero_copy_only=False)
            nc = g["nc"].to_numpy(zero_copy_only=False)
            # probe state from the slim-schema state rows (one of each
            # per live probe, pid-sorted, identical pid sets): rid=-1
            # ring row (nc = -(r+1)), rid=-2 coord row (d2 = lon,
            # nc = lat bits). Real candidate rows (rid ≥ 0) come first,
            # sorted by (pid, d2, rid).
            real = rid >= 0
            ring_m = rid == -1
            coord_m = rid == -2
            rp, rd2, rrid, rnc = pid[real], d2[real], rid[real], nc[real]
            all_pid = pid[ring_m]
            a_r = -nc[ring_m] - 1
            a_lon = d2[coord_m]
            a_lat = np.ascontiguousarray(nc[coord_m]).view(np.float64)
            out_parts = []
            resolved_pids = np.empty(0, np.int64)
            if rp.size:
                uq, st = np.unique(rp, return_index=True)
                rl = np.diff(np.append(st, rp.shape[0]))
                kth = rd2[st + rl - 1]
                nfound = rnc[st]
                pos = np.searchsorted(all_pid, uq)
                r_of = a_r[pos]
                bound = (r_of * res) ** 2
                have_k = (nfound >= k) & (rl >= np.minimum(k, nfound))
                resolved = (have_k & (kth <= bound)) | (r_of >= full_cover)
                if final_round:
                    resolved = np.ones(uq.shape[0], bool)  # best effort
                resolved_pids = uq[resolved]
                if resolved_pids.size:
                    sel = np.isin(rp, resolved_pids)
                    # ranks: rows already ordered (d2, rid) within pid
                    within = np.arange(rp.shape[0]) - np.repeat(st, rl)
                    nsel = int(sel.sum())
                    out_parts.append(
                        pa.table(
                            {
                                "flag": pa.array(np.ones(nsel, np.int8)),
                                "pid": pa.array(rp[sel], pa.int64()),
                                "rid": pa.array(rrid[sel], pa.int64()),
                                "rank": pa.array(within[sel] + 1, pa.int64()),
                                # resolved rows never feed state back —
                                # downstream selects (pid, rid, rank)
                                "lon": pa.array(np.zeros(nsel), pa.float64()),
                                "lat": pa.array(np.zeros(nsel), pa.float64()),
                                "r": pa.array(np.zeros(nsel, np.int64)),
                            }
                        )
                    )
                # ring growth for unresolved-but-kth-known probes: jump
                # straight to the proven-sufficient radius
                need = np.maximum(a_r * 2, a_r + 1)
                known = have_k & ~resolved
                if known.any():
                    jump = np.ceil(np.sqrt(kth[known]) / res).astype(np.int64)
                    posk = np.searchsorted(all_pid, uq[known])
                    need[posk] = np.maximum(a_r[posk] + 1, jump)
            else:
                need = np.maximum(a_r * 2, a_r + 1)
            still = ~np.isin(all_pid, resolved_pids)
            if final_round:
                still &= np.zeros(all_pid.shape[0], bool)  # drop stragglers
            if still.any():
                out_parts.append(
                    pa.table(
                        {
                            "flag": pa.array(
                                np.zeros(int(still.sum()), np.int8)
                            ),
                            "pid": pa.array(all_pid[still], pa.int64()),
                            "rid": pa.array(
                                np.full(int(still.sum()), -1), pa.int64()
                            ),
                            "rank": pa.array(
                                np.zeros(int(still.sum()), np.int64)
                            ),
                            "lon": pa.array(a_lon[still], pa.float64()),
                            "lat": pa.array(a_lat[still], pa.float64()),
                            "r": pa.array(
                                np.minimum(need[still], full_cover),
                                pa.int64(),
                            ),
                        }
                    )
                )
            if not out_parts:
                return _fin_empty()
            return pa.concat_tables(out_parts)

        return finish

    import os as _os
    import time as _time

    _dbg = bool(_os.environ.get("GEORAY_KNN_DEBUG"))
    results: list[ray.data.Dataset] = []
    rounds = 0
    while n_un and rounds <= max_ring:
        rounds += 1
        _t0 = _time.time()
        msgs = un.map_batches(
            expand, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        )
        sent = un.map_batches(
            sentinel, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        )
        cand = (
            msgs.union(refs_keyed)
            .groupby("cell")
            .map_groups(bucket_score, batch_format="pyarrow")
        )
        combined = cand.union(sent).map_batches(
            lambda b: _topk_reduce(b, k),
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=ops.COMBINE_TARGET_ROWS,
            num_cpus=0.5,
        )
        fin = (
            combined.map_batches(
                add_pb, batch_format="pyarrow", zero_copy_batch=True,
                batch_size=None,
            )
            .groupby("_pb")
            .map_groups(
                make_finish(rounds > max_ring), batch_format="pyarrow"
            )
        ).materialize()
        results.append(
            fin.map_batches(
                lambda b: b.filter(pc.equal(b["flag"], 1)).select(
                    ["pid", "rid", "rank"]
                ),
                batch_format="pyarrow",
                zero_copy_batch=True,
                batch_size=None,
            )
        )
        un = fin.map_batches(
            lambda b: b.filter(pc.equal(b["flag"], 0)).select(
                ["pid", "lon", "lat", "r"]
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=None,
        ).materialize()
        n_un = un.count()
        if _dbg:
            print(
                f"[knn_part] round {rounds}: {_time.time() - _t0:.1f}s, "
                f"unresolved={n_un}", flush=True,
            )

    def rename(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                probe_id_col: b["pid"],
                ref_id_col: b["rid"],
                "knn_rank": b["rank"],
            }
        )

    if not results:
        return rd.from_arrow(
            pa.table(
                {
                    probe_id_col: pa.array([], pa.int64()),
                    ref_id_col: pa.array([], pa.int64()),
                    "knn_rank": pa.array([], pa.int64()),
                }
            )
        )
    out = results[0]
    for extra in results[1:]:
        out = out.union(extra)
    return out.map_batches(
        rename, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
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
    broadcast: references key by their single grid cell, probes
    replicate to the exact grid cover of their ``±radius`` box (the
    same `_cover_bboxes_grid` key function, so every (probe, ref)
    candidate meets in EXACTLY one bucket — a ref's one cell), ONE
    ``groupby(cell)`` co-shuffle, and each bucket builds a local
    ``PointIndex`` over its refs and probes its probes with the same
    exact kernel the broadcast plan uses. Per-probe partial counts from
    different buckets merge through the combine tree. Planar metric
    (degrees); bit-identical counts to the broadcast plan.

    Pick ``res`` (default ≈ radius) so one cell's refs fit a worker;
    probe replication is the disk cover (~9 cells at res = radius)."""
    res = _radius_res(radius, "planar", res)
    from georay import cells as c
    from georay.index import _cover_bboxes_grid

    def key_probes(batch: pa.Table) -> pa.Table:
        lon, lat = ops.point_lonlat(batch, geom_col)
        ok = np.isfinite(lon) & np.isfinite(lat)
        bbox = np.column_stack([lon - radius, lat - radius,
                                lon + radius, lat + radius])
        keys, pidx = _cover_bboxes_grid(bbox, ok, res)
        pid = batch[probe_id_col]
        if isinstance(pid, pa.ChunkedArray):
            pid = pid.combine_chunks()
        n = keys.shape[0]
        return pa.table(
            {
                "cell": pa.array(keys, pa.int64()),
                "side": pa.array(np.zeros(n, np.int8)),
                "pid": pid.take(pa.array(pidx)).cast(pa.int64()),
                "lon": pa.array(lon[pidx]),
                "lat": pa.array(lat[pidx]),
            }
        )

    def key_refs(batch: pa.Table) -> pa.Table:
        lon = batch[ref_lon_col].to_numpy(zero_copy_only=False)
        lat = batch[ref_lat_col].to_numpy(zero_copy_only=False)
        cell = c.grid_cell(lon, lat, res)
        return pa.table(
            {
                "cell": pa.array(cell, pa.int64()),
                "side": pa.array(np.ones(len(batch), np.int8)),
                "pid": pa.array([None] * len(batch), pa.int64()),
                "lon": pa.array(lon),
                "lat": pa.array(lat),
            }
        )

    keyed = probes.map_batches(
        key_probes, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).union(
        refs.map_batches(
            key_refs, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        )
    )

    def count_bucket(group: pa.Table) -> pa.Table:
        side = group["side"].to_numpy(zero_copy_only=False)
        p = group.filter(pa.array(side == 0))
        r = group.filter(pa.array(side == 1))
        empty = pa.table(
            {
                "pid": pa.array([], pa.int64()),
                "partial_n": pa.array([], pa.int64()),
            }
        )
        if len(p) == 0 or len(r) == 0:
            return empty
        idx = PointIndex.build(
            r["lon"].to_numpy(zero_copy_only=False),
            r["lat"].to_numpy(zero_copy_only=False),
            np.arange(len(r), dtype=np.int64),
            res,
        )
        # within() candidates come from the ref grid; refs here are only
        # this bucket's cell, so candidates are exact for its probes
        P, _, _ = idx.within(
            p["lon"].to_numpy(zero_copy_only=False),
            p["lat"].to_numpy(zero_copy_only=False),
            radius,
        )
        counts = np.bincount(P, minlength=len(p))
        nz = np.nonzero(counts)[0]
        pid = p["pid"].combine_chunks() if isinstance(
            p["pid"], pa.ChunkedArray) else p["pid"]
        return pa.table(
            {
                "pid": pid.take(pa.array(nz)),
                "partial_n": pa.array(counts[nz], pa.int64()),
            }
        )

    partials = (
        ops.shuffle_coalesce(keyed)
        .groupby("cell")
        .map_groups(count_bucket, batch_format="pyarrow")
    )
    out = ops.tree_sum(
        partials, ["pid"], {"partial_n": count_alias}, int_cols=("partial_n",)
    )

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns([probe_id_col, count_alias])

    return out.map_batches(
        rename, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
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
    probe — completes the geodesic family's twin column (nearest/kNN
    gained partitioned plans in r5; this is the radius sibling of
    ``radius_join_count_partitioned``). No broadcast: refs key by
    their single grid cell; each probe replicates to its POLE-SAFE
    cover — the latitude band ``|Δφ| ≤ radius/KM_PER_DEG`` crossed
    with the longitude span evaluated at the poleward-most latitude
    its circle reaches (``radius/(KM_PER_DEG·cos φ_max)``, full row
    when the circle nears a pole; lon wraps mod nx) — the same
    per-probe bound ``PointIndex.within_geodesic`` uses batch-wide,
    but exact per probe. Every (probe, ref) true pair meets in EXACTLY
    one bucket (the ref's cell), ONE ``groupby(cell)`` co-shuffle,
    exact haversine filter in-bucket, per-probe partials through the
    combine tree. Bit-identical counts to the broadcast plan.

    Partitioning note: near-polar probes replicate to a full latitude
    row of cells (the broadcast plan pays the same conservative disk);
    probes with zero refs in range emit no row (SQL GROUP BY COUNT
    semantics, same as the broadcast/planar twins)."""
    from georay import cells as c
    from georay.kernels import KM_PER_DEG, haversine_km

    if res is None:
        n = max(refs.count(), 1)
        res = float(np.clip(np.sqrt(360.0 * 180.0 / n) * 2.0, 0.25, 30.0))
        res = 360.0 / max(int(round(360.0 / res)), 1)  # seam-free grid
    nx = int(np.ceil(360.0 / res))
    ny = int(np.ceil(180.0 / res))
    deg_lat = radius_km / KM_PER_DEG

    def key_probes(batch: pa.Table) -> pa.Table:
        lon = batch[x_col].to_numpy(zero_copy_only=False).astype(np.float64)
        lat = batch[y_col].to_numpy(zero_copy_only=False).astype(np.float64)
        okm = np.isfinite(lon) & np.isfinite(lat)
        sub = batch.filter(pa.array(okm))
        lon, lat = lon[okm], lat[okm]
        pid = sub[probe_id_col].cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
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
        half_w = np.minimum(
            np.ceil(deg_lon / res).astype(np.int64) + 1, nx
        )
        ncol = np.minimum(2 * half_w + 1, nx)
        nrow = row_hi - row_lo + 1
        cnt = nrow * ncol
        tot = int(cnt.sum())
        if tot == 0:
            return pa.table(
                {
                    "cell": pa.array([], pa.int64()),
                    "side": pa.array([], pa.int8()),
                    "pid": pa.array([], pa.int64()),
                    "lon": pa.array([], pa.float64()),
                    "lat": pa.array([], pa.float64()),
                }
            )
        off = np.concatenate(([0], np.cumsum(cnt)[:-1]))
        within = np.arange(tot) - np.repeat(off, cnt)
        ncol_r = np.repeat(ncol, cnt)
        rows = np.repeat(row_lo, cnt) + within // ncol_r
        cols = (
            np.repeat(col0 - half_w, cnt) + within % ncol_r
        ) % nx
        cells_ = cols * c.GRID_MULT + rows
        return pa.table(
            {
                "cell": pa.array(cells_, pa.int64()),
                "side": pa.array(np.zeros(tot, np.int8)),
                "pid": pa.array(np.repeat(pid, cnt), pa.int64()),
                "lon": pa.array(np.repeat(lon, cnt)),
                "lat": pa.array(np.repeat(lat, cnt)),
            }
        )

    def key_refs(batch: pa.Table) -> pa.Table:
        lon = batch[ref_x_col].to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        lat = batch[ref_y_col].to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        okm = np.isfinite(lon) & np.isfinite(lat)
        lon, lat = lon[okm], lat[okm]
        return pa.table(
            {
                "cell": pa.array(c.grid_cell(lon, lat, res), pa.int64()),
                "side": pa.array(np.ones(lon.shape[0], np.int8)),
                "pid": pa.array(np.full(lon.shape[0], -1), pa.int64()),
                "lon": pa.array(lon),
                "lat": pa.array(lat),
            }
        )

    keyed = probes.map_batches(
        key_probes, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    ).union(
        refs.map_batches(
            key_refs, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        )
    )

    def count_bucket(group: pa.Table) -> pa.Table:
        side = group["side"].to_numpy(zero_copy_only=False)
        p = group.filter(pa.array(side == 0))
        r = group.filter(pa.array(side == 1))
        if len(p) == 0 or len(r) == 0:
            return pa.table(
                {
                    "pid": pa.array([], pa.int64()),
                    "partial_n": pa.array([], pa.int64()),
                }
            )
        plon = p["lon"].to_numpy(zero_copy_only=False)
        plat = p["lat"].to_numpy(zero_copy_only=False)
        rlon = r["lon"].to_numpy(zero_copy_only=False)
        rlat = r["lat"].to_numpy(zero_copy_only=False)
        pid = p["pid"].to_numpy(zero_copy_only=False)
        chunk = max(1, (1 << 22) // max(rlon.shape[0], 1))
        parts = []
        for p0 in range(0, pid.shape[0], chunk):
            p1 = min(p0 + chunk, pid.shape[0])
            km = haversine_km(
                plon[p0:p1, None], plat[p0:p1, None],
                rlon[None, :], rlat[None, :],
            )
            cnts = (km <= radius_km).sum(axis=1)
            nz = np.flatnonzero(cnts)
            if nz.size:
                parts.append(
                    pa.table(
                        {
                            "pid": pa.array(pid[p0 + nz], pa.int64()),
                            "partial_n": pa.array(
                                cnts[nz].astype(np.int64), pa.int64()
                            ),
                        }
                    )
                )
        if not parts:
            return pa.table(
                {
                    "pid": pa.array([], pa.int64()),
                    "partial_n": pa.array([], pa.int64()),
                }
            )
        return pa.concat_tables(parts)

    partials = (
        ops.shuffle_coalesce(keyed)
        .groupby("cell")
        .map_groups(count_bucket, batch_format="pyarrow")
    )
    out = ops.tree_sum(
        partials, ["pid"], {"partial_n": count_alias},
        int_cols=("partial_n",),
    )

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns([probe_id_col, count_alias])

    return out.map_batches(
        rename, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
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
    ``ray.put`` and is probed per batch with a blocked running-min —
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
    ref = ray.put((sid, ax, ay, dxs, dys, len2))
    cache: dict = {}
    scale = float(1 << scale_bits)

    def probe(batch: pa.Table) -> pa.Table:
        sid, ax, ay, dxs, dys, len2 = cache.setdefault("s", ray.get(ref))
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

    keyed = points.map_batches(
        key_points, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).union(
        segments.map_batches(
            key_segs, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        )
    )

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

    partials = (
        ops.shuffle_coalesce(keyed)
        .groupby("cell")
        .map_groups(bucket, batch_format="pyarrow")
    )
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
    cache: dict = {}
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
        ref = ray.put(PointIndex.build(rlon, rlat, rid, res))
    else:
        ref = ray.put((rlon, rlat, rid))

    def probe_index(batch: pa.Table) -> pa.Table:
        idx: PointIndex = cache.setdefault("r", ray.get(ref))
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
        rlon, rlat, rid = cache.setdefault("r", ray.get(ref))
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
    cache: dict = {}
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
        ref = ray.put(PointIndex.build(rlon, rlat, rid, res))
    else:
        ref = ray.put((rlon, rlat, rid))

    def probe_index(batch: pa.Table) -> pa.Table:
        idx: PointIndex = cache.setdefault("r", ray.get(ref))
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
        rlon, rlat, rid = cache.setdefault("r", ray.get(ref))
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
    msg_budget: int = 100_000_000,
) -> ray.data.Dataset:
    """BOTH-SIDES-LARGE geodesic kNN join — the partitioned twin of
    ``knn_geodesic_join`` (same (quantized milli-km, ref id) total
    order, identical rows), closing the one gap in the twin matrix:
    no broadcast index, NO DRIVER STATE. The planar
    ``knn_join_partitioned`` co-shuffle is the template — probe state
    (pid, lon, lat, ring) is a DATASET whose rows ride the exchanges
    as in-band sentinel rows; the driver holds only a per-round count.

    Per round: unresolved probes expand their ring-r grid disk into
    per-cell message rows, ONE ``groupby(cell)`` co-locates them with
    the refs, each bucket scores haversine milli-km and keeps its local
    top-k by (mkm, rid), a combine tree (``_topk_reduce`` — mkm rides
    the d2 column) shrinks candidates, and a ``groupby(hash(pid))``
    merge applies the POLE-SAFE stopping bound of
    ``PointIndex.knn_geodesic`` (georay/index.py:699): a ref outside
    Chebyshev ring r is > r·res° away in latitude (distance ≥
    r·res·KM_PER_DEG, meridian arc ≤ haversine) OR > r·res−slack° in
    longitude within the probe's latitude band (distance ≥
    2R·asin(√(cosφ₁·cosφ_max)·sin(Δλ/2))); the strict quantized
    comparison kth_mkm < bound_mkm makes the stop bit-identical to the
    brute scan. Unresolved probes double their ring (jumping at least
    to the latitude-sufficient radius once their kth is known), so
    rounds are O(log full_cover).

    POLAR STALL twin: a probe whose φ_max pins at 90° has a dead
    longitude bound and would ring-expand to half_row rounds. Once it
    holds ≥k candidates it is diverted to a LAT-BAND finish — but
    partitioned: every candidate at distance ≤ kth lies within
    |Δφ| ≤ (kth+1)/1000/KM_PER_DEG (meridian arc lower-bounds
    haversine), so the stalled probe emits one message per latitude
    ROW of that band, refs are keyed by row, and one extra
    ``groupby(row)`` co-shuffle + pid-bucket merge yields the exact
    top-k (the probe's existing top-k is inside the band, so the band
    re-scan alone is a superset of the true top-k).

    BOUNDED EXCHANGE (r5): per-round message volume is
    Σ_probes (2r+1)² rows, which after a kth-informed jump can be
    30–50 cells per probe — at 10M+ unresolved probes a single
    exchange would buffer hundreds of millions of rows and stall the
    streaming executor. Each round therefore splits the unresolved set
    into hash(pid) WAVES sized so one wave's expansion stays under
    ``msg_budget`` rows (driver holds only the per-r histogram needed
    to pick the wave count). Measured at 10M probes/32 cpus: a single
    239M-row exchange stalls even with compact input; 120M-row waves
    run clean (92.8 s total vs 128.1 s at 50M) — the 100M default
    keeps margin under the measured stall threshold. Waves are probe-independent, so output is
    unchanged; peak exchange volume is a deterministic budget at ANY
    scale — the property a 256-node run needs.

    Partitioning assumption (custom-operator rule): per-round candidate
    volume ≤ k·|unresolved-in-wave|·cells-per-disk rows sharded over
    ``n_pid_buckets`` merge groups; the stall finish additionally
    assumes one latitude row of refs fits a task (chunked outer
    product bounds the scoring matrix). Ref ids must be ≥ 0 (negative
    ids are the in-band state sentinels).

    Returns (probe_id_col, ref_id_col, out_d int64 milli-km, out_rank)
    — identical rows to the broadcast ``knn_geodesic_join`` plan
    projected to ids/distance/rank.
    """
    import ray.data as rd

    from georay import cells as c
    from georay.kernels import EARTH_RADIUS_KM, KM_PER_DEG, haversine_km

    if res is None:
        n = max(refs.count(), 1)
        res = float(np.clip(np.sqrt(360.0 * 180.0 / n) * 2.0, 0.25, 30.0))
        # snap so the column count divides 360 EXACTLY: otherwise the
        # wrap column is narrower than res and the seam slack
        # (nx·res − 360, up to ~res) is subtracted from every ring's
        # longitude separation — at small rings the lon bound collapses
        # and NO probe can resolve early (measured: ring-1 resolution
        # went 0% → ~60% after snapping)
        res = 360.0 / max(int(round(360.0 / res)), 1)
    nx = int(np.ceil(360.0 / res))
    ny = int(np.ceil(180.0 / res))
    half_row = int(np.ceil(nx / 2)) + 1
    full_cover = max(half_row, ny) + 1
    slack = max(nx * res - 360.0, 0.0)
    nb = np.uint64(n_pid_buckets)
    big = np.iinfo(np.int64).max

    def key_refs(batch: pa.Table) -> pa.Table:
        lon = batch[ref_x_col].to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        lat = batch[ref_y_col].to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        okm = np.isfinite(lon) & np.isfinite(lat)
        sub = batch.filter(pa.array(okm))
        lon, lat = lon[okm], lat[okm]
        rid = sub[ref_id_col].cast(pa.int64()).to_numpy(
            zero_copy_only=False
        )
        if rid.shape[0] and int(rid.min()) < 0:
            raise ValueError(
                "knn_geodesic_partitioned: ref ids must be >= 0"
            )
        return pa.table(
            {
                "cell": pa.array(c.grid_cell(lon, lat, res), pa.int64()),
                "side": pa.array(np.ones(len(sub), np.int8)),
                "pid": pa.array(np.full(len(sub), -1), pa.int64()),
                "rid": pa.array(rid, pa.int64()),
                "lon": pa.array(lon),
                "lat": pa.array(lat),
            }
        )

    refs_keyed = refs.map_batches(
        key_refs, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    ).materialize()

    def probe_tbl(batch: pa.Table) -> pa.Table:
        lon = batch[x_col].to_numpy(zero_copy_only=False).astype(np.float64)
        lat = batch[y_col].to_numpy(zero_copy_only=False).astype(np.float64)
        okm = np.isfinite(lon) & np.isfinite(lat)
        sub = batch.filter(pa.array(okm))
        return pa.table(
            {
                "pid": sub[probe_id_col].cast(pa.int64()),
                "lon": pa.array(lon[okm]),
                "lat": pa.array(lat[okm]),
                # start at ring 1: the r=0 stopping bound is zero (a
                # probe can essentially never resolve from its own cell
                # alone), so an r=0 round is a wasted global exchange —
                # measured 10M-probe run: 95.4 s → 78.9 s
                "r": pa.array(np.ones(int(okm.sum()), np.int64)),
            }
        )

    un = probes.map_batches(
        probe_tbl, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    ).materialize()
    n_un = un.count()

    def expand(batch: pa.Table) -> pa.Table:
        pid = batch["pid"].to_numpy(zero_copy_only=False)
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        rr = batch["r"].to_numpy(zero_copy_only=False)
        cells_ = c.grid_cell(lon, lat, res)
        parts = []
        for rv in np.unique(rr):
            m = rr == rv
            disk = c.grid_disk(cells_[m], int(rv), nx)
            width = disk.shape[1]
            npm = int(m.sum())
            parts.append(
                pa.table(
                    {
                        "cell": pa.array(disk.reshape(-1), pa.int64()),
                        "side": pa.array(np.zeros(npm * width, np.int8)),
                        "pid": pa.array(
                            np.repeat(pid[m], width), pa.int64()
                        ),
                        "rid": pa.array(
                            np.full(npm * width, -1), pa.int64()
                        ),
                        "lon": pa.array(np.repeat(lon[m], width)),
                        "lat": pa.array(np.repeat(lat[m], width)),
                    }
                )
            )
        if not parts:
            return pa.table(
                {
                    "cell": pa.array([], pa.int64()),
                    "side": pa.array([], pa.int8()),
                    "pid": pa.array([], pa.int64()),
                    "rid": pa.array([], pa.int64()),
                    "lon": pa.array([], pa.float64()),
                    "lat": pa.array([], pa.float64()),
                }
            )
        return pa.concat_tables(parts)

    def sentinel(batch: pa.Table) -> pa.Table:
        """Slim probe-state rows (same scheme as the planar twin):
        rid=-1 ring row (nc = -(r+1)), rid=-2 coord row (d2 = lon,
        nc = lat bit-cast)."""
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

    _cand_empty = pa.table(
        {
            "pid": pa.array([], pa.int64()),
            "rid": pa.array([], pa.int64()),
            "d2": pa.array([], pa.float64()),
            "nc": pa.array([], pa.int64()),
        }
    )

    def bucket_score(group: pa.Table) -> pa.Table:
        side = group["side"].to_numpy(zero_copy_only=False)
        prb = group.filter(pa.array(side == 0))
        rf = group.filter(pa.array(side == 1))
        if len(prb) == 0 or len(rf) == 0:
            return _cand_empty
        plon = prb["lon"].to_numpy(zero_copy_only=False)
        plat = prb["lat"].to_numpy(zero_copy_only=False)
        rlon = rf["lon"].to_numpy(zero_copy_only=False)
        rlat = rf["lat"].to_numpy(zero_copy_only=False)
        rids = rf["rid"].to_numpy(zero_copy_only=False)
        pids = prb["pid"].to_numpy(zero_copy_only=False)
        # rid-sorted refs + STABLE sort ⇒ exact-distance ties keep the
        # (mkm, rid) total order before truncation (planar-twin lesson)
        ro = np.argsort(rids)
        rlon, rlat, rids = rlon[ro], rlat[ro], rids[ro]
        km = haversine_km(
            plon[:, None], plat[:, None], rlon[None, :], rlat[None, :]
        )
        mkm = np.floor(km * 1000.0 + 0.5)
        take = min(k, rlon.shape[0])
        top = np.argsort(mkm, axis=1, kind="stable")[:, :take]
        rows = np.repeat(np.arange(pids.shape[0]), take)
        cols = top.reshape(-1)
        return pa.table(
            {
                "pid": pa.array(pids[rows], pa.int64()),
                "rid": pa.array(rids[cols], pa.int64()),
                "d2": pa.array(mkm[rows, cols], pa.float64()),
                "nc": pa.array(
                    np.full(rows.shape[0], rlon.shape[0], np.int64)
                ),
            }
        )

    def add_pb(batch: pa.Table) -> pa.Table:
        pid = batch["pid"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = ops._mix64(pid.view(np.uint64).copy())
        return batch.append_column(
            "_pb", pa.array((h % nb).astype(np.int64))
        )

    # finish-group output: flag 1 = resolved (rid/rank/d), 0 = grow
    # ring (lon/lat/r), 2 = polar stall → lat-band finish (lon/lat,
    # r carries kth_mkm)
    _fin_schema = {
        "flag": pa.int8(), "pid": pa.int64(), "rid": pa.int64(),
        "rank": pa.int64(), "d": pa.int64(), "lon": pa.float64(),
        "lat": pa.float64(), "r": pa.int64(),
    }

    def _fin_empty() -> pa.Table:
        return pa.table(
            {n_: pa.array([], t_) for n_, t_ in _fin_schema.items()}
        )

    def make_finish(final_round: bool):
        def finish(group: pa.Table) -> pa.Table:
            g = _topk_reduce(group.drop_columns(["_pb"]), k)
            pid = g["pid"].to_numpy(zero_copy_only=False)
            if pid.shape[0] == 0:
                return _fin_empty()
            rid = g["rid"].to_numpy(zero_copy_only=False)
            d2 = g["d2"].to_numpy(zero_copy_only=False)
            nc = g["nc"].to_numpy(zero_copy_only=False)
            real = rid >= 0
            ring_m = rid == -1
            coord_m = rid == -2
            rp, rd2, rrid, rnc = pid[real], d2[real], rid[real], nc[real]
            all_pid = pid[ring_m]
            a_r = -nc[ring_m] - 1
            a_lon = d2[coord_m]
            a_lat = np.ascontiguousarray(nc[coord_m]).view(np.float64)
            out_parts = []
            resolved_pids = np.empty(0, np.int64)
            stalled_pids = np.empty(0, np.int64)
            kth_of = np.full(all_pid.shape[0], big, np.int64)
            if rp.size:
                uq, st = np.unique(rp, return_index=True)
                rl = np.diff(np.append(st, rp.shape[0]))
                kth = rd2[st + rl - 1]
                nfound = rnc[st]
                pos = np.searchsorted(all_pid, uq)
                r_of = a_r[pos]
                phi1 = np.abs(a_lat[pos])
                # pole-safe bound (PointIndex.knn_geodesic, index.py:699)
                lat_bound = r_of * res * KM_PER_DEG
                phi_max = np.minimum(phi1 + (r_of + 1) * res, 90.0)
                lon_sep = np.maximum(r_of * res - slack, 0.0)
                arg = np.sqrt(
                    np.maximum(
                        np.cos(np.radians(phi1))
                        * np.cos(np.radians(phi_max)),
                        0.0,
                    )
                ) * np.sin(np.radians(np.minimum(lon_sep, 180.0)) / 2.0)
                lon_bound = (
                    2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(arg, 1.0))
                )
                d_min = np.where(
                    r_of < half_row,
                    np.minimum(lat_bound, lon_bound), lat_bound,
                )
                bound_mkm = np.floor(d_min * 1000.0 + 0.5)
                have_k = (nfound >= k) & (rl >= np.minimum(k, nfound))
                resolved = (have_k & (kth < bound_mkm)) | (
                    r_of >= full_cover
                )
                polar = (phi_max >= 90.0) & (r_of >= 1) & (
                    r_of < half_row
                )
                stalled = polar & ~resolved & have_k
                if final_round:
                    resolved = np.ones(uq.shape[0], bool)
                    stalled = np.zeros(uq.shape[0], bool)
                resolved_pids = uq[resolved]
                stalled_pids = uq[stalled]
                kth_of[pos[have_k]] = kth[have_k].astype(np.int64)
                if resolved_pids.size:
                    sel = np.isin(rp, resolved_pids)
                    within = np.arange(rp.shape[0]) - np.repeat(st, rl)
                    nsel = int(sel.sum())
                    out_parts.append(
                        pa.table(
                            {
                                "flag": pa.array(np.ones(nsel, np.int8)),
                                "pid": pa.array(rp[sel], pa.int64()),
                                "rid": pa.array(rrid[sel], pa.int64()),
                                "rank": pa.array(
                                    within[sel] + 1, pa.int64()
                                ),
                                "d": pa.array(
                                    rd2[sel].astype(np.int64), pa.int64()
                                ),
                                "lon": pa.array(np.zeros(nsel)),
                                "lat": pa.array(np.zeros(nsel)),
                                "r": pa.array(np.zeros(nsel, np.int64)),
                            }
                        )
                    )
            # ring growth: double; once kth is known, jump at least to
            # the latitude-sufficient radius (lat_bound > kth)
            need = np.maximum(a_r * 2, a_r + 1)
            known = kth_of < big
            if known.any():
                r_lat = (
                    np.ceil(
                        ((kth_of[known] + 1) / 1000.0)
                        / KM_PER_DEG / res
                    ).astype(np.int64)
                    + 1
                )
                need[known] = np.maximum(need[known], r_lat)
            if stalled_pids.size:
                sm = np.isin(all_pid, stalled_pids)
                out_parts.append(
                    pa.table(
                        {
                            "flag": pa.array(
                                np.full(int(sm.sum()), 2, np.int8)
                            ),
                            "pid": pa.array(all_pid[sm], pa.int64()),
                            "rid": pa.array(
                                np.full(int(sm.sum()), -1), pa.int64()
                            ),
                            "rank": pa.array(
                                np.zeros(int(sm.sum()), np.int64)
                            ),
                            "d": pa.array(
                                np.zeros(int(sm.sum()), np.int64)
                            ),
                            "lon": pa.array(a_lon[sm], pa.float64()),
                            "lat": pa.array(a_lat[sm], pa.float64()),
                            "r": pa.array(kth_of[sm], pa.int64()),
                        }
                    )
                )
            still = ~np.isin(all_pid, resolved_pids) & ~np.isin(
                all_pid, stalled_pids
            )
            if final_round:
                still &= np.zeros(all_pid.shape[0], bool)
            if still.any():
                nst = int(still.sum())
                out_parts.append(
                    pa.table(
                        {
                            "flag": pa.array(np.zeros(nst, np.int8)),
                            "pid": pa.array(all_pid[still], pa.int64()),
                            "rid": pa.array(
                                np.full(nst, -1), pa.int64()
                            ),
                            "rank": pa.array(np.zeros(nst, np.int64)),
                            "d": pa.array(np.zeros(nst, np.int64)),
                            "lon": pa.array(a_lon[still], pa.float64()),
                            "lat": pa.array(a_lat[still], pa.float64()),
                            "r": pa.array(
                                np.minimum(need[still], full_cover),
                                pa.int64(),
                            ),
                        }
                    )
                )
            if not out_parts:
                return _fin_empty()
            return pa.concat_tables(out_parts)

        return finish

    def r_histogram(ds_un: ray.data.Dataset) -> dict[int, int]:
        """Per-ring unresolved counts (tiny: ≤ log(full_cover) distinct
        rings) — drives the wave-count choice; the driver never holds
        probe rows."""
        def partial(batch: pa.Table) -> pa.Table:
            rr = batch["r"].to_numpy(zero_copy_only=False)
            vals, cnts = np.unique(rr, return_counts=True)
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

    import os as _os
    import time as _time

    _dbg = bool(_os.environ.get("GEORAY_KNN_DEBUG"))
    results: list[ray.data.Dataset] = []
    stalls: list[ray.data.Dataset] = []
    rounds = 0
    while n_un and rounds <= max_rounds:
        rounds += 1
        _t0 = _time.time()
        # bounded exchange: split this round into hash(pid) waves so
        # one wave's disk expansion stays under msg_budget rows
        hist = r_histogram(un)
        total_msgs = sum(cnt * (2 * rv + 1) ** 2 for rv, cnt in hist.items())
        n_waves = max(1, int(np.ceil(total_msgs / msg_budget)))
        nw = np.uint64(n_waves)

        def wave_of(batch: pa.Table, w: int) -> pa.Table:
            pid = batch["pid"].to_numpy(zero_copy_only=False).astype(
                np.int64
            )
            h = ops._mix64((pid + 1).view(np.uint64).copy())
            return batch.filter(pa.array((h % nw).astype(np.int64) == w))

        fins = []
        for w in range(n_waves):
            uw = (
                un
                if n_waves == 1
                else un.map_batches(
                    lambda b, _w=w: wave_of(b, _w),
                    batch_format="pyarrow", zero_copy_batch=True,
                    batch_size=None,
                )
            )
            msgs = uw.map_batches(
                expand, batch_format="pyarrow", zero_copy_batch=True,
                batch_size=None,
            )
            sent = uw.map_batches(
                sentinel, batch_format="pyarrow", zero_copy_batch=True,
                batch_size=None,
            )
            cand = (
                msgs.union(refs_keyed)
                .groupby("cell")
                .map_groups(bucket_score, batch_format="pyarrow")
            )
            combined = cand.union(sent).map_batches(
                lambda b: _topk_reduce(b, k),
                batch_format="pyarrow",
                zero_copy_batch=True,
                batch_size=ops.COMBINE_TARGET_ROWS,
                num_cpus=0.5,
            )
            fin = (
                combined.map_batches(
                    add_pb, batch_format="pyarrow", zero_copy_batch=True,
                    batch_size=None,
                )
                .groupby("_pb")
                .map_groups(
                    make_finish(rounds > max_rounds),
                    batch_format="pyarrow",
                )
            ).materialize()
            fins.append(fin)
        fin_all = fins[0]
        for extra in fins[1:]:
            fin_all = fin_all.union(extra)
        results.append(
            fin_all.map_batches(
                lambda b: b.filter(pc.equal(b["flag"], 1)).select(
                    ["pid", "rid", "rank", "d"]
                ),
                batch_format="pyarrow", zero_copy_batch=True,
                batch_size=None,
            )
        )
        stall = fin_all.map_batches(
            lambda b: b.filter(pc.equal(b["flag"], 2)).select(
                ["pid", "lon", "lat", "r"]
            ),
            batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
        ).materialize()
        n_stall = stall.count()
        if n_stall:
            stalls.append(stall)
            if _dbg:
                print(f"[knn_geo_part]   stalled +{n_stall}", flush=True)
        un = fin_all.map_batches(
            lambda b: b.filter(pc.equal(b["flag"], 0)).select(
                ["pid", "lon", "lat", "r"]
            ),
            batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
        ).materialize()
        n_un = un.count()
        # COMPACT the state: the wave unions + per-group filters leave
        # hundreds of near-empty blocks, and feeding a fragmented input
        # into the next round's sort multiplies shuffle metadata
        # (map×reduce refs live on the driver — the measured 3 GiB
        # driver-anon spike at 5M probes). Coalesce to ~250k rows/block.
        if n_un:
            un = un.repartition(
                int(np.clip(n_un // 250_000, 8, 256))
            ).materialize()
        if _dbg:
            import resource as _resource

            print(
                f"[knn_geo_part] round {rounds}: "
                f"{_time.time() - _t0:.1f}s, waves={n_waves} "
                f"(est {total_msgs} msgs), unresolved={n_un}, "
                f"driver_rss="
                f"{_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss / (1 << 20):.2f}GiB",
                flush=True,
            )

    if stalls:
        # ---- lat-band stall finish: one row-keyed co-shuffle ----
        def key_refs_row(batch: pa.Table) -> pa.Table:
            row = (
                batch["cell"].to_numpy(zero_copy_only=False)
                % c.GRID_MULT
            )
            return pa.table(
                {
                    "row": pa.array(row, pa.int64()),
                    "side": batch["side"],
                    "pid": batch["pid"],
                    "rid": batch["rid"],
                    "lon": batch["lon"],
                    "lat": batch["lat"],
                }
            )

        refs_rows = refs_keyed.map_batches(
            key_refs_row, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        )

        def expand_rows(batch: pa.Table) -> pa.Table:
            pid = batch["pid"].to_numpy(zero_copy_only=False)
            lon = batch["lon"].to_numpy(zero_copy_only=False)
            lat = batch["lat"].to_numpy(zero_copy_only=False)
            kth = batch["r"].to_numpy(zero_copy_only=False)
            dlat = ((kth + 1) / 1000.0) / KM_PER_DEG + 1e-12
            lo = np.clip(
                np.floor((lat - dlat + 90.0) / res), 0, ny - 1
            ).astype(np.int64)
            hi = np.clip(
                np.floor((lat + dlat + 90.0) / res), 0, ny - 1
            ).astype(np.int64)
            cnt = hi - lo + 1
            tot = int(cnt.sum())
            if tot == 0:
                return pa.table(
                    {
                        "row": pa.array([], pa.int64()),
                        "side": pa.array([], pa.int8()),
                        "pid": pa.array([], pa.int64()),
                        "rid": pa.array([], pa.int64()),
                        "lon": pa.array([], pa.float64()),
                        "lat": pa.array([], pa.float64()),
                    }
                )
            off = np.concatenate(([0], np.cumsum(cnt)[:-1]))
            rows = (
                np.repeat(lo, cnt) + np.arange(tot) - np.repeat(off, cnt)
            )
            return pa.table(
                {
                    "row": pa.array(rows, pa.int64()),
                    "side": pa.array(np.zeros(tot, np.int8)),
                    "pid": pa.array(np.repeat(pid, cnt), pa.int64()),
                    "rid": pa.array(np.full(tot, -1), pa.int64()),
                    "lon": pa.array(np.repeat(lon, cnt)),
                    "lat": pa.array(np.repeat(lat, cnt)),
                }
            )

        def row_score(group: pa.Table) -> pa.Table:
            side = group["side"].to_numpy(zero_copy_only=False)
            prb = group.filter(pa.array(side == 0))
            rf = group.filter(pa.array(side == 1))
            if len(prb) == 0 or len(rf) == 0:
                return _cand_empty
            plon = prb["lon"].to_numpy(zero_copy_only=False)
            plat = prb["lat"].to_numpy(zero_copy_only=False)
            rlon = rf["lon"].to_numpy(zero_copy_only=False)
            rlat = rf["lat"].to_numpy(zero_copy_only=False)
            rids = rf["rid"].to_numpy(zero_copy_only=False)
            pids = prb["pid"].to_numpy(zero_copy_only=False)
            ro = np.argsort(rids)
            rlon, rlat, rids = rlon[ro], rlat[ro], rids[ro]
            take = min(k, rids.shape[0])
            chunk = max(1, (1 << 22) // max(rids.shape[0], 1))
            parts = []
            for p0 in range(0, pids.shape[0], chunk):
                p1 = min(p0 + chunk, pids.shape[0])
                km = haversine_km(
                    plon[p0:p1, None], plat[p0:p1, None],
                    rlon[None, :], rlat[None, :],
                )
                mkm = np.floor(km * 1000.0 + 0.5)
                top = np.argsort(mkm, axis=1, kind="stable")[:, :take]
                rows = np.repeat(np.arange(p0, p1), take)
                cols = top.reshape(-1)
                parts.append(
                    pa.table(
                        {
                            "pid": pa.array(pids[rows], pa.int64()),
                            "rid": pa.array(rids[cols], pa.int64()),
                            "d2": pa.array(
                                mkm[rows - p0, cols], pa.float64()
                            ),
                            "nc": pa.array(
                                np.full(
                                    rows.shape[0], rids.shape[0],
                                    np.int64,
                                )
                            ),
                        }
                    )
                )
            return pa.concat_tables(parts)

        st_all = stalls[0]
        for extra in stalls[1:]:
            st_all = st_all.union(extra)
        band_cand = (
            st_all.map_batches(
                expand_rows, batch_format="pyarrow", zero_copy_batch=True,
                batch_size=None,
            )
            .union(refs_rows)
            .groupby("row")
            .map_groups(row_score, batch_format="pyarrow")
        ).map_batches(
            lambda b: _topk_reduce(b, k),
            batch_format="pyarrow", zero_copy_batch=True,
            batch_size=ops.COMBINE_TARGET_ROWS, num_cpus=0.5,
        )

        def band_finish(group: pa.Table) -> pa.Table:
            g = _topk_reduce(group.drop_columns(["_pb"]), k)
            pid = g["pid"].to_numpy(zero_copy_only=False)
            rid = g["rid"].to_numpy(zero_copy_only=False)
            d2 = g["d2"].to_numpy(zero_copy_only=False)
            real = rid >= 0
            pid, rid, d2 = pid[real], rid[real], d2[real]
            if pid.shape[0] == 0:
                return pa.table(
                    {
                        "pid": pa.array([], pa.int64()),
                        "rid": pa.array([], pa.int64()),
                        "rank": pa.array([], pa.int64()),
                        "d": pa.array([], pa.int64()),
                    }
                )
            uq, st = np.unique(pid, return_index=True)
            rl = np.diff(np.append(st, pid.shape[0]))
            within = np.arange(pid.shape[0]) - np.repeat(st, rl)
            return pa.table(
                {
                    "pid": pa.array(pid, pa.int64()),
                    "rid": pa.array(rid, pa.int64()),
                    "rank": pa.array(within + 1, pa.int64()),
                    "d": pa.array(d2.astype(np.int64), pa.int64()),
                }
            )

        results.append(
            band_cand.map_batches(
                add_pb, batch_format="pyarrow", zero_copy_batch=True,
                batch_size=None,
            )
            .groupby("_pb")
            .map_groups(band_finish, batch_format="pyarrow")
        )

    def rename(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                probe_id_col: b["pid"],
                ref_id_col: b["rid"],
                out_d: b["d"],
                out_rank: b["rank"],
            }
        )

    if not results:
        return rd.from_arrow(
            pa.table(
                {
                    probe_id_col: pa.array([], pa.int64()),
                    ref_id_col: pa.array([], pa.int64()),
                    out_d: pa.array([], pa.int64()),
                    out_rank: pa.array([], pa.int64()),
                }
            )
        )
    out = results[0]
    for extra in results[1:]:
        out = out.union(extra)
    return out.map_batches(
        rename, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
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
    ref = ray.put(idx0)
    cache: dict = {}
    cx0, cy0, cx1, cy1 = rect_cols

    def _q(a: np.ndarray) -> np.ndarray:
        if not np.isfinite(a).all():
            raise ValueError(
                "rect_overlap_area requires finite rect coordinates "
                "(NaN/Inf quantization to int64 is undefined)"
            )
        return np.floor(a * quantize + 0.5).astype(np.int64)

    def probe(batch: pa.Table) -> pa.Table:
        idx = cache.setdefault("i", ray.get(ref))
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
