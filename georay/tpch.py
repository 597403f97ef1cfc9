"""Driver-contract queries over /root/testdata TPC-H-ish tables.

Geometry is synthesized DETERMINISTICALLY from integer columns
(FIXTURES.md F6) so every query has an ANSI-SQL DuckDB oracle with
bit-identical doubles: all coordinates are ``(int-expression % m)/10.0 ±
offset`` — integer math then one exact division — and the engine mirrors
each SQL expression operation-for-operation.

Every public ``q_*`` function takes ``sf_dir`` and returns a Dataset /
pyarrow Table whose column NAMES match the oracle SQL aliases exactly
(the driver sorts columns by name before hashing).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from georay import cells, exchange, images, kernels, ops
from georay.codecs import native, wkb, wkt
from georay.joins import knn_join, pip_join
from georay.types import GeoType

GRID_RES = 1.0
TILE_ZOOM = 6
KNN_K = 3


def _t(sf_dir: str, name: str) -> str:
    return os.path.join(sf_dir, f"{name}.parquet")


# ----------------------------------------------- synthesized geometry

def _li_lonlat(ok, pk, sk, ln):
    """lineitem point; mirrors SQL in LI_LON/LI_LAT below exactly."""
    lon = ((ok * 29 + ln * 11) % 3600) / 10.0 - 180.0 + 0.05
    lat = ((pk * 13 + sk * 7 + ln) % 1700) / 10.0 - 85.0 + 0.05
    return lon, lat


LI_LON = "((l_orderkey * 29 + l_linenumber * 11) % 3600) / 10.0 - 180.0 + 0.05"
LI_LAT = "((l_partkey * 13 + l_suppkey * 7 + l_linenumber) % 1700) / 10.0 - 85.0 + 0.05"

PART_CX = "((p_partkey * 17) % 3600) / 10.0 - 180.0 + 0.05"
PART_CY = "((p_partkey * 23) % 1700) / 10.0 - 85.0 + 0.05"
PART_W = "(p_size % 10) / 2.0 + 0.5"
PART_H = "(p_size % 7) / 2.0 + 0.5"

_CLIP_RECT = (-60.0, -40.0, 60.0, 40.0)

_Q3_DATE_US = 795_225_600_000_000  # 1995-03-15
_DAY_US = 86_400_000_000
_Y95_LO_US = 788_918_400_000_000   # 1995-01-01
_Y96_LO_US = 820_454_400_000_000   # 1996-01-01
_Y98_LO_US = 883_612_800_000_000   # 1998-01-01
_YEAR_US = 365 * 86_400_000_000    # fixed 365-day year bucket (both
# engines use the identical integer expression, so the adapted o_year
# label is bit-exact even though it is not a calendar year)
_Y96_FEB_US = 823_132_800_000_000  # 1996-02-01
_Y96_Q2_US = 828_316_800_000_000   # 1996-04-01

SUPP_SX = "((s_suppkey * 41) % 3600) / 10.0 - 180.0 + 0.05"
SUPP_SY = "((s_suppkey * 59) % 1700) / 10.0 - 85.0 + 0.05"


def lineitem_points(sf_dir: str, extra_cols: list[str] | None = None) -> rd.Dataset:
    """lineitem with a geoarrow.point ``geotag`` column (pruned read)."""
    import pyarrow.parquet as pq

    cols = ["l_orderkey", "l_partkey", "l_suppkey", "l_linenumber"]
    for c in extra_cols or []:
        if c not in cols:
            cols.append(c)
    # one part per file for exchange.task_count (a read Ray splits past
    # its files never fuses with the maps after it), so one task here
    path = _t(sf_dir, "lineitem")
    n_tasks = exchange.task_count(1, exchange.projected_bytes(pq.read_metadata(path), cols))
    ds = rd.read_parquet(path, columns=cols, override_num_blocks=n_tasks)

    def add_pt(batch: pa.Table) -> pa.Table:
        ok = batch["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        pk = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        sk = batch["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        ln = batch["l_linenumber"].to_numpy(zero_copy_only=False).astype(np.int64)
        lon, lat = _li_lonlat(ok, pk, sk, ln)
        pt = native.build_points(
            np.column_stack([lon, lat]), GeoType.point(crs="OGC:CRS84")
        )
        return batch.append_column(GeoType.point(crs="OGC:CRS84").field("geotag"), pt)

    return ds.map_batches(add_pt, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)


def part_box_polygons(sf_dir: str) -> pa.Table:
    """Boxes derived from ``part``, materialized as geoarrow.polygon rings
    in the reference's box→polygon ring order
    (/root/reference/tests/testthat/test-pkg-wk.R:234-239):
    (xmin ymin, xmax ymin, xmax ymax, xmin ymax, xmin ymin)."""
    import pyarrow.parquet as pq

    t = pq.read_table(_t(sf_dir, "part"), columns=["p_partkey", "p_size"])
    pk = t["p_partkey"].to_numpy().astype(np.int64)
    sz = t["p_size"].to_numpy().astype(np.int64)
    cx = ((pk * 17) % 3600) / 10.0 - 180.0 + 0.05
    cy = ((pk * 23) % 1700) / 10.0 - 85.0 + 0.05
    w = (sz % 10) / 2.0 + 0.5
    h = (sz % 7) / 2.0 + 0.5
    xmin, xmax = cx - w, cx + w
    ymin, ymax = cy - h, cy + h
    n = len(pk)
    ring = np.empty((n, 5, 2), dtype=np.float64)
    ring[:, 0] = np.column_stack([xmin, ymin])
    ring[:, 1] = np.column_stack([xmax, ymin])
    ring[:, 2] = np.column_stack([xmax, ymax])
    ring[:, 3] = np.column_stack([xmin, ymax])
    ring[:, 4] = np.column_stack([xmin, ymin])
    coords = ring.reshape(-1, 2)
    ring_off = np.arange(0, 5 * n + 1, 5, dtype=np.int64)
    poly_off = np.arange(n + 1, dtype=np.int64)
    geo = GeoType.polygon(crs="OGC:CRS84")
    geom = native.build_nested(coords, [poly_off, ring_off], geo)
    return pa.table(
        {"p_partkey": pa.array(pk), "geometry": geom},
        schema=pa.schema(
            [pa.field("p_partkey", pa.int64()), geo.field("geometry")]
        ),
    )


def supplier_points(sf_dir: str):
    import pyarrow.parquet as pq

    t = pq.read_table(_t(sf_dir, "supplier"), columns=["s_suppkey"])
    sk = t["s_suppkey"].to_numpy().astype(np.int64)
    sx = ((sk * 41) % 3600) / 10.0 - 180.0 + 0.05
    sy = ((sk * 59) % 1700) / 10.0 - 85.0 + 0.05
    return sx, sy, sk


_LI_POINT_SQL = (
    f"SELECT l_orderkey, l_partkey, l_suppkey, l_linenumber, "
    f"{LI_LON} AS lon, {LI_LAT} AS lat FROM lineitem"
)


def _s2_parent_sql(level: int, src: str) -> str:
    """ANSI-SQL replica of ``cells.cell_from_lonlat(...,12)`` truncated to
    ``cell_parent(ids, level)`` (georay/cells.py:147-202): lon/lat → unit
    sphere → dominant-axis cube face → per-face gnomonic (u,v) → S2
    quadratic (s,t) → floor ij at ``level`` (encode-at-12-then-truncate
    equals direct floor at the parent level) → Morton interleave (i odd
    bits, j even) → (face<<61)|(pos<<shift)|sentinel assembled in HUGEINT
    and wrapped to the engine's int64 bit-reinterpret. DuckDB's IEEE
    sqrt/arithmetic matches numpy bit-for-bit; cos/sin ulp drift is many
    orders below the floor/face decision margins for the synthetic grid.

    ``src`` must yield columns ``lon`` and ``lat`` (others pass through
    implicitly via later joins; this helper returns one SELECT producing
    ``lon, lat, cell_parent``).
    """
    morton = " | ".join(
        f"(((i >> {b}) & 1) << {2 * b + 1}) | (((j >> {b}) & 1) << {2 * b})"
        for b in range(level)
    )
    n = 1 << level
    shift = 1 << (61 - 2 * level)
    sentinel = 1 << (60 - 2 * level)
    return f"""
SELECT lon, lat, CAST(
    CASE WHEN hid >= 9223372036854775808::HUGEINT
         THEN hid - 18446744073709551616::HUGEINT ELSE hid END AS BIGINT) AS cell_parent
FROM (
  SELECT lon, lat,
         f::HUGEINT * 2305843009213693952::HUGEINT
       + ({morton})::HUGEINT * {shift}::HUGEINT
       + {sentinel}::HUGEINT AS hid
  FROM (
    SELECT lon, lat, f,
           CAST(least(greatest(floor(s * {n}), 0), {n - 1}) AS BIGINT) AS i,
           CAST(least(greatest(floor(t * {n}), 0), {n - 1}) AS BIGINT) AS j
    FROM (
      SELECT lon, lat, f,
             CASE WHEN u >= 0 THEN 0.5*sqrt(1.0 + 3.0*u) ELSE 1.0 - 0.5*sqrt(1.0 - 3.0*u) END AS s,
             CASE WHEN v >= 0 THEN 0.5*sqrt(1.0 + 3.0*v) ELSE 1.0 - 0.5*sqrt(1.0 - 3.0*v) END AS t
      FROM (
        SELECT lon, lat, f,
               CASE f WHEN 0 THEN y/x WHEN 1 THEN -x/y WHEN 2 THEN -x/z
                      WHEN 3 THEN z/x WHEN 4 THEN z/y ELSE -y/z END AS u,
               CASE f WHEN 0 THEN z/x WHEN 1 THEN z/y WHEN 2 THEN -y/z
                      WHEN 3 THEN y/x WHEN 4 THEN -x/y ELSE -x/z END AS v
        FROM (
          SELECT lon, lat, x, y, z,
                 CASE WHEN abs(x) >= abs(y) AND abs(x) >= abs(z)
                          THEN CASE WHEN x >= 0 THEN 0 ELSE 3 END
                      WHEN abs(y) >= abs(z) THEN CASE WHEN y >= 0 THEN 1 ELSE 4 END
                      ELSE CASE WHEN z >= 0 THEN 2 ELSE 5 END END AS f
          FROM (
            SELECT lon, lat,
                   cos(radians(lat)) * cos(radians(lon)) AS x,
                   cos(radians(lat)) * sin(radians(lon)) AS y,
                   sin(radians(lat)) AS z
            FROM ({src})
          )
        )
      )
    )
  )
)
"""


def _parent_i64_sql(col: str, lvl: int) -> str:
    """SQL replica of ``cells.cell_parent`` on an int64-wrapped id:
    unwrap to HUGEINT, clear bits below the level's sentinel (floor
    division), set the sentinel, wrap back."""
    s = 1 << (60 - 2 * lvl)
    m = 2 * s
    u = (
        f"(CASE WHEN {col} < 0 THEN CAST({col} AS HUGEINT) + "
        f"18446744073709551616::HUGEINT ELSE CAST({col} AS HUGEINT) END)"
    )
    # NB: DuckDB '/' on integers is FLOAT division — '//' is integral
    pu = f"(({u} // {m}::HUGEINT) * {m}::HUGEINT + {s}::HUGEINT)"
    return (
        f"CAST(CASE WHEN {pu} >= 9223372036854775808::HUGEINT "
        f"THEN {pu} - 18446744073709551616::HUGEINT ELSE {pu} END AS BIGINT)"
    )


def q_compact(sf_dir: str):
    """S2/H3-style cell-set compaction of the lineitem coverage: the
    distinct level-12 cells, with every complete sibling quartet
    replaced by its parent down to level 10 (ops.compact_cells — one
    hash-bucket groupby per level, promotions cascade, nothing on the
    driver). SQL twin: two chained GROUP BY rounds on the HUGEINT
    parent-truncation replica."""
    pts = lineitem_points(sf_dir)
    ds = ops.add_cell_column(pts, level=9)
    return ops.compact_cells(ds, "cell", from_level=9, min_level=7)


SQL_COMPACT = f"""
WITH src AS ({_s2_parent_sql(9, _LI_POINT_SQL)}),
c9 AS (SELECT DISTINCT cell_parent AS cell FROM src),
p8 AS (SELECT {_parent_i64_sql('cell', 8)} AS p, COUNT(*) AS nc FROM c9 GROUP BY 1),
k9 AS (SELECT c9.cell FROM c9 JOIN p8 ON {_parent_i64_sql('c9.cell', 8)} = p8.p WHERE p8.nc < 4),
l8 AS (SELECT p AS cell FROM p8 WHERE nc = 4),
p7 AS (SELECT {_parent_i64_sql('cell', 7)} AS p, COUNT(*) AS nc FROM l8 GROUP BY 1),
k8 AS (SELECT l8.cell FROM l8 JOIN p7 ON {_parent_i64_sql('l8.cell', 7)} = p7.p WHERE p7.nc < 4),
l7 AS (SELECT p AS cell FROM p7 WHERE nc = 4)
SELECT cell, CAST(9 AS BIGINT) AS level FROM k9
UNION ALL SELECT cell, CAST(8 AS BIGINT) FROM k8
UNION ALL SELECT cell, CAST(7 AS BIGINT) FROM l7
"""


def q_uncompact(sf_dir: str):
    """compact → UNCOMPACT round trip: the mixed-level compaction of
    the lineitem level-9 coverage re-expanded to uniform level 9
    (ops.uncompact_cells — per-row arithmetic-progression descendants,
    stateless map). Must reproduce EXACTLY the original distinct
    level-9 cell set, which is the whole (simple) oracle."""
    pts = lineitem_points(sf_dir)
    ds = ops.add_cell_column(pts, level=9)
    comp = ops.compact_cells(ds, "cell", from_level=9, min_level=7)
    return ops.uncompact_cells(comp, to_level=9)


SQL_UNCOMPACT = f"""
SELECT DISTINCT cell_parent AS cell FROM ({_s2_parent_sql(9, _LI_POINT_SQL)})
"""


# ------------------------------------------------------------- queries

def q_grid_cell_count(sf_dir: str):
    """Fixed-resolution grid-cell histogram (cell encode + skew-safe
    two-stage aggregate)."""
    ds = lineitem_points(sf_dir)
    ds = ops.add_grid_column(ds, res=GRID_RES)
    return ops.salted_count(ds, "grid_cell", count_alias="n")


SQL_GRID_CELL_COUNT = f"""
SELECT CAST(FLOOR((lon + 180)/1.0) AS BIGINT)*100000
     + CAST(FLOOR((lat + 90)/1.0) AS BIGINT) AS grid_cell,
       COUNT(*) AS n
FROM ({_LI_POINT_SQL})
GROUP BY 1
"""


def q_hex_cell_count(sf_dir: str):
    """Hexagonal-bin histogram (cells.hex_cell, the 4th cell system:
    pointy-top axial hex with exact cube rounding) over the lineitem
    points — same skew-safe two-stage aggregate as the square-grid
    twin. Every float step is the identical IEEE expression in numpy
    and DuckDB (sqrt(3)/3 constant, floor(v+0.5) rounding), so boundary
    points bin identically and the hash matches bit-for-bit."""
    from georay import cells as _cells

    ds = lineitem_points(sf_dir)

    def add_hex(batch: pa.Table) -> pa.Table:
        lon, lat = ops.point_lonlat(batch, "geotag")
        return pa.table(
            {"hex_cell": pa.array(_cells.hex_cell(lon, lat, 2.5), pa.int64())}
        )

    hexed = ds.map_batches(
        add_hex, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return ops.salted_count(hexed, "hex_cell", count_alias="n")


_HEX_ID_CTES = f"""p AS ({_LI_POINT_SQL}),
h0 AS (
  SELECT ((sqrt(3.0e0)/3.0e0) * lon - lat / 3.0e0) / 2.5e0 AS qf,
         (lat * (2.0e0/3.0e0)) / 2.5e0 AS rf
  FROM p
),
h1 AS (SELECT qf, rf, -qf - rf AS sf FROM h0),
h2 AS (
  SELECT qf, rf, sf,
         FLOOR(qf + 0.5e0) AS rq, FLOOR(rf + 0.5e0) AS rr,
         FLOOR(sf + 0.5e0) AS rs
  FROM h1
),
h3 AS (
  SELECT rq, rr, rs,
         ABS(rq - qf) AS da, ABS(rr - rf) AS db, ABS(rs - sf) AS dc
  FROM h2
),
h4 AS (
  SELECT CASE WHEN da > db AND da > dc THEN -rr - rs ELSE rq END AS q2,
         CASE WHEN NOT (da > db AND da > dc) AND db > dc
              THEN -rq - rs ELSE rr END AS r2
  FROM h3
),
hid AS (
  SELECT (CAST(q2 AS BIGINT) + 1048576) * 2097152
       + (CAST(r2 AS BIGINT) + 1048576) AS hex_cell
  FROM h4
)"""


SQL_HEX_CELL_COUNT = f"""
WITH {_HEX_ID_CTES}
SELECT hex_cell, COUNT(*) AS n FROM hid GROUP BY 1
"""


def q_hex_smoothing(sf_dir: str):
    """Occupancy smoothing on the HEX grid (ring-1 of the axial cell
    system — cells.hex_disk): for every occupied hex of the lineitem
    points, how many of its 6 neighbors are also occupied. Same tagged
    combine-tree plan as ``geohash_smoothing``: distinct-occupancy
    dedup tree -> neighbor contribution rows -> one merged tree;
    zero-neighbor hexes emit 0."""
    from georay import cells as _cells

    ds = lineitem_points(sf_dir)

    def occ_partial(batch: pa.Table) -> pa.Table:
        lon, lat = ops.point_lonlat(batch, "geotag")
        u = np.unique(_cells.hex_cell(lon, lat, 2.5))
        return pa.table(
            {
                "k": pa.array(u, pa.int64()),
                "partial_one": pa.array(np.ones(u.shape[0], np.int64)),
            }
        )

    occ = ops.tree_sum(
        ds.map_batches(
            occ_partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        "k", {"partial_one": "c"}, int_cols=("partial_one",),
    )

    def contrib(batch: pa.Table) -> pa.Table:
        k = batch["k"].to_numpy(zero_copy_only=False)
        disk = _cells.hex_disk(k, 1)  # (n, 7) incl. self
        nk = disk[disk != k[:, None]]  # the 6 ring-1 neighbors
        return pa.table(
            {
                "k": pa.array(np.concatenate([k, nk]), pa.int64()),
                "partial_occ": pa.array(np.concatenate(
                    [np.ones(k.shape[0], np.int64),
                     np.zeros(nk.shape[0], np.int64)]
                )),
                "partial_nbr": pa.array(np.concatenate(
                    [np.zeros(k.shape[0], np.int64),
                     np.ones(nk.shape[0], np.int64)]
                )),
            }
        )

    merged = ops.tree_sum(
        occ.map_batches(
            contrib, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        "k", {"partial_occ": "occ", "partial_nbr": "nbr"},
        int_cols=("partial_occ", "partial_nbr"),
    )

    def finish(batch: pa.Table) -> pa.Table:
        keep = pc.greater(batch["occ"], 0)
        sub = batch.filter(keep)
        return pa.table(
            {
                "hex_cell": sub["k"],
                "n_occ_nbrs": sub["nbr"],
            }
        )

    return merged.map_batches(
        finish, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


SQL_HEX_SMOOTHING = f"""
WITH {_HEX_ID_CTES},
occ AS (SELECT DISTINCT hex_cell AS k FROM hid),
nb AS (
  SELECT a.k, COUNT(*) AS c
  FROM occ a JOIN occ b
    ON ABS((a.k // 2097152) - (b.k // 2097152)) <= 1
   AND ABS((a.k % 2097152) - (b.k % 2097152)) <= 1
   AND ABS(((a.k // 2097152) - (b.k // 2097152))
         + ((a.k % 2097152) - (b.k % 2097152))) <= 1
   AND a.k <> b.k
  GROUP BY a.k
)
SELECT o.k AS hex_cell, CAST(COALESCE(nb.c, 0) AS BIGINT) AS n_occ_nbrs
FROM occ o LEFT JOIN nb ON nb.k = o.k
"""


def q_window_lag(sf_dir: str):
    """Per-user LAG(ts) over the event log ((ts, event_id) total order)
    — one key-hash shuffle, whole-bucket vectorized sort+shift."""
    ds = rd.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "ts"]
    )
    out = ops.window_lag(
        ds, key="user_id", ts="ts", value_col="ts",
        out_col="prev_ts", order_tiebreak="event_id",
    )
    return out.select_columns(["event_id", "user_id", "ts", "prev_ts"])


SQL_WINDOW_LAG = """
SELECT event_id, user_id, ts,
       LAG(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev_ts
FROM events
"""


def q_dedup_latest(sf_dir: str):
    """SCD-1 snapshot: the LATEST event per user (group_top_k k=1 over
    (ts, event_id) descending — map-side prune means each batch ships
    at most one row per user)."""
    ds = rd.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "ts", "event_type"]
    )
    out = ops.group_top_k(
        ds, "user_id", ["ts", "event_id"], 1, descending=True
    )
    return out.map_batches(
        lambda b: b.select(["user_id", "event_id", "event_type"]),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )


SQL_DEDUP_LATEST = """
SELECT user_id, event_id, event_type FROM (
  SELECT user_id, event_id, event_type,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY ts DESC, event_id DESC) AS rn
  FROM events
) WHERE rn = 1
"""


_CHK_C0 = (0x9E3779B97F4A7C15 * 0x100000001B3) % 2**64


def q_checksum(sf_dir: str):
    """Order-insensitive content fingerprint of the lineitem key set
    (ops.dataset_checksum — Σ mix64(row key) mod 2⁶⁴; block order,
    partitioning and schedule cannot change it, which is exactly how
    the scaling harness proves determinism across parallelism
    levels)."""
    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_linenumber"]
    )

    def add_rid(batch: pa.Table) -> pa.Table:
        ok = batch["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        ln = batch["l_linenumber"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"rid": pa.array(ok * 8 + ln, pa.int64())})

    ds = ds.map_batches(
        add_rid, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return ops.dataset_checksum(ds, ["rid"])


SQL_CHECKSUM = f"""
WITH ids AS (
  SELECT CAST(l_orderkey * 8 + l_linenumber AS HUGEINT) AS rid FROM lineitem
),
-- mix64(rid)
a1 AS (SELECT xor(rid, rid // 8589934592) AS h1 FROM ids),
a2 AS (SELECT ((h1 % 4294967296) * 18397679294719823053
             + ((h1 // 4294967296) * 18397679294719823053 % 4294967296) * 4294967296
             ) % 18446744073709551616 AS h2 FROM a1),
a3 AS (SELECT xor(h2, h2 // 8589934592) AS hk FROM a2),
-- mix64((C0 + hk) mod 2^64), C0 = seed * FNV prime mod 2^64
b0 AS (SELECT ({_CHK_C0} + hk) % 18446744073709551616 AS x FROM a3),
b1 AS (SELECT xor(x, x // 8589934592) AS h1 FROM b0),
b2 AS (SELECT ((h1 % 4294967296) * 18397679294719823053
             + ((h1 // 4294967296) * 18397679294719823053 % 4294967296) * 4294967296
             ) % 18446744073709551616 AS h2 FROM b1),
b3 AS (SELECT xor(h2, h2 // 8589934592) AS h FROM b2),
s AS (SELECT COUNT(*) AS n, SUM(h) % 18446744073709551616::HUGEINT AS c FROM b3)
SELECT CAST(n AS BIGINT) AS n_rows,
       CAST(CASE WHEN c >= 9223372036854775808::HUGEINT
                 THEN c - 18446744073709551616::HUGEINT ELSE c END AS BIGINT)
         AS checksum
FROM s
"""


def q_gap_histogram(sf_dir: str):
    """Inter-arrival-time distribution: per-user event gaps bucketed to
    whole minutes, counted corpus-wide — the burstiness fingerprint of
    a telemetry stream (pure composition: window_lag → exact integer
    bucket → combine-tree count)."""
    ds = rd.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "ts"]
    )
    lagd = ops.window_lag(
        ds, key="user_id", ts="ts", value_col="ts",
        out_col="prev_ts", order_tiebreak="event_id",
    )

    def bucketize(batch: pa.Table) -> pa.Table:
        prev = batch["prev_ts"]
        ok = pc.is_valid(prev)
        sub = batch.filter(ok)
        ts = sub["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        pv = sub["prev_ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        gap_min = (ts - pv) // 60_000_000
        return pa.table({"gap_min": pa.array(gap_min, pa.int64())})

    gaps = lagd.map_batches(
        bucketize, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return ops.salted_count(gaps, ["gap_min"], count_alias="n")


SQL_GAP_HISTOGRAM = """
WITH seq AS (
  SELECT ts, LAG(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev_ts
  FROM events
)
SELECT (epoch_us(ts) - epoch_us(prev_ts)) // 60000000 AS gap_min, COUNT(*) AS n
FROM seq WHERE prev_ts IS NOT NULL
GROUP BY 1
"""


def q_window_first_last(sf_dir: str):
    """FIRST_VALUE + LAST_VALUE (whole-partition frame) per user over
    the event log in one pass each (shared bucket-window plan)."""
    ds = rd.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "value"]
    )
    out = ops.window_first_value(
        ds, key="user_id", order_cols=["event_id"], value_col="value",
        out_col="first_v",
    )
    out = ops.window_last_value(
        out, key="user_id", order_cols=["event_id"], value_col="value",
        out_col="last_v",
    )
    return out.select_columns(["event_id", "user_id", "value", "first_v", "last_v"])


SQL_WINDOW_FIRST_LAST = """
SELECT event_id, user_id, value,
       FIRST_VALUE(value) OVER w AS first_v,
       LAST_VALUE(value) OVER (PARTITION BY user_id ORDER BY event_id
         ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING) AS last_v
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY event_id)
"""


def q_range_sum(sf_dir: str):
    """Time-RANGE window: per-user 1-hour trailing sum of (quantized)
    value — the time-window twin of the rows-frame moving sum
    (ops.window_range_sum: segmented prefix sum + one global
    searchsorted over key-offset timestamps)."""
    ds = rd.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "ts", "value"]
    )

    def quantize(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "value_q", pa.array(np.floor(v * 1000.0 + 0.5).astype(np.int64))
        )

    ds = ds.map_batches(
        quantize, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    out = ops.window_range_sum(
        ds, key="user_id", ts_col="ts", value_col="value_q",
        range_us=3_600_000_000, out_col="range_sum",
    )
    return out.select_columns(["event_id", "user_id", "value_q", "range_sum"])


SQL_RANGE_SUM = """
SELECT event_id, user_id,
       CAST(floor(value * 1000.0e0 + 0.5e0) AS BIGINT) AS value_q,
       CAST(SUM(CAST(floor(value * 1000.0e0 + 0.5e0) AS BIGINT)) OVER (
         PARTITION BY user_id ORDER BY epoch_us(ts)
         RANGE BETWEEN 3600000000 PRECEDING AND CURRENT ROW) AS BIGINT)
         AS range_sum
FROM events
"""


def q_range_min(sf_dir: str):
    """Time-RANGE window MIN over the event stream (1-hour frame,
    peer-inclusive): no prefix-difference trick exists for extremes, so
    the engine answers every variable-width frame from a per-bucket
    sparse table (ops.window_range_minmax — O(n log n) build, two
    lookups per row). Float-exact, so the SQL twin needs no
    quantization."""
    ds = rd.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "ts", "value"]
    )
    out = ops.window_range_minmax(
        ds, key="user_id", ts_col="ts", value_col="value",
        range_us=3_600_000_000, stat="min",
    )
    return out.select_columns(["event_id", "user_id", "value", "range_min"])


SQL_RANGE_MIN = """
SELECT event_id, user_id, value,
       MIN(value) OVER (
         PARTITION BY user_id ORDER BY epoch_us(ts)
         RANGE BETWEEN 3600000000 PRECEDING AND CURRENT ROW) AS range_min
FROM events
"""


def q_skyline(sf_dir: str):
    """Two-criteria SKYLINE of the part table: parts where no other
    part is both cheaper-or-equal and larger-or-equal (strictly better
    on one) — minimize p_retailprice, maximize p_size. Distributed by
    the skyline algebra (front of union = front of union of per-block
    fronts; ops.skyline2); the SQL twin is the NOT EXISTS domination
    query."""
    ds = rd.read_parquet(
        _t(sf_dir, "part"), columns=["p_partkey", "p_retailprice", "p_size"]
    )
    return ops.skyline2(
        ds, "p_retailprice", "p_size", maximize_a=False, maximize_b=True,
        keep_cols=["p_partkey", "p_retailprice", "p_size"],
    )


SQL_SKYLINE = """
SELECT m.p_partkey, m.p_retailprice, m.p_size
FROM part m
WHERE NOT EXISTS (
  SELECT 1 FROM part o
  WHERE o.p_retailprice <= m.p_retailprice AND o.p_size >= m.p_size
    AND (o.p_retailprice < m.p_retailprice OR o.p_size > m.p_size)
)
"""


OHLC_PERIOD_US = 86_400_000_000


def q_ohlc(sf_dir: str):
    """Per-(user, day) OHLC bars of the event value — time-series
    resampling in TWO streaming passes with zero corpus shuffles
    (ops.ohlc_bars: combine-tree boundary stats, then a broadcast
    boundary-row pick)."""
    ds = rd.read_parquet(
        _t(sf_dir, "events"), columns=["user_id", "ts", "value"]
    )
    return ops.ohlc_bars(ds, "user_id", "ts", "value", OHLC_PERIOD_US)


SQL_OHLC = f"""
WITH base AS (
  SELECT user_id, epoch_us(ts) // {OHLC_PERIOD_US} AS period,
         epoch_us(ts) AS tu, value
  FROM events
),
b AS (
  SELECT user_id, period, MIN(tu) AS mn, MAX(tu) AS mx,
         MIN(value) AS low, MAX(value) AS high, COUNT(*) AS n
  FROM base GROUP BY 1, 2
),
oc AS (
  SELECT x.user_id, x.period,
         MIN(CASE WHEN x.tu = b.mn THEN x.value END) AS open,
         MIN(CASE WHEN x.tu = b.mx THEN x.value END) AS close
  FROM base x JOIN b USING (user_id, period) GROUP BY 1, 2
)
SELECT user_id, period, open, high, low, close, n
FROM b JOIN oc USING (user_id, period)
"""


def q_window_moving(sf_dir: str):
    """Per-user 5-row moving event count (ROWS 4 PRECEDING frame over
    (ts, event_id)): segmented cumsum differences, exact for integer
    values."""
    ds = rd.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "ts"]
    )

    def add_one(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "one", pa.array(np.ones(len(batch), dtype=np.float64))
        )

    ds = ds.map_batches(add_one, batch_format="pyarrow", zero_copy_batch=True,
                        batch_size=None)
    out = ops.window_moving_sum(
        ds, key="user_id", ts="ts", value_col="one", window_rows=5,
        out_col="moving_n", order_tiebreak="event_id",
    )
    return out.select_columns(["event_id", "user_id", "moving_n"])


SQL_WINDOW_MOVING = """
SELECT event_id, user_id,
       CAST(COUNT(*) OVER (
         PARTITION BY user_id ORDER BY ts, event_id
         ROWS BETWEEN 4 PRECEDING AND CURRENT ROW
       ) AS DOUBLE) AS moving_n
FROM events
"""


def q_window_rank(sf_dir: str):
    """Per-user event rank (1-based ROW_NUMBER over (ts, event_id)):
    the windowed rank column over the bucket shuffle."""
    ds = rd.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "ts"]
    )
    out = ops.window_rank(ds, key="user_id", order_cols=["ts", "event_id"])
    return out.select_columns(["event_id", "user_id", "rank"])


SQL_WINDOW_RANK = """
SELECT event_id, user_id,
       ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rank
FROM events
"""


def q_window_dense_rank(sf_dir: str):
    """Per-user DENSE_RANK over ts (ties — simultaneous events — share a
    rank with no gaps)."""
    ds = rd.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "ts"]
    )
    out = ops.window_dense_rank(ds, key="user_id", order_cols=["ts"])
    return out.select_columns(["event_id", "user_id", "dense_rank"])


SQL_WINDOW_DENSE_RANK = """
SELECT event_id, user_id,
       DENSE_RANK() OVER (PARTITION BY user_id ORDER BY ts) AS dense_rank
FROM events
"""


def q_window_percent_rank(sf_dir: str):
    """Per-user PERCENT_RANK over ts (RANK tie semantics; the single
    double division replicated expression-for-expression)."""
    ds = rd.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "ts"]
    )
    out = ops.window_percent_rank(ds, key="user_id", order_cols=["ts"])
    return out.select_columns(["event_id", "user_id", "pct_rank"])


SQL_WINDOW_PERCENT_RANK = """
SELECT event_id, user_id,
       PERCENT_RANK() OVER (PARTITION BY user_id ORDER BY ts) AS pct_rank
FROM events
"""


def q_window_cume_dist(sf_dir: str):
    """Per-user CUME_DIST over ts."""
    ds = rd.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "ts"]
    )
    out = ops.window_cume_dist(ds, key="user_id", order_cols=["ts"])
    return out.select_columns(["event_id", "user_id", "cume_dist"])


SQL_WINDOW_CUME_DIST = """
SELECT event_id, user_id,
       CUME_DIST() OVER (PARTITION BY user_id ORDER BY ts) AS cume_dist
FROM events
"""


def q_window_row_number(sf_dir: str):
    """Per-user ROW_NUMBER over (ts, event_id) — unique tiebreak makes
    it deterministic."""
    ds = rd.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "ts"]
    )
    out = ops.window_row_number(ds, key="user_id", order_cols=["ts", "event_id"])
    return out.select_columns(["event_id", "user_id", "row_number"])


SQL_WINDOW_ROW_NUMBER = """
SELECT event_id, user_id,
       ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts, event_id)
         AS row_number
FROM events
"""


def q_window_lead(sf_dir: str):
    """Per-user LEAD(value) over (ts, event_id)."""
    ds = rd.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "ts", "value"]
    )
    out = ops.window_lead(
        ds, key="user_id", order_cols=["ts", "event_id"], value_col="value"
    )
    return out.select_columns(["event_id", "user_id", "lead_value"])


SQL_WINDOW_LEAD = """
SELECT event_id, user_id,
       LEAD(value) OVER (PARTITION BY user_id ORDER BY ts, event_id)
         AS lead_value
FROM events
"""


def q_unpivot(sf_dir: str):
    """Wide→long melt of part's numeric columns (SQL UNPIVOT as
    UNION ALL replica) — pure row expansion, no shuffle."""
    ds = rd.read_parquet(
        _t(sf_dir, "part"), columns=["p_partkey", "p_size", "p_retailprice"]
    )
    return ops.unpivot(
        ds, id_cols=["p_partkey"], value_cols=["p_size", "p_retailprice"]
    )


SQL_UNPIVOT = """
SELECT p_partkey, 'p_size' AS variable, CAST(p_size AS DOUBLE) AS value
FROM part
UNION ALL
SELECT p_partkey, 'p_retailprice' AS variable, p_retailprice AS value
FROM part
"""


def q_json_extract(sf_dir: str):
    """Schema-on-read over the semi-structured props column: extract the
    integer field k from each event's JSON payload inside Arrow's RE2
    kernel (no JSON parser, no per-row Python), then a per-k salted
    count."""
    ds = rd.read_parquet(_t(sf_dir, "events"), columns=["event_id", "props"])
    ds = ops.json_extract_scalar(ds, col="props", key="k", as_type="int")
    return ops.salted_count(
        ds.select_columns(["k"]), "k", count_alias="n"
    )


SQL_JSON_EXTRACT = """
SELECT CAST(json_extract(props, '$.k') AS BIGINT) AS k,
       COUNT(*) AS n
FROM events
GROUP BY 1
"""


def q_window_ntile(sf_dir: str):
    """Per-user NTILE(4) over (ts, event_id) — equi-depth position
    quartiles per key."""
    ds = rd.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "ts"]
    )
    out = ops.window_ntile(
        ds, key="user_id", order_cols=["ts", "event_id"], n_tiles=4
    )
    return out.select_columns(["event_id", "user_id", "tile"])


SQL_WINDOW_NTILE = """
SELECT event_id, user_id,
       NTILE(4) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS tile
FROM events
"""


def q_markov_transitions(sf_dir: str):
    """First-order Markov transition counts over per-user event-type
    sequences (ops.markov_transitions — one key-bucket co-shuffle,
    per-bucket vectorized shift, combine-tree merge; result bounded by
    |event types|²)."""
    ds = rd.read_parquet(
        _t(sf_dir, "events"),
        columns=["event_id", "user_id", "ts", "event_type"],
    )
    return ops.markov_transitions(
        ds, key="user_id", ts="ts", state_col="event_type",
        order_tiebreak="event_id",
    )


SQL_MARKOV = """
WITH seq AS (
  SELECT user_id, event_type,
         LAG(event_type) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
         ) AS prev
  FROM events
)
SELECT prev AS from_state, event_type AS to_state, count(*) AS c
FROM seq
WHERE prev IS NOT NULL AND event_type IS NOT NULL
GROUP BY prev, event_type
"""


def q_extract_props(sf_dir: str):
    """Typed field extraction from the semi-structured event props
    column (ops.add_regex_extract — Arrow C++ RE2, row-preserving),
    then per-event-type stats of the extracted value: (type, n,
    k_sum) with a null-safe sum."""
    ds = rd.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "event_type", "props"]
    )
    ds = ops.add_regex_extract(
        ds, "props", r'"k":\s*(?P<v>-?\d+)', "k_val", cast=pa.int64()
    )

    def project(batch: pa.Table) -> pa.Table:
        kv = batch["k_val"]
        filled = pc.fill_null(kv, 0)
        return pa.table(
            {
                "event_type": batch["event_type"],
                "k_fill": filled,
            }
        )

    ds = ds.map_batches(
        project, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    out = ops.salted_count(
        ds, ["event_type"], agg_cols={"k_fill": "sum"}, count_alias="n"
    )

    def to_int(batch: pa.Table) -> pa.Table:
        s = batch["sum_k_fill"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "event_type": batch["event_type"],
                "n": batch["n"],
                "k_sum": pa.array(s, pa.int64()),
            }
        )

    return out.map_batches(
        to_int, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


SQL_EXTRACT_PROPS = r"""
SELECT event_type, COUNT(*) AS n,
       CAST(SUM(COALESCE(TRY_CAST(regexp_extract(props, '"k":\s*(-?\d+)', 1)
                              AS BIGINT), 0)) AS BIGINT) AS k_sum
FROM events GROUP BY event_type
"""


def q_cms(sf_dir: str):
    """Count-min sketch point estimates: frequency of every partkey ≤ 50
    from a 2×1024 CMS over the lineitem partkey stream
    (ops.count_min_sketch — bincount partials + combine tree; the
    sketch, ≤ 2048 rows, is the ONLY thing that lands on the driver).
    The murmur-finalizer hash rows are replicated in SQL HUGEINT
    arithmetic, so every counter — and thus every estimate, collisions
    included — hash-matches exactly."""
    li = rd.read_parquet(_t(sf_dir, "lineitem"), columns=["l_partkey"])
    sketch_ds = ops.count_min_sketch(li, "l_partkey", width=1024, depth=2)
    sketch = pa.Table.from_pandas(sketch_ds.to_pandas(), preserve_index=False)

    def probe_filter(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.less_equal(batch["l_partkey"], 50))

    probes = (
        ops.dedup_exact(
            li.map_batches(
                probe_filter, batch_format="pyarrow", zero_copy_batch=True,
                batch_size=None,
            ),
            "l_partkey",
        )
        .to_pandas()["l_partkey"]
        .to_numpy()
    )
    probes = np.sort(probes.astype(np.int64))
    est = ops.cms_estimate(sketch, probes, width=1024, depth=2)
    return pa.table(
        {"k": pa.array(probes, pa.int64()), "cms_est": pa.array(est, pa.int64())}
    )


def _cms_sql_chain(tag: str, add_const: int) -> str:
    """One mix64 hash-row chain over the per-key count table ``kc``
    (same HUGEINT replica as SQL_STRATIFIED_SAMPLE): w{tag} = per-key
    slot, s{tag} = per-slot summed counts."""
    return f"""
x{tag} AS (SELECT k, c, (k + {add_const}) % 18446744073709551616 AS x FROM kc),
y{tag} AS (SELECT k, c, xor(x, x // 8589934592) AS h1 FROM x{tag}),
z{tag} AS (SELECT k, c, ((h1 % 4294967296) * 18397679294719823053
        + ((h1 // 4294967296) * 18397679294719823053 % 4294967296) * 4294967296
        ) % 18446744073709551616 AS h2 FROM y{tag}),
w{tag} AS (SELECT k, c, xor(h2, h2 // 8589934592) % 1024 AS slot FROM z{tag}),
s{tag} AS (SELECT slot, CAST(SUM(c) AS BIGINT) AS n FROM w{tag} GROUP BY slot)"""


SQL_CMS = f"""
WITH kc AS (
  SELECT CAST(l_partkey AS HUGEINT) AS k, COUNT(*) AS c
  FROM lineitem GROUP BY l_partkey
),{_cms_sql_chain("0", 0)},{_cms_sql_chain("1", 11400714819323198485)}
SELECT CAST(p0.k AS BIGINT) AS k, LEAST(s0.n, s1.n) AS cms_est
FROM w0 p0
JOIN s0 ON s0.slot = p0.slot
JOIN w1 p1 ON p1.k = p0.k
JOIN s1 ON s1.slot = p1.slot
WHERE p0.k <= 50
"""


def q_hll(sf_dir: str):
    """HyperLogLog distinct sketch of l_partkey (ops.hll_distinct — 256
    max-rank registers, combine-tree merged; the estimate is pure
    integer arithmetic so the whole sketch, estimate included, is
    SQL-reproducible). Returns all 256 registers + the raw estimate +
    the empty-register count."""
    ds = rd.read_parquet(_t(sf_dir, "lineitem"), columns=["l_partkey"])
    return ops.hll_distinct(ds, "l_partkey")


SQL_HLL = """
WITH x AS (SELECT CAST(l_partkey AS HUGEINT) AS x FROM lineitem),
h1t AS (SELECT xor(x, x // 8589934592) AS h1 FROM x),
h2t AS (SELECT ((h1 % 4294967296) * 18397679294719823053
      + ((h1 // 4294967296) * 18397679294719823053 % 4294967296) * 4294967296
      ) % 18446744073709551616 AS h2 FROM h1t),
ht AS (SELECT xor(h2, h2 // 8589934592) AS h FROM h2t),
rk AS (SELECT h % 256 AS bucket,
              CASE WHEN h // 256 = 0 THEN 57
                   ELSE CAST(log2((xor(h // 256, h // 256 - 1) + 1) // 2)
                             AS BIGINT) + 1 END AS r
       FROM ht),
reg AS (SELECT bucket, MAX(r) AS r FROM rk GROUP BY bucket),
regs AS (
  SELECT allb.bucket, COALESCE(reg.r, 0) AS r
  FROM (SELECT unnest(generate_series(0, 255)) AS bucket) allb
  LEFT JOIN reg ON allb.bucket = reg.bucket
),
s AS (
  SELECT SUM(CAST(CAST(1 AS BIGINT) << (57 - r) AS HUGEINT)) AS ssum,
         SUM(CASE WHEN r = 0 THEN 1 ELSE 0 END) AS nz
  FROM regs
)
SELECT CAST(regs.bucket AS BIGINT) AS bucket, CAST(regs.r AS BIGINT) AS r,
       CAST(LEAST(6783892839851034148864::HUGEINT // s.ssum,
                  4611686018427387904::HUGEINT) AS BIGINT) AS distinct_est,
       CAST(s.nz AS BIGINT) AS n_zero
FROM regs, s
"""


def q_window_share(sf_dir: str):
    """Per-supplier share of each lineitem's quantity (percent-of-total
    window, exact integer arithmetic — ops.window_share)."""
    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_linenumber", "l_suppkey", "l_quantity"],
    )
    out = ops.window_share(ds, key="l_suppkey", value_col="l_quantity")
    return out.select_columns(
        ["l_orderkey", "l_linenumber", "l_suppkey", "share_q"]
    )


SQL_WINDOW_SHARE = """
SELECT l_orderkey, l_linenumber, l_suppkey,
       CAST((CAST(l_quantity AS BIGINT) * 1048576)
         // SUM(CAST(l_quantity AS BIGINT)) OVER (PARTITION BY l_suppkey)
         AS BIGINT) AS share_q
FROM lineitem
"""


def q_window_cumsum(sf_dir: str):
    """Per-user running total of l_quantity-style integer values: running
    count of each user's events ordered by (ts, event_id) — segmented
    cumsum over the bucket shuffle (integer-valued ⇒ exact)."""
    ds = rd.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "ts"]
    )

    def add_one(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "one", pa.array(np.ones(len(batch), dtype=np.float64))
        )

    ds = ds.map_batches(add_one, batch_format="pyarrow", zero_copy_batch=True,
                        batch_size=None)
    out = ops.window_cumsum(
        ds, key="user_id", ts="ts", value_col="one",
        out_col="running_n", order_tiebreak="event_id",
    )
    return out.select_columns(["event_id", "user_id", "ts", "running_n"])


SQL_WINDOW_CUMSUM = """
SELECT event_id, user_id, ts,
       CAST(COUNT(*) OVER (
         PARTITION BY user_id ORDER BY ts, event_id
         ROWS UNBOUNDED PRECEDING
       ) AS DOUBLE) AS running_n
FROM events
"""


def q_focal_sum(sf_dir: str):
    """Raster focal 3×3 sum over the per-cell point histogram (the
    smoothing kernel): histogram via salted count, then one broadcast
    searchsorted probe per cell — no second shuffle."""
    hist = q_grid_cell_count(sf_dir)
    return ops.focal_sum(hist, "grid_cell", "n", k=1, nx=360)


SQL_FOCAL_SUM = f"""
WITH h AS ({SQL_GRID_CELL_COUNT}),
g AS (
  SELECT grid_cell, n,
         grid_cell // 100000 AS gx, grid_cell % 100000 AS gy
  FROM h
),
o(d) AS (VALUES (-1), (0), (1))
SELECT a.grid_cell AS grid_cell,
       CAST(ANY_VALUE(a.n) AS BIGINT) AS n,
       CAST(SUM(b.n) AS BIGINT) AS focal_n
FROM g a
CROSS JOIN o ox CROSS JOIN o oy
JOIN g b
  ON b.gx = (a.gx + ox.d + 360) % 360 AND b.gy = a.gy + oy.d
GROUP BY a.grid_cell
"""


def q_focal_max(sf_dir: str):
    """Raster focal 3×3 MAX (morphological dilation) over the per-cell
    histogram — same broadcast searchsorted probe as focal_sum."""
    hist = q_grid_cell_count(sf_dir)
    return ops.focal_sum(
        hist, "grid_cell", "n", k=1, nx=360, out_col="focal_max", stat="max"
    )


SQL_FOCAL_MAX = f"""
WITH h AS ({SQL_GRID_CELL_COUNT}),
g AS (
  SELECT grid_cell, n,
         grid_cell // 100000 AS gx, grid_cell % 100000 AS gy
  FROM h
),
o(d) AS (VALUES (-1), (0), (1))
SELECT a.grid_cell AS grid_cell,
       CAST(ANY_VALUE(a.n) AS BIGINT) AS n,
       CAST(MAX(b.n) AS BIGINT) AS focal_max
FROM g a
CROSS JOIN o ox CROSS JOIN o oy
JOIN g b
  ON b.gx = (a.gx + ox.d + 360) % 360 AND b.gy = a.gy + oy.d
GROUP BY a.grid_cell
"""


def _geohash_sql(precision: int, src: str) -> str:
    """ANSI-SQL replica of ``cells.geohash`` (floor-scale → clamp →
    MSB-first lon-first Morton interleave → base32 digits): digit-for-
    digit identical to the numpy codec. ``src`` must yield lon/lat."""
    bits = 5 * precision // 2
    scale = 1 << bits
    morton = " | ".join(
        f"(((ix >> {b}) & 1) << {2 * b + 1}) | (((iy >> {b}) & 1) << {2 * b})"
        for b in range(bits)
    )
    digits = " || ".join(
        f"substr('{cells.GEOHASH_ALPHABET}', "
        f"CAST(((v >> {5 * (precision - 1 - i)}) & 31) AS INT) + 1, 1)"
        for i in range(precision)
    )
    return f"""
WITH pts AS ({src}),
scaled AS (
  SELECT LEAST(GREATEST(CAST(FLOOR((lon + 180)/360.0 * {scale}) AS BIGINT), 0), {scale - 1}) AS ix,
         LEAST(GREATEST(CAST(FLOOR((lat + 90)/180.0 * {scale}) AS BIGINT), 0), {scale - 1}) AS iy
  FROM pts
),
morton AS (SELECT ({morton}) AS v FROM scaled)
SELECT ({digits}) AS geohash, COUNT(*) AS n FROM morton GROUP BY 1
"""


def q_geohash_count(sf_dir: str):
    """Geohash-6 histogram over the lineitem points (third cell system
    beside S2-style and the equirect grid; codec replicated in SQL)."""
    ds = lineitem_points(sf_dir)
    ds = ops.add_geohash_column(ds, precision=6)
    return ops.salted_count(ds, "geohash", count_alias="n")


SQL_GEOHASH_COUNT = _geohash_sql(6, f"SELECT {LI_LON} AS lon, {LI_LAT} AS lat FROM lineitem")


def q_bounds(sf_dir: str):
    """box_agg kernel over the whole table (never-null global bounds)."""
    ds = lineitem_points(sf_dir)
    xmin, ymin, xmax, ymax = ops.box_agg(ds, "geotag")
    return pa.table(
        {
            "xmin": pa.array([xmin]),
            "ymin": pa.array([ymin]),
            "xmax": pa.array([xmax]),
            "ymax": pa.array([ymax]),
        }
    )


SQL_BOUNDS = f"""
SELECT MIN(lon) AS xmin, MIN(lat) AS ymin, MAX(lon) AS xmax, MAX(lat) AS ymax
FROM ({_LI_POINT_SQL})
"""


def q_centroid_by_flag(sf_dir: str):
    """Grouped centroid (mean of coords) — rounded to 6 dp on both sides
    to absorb summation-order last-bit drift."""
    ds = lineitem_points(sf_dir, extra_cols=["l_returnflag"])

    def expand(batch: pa.Table) -> pa.Table:
        v = native.view(batch["geotag"].combine_chunks())
        return pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "sx": pa.array(v.coords[:, 0]),
                "sy": pa.array(v.coords[:, 1]),
            }
        )

    agg = ops.salted_count(
        ds.map_batches(expand, batch_format="pyarrow", zero_copy_batch=True, batch_size=None),
        "l_returnflag",
        agg_cols={"sx": "sum", "sy": "sum"},
        count_alias="n",
    )

    def finalize(batch: pa.Table) -> pa.Table:
        sx = batch["sum_sx"].to_numpy(zero_copy_only=False)
        sy = batch["sum_sy"].to_numpy(zero_copy_only=False)
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "cx": pa.array(np.round(sx / n, 6)),
                "cy": pa.array(np.round(sy / n, 6)),
                "n": pa.array(n.astype(np.int64)),
            }
        )

    return agg.map_batches(finalize, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)


SQL_CENTROID_BY_FLAG = f"""
SELECT l_returnflag, ROUND(SUM(lon)/COUNT(*), 6) AS cx,
       ROUND(SUM(lat)/COUNT(*), 6) AS cy, COUNT(*) AS n
FROM (SELECT l_returnflag, {LI_LON} AS lon, {LI_LAT} AS lat FROM lineitem)
GROUP BY l_returnflag
"""


def q_pip_box_join(sf_dir: str):
    """Broadcast point-in-polygon join (boxes as polygons), counted per
    polygon with the count pushed into the probe stage (no 4M-row wide
    intermediate). Half-open box semantics [xmin,xmax)×[ymin,ymax) follow
    from the even-odd crossing rule on the reference ring order."""
    from georay.joins import pip_count

    polys = part_box_polygons(sf_dir)
    pts = lineitem_points(sf_dir)
    return pip_count(pts, polys, geometry_col="geometry", id_col="p_partkey")


def q_pip_str(sf_dir: str):
    """The SAME per-polygon PIP counts through the STR-packed R-tree
    broadcast index (joins.pip_count(index="str") — the identical
    pushed-count plan as pip_box_join, only the candidate generator
    differs) — must hash-match pip_box_join exactly."""
    from georay.joins import pip_count

    polys = part_box_polygons(sf_dir)
    pts = lineitem_points(sf_dir)
    return pip_count(
        pts, polys, geometry_col="geometry", id_col="p_partkey", index="str"
    )


SQL_PIP_BOX_JOIN = f"""
WITH pts AS ({_LI_POINT_SQL}),
boxes AS (
  SELECT p_partkey,
         {PART_CX} AS cx, {PART_CY} AS cy, {PART_W} AS w, {PART_H} AS h
  FROM part
)
SELECT b.p_partkey AS p_partkey, COUNT(*) AS n
FROM boxes b JOIN pts p
  ON p.lon >= b.cx - b.w AND p.lon < b.cx + b.w
 AND p.lat >= b.cy - b.h AND p.lat < b.cy + b.h
GROUP BY b.p_partkey
"""


def q_pip_partitioned(sf_dir: str):
    """The SAME point-in-box join as pip_box_join, executed by the
    co-partitioned both-sides-large strategy (groupby(cell) shuffle, no
    broadcast) — the two physical plans must agree bit-for-bit."""
    from georay.joins import pip_join_partitioned

    polys = rd.from_arrow(part_box_polygons(sf_dir))
    pts = lineitem_points(sf_dir)
    pairs = pip_join_partitioned(
        pts, polys, id_col="p_partkey", point_id_col="l_orderkey", res=4.0
    )
    out = ops.salted_count(pairs, "p_partkey", count_alias="n")
    return out


SQL_PIP_PARTITIONED = SQL_PIP_BOX_JOIN


def q_equi_join(sf_dir: str):
    """Both-sides-large equality join: orders ⋈ customer on custkey via
    hash-bucket co-shuffle + per-bucket Arrow hash join (no broadcast —
    the scale plan when neither side fits a worker)."""
    orders = rd.read_parquet(_t(sf_dir, "orders"), columns=["o_orderkey", "o_custkey"])
    cust = rd.read_parquet(_t(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"])
    return ops.equi_join_partitioned(
        orders, cust, on="o_custkey", right_on="c_custkey"
    )


SQL_EQUI_JOIN = """
SELECT o.o_orderkey, o.o_custkey, c.c_nationkey
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
"""


def q_quantiles(sf_dir: str):
    """Exact distributed quantiles of l_quantity (quantile_disc
    semantics) via the value-histogram plan — only (value, count) rows
    move, never the corpus."""
    ds = rd.read_parquet(_t(sf_dir, "lineitem"), columns=["l_quantity"])
    return ops.exact_quantiles(ds, "l_quantity", [0.01, 0.25, 0.5, 0.9, 0.99])


SQL_QUANTILES = """
SELECT q, v FROM (
  SELECT 0.01 AS q, quantile_disc(l_quantity, 0.01) AS v FROM lineitem
  UNION ALL
  SELECT 0.25, quantile_disc(l_quantity, 0.25) FROM lineitem
  UNION ALL
  SELECT 0.5, quantile_disc(l_quantity, 0.5) FROM lineitem
  UNION ALL
  SELECT 0.9, quantile_disc(l_quantity, 0.9) FROM lineitem
  UNION ALL
  SELECT 0.99, quantile_disc(l_quantity, 0.99) FROM lineitem
)
"""


def q_quantiles_cont(sf_dir: str):
    """Interpolated exact quantiles (PERCENTILE_CONT semantics) of
    l_quantity — same value-histogram plan, DuckDB-matched linear
    interpolation."""
    ds = rd.read_parquet(_t(sf_dir, "lineitem"), columns=["l_quantity"])
    return ops.exact_quantiles_cont(
        ds, "l_quantity", [0.01, 0.25, 0.5, 0.9, 0.99]
    )


SQL_QUANTILES_CONT = """
SELECT q, v FROM (
  SELECT 0.01 AS q, quantile_cont(CAST(l_quantity AS DOUBLE), 0.01) AS v FROM lineitem
  UNION ALL
  SELECT 0.25, quantile_cont(CAST(l_quantity AS DOUBLE), 0.25) FROM lineitem
  UNION ALL
  SELECT 0.5, quantile_cont(CAST(l_quantity AS DOUBLE), 0.5) FROM lineitem
  UNION ALL
  SELECT 0.9, quantile_cont(CAST(l_quantity AS DOUBLE), 0.9) FROM lineitem
  UNION ALL
  SELECT 0.99, quantile_cont(CAST(l_quantity AS DOUBLE), 0.99) FROM lineitem
)
"""


def q_profile(sf_dir: str):
    """Data-profiling pass over lineitem: per-column n/n_null/min/max/sum
    in ONE streaming pass (per-batch partial row per column, combine-tree
    merge with per-column reducers)."""
    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_quantity", "l_returnflag"],
    )
    return ops.profile_columns(ds, ["l_orderkey", "l_quantity", "l_returnflag"])


SQL_PROFILE = """
SELECT 'l_orderkey' AS "column", COUNT(*) AS n,
       COUNT(*) - COUNT(l_orderkey) AS n_null,
       CAST(CAST(MIN(l_orderkey) AS DOUBLE) AS VARCHAR) AS "min",
       CAST(CAST(MAX(l_orderkey) AS DOUBLE) AS VARCHAR) AS "max",
       CAST(SUM(l_orderkey) AS DOUBLE) AS "sum"
FROM lineitem
UNION ALL
SELECT 'l_quantity', COUNT(*), COUNT(*) - COUNT(l_quantity),
       CAST(CAST(MIN(l_quantity) AS DOUBLE) AS VARCHAR),
       CAST(CAST(MAX(l_quantity) AS DOUBLE) AS VARCHAR),
       CAST(SUM(l_quantity) AS DOUBLE)
FROM lineitem
UNION ALL
SELECT 'l_returnflag', COUNT(*), COUNT(*) - COUNT(l_returnflag),
       MIN(l_returnflag), MAX(l_returnflag), CAST('nan' AS DOUBLE)
FROM lineitem
"""


def q_grouped_quantiles(sf_dir: str):
    """Per-returnflag exact quantiles of l_quantity (keyed value
    histogram, vectorized per-key cumulative pick)."""
    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_returnflag", "l_quantity"]
    )
    return ops.grouped_quantiles(ds, "l_returnflag", "l_quantity", [0.25, 0.5, 0.99])


def q_dq_audit(sf_dir: str):
    """Data-quality RULE audit — one ``(rule, n_bad)`` row per check,
    the contract-enforcement layer a 100-TB ingest runs before
    publishing a snapshot (``profile``/``analyze`` describe the data;
    this op judges it):

      fk_li_orders      lineitem.l_orderkey without an orders match
      ship_before_order l_shipdate earlier than its order's orderdate
                        } these two SHARE one partitioned left-outer
                        join (unmatched row = orphan; matched rows
                        feed the date predicate) — keys + one payload
                        column shuffle once
      fk_orders_cust    orders.o_custkey not in customer (dimension
                        BROADCAST is_in probe, no shuffle)
      pk_dup_orders     duplicate o_orderkey rows = n − exact distinct
                        (combine-tree distinct — keys move once)
      qty_hi            l_quantity > 45
      disc_hi           l_discount > 0.08   } one shared streaming
                        pass, two partial counters
    """
    import pyarrow.parquet as _pq

    # rules 4+5: ONE pruned lineitem scan, both counters per batch
    li = rd.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_quantity", "l_discount"]
    )

    def pred_partials(batch: pa.Table) -> pa.Table:
        q = batch["l_quantity"].to_numpy(zero_copy_only=False)
        d = batch["l_discount"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "k": pa.array([0], pa.int64()),
                "partial_qty": pa.array([int((q > 45).sum())], pa.int64()),
                "partial_disc": pa.array([int((d > 0.08).sum())], pa.int64()),
            }
        )

    pred = ops.tree_sum(
        li.map_batches(pred_partials, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["k"], {"partial_qty": "qty_hi", "partial_disc": "disc_hi"},
        int_cols=("partial_qty", "partial_disc"),
    ).to_pandas()
    qty_hi = int(pred["qty_hi"].iloc[0])
    disc_hi = int(pred["disc_hi"].iloc[0])

    # rules 1+6 share ONE partitioned left-outer join (lineitem keys +
    # shipdate vs orders keys + orderdate): an unmatched row is an FK
    # orphan, a matched one feeds the temporal sanity predicate
    lis = rd.read_parquet(_t(sf_dir, "lineitem"),
                          columns=["l_orderkey", "l_shipdate"])
    od = rd.read_parquet(_t(sf_dir, "orders"),
                         columns=["o_orderkey", "o_orderdate"])
    joined = ops.equi_join_partitioned(
        lis, od, on="l_orderkey", right_on="o_orderkey", how="left"
    )

    def li_rules_partial(batch: pa.Table) -> pa.Table:
        matched = pc.is_valid(batch["o_orderdate"])
        orphan = len(batch) - (pc.sum(matched).as_py() or 0)
        early = pc.sum(
            pc.and_kleene(
                matched, pc.less(batch["l_shipdate"], batch["o_orderdate"])
            )
        ).as_py() or 0
        return pa.table(
            {"k": pa.array([0], pa.int64()),
             "partial_orphan": pa.array([int(orphan)], pa.int64()),
             "partial_early": pa.array([int(early)], pa.int64())}
        )

    li_rules = ops.tree_sum(
        joined.map_batches(li_rules_partial, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None),
        ["k"], {"partial_orphan": "orphan", "partial_early": "early"},
        int_cols=("partial_orphan", "partial_early"),
    ).to_pandas()
    fk_li = int(li_rules["orphan"].iloc[0])
    early = int(li_rules["early"].iloc[0])

    # rule 2: dimension FK — broadcast customer key set, is_in probe
    ck = _pq.read_table(_t(sf_dir, "customer"), columns=["c_custkey"])[
        "c_custkey"
    ].combine_chunks()
    ck_ref = exchange.broadcast(ck)

    def orphan_partial(batch: pa.Table) -> pa.Table:
        keys = ck_ref.get()
        bad = pc.sum(
            pc.invert(pc.is_in(batch["o_custkey"], value_set=keys))
        ).as_py() or 0
        return pa.table(
            {"k": pa.array([0], pa.int64()),
             "partial_bad": pa.array([int(bad)], pa.int64())}
        )

    oc = rd.read_parquet(_t(sf_dir, "orders"), columns=["o_custkey"])
    fk_cust = int(
        ops.tree_sum(
            oc.map_batches(orphan_partial, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None),
            ["k"], {"partial_bad": "bad"}, int_cols=("partial_bad",),
        ).to_pandas()["bad"].iloc[0]
    )

    # rule 3: PK uniqueness — n − exact distinct via the combine tree
    okeys = rd.read_parquet(_t(sf_dir, "orders"), columns=["o_orderkey"])
    n_orders = okeys.count()

    def key_partial(batch: pa.Table) -> pa.Table:
        k = batch["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"o_orderkey": pa.array(np.unique(k), pa.int64()),
                         "partial_one": pa.array(
                             np.ones(np.unique(k).shape[0], np.int64))})

    n_distinct = ops.tree_sum(
        okeys.map_batches(key_partial, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None),
        ["o_orderkey"], {"partial_one": "c"}, int_cols=("partial_one",),
    ).count()
    pk_dup = n_orders - n_distinct

    return pa.table(
        {
            "rule": pa.array(
                ["disc_hi", "fk_li_orders", "fk_orders_cust",
                 "pk_dup_orders", "qty_hi", "ship_before_order"],
                pa.string(),
            ),
            "n_bad": pa.array(
                [disc_hi, fk_li, fk_cust, pk_dup, qty_hi, early], pa.int64()
            ),
        }
    )


SQL_DQ_AUDIT = """
SELECT 'fk_li_orders' AS rule, COUNT(*) AS n_bad
FROM lineitem l LEFT JOIN orders o ON o.o_orderkey = l.l_orderkey
WHERE o.o_orderkey IS NULL
UNION ALL
SELECT 'fk_orders_cust', COUNT(*)
FROM orders o LEFT JOIN customer c ON c.c_custkey = o.o_custkey
WHERE c.c_custkey IS NULL
UNION ALL
SELECT 'pk_dup_orders', COUNT(*) - COUNT(DISTINCT o_orderkey) FROM orders
UNION ALL
SELECT 'qty_hi', COUNT(*) FROM lineitem WHERE l_quantity > 45
UNION ALL
SELECT 'disc_hi', COUNT(*) FROM lineitem WHERE l_discount > 0.08
UNION ALL
SELECT 'ship_before_order', COUNT(*)
FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
WHERE l.l_shipdate < o.o_orderdate
"""


def q_grouped_quantiles_cont(sf_dir: str):
    """Per-returnflag PERCENTILE_CONT (linear interpolation at rank
    q·(n−1)) — the continuous twin, same keyed-histogram plan."""
    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_returnflag", "l_extendedprice"]
    )
    return ops.grouped_quantiles(
        ds, "l_returnflag", "l_extendedprice", [0.25, 0.5, 0.9], interp="cont"
    )


SQL_GROUPED_QUANTILES_CONT = """
SELECT l_returnflag, q, v FROM (
  SELECT l_returnflag, 0.25 AS q, quantile_cont(l_extendedprice, 0.25) AS v
  FROM lineitem GROUP BY l_returnflag
  UNION ALL
  SELECT l_returnflag, 0.5, quantile_cont(l_extendedprice, 0.5)
  FROM lineitem GROUP BY l_returnflag
  UNION ALL
  SELECT l_returnflag, 0.9, quantile_cont(l_extendedprice, 0.9)
  FROM lineitem GROUP BY l_returnflag
)
"""


SQL_GROUPED_QUANTILES = """
SELECT l_returnflag, q, v FROM (
  SELECT l_returnflag, 0.25 AS q, quantile_disc(l_quantity, 0.25) AS v
  FROM lineitem GROUP BY l_returnflag
  UNION ALL
  SELECT l_returnflag, 0.5, quantile_disc(l_quantity, 0.5)
  FROM lineitem GROUP BY l_returnflag
  UNION ALL
  SELECT l_returnflag, 0.99, quantile_disc(l_quantity, 0.99)
  FROM lineitem GROUP BY l_returnflag
)
"""


def q_streaming_dedup(sf_dir: str):
    """Streaming first-seen dedup (the shared-mutable-state tier:
    sharded seen-set actors, rows stream out incrementally — no
    shuffle). The surviving KEY SET is deterministic (= distinct keys),
    which the oracle pins as a count."""
    from georay.state import StreamingDedup

    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "n_chars"])
    f = StreamingDedup(n_shards=4)
    out = f.filter(ds, "n_chars")
    n = out.count()
    return pa.table({"n_distinct": pa.array([n], pa.int64())})


SQL_STREAMING_DEDUP = "SELECT COUNT(DISTINCT n_chars) AS n_distinct FROM documents"


def q_heavy_hitters(sf_dir: str):
    """φ-heavy hitters over the token stream (Misra-Gries summaries +
    exact recount — O(1/φ) state, no vocabulary-fits-a-worker
    assumption): every token with frequency > 2% of all tokens."""
    from georay.stages.text import _tokenize_flat

    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["text"])

    def flatten(batch: pa.Table) -> pa.Table:
        txt = batch["text"]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        flat, _ = _tokenize_flat(txt)
        return pa.table({"token": flat})

    toks = ds.map_batches(
        flatten, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return ops.heavy_hitters(toks, "token", phi=0.02)


SQL_HEAVY_HITTERS = r"""
WITH toks AS (
  SELECT unnest(string_split(
           trim(regexp_replace(lower(text), '\s+', ' ', 'g')), ' ')) AS token
  FROM documents
),
tot AS (SELECT COUNT(*) AS n FROM toks)
SELECT token, COUNT(*) AS n
FROM toks CROSS JOIN tot
GROUP BY token, tot.n
HAVING COUNT(*) > 0.02 * tot.n
"""


def q_tfidf_top(sf_dir: str):
    """Per-document top TF-IDF token (argmax of tf·ln(N/df), token
    tiebreak): distributed DF pass + broadcast IDF + vectorized per-doc
    scoring. Argmax (not a float sum) keeps it exactly oracle-able."""
    from georay.stages.text import doc_top_tfidf

    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return doc_top_tfidf(ds)


SQL_TFIDF_TOP = r"""
WITH toks AS (
  SELECT doc_id,
         unnest(string_split(trim(regexp_replace(lower(text), '\s+', ' ', 'g')), ' ')) AS token
  FROM documents
),
tf AS (SELECT doc_id, token, COUNT(*) AS tf FROM toks GROUP BY doc_id, token),
df AS (SELECT token, COUNT(DISTINCT doc_id) AS df FROM toks GROUP BY token),
n AS (SELECT COUNT(*) AS n FROM documents),
scored AS (
  SELECT tf.doc_id, tf.token, tf.tf,
         tf.tf * LN(CAST(n.n AS DOUBLE) / df.df) AS s
  FROM tf JOIN df USING (token) CROSS JOIN n
)
SELECT doc_id, token AS top_token, tf FROM (
  SELECT doc_id, token, tf,
         ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY s DESC, token) AS rn
  FROM scored
) WHERE rn = 1
"""


def q_token_histogram(sf_dir: str):
    """Distributed wordcount over documents.text: exact (token, n) vocab
    counts — Arrow-C tokenize + value_counts partials + Arrow-groupby
    combine tree (vocabulary-sized merge, corpus never shuffles)."""
    from georay.stages.text import token_histogram

    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["text"])
    return token_histogram(ds)


def q_quality_classifier(sf_dir: str):
    """Distributed quality-classifier training (the CCNet/fastText-style
    learned filter): logistic regression by full-batch GD where each
    iteration is ONE streaming pass emitting O(d) gradient partials —
    the corpus never concentrates. Features are real quality signals
    (mean word length, token count); the label is a planted linear
    concept over them (200·chars > 1097·tokens, the corpus-median word
    length) so recovery is checkable: the trained model must reach 90%
    training accuracy and a decreasing loss. n_docs and n_pos tie the
    featurization to SQL; the booleans pin the trainer."""
    from georay.stages import classify
    from georay.stages.text import token_count_batch

    docs = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def featurize(batch: pa.Table) -> pa.Table:
        nt = token_count_batch(batch)["n_tokens"].to_numpy(
            zero_copy_only=False).astype(np.float64)
        nc = pc.utf8_length(batch["text"]).to_numpy(
            zero_copy_only=False).astype(np.float64)
        y = (200.0 * nc > 1097.0 * nt).astype(np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "f_wordlen": pa.array(nc / np.maximum(nt, 1.0)),
                "f_tokens": pa.array(nt),
                "y": pa.array(y),
            }
        )

    fds = docs.map_batches(
        featurize, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    )
    feats = ["f_wordlen", "f_tokens"]
    model = classify.logreg_fit(fds, feats, "y", n_iter=25, lr=2.0)
    scored = classify.logreg_predict(fds, model, feats)

    def acc_partial(batch: pa.Table) -> pa.Table:
        y = batch["y"].to_numpy(zero_copy_only=False)
        p = batch["score"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "k": pa.array([0], pa.int64()),
                "partial_n": pa.array([len(batch)], pa.int64()),
                "partial_pos": pa.array([int(y.sum())]),
                "partial_ok": pa.array([int(((p > 0.5) == (y == 1)).sum())]),
            }
        )

    parts = scored.map_batches(
        acc_partial, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    )
    tot = ops.tree_sum(
        parts, "k",
        {"partial_n": "n_docs", "partial_pos": "n_pos", "partial_ok": "ok"},
        int_cols=("partial_n", "partial_pos", "partial_ok"),
    )
    loss_down = bool(model["losses"][-1] < model["losses"][0])

    def final(batch: pa.Table) -> pa.Table:
        n = batch["n_docs"].to_numpy(zero_copy_only=False)
        ok = batch["ok"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "n_docs": batch["n_docs"],
                "n_pos": batch["n_pos"],
                "acc_ok": pa.array(ok * 10 >= n * 9),
                "loss_decreased": pa.array(np.full(len(batch), loss_down)),
            }
        )

    return tot.map_batches(
        final, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


SQL_QUALITY_CLASSIFIER = r"""
SELECT CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(CASE WHEN 200 * length(text) >
                          1097 * len(regexp_extract_all(text, '\S+'))
                 THEN 1 ELSE 0 END) AS BIGINT) AS n_pos,
       TRUE AS acc_ok, TRUE AS loss_decreased
FROM documents
"""


def q_target_encode(sf_dir: str):
    """Smoothed target encoding of p_brand by (quantized) retail price
    — the categorical-ML feature op (ops.target_encode: vocabulary-
    sized combine tree + broadcast probe, no corpus shuffle)."""
    ds = rd.read_parquet(
        _t(sf_dir, "part"), columns=["p_partkey", "p_brand", "p_retailprice"]
    )

    def quantize(batch: pa.Table) -> pa.Table:
        p = batch["p_retailprice"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "price_c", pa.array(np.floor(p * 100.0 + 0.5).astype(np.int64))
        )

    ds = ds.map_batches(
        quantize, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    out = ops.target_encode(ds, "p_brand", "price_c", m=10.0)
    return out.select_columns(["p_partkey", "p_brand", "te"])


SQL_TARGET_ENCODE = """
WITH q AS (
  SELECT p_partkey, p_brand,
         CAST(floor(p_retailprice * 100.0e0 + 0.5e0) AS BIGINT) AS pq
  FROM part
),
agg AS (SELECT p_brand, CAST(SUM(pq) AS DOUBLE) AS s,
               CAST(COUNT(*) AS DOUBLE) AS n FROM q GROUP BY 1),
pr AS (SELECT CAST(SUM(pq) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE) AS prior FROM q)
SELECT q.p_partkey, q.p_brand,
       (agg.s + 10.0e0 * pr.prior) / (agg.n + 10.0e0) AS te
FROM q JOIN agg USING (p_brand) CROSS JOIN pr
"""


def q_ridge(sf_dir: str):
    """Distributed closed-form ridge regression (one streaming normal-
    equation pass + driver solve, stages.classify.ridge_fit): a planted
    linear target over lineitem columns must be recovered — n_rows ties
    the pass to SQL; the booleans pin coefficient recovery and R²."""
    from georay.stages import classify

    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_quantity", "l_discount", "l_linenumber"],
    )

    def featurize(batch: pa.Table) -> pa.Table:
        q = batch["l_quantity"].to_numpy(zero_copy_only=False)
        d = batch["l_discount"].to_numpy(zero_copy_only=False)
        ln = batch["l_linenumber"].to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        # planted target: 3·q − 40·d + 0.5·ln + 7 (deterministic)
        y = 3.0 * q - 40.0 * d + 0.5 * ln + 7.0
        return pa.table(
            {"f_q": pa.array(q), "f_d": pa.array(d), "f_ln": pa.array(ln),
             "y": pa.array(y)}
        )

    fds = ds.map_batches(
        featurize, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    model = classify.ridge_fit(fds, ["f_q", "f_d", "f_ln"], "y")
    w, b = model["w"], model["b"]
    coef_ok = bool(
        np.allclose(w, [3.0, -40.0, 0.5], atol=1e-6) and abs(b - 7.0) < 1e-5
    )
    scored = classify.ridge_predict(fds, model, ["f_q", "f_d", "f_ln"])

    def resid(batch: pa.Table) -> pa.Table:
        r = (
            batch["pred"].to_numpy(zero_copy_only=False)
            - batch["y"].to_numpy(zero_copy_only=False)
        )
        return pa.table(
            {
                "n": pa.array([len(batch)], pa.int64()),
                "sse": pa.array([float((r * r).sum())]),
            }
        )

    rows = scored.map_batches(
        resid, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).take_all()
    n = sum(r["n"] for r in rows)
    sse = sum(r["sse"] for r in rows)
    return pa.table(
        {
            "n_rows": pa.array([int(n)], pa.int64()),
            "coef_ok": pa.array([coef_ok]),
            "fit_ok": pa.array([bool(sse / max(n, 1) < 1e-10)]),
        }
    )


SQL_RIDGE = """
SELECT CAST(COUNT(*) AS BIGINT) AS n_rows, TRUE AS coef_ok, TRUE AS fit_ok
FROM lineitem
"""


def q_vocab_profile(sf_dir: str):
    """Corpus vocabulary profile (tokenizer-training sizing facts):
    distinct-token count, total token count, and hapax-legomenon count
    (tokens seen once — the long-tail mass a vocab cut drops). One
    pass over the (token, n) histogram partials; the corpus itself
    never shuffles."""
    from georay.stages.text import token_histogram

    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["text"])
    hist = token_histogram(ds)

    def partial(batch: pa.Table) -> pa.Table:
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "k": pa.array([0], pa.int64()),
                "partial_vocab": pa.array([int(n.shape[0])]),
                "partial_tokens": pa.array([int(n.sum())]),
                "partial_hapax": pa.array([int((n == 1).sum())]),
            }
        )

    parts = hist.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    out = ops.tree_sum(
        parts, "k",
        {"partial_vocab": "n_vocab", "partial_tokens": "n_tokens",
         "partial_hapax": "n_hapax"},
        int_cols=("partial_vocab", "partial_tokens", "partial_hapax"),
    )
    return out.map_batches(
        lambda b: b.drop_columns(["k"]),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )


SQL_VOCAB_PROFILE = r"""
WITH hist AS (
  SELECT token, COUNT(*) AS n
  FROM (
    SELECT unnest(string_split(
             trim(regexp_replace(lower(text), '\s+', ' ', 'g')), ' ')) AS token
    FROM documents
  ) GROUP BY token
)
SELECT CAST(COUNT(*) AS BIGINT) AS n_vocab,
       CAST(SUM(n) AS BIGINT) AS n_tokens,
       CAST(SUM(CASE WHEN n = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_hapax
FROM hist
"""


SQL_TOKEN_HISTOGRAM = r"""
SELECT token, COUNT(*) AS n
FROM (
  SELECT unnest(string_split(
           trim(regexp_replace(lower(text), '\s+', ' ', 'g')), ' ')) AS token
  FROM documents
)
GROUP BY token
"""


def q_dim_join(sf_dir: str):
    """Broadcast dimension join: attach nation/region names to the
    customer stream with map-side ``pc.index_in`` probes (dim tables
    ``exchange.broadcast`` once; no shuffle), then count customers per region name
    via the combine tree."""
    import pyarrow.parquet as pq

    nation = pq.read_table(_t(sf_dir, "nation"), columns=["n_nationkey", "n_regionkey"])
    region = pq.read_table(_t(sf_dir, "region"), columns=["r_regionkey", "r_name"])
    ds = rd.read_parquet(_t(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"])
    ds = ops.broadcast_join(ds, nation, on="c_nationkey", dim_on="n_nationkey")
    ds = ops.broadcast_join(ds, region, on="n_regionkey", dim_on="r_regionkey")
    return ops.salted_count(ds, "r_name", count_alias="n_customers")


SQL_DIM_JOIN = """
SELECT r.r_name AS r_name, COUNT(*) AS n_customers
FROM customer c
JOIN nation n ON c.c_nationkey = n.n_nationkey
JOIN region r ON n.n_regionkey = r.r_regionkey
GROUP BY r.r_name
"""


def q_curate(sf_dir: str):
    """END-TO-END curation pipeline over documents — the classic
    web-corpus recipe as ONE streaming chain: language gate (en) →
    quality floor (≥0.5) → exact dedup (md5 fingerprint, keep lowest
    doc_id) → per-source stratified sample (20 docs, splitmix hash
    order). Every stage is an existing oracled operator; the composition
    itself hash-matches SQL end-to-end."""
    from georay.stages import text as text_stage
    from georay.stages.dedup import dedup_exact_text

    ds = rd.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "text", "source"]
    )
    ds = text_stage.add_language_id(ds)
    ds = text_stage.add_quality(ds)

    def keep(batch: pa.Table) -> pa.Table:
        ok = pc.and_(
            pc.equal(batch["lang_pred"], "en"),
            pc.greater_equal(batch["quality"], 0.5),
        )
        return batch.filter(ok)

    ds = ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True,
                        batch_size=None)
    ds = text_stage.add_fingerprint(ds)
    ds = ops.dedup_exact(ds, "fingerprint", keep_col="doc_id")
    ds = ops.add_splitmix_column(ds, "doc_id", out="h")
    out = ops.group_top_k(ds, "source", ["h", "doc_id"], 20, descending=False)
    return out.select_columns(["doc_id", "source"])


SQL_CURATE = r"""
WITH s AS (
  SELECT doc_id, source, text,
    length(text)::DOUBLE AS n_chars,
    len(regexp_extract_all(text, '\S+'))::DOUBLE AS n_tokens,
    len(regexp_extract_all(text, '[0-9]'))::DOUBLE AS n_digits,
    len(regexp_extract_all(text, '[!-/:-@\[-`{-~]'))::DOUBLE AS n_punct,
    len(regexp_extract_all(lower(text), '\b(the|and|of|to|a|in|is|that|it|for)\b'))::DOUBLE AS s_en,
    len(regexp_extract_all(lower(text), '\b(der|die|das|und|ist|nicht|ein|eine|mit|von)\b'))::DOUBLE AS s_de,
    len(regexp_extract_all(lower(text), '\b(le|la|les|et|est|une|un|des|dans|pour)\b'))::DOUBLE AS s_fr,
    len(regexp_extract_all(lower(text), '\b(el|los|las|y|es|una|un|de|en|por)\b'))::DOUBLE AS s_es,
    len(regexp_extract_all(lower(text), '[一-鿿]'))::DOUBLE * 2.0 AS s_zh
  FROM documents
),
scored AS (
  SELECT doc_id, source, text,
    CASE WHEN greatest(s_en, s_de, s_fr, s_es, s_zh) = 0 THEN 'und'
         WHEN s_en >= s_de AND s_en >= s_fr AND s_en >= s_es AND s_en >= s_zh THEN 'en'
         WHEN s_de >= s_fr AND s_de >= s_es AND s_de >= s_zh THEN 'de'
         WHEN s_fr >= s_es AND s_fr >= s_zh THEN 'fr'
         WHEN s_es >= s_zh THEN 'es'
         ELSE 'zh' END AS lang_pred,
    round(least(greatest(
        0.35 * least(greatest(n_tokens / 64.0, 0), 1)
      + 0.25 * least(greatest(1.0 - (CASE WHEN n_chars > 0 THEN n_digits / n_chars ELSE 0.0 END) * 5, 0), 1)
      + 0.2  * least(greatest(1.0 - (CASE WHEN n_chars > 0 THEN n_punct / n_chars ELSE 0.0 END) * 5, 0), 1)
      + 0.2  * least(greatest((CASE WHEN n_tokens > 0 THEN s_en / greatest(n_tokens, 1) ELSE 0.0 END) * 4, 0), 1)
    , 0.0), 1.0), 6) AS quality
  FROM s
),
kept AS (
  SELECT doc_id, source,
         md5(trim(regexp_replace(lower(text), '\s+', ' ', 'g'))) AS fp
  FROM scored WHERE lang_pred = 'en' AND quality >= 0.5
),
deduped AS (
  SELECT doc_id, source FROM (
    SELECT doc_id, source,
           ROW_NUMBER() OVER (PARTITION BY fp ORDER BY doc_id) AS rn
    FROM kept
  ) WHERE rn = 1
),
hashed AS (
  SELECT doc_id, source,
         xor(h2, h2 // 8589934592) AS h, CAST(doc_id AS HUGEINT) AS rid
  FROM (
    SELECT doc_id, source,
           ( (h1 % 4294967296) * 18397679294719823053
           + ((h1 // 4294967296) * 18397679294719823053 % 4294967296) * 4294967296
           ) % 18446744073709551616 AS h2
    FROM (
      SELECT doc_id, source,
             xor(CAST(doc_id AS HUGEINT), CAST(doc_id AS HUGEINT) // 8589934592) AS h1
      FROM deduped
    )
  )
)
SELECT doc_id, source FROM (
  SELECT doc_id, source,
         ROW_NUMBER() OVER (PARTITION BY source ORDER BY h, rid) AS rn
  FROM hashed
) WHERE rn <= 20
"""


def q_stratified_sample(sf_dir: str):
    """Stratified deterministic sample: 50 line items per returnflag in
    murmur-finalizer hash order of the (orderkey, linenumber) row id —
    reproducible across runs AND engines (the hash is replicated in SQL
    HUGEINT arithmetic), the property stable per-class training splits
    need. Map-side prune + one key-hash shuffle (group_top_k)."""
    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_returnflag", "l_orderkey", "l_linenumber"]
    )

    def add_rid(batch: pa.Table) -> pa.Table:
        ok = batch["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        ln = batch["l_linenumber"].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.append_column("rid", pa.array(ok * 8 + ln, pa.int64()))

    ds = ds.map_batches(add_rid, batch_format="pyarrow", zero_copy_batch=True,
                        batch_size=None)
    ds = ops.add_splitmix_column(ds, "rid", out="h")
    out = ops.group_top_k(ds, "l_returnflag", ["h", "rid"], 50, descending=False)
    return out.select_columns(["l_returnflag", "l_orderkey", "l_linenumber"])


# the engine's order key is mix64(rid) with the top bit flipped to make
# the signed int64 order equal the unsigned hash order; the SQL replica
# ranks by the raw unsigned hash in HUGEINT — identical order
SQL_STRATIFIED_SAMPLE = """
WITH ids AS (
  SELECT l_returnflag, l_orderkey, l_linenumber,
         CAST(l_orderkey * 8 + l_linenumber AS HUGEINT) AS rid
  FROM lineitem
),
s1 AS (
  SELECT *, xor(rid, rid // 8589934592) AS h1 FROM ids
),
m1 AS (
  SELECT *, ( (h1 % 4294967296) * 18397679294719823053
            + ((h1 // 4294967296) * 18397679294719823053 % 4294967296) * 4294967296
            ) % 18446744073709551616 AS h2
  FROM s1
),
hashed AS (
  SELECT l_returnflag, l_orderkey, l_linenumber, rid,
         xor(h2, h2 // 8589934592) AS h
  FROM m1
)
SELECT l_returnflag, l_orderkey, l_linenumber FROM (
  SELECT l_returnflag, l_orderkey, l_linenumber,
         ROW_NUMBER() OVER (PARTITION BY l_returnflag ORDER BY h, rid) AS rn
  FROM hashed
) WHERE rn <= 50
"""


def q_pack_sequences(sf_dir: str):
    """GPT-style sequence packing: documents laid end-to-end in
    deterministic hash order and cut into 2048-char packs; each doc gets
    (pack_id, pack_offset) from a distributed global prefix sum (shard
    totals broadcast, per-shard local cumsum — only (id, len) moves)."""
    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "n_chars"])
    out = ops.pack_sequences(ds, id_col="doc_id", len_col="n_chars",
                             budget=2048)
    return out.select_columns(["doc_id", "pack_id", "pack_offset"])


# same murmur-finalizer HUGEINT chain as SQL_STRATIFIED_SAMPLE: the
# engine orders docs by mix64(doc_id); the replica ranks by the raw
# unsigned hash — identical order, then one windowed prefix sum
SQL_PACK_SEQUENCES = """
WITH ids AS (
  SELECT doc_id, n_chars, CAST(doc_id AS HUGEINT) AS rid FROM documents
),
s1 AS (
  SELECT *, xor(rid, rid // 8589934592) AS h1 FROM ids
),
m1 AS (
  SELECT *, ( (h1 % 4294967296) * 18397679294719823053
            + ((h1 // 4294967296) * 18397679294719823053 % 4294967296) * 4294967296
            ) % 18446744073709551616 AS h2
  FROM s1
),
hashed AS (
  SELECT doc_id, n_chars, xor(h2, h2 // 8589934592) AS h FROM m1
),
pfx AS (
  SELECT doc_id,
         COALESCE(SUM(n_chars) OVER (
           ORDER BY h, doc_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS off
  FROM hashed
)
SELECT doc_id,
       CAST(off // 2048 AS BIGINT) AS pack_id,
       CAST(off % 2048 AS BIGINT) AS pack_offset
FROM pfx
"""


def q_group_topk(sf_dir: str):
    """Per-group top-k (ROW_NUMBER <= k): each supplier's 3 priciest line
    items, total order via (price desc, orderkey, linenumber). Map-side
    per-batch prune then ONE key-hash-bucket shuffle — the shuffle moves
    ≤ k·keys·blocks rows, never the corpus."""
    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_suppkey", "l_extendedprice", "l_orderkey", "l_linenumber"],
    )
    return ops.group_top_k(
        ds,
        "l_suppkey",
        ["l_extendedprice", "l_orderkey", "l_linenumber"],
        k=3,
        descending=[True, False, False],
    )


SQL_GROUP_TOPK = """
SELECT l_suppkey, l_extendedprice, l_orderkey, l_linenumber
FROM (
  SELECT l_suppkey, l_extendedprice, l_orderkey, l_linenumber,
         ROW_NUMBER() OVER (
           PARTITION BY l_suppkey
           ORDER BY l_extendedprice DESC, l_orderkey, l_linenumber
         ) AS rn
  FROM lineitem
)
WHERE rn <= 3
"""


def q_zonal_stats(sf_dir: str):
    """Zonal statistics: the pip_box_join geometry with COUNT/SUM/MIN/
    MAX/AVG of l_quantity per polygon, all pushed into the probe stage
    (per-batch lexsort+reduceat partials, combine-tree merge with
    per-column reducers — no joined-pair intermediate). l_quantity is
    integer-valued so the float sums are order-independent exact."""
    from georay.joins import pip_zonal_stats

    polys = part_box_polygons(sf_dir)
    pts = lineitem_points(sf_dir, extra_cols=["l_quantity"])
    return pip_zonal_stats(
        pts, polys, value_col="l_quantity",
        geometry_col="geometry", id_col="p_partkey",
    )


def q_zonal_partitioned(sf_dir: str):
    """BOTH-SIDES-LARGE zonal statistics — the scale twin of
    zonal_stats: the co-partitioned PIP join carries the value column
    through the one cell shuffle (pip_join_partitioned value_col), per-
    batch partials reduce with per-column ufuncs, and the combine tree
    merges. Must hash-match the broadcast plan's SQL exactly."""
    from georay.joins import pip_join_partitioned

    polys = part_box_polygons(sf_dir)
    pts = lineitem_points(sf_dir, extra_cols=["l_quantity"])
    pairs = pip_join_partitioned(
        pts, rd.from_arrow(polys), geometry_col="geometry",
        id_col="p_partkey", point_id_col="l_orderkey",
        value_col="l_quantity",
    )

    def partial(batch: pa.Table) -> pa.Table:
        pk = batch["p_partkey"].to_numpy(zero_copy_only=False)
        v = batch["pval"].to_numpy(zero_copy_only=False)
        ks, vs = ops._group_reduce(
            [pk],
            {
                "partial_n": np.ones(v.shape[0], np.int64),
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
                "p_partkey": pa.array(ks[0], pa.int64()),
                "partial_n": pa.array(vs["partial_n"]),
                "partial_sum": pa.array(vs["partial_sum"]),
                "partial_min": pa.array(vs["partial_min"]),
                "partial_max": pa.array(vs["partial_max"]),
            }
        )

    parts = pairs.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    agg = ops.tree_reduce(
        parts, ["p_partkey"],
        {
            "partial_n": "n", "partial_sum": "v_sum",
            "partial_min": "v_min", "partial_max": "v_max",
        },
        ufunc={
            "partial_n": np.add, "partial_sum": np.add,
            "partial_min": np.minimum, "partial_max": np.maximum,
        },
    )

    def finish(batch: pa.Table) -> pa.Table:
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        s = batch["v_sum"].to_numpy(zero_copy_only=False)
        return batch.append_column("v_avg", pa.array(s / n, pa.float64()))

    return agg.map_batches(
        finish, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


SQL_ZONAL_STATS = f"""
WITH pts AS (
  SELECT l_quantity, {LI_LON} AS lon, {LI_LAT} AS lat FROM lineitem
),
boxes AS (
  SELECT p_partkey,
         {PART_CX} AS cx, {PART_CY} AS cy, {PART_W} AS w, {PART_H} AS h
  FROM part
)
SELECT b.p_partkey AS p_partkey,
       COUNT(*) AS n,
       SUM(p.l_quantity) AS v_sum,
       MIN(p.l_quantity) AS v_min,
       MAX(p.l_quantity) AS v_max,
       SUM(p.l_quantity) / COUNT(*) AS v_avg
FROM boxes b JOIN pts p
  ON p.lon >= b.cx - b.w AND p.lon < b.cx + b.w
 AND p.lat >= b.cy - b.h AND p.lat < b.cy + b.h
GROUP BY b.p_partkey
"""


def q_knn_part_supplier(sf_dir: str):
    """kNN join via grid-cell ring expansion: for each part point, the 3
    nearest supplier points under the planar (lon,lat) metric."""
    import pyarrow.parquet as pq

    t = pq.read_table(_t(sf_dir, "part"), columns=["p_partkey", "p_size"])
    pk = t["p_partkey"].to_numpy().astype(np.int64)
    cx = ((pk * 17) % 3600) / 10.0 - 180.0 + 0.05
    cy = ((pk * 23) % 1700) / 10.0 - 85.0 + 0.05
    geo = GeoType.point(crs="OGC:CRS84")
    probe = pa.table(
        {"p_partkey": pa.array(pk)},
        schema=pa.schema([pa.field("p_partkey", pa.int64())]),
    ).append_column(geo.field("geotag"), native.build_points(np.column_stack([cx, cy]), geo))
    probes = rd.from_arrow(probe)
    sx, sy, sk = supplier_points(sf_dir)
    out = knn_join(probes, sx, sy, sk, k=KNN_K, id_out="s_suppkey")
    return out.select_columns(["p_partkey", "s_suppkey", "knn_rank"])


def q_knn_partitioned(sf_dir: str):
    """The SAME kNN join as knn_part_supplier, executed by the
    both-sides-large co-partitioned strategy (per-round groupby(cell)
    co-shuffle + adaptive ring growth + top-k merge tree, no broadcast
    index) — the two physical plans must agree bit-for-bit."""
    import pyarrow.parquet as pq

    from georay.joins import knn_join_partitioned

    t = pq.read_table(_t(sf_dir, "part"), columns=["p_partkey", "p_size"])
    pk = t["p_partkey"].to_numpy().astype(np.int64)
    cx = ((pk * 17) % 3600) / 10.0 - 180.0 + 0.05
    cy = ((pk * 23) % 1700) / 10.0 - 85.0 + 0.05
    geo = GeoType.point(crs="OGC:CRS84")
    probe = pa.table(
        {"p_partkey": pa.array(pk)},
        schema=pa.schema([pa.field("p_partkey", pa.int64())]),
    ).append_column(geo.field("geotag"), native.build_points(np.column_stack([cx, cy]), geo))
    sx, sy, sk = supplier_points(sf_dir)
    refs = pa.table(
        {"s_suppkey": pa.array(sk)},
        schema=pa.schema([pa.field("s_suppkey", pa.int64())]),
    ).append_column(geo.field("geotag"), native.build_points(np.column_stack([sx, sy]), geo))
    return knn_join_partitioned(
        rd.from_arrow(probe),
        rd.from_arrow(refs),
        k=KNN_K,
        probe_id_col="p_partkey",
        ref_id_col="s_suppkey",
    )


SQL_KNN_PART_SUPPLIER = f"""
WITH probes AS (
  SELECT p_partkey, {PART_CX} AS px, {PART_CY} AS py FROM part
),
refs AS (
  SELECT s_suppkey, {SUPP_SX} AS sx, {SUPP_SY} AS sy FROM supplier
),
ranked AS (
  SELECT p.p_partkey, r.s_suppkey,
         ROW_NUMBER() OVER (
           PARTITION BY p.p_partkey
           ORDER BY (r.sx - p.px)*(r.sx - p.px) + (r.sy - p.py)*(r.sy - p.py),
                    r.s_suppkey
         ) AS knn_rank
  FROM probes p CROSS JOIN refs r
)
SELECT p_partkey, s_suppkey, knn_rank FROM ranked WHERE knn_rank <= {KNN_K}
"""


def q_pivot(sf_dir: str):
    """Crosstab: lineitem counts per returnflag × linestatus, widened to
    one column per status (fixed category set, combine-tree merge)."""
    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_returnflag", "l_linestatus"]
    )
    return ops.pivot_count(ds, "l_returnflag", "l_linestatus", ["O", "F"])


SQL_PIVOT = """
SELECT l_returnflag,
       CAST(SUM(CASE WHEN l_linestatus = 'O' THEN 1 ELSE 0 END) AS BIGINT) AS n_O,
       CAST(SUM(CASE WHEN l_linestatus = 'F' THEN 1 ELSE 0 END) AS BIGINT) AS n_F
FROM lineitem
GROUP BY l_returnflag
"""


def q_rollup(sf_dir: str):
    """GROUP BY ROLLUP(l_returnflag, l_linestatus) SUM: totals at all
    three granularities from ONE pass over the wide table (coarser
    levels re-aggregate the small finest result)."""
    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_linestatus", "l_quantity"],
    )

    def to_int(batch: pa.Table) -> pa.Table:
        q = batch["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.drop_columns(["l_quantity"]).append_column(
            "qty", pa.array(q, pa.int64())
        )

    ds = ds.map_batches(to_int, batch_format="pyarrow", zero_copy_batch=True,
                        batch_size=None)
    out = ops.rollup_sum(
        ds, keys=["l_returnflag", "l_linestatus"], value_col="qty",
        out_col="sum_qty",
    )

    # NULL rollup markers → sentinel, so the driver's value hash is not
    # at the mercy of None-vs-NaN representation in object columns.
    def seal(batch: pa.Table) -> pa.Table:
        for c in ("l_returnflag", "l_linestatus"):
            i = batch.column_names.index(c)
            batch = batch.set_column(
                i, c, pc.fill_null(batch[c], "(all)")
            )
        return batch

    return out.map_batches(seal, batch_format="pyarrow", zero_copy_batch=True,
                           batch_size=None)


SQL_ROLLUP = """
SELECT COALESCE(l_returnflag, '(all)') AS l_returnflag,
       COALESCE(l_linestatus, '(all)') AS l_linestatus,
       CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty
FROM lineitem
GROUP BY ROLLUP(l_returnflag, l_linestatus)
"""


def q_cube(sf_dir: str):
    """GROUP BY CUBE(l_returnflag, l_linestatus) SUM — all four grouping
    sets from one pass (subsets re-aggregate the small finest table)."""
    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_linestatus", "l_quantity"],
    )

    def to_int(batch: pa.Table) -> pa.Table:
        q = batch["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.drop_columns(["l_quantity"]).append_column(
            "qty", pa.array(q, pa.int64())
        )

    ds = ds.map_batches(to_int, batch_format="pyarrow", zero_copy_batch=True,
                        batch_size=None)
    out = ops.cube_sum(
        ds, keys=["l_returnflag", "l_linestatus"], value_col="qty",
        out_col="sum_qty",
    )

    def seal(batch: pa.Table) -> pa.Table:
        for c in ("l_returnflag", "l_linestatus"):
            i = batch.column_names.index(c)
            batch = batch.set_column(i, c, pc.fill_null(batch[c], "(all)"))
        return batch

    return out.map_batches(seal, batch_format="pyarrow", zero_copy_batch=True,
                           batch_size=None)


SQL_CUBE = """
SELECT COALESCE(l_returnflag, '(all)') AS l_returnflag,
       COALESCE(l_linestatus, '(all)') AS l_linestatus,
       CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty
FROM lineitem
GROUP BY CUBE(l_returnflag, l_linestatus)
"""


def q_grouping_sets(sf_dir: str):
    """GROUP BY GROUPING SETS ((l_returnflag), (l_linestatus), ()) SUM —
    an arbitrary (non-rollup, non-cube) set list from the same one-pass
    finest-level plan (ops.grouping_sets_sum)."""
    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_linestatus", "l_quantity"],
    )

    def to_int(batch: pa.Table) -> pa.Table:
        q = batch["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.drop_columns(["l_quantity"]).append_column(
            "qty", pa.array(q, pa.int64())
        )

    ds = ds.map_batches(to_int, batch_format="pyarrow", zero_copy_batch=True,
                        batch_size=None)
    out = ops.grouping_sets_sum(
        ds, keys=["l_returnflag", "l_linestatus"],
        sets=[("l_returnflag",), ("l_linestatus",), ()],
        value_col="qty", out_col="sum_qty",
    )

    def seal(batch: pa.Table) -> pa.Table:
        for c in ("l_returnflag", "l_linestatus"):
            i = batch.column_names.index(c)
            batch = batch.set_column(i, c, pc.fill_null(batch[c], "(all)"))
        return batch

    return out.map_batches(seal, batch_format="pyarrow", zero_copy_batch=True,
                           batch_size=None)


SQL_GROUPING_SETS = """
SELECT COALESCE(l_returnflag, '(all)') AS l_returnflag,
       COALESCE(l_linestatus, '(all)') AS l_linestatus,
       CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty
FROM lineitem
GROUP BY GROUPING SETS ((l_returnflag), (l_linestatus), ())
"""


HIST_LO, HIST_HI, HIST_BINS = 900.0, 105000.0, 64


def q_value_histogram(sf_dir: str):
    """Fixed-bin histogram of l_extendedprice: 64 bins over
    [{HIST_LO}, {HIST_HI}), clipped at the edges."""
    ds = rd.read_parquet(_t(sf_dir, "lineitem"), columns=["l_extendedprice"])
    return ops.value_histogram(
        ds, "l_extendedprice", lo=HIST_LO, hi=HIST_HI, n_bins=HIST_BINS
    )


SQL_VALUE_HISTOGRAM = f"""
SELECT CAST(least(greatest(floor((l_extendedprice - {HIST_LO}) /
            (({HIST_HI} - {HIST_LO}) / {HIST_BINS})), 0), {HIST_BINS - 1}) AS BIGINT) AS bin,
       COUNT(*) AS n
FROM lineitem
GROUP BY bin
"""


def q_except_distinct(sf_dir: str):
    """Set difference (single-line orders): DISTINCT order keys with a
    line 1 EXCEPT those with a line ≥ 2, as one tagged-union bucket
    shuffle — both sides stream, only the key column moves."""
    base = rd.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_linenumber"]
    )

    def side(pred):
        def fn(batch: pa.Table) -> pa.Table:
            ln = batch["l_linenumber"]
            return batch.filter(pred(ln)).select(["l_orderkey"])
        return fn

    a = base.map_batches(side(lambda ln: pc.equal(ln, 1)),
                         batch_format="pyarrow", zero_copy_batch=True,
                         batch_size=None)
    b = base.map_batches(side(lambda ln: pc.greater_equal(ln, 2)),
                         batch_format="pyarrow", zero_copy_batch=True,
                         batch_size=None)
    return ops.set_op_distinct(a, b, keys="l_orderkey", op="except")


SQL_EXCEPT_DISTINCT = """
SELECT DISTINCT l_orderkey FROM lineitem WHERE l_linenumber = 1
EXCEPT
SELECT DISTINCT l_orderkey FROM lineitem WHERE l_linenumber >= 2
"""


def q_anti_join(sf_dir: str):
    """Orders with no 4th lineitem line (≈10% of orders at every scale)
    — both-sides-large ANTI join: one key-hash bucket co-shuffle,
    existence probe per bucket; only the lineitem KEY column moves (no
    right payload bytes), pre-filtered at the read side."""
    ords = rd.read_parquet(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_totalprice"]
    )
    lines = rd.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_linenumber"]
    ).map_batches(
        lambda b: b.filter(pc.greater_equal(b["l_linenumber"], 4)).select(
            ["l_orderkey"]
        ),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )
    return ops.equi_join_partitioned(
        ords, lines, on="o_orderkey", right_on="l_orderkey", how="anti"
    )


SQL_ANTI_JOIN = """
SELECT o.o_orderkey, o.o_totalprice
FROM orders o
ANTI JOIN (SELECT l_orderkey FROM lineitem WHERE l_linenumber >= 4) l
ON o.o_orderkey = l.l_orderkey
"""


def q_string_agg(sf_dir: str):
    """Per-customer order-priority journey: ordered STRING_AGG via one
    bucket shuffle + per-key Arrow list offsets + one binary_join C
    call (no per-key Python)."""
    ds = rd.read_parquet(
        _t(sf_dir, "orders"),
        columns=["o_custkey", "o_orderpriority", "o_orderdate", "o_orderkey"],
    )
    return ops.grouped_string_agg(
        ds, key="o_custkey", value_col="o_orderpriority",
        order_cols=["o_orderdate", "o_orderkey"], sep=",", out_col="prio_seq",
    )


SQL_STRING_AGG = """
SELECT o_custkey,
       STRING_AGG(o_orderpriority, ',' ORDER BY o_orderdate, o_orderkey)
         AS prio_seq
FROM orders
GROUP BY o_custkey
"""


def q_gap_fill(sf_dir: str):
    """Per-user dense daily event series: counts per (user, day) with
    every missing day between the user's first and last day emitted as
    0 — generate_series semantics, distributed (counts via combine
    tree, range expansion per key-hash group)."""
    ds = rd.read_parquet(_t(sf_dir, "events"), columns=["user_id", "ts"])

    def to_day(batch: pa.Table) -> pa.Table:
        t = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {"user_id": batch["user_id"],
             "day": pa.array(t // 86_400_000_000)}
        )

    ds = ds.map_batches(to_day, batch_format="pyarrow", zero_copy_batch=True,
                        batch_size=None)
    return ops.time_gap_fill(ds, key="user_id", bucket_col="day",
                             count_alias="n")


SQL_GAP_FILL = """
WITH b AS (
  SELECT user_id, epoch_us(ts) // 86400000000 AS day, COUNT(*) AS n
  FROM events GROUP BY 1, 2
), r AS (
  SELECT user_id, MIN(day) AS mn, MAX(day) AS mx FROM b GROUP BY user_id
), g AS (
  SELECT user_id, UNNEST(generate_series(mn, mx)) AS day FROM r
)
SELECT g.user_id, g.day, COALESCE(b.n, 0) AS n
FROM g LEFT JOIN b USING (user_id, day)
"""


def q_grouped_corr(sf_dir: str):
    """Per-returnflag Pearson correlation of (l_quantity, 100·l_tax) in
    one pass: exact int64 sums (products bounded ≪ 2^63 at this scale),
    final float expression replicated term-for-term in SQL (DuckDB's
    HUGEINT sums subtract exactly before one cast to DOUBLE, same as the
    engine's int64 path)."""
    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_returnflag", "l_quantity", "l_tax"]
    )

    def to_int(batch: pa.Table) -> pa.Table:
        q = batch["l_quantity"].to_numpy(zero_copy_only=False)
        t = batch["l_tax"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "qty": pa.array(q.astype(np.int64)),
                "tax100": pa.array(np.floor(t * 100.0 + 0.5).astype(np.int64)),
            }
        )

    ds = ds.map_batches(to_int, batch_format="pyarrow", zero_copy_batch=True,
                        batch_size=None)
    return ops.grouped_corr(ds, key="l_returnflag", x_col="qty", y_col="tax100")


SQL_GROUPED_CORR = """
WITH s AS (
  SELECT l_returnflag,
         COUNT(*) AS n,
         SUM(q) AS sx, SUM(t) AS sy,
         SUM(q*q) AS sxx, SUM(t*t) AS syy, SUM(q*t) AS sxy
  FROM (SELECT l_returnflag, CAST(l_quantity AS BIGINT) AS q,
               CAST(floor(l_tax * 100.0 + 0.5) AS BIGINT) AS t
        FROM lineitem)
  GROUP BY l_returnflag
)
SELECT l_returnflag, CAST(n AS BIGINT) AS n,
       CAST(n*sxy - sx*sy AS DOUBLE)
       / (sqrt(CAST(n*sxx - sx*sx AS DOUBLE)) * sqrt(CAST(n*syy - sy*sy AS DOUBLE)))
       AS corr
FROM s
"""


def q_grouped_mode(sf_dir: str):
    """Per-returnflag modal l_quantity (ties → smallest value)."""
    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_returnflag", "l_quantity"]
    )

    def to_int(batch: pa.Table) -> pa.Table:
        q = batch["l_quantity"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"l_returnflag": batch["l_returnflag"], "qty": pa.array(q)}
        )

    ds = ds.map_batches(to_int, batch_format="pyarrow", zero_copy_batch=True,
                        batch_size=None)
    return ops.grouped_mode(ds, key="l_returnflag", value_col="qty")


SQL_GROUPED_MODE = """
SELECT l_returnflag, mode, n FROM (
  SELECT l_returnflag, v AS mode, c AS n,
         ROW_NUMBER() OVER (PARTITION BY l_returnflag ORDER BY c DESC, v) AS rn
  FROM (SELECT l_returnflag, CAST(l_quantity AS BIGINT) AS v, COUNT(*) AS c
        FROM lineitem GROUP BY l_returnflag, v)
) WHERE rn = 1
"""


def q_geodesic_stats(sf_dir: str):
    """Geodesic (haversine) distance kernel: per returnflag, the count
    and max great-circle distance (km, 3 dp) of the lineitem geotags
    from (0, 0). The engine formula is written term-for-term as the SQL
    replica; 3-dp rounding absorbs libm ulp drift."""
    ds = lineitem_points(sf_dir, extra_cols=["l_returnflag"])

    def add_d(batch: pa.Table) -> pa.Table:
        lon, lat = ops.point_lonlat(batch, "geotag")
        d = kernels.haversine_km(lon, lat, 0.0, 0.0)
        d = np.floor(d * 1e3 + 0.5) / 1e3  # half-away, like SQL round()
        return pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "partial_max": pa.array(d, pa.float64()),
                "partial_n": pa.array(np.ones(len(batch), np.int64)),
            }
        )

    parts = ds.map_batches(
        add_d, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )

    def reduce_b(batch: pa.Table) -> pa.Table:
        k = batch["l_returnflag"].to_numpy(zero_copy_only=False)
        (ks,), outs = ops._group_reduce(
            [k],
            {
                "partial_max": batch["partial_max"].to_numpy(zero_copy_only=False),
                "partial_n": batch["partial_n"].to_numpy(zero_copy_only=False),
            },
            ufunc={"partial_max": np.maximum, "partial_n": np.add},
        )
        return pa.table(
            {
                "l_returnflag": pa.array(ks),
                "partial_max": pa.array(outs["partial_max"], pa.float64()),
                "partial_n": pa.array(outs["partial_n"], pa.int64()),
            }
        )

    parts = parts.map_batches(
        reduce_b, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return ops.tree_reduce(
        parts, "l_returnflag",
        {"partial_max": "max_km", "partial_n": "n"},
        ufunc={"partial_max": np.maximum, "partial_n": np.add},
    )


SQL_GEODESIC_STATS = f"""
WITH pts AS (
  SELECT l_returnflag, radians({LI_LON}) AS rl, radians({LI_LAT}) AS rp
  FROM lineitem
),
d AS (
  SELECT l_returnflag,
         round(2.0 * 6371.0088 * asin(sqrt(least(
             sin((0.0 - rp) / 2.0) * sin((0.0 - rp) / 2.0)
           + cos(rp) * cos(0.0) * sin((0.0 - rl) / 2.0) * sin((0.0 - rl) / 2.0)
         , 1.0))), 3) AS km
  FROM pts
)
SELECT l_returnflag, MAX(km) AS max_km, COUNT(*) AS n
FROM d GROUP BY l_returnflag
"""


def q_grouped_bounds(sf_dir: str):
    """Per-returnflag bounding box of the lineitem geotags (grouped
    box_agg: per-batch keyed partials, min/max combine tree)."""
    ds = lineitem_points(sf_dir, extra_cols=["l_returnflag"])
    return ops.grouped_box_agg(ds, "l_returnflag", "geotag")


SQL_GROUPED_BOUNDS = f"""
SELECT l_returnflag,
       MIN(lon) AS xmin, MIN(lat) AS ymin,
       MAX(lon) AS xmax, MAX(lat) AS ymax
FROM (SELECT l_returnflag, {LI_LON} AS lon, {LI_LAT} AS lat FROM lineitem)
GROUP BY l_returnflag
"""


def q_wkt_csv_source(sf_dir: str):
    """End-to-end external-format ingest: part centroids formatted as
    WKT by the engine's Ryu-compatible writer into a CSV, read back
    through the streaming CSV source + WKT parser, grid-binned and
    counted. Oracles against SQL computing the same cells directly from
    part — pinning writer→parser round-trip AND the source plumbing."""
    import csv as _csv
    import tempfile

    import pyarrow.parquet as pq

    from georay import sources
    from georay.codecs import wkt as wkt_codec
    from georay.codecs import native as _nat

    t = pq.read_table(_t(sf_dir, "part"), columns=["p_partkey"])
    pk = t["p_partkey"].to_numpy().astype(np.int64)
    cx = ((pk * 17) % 3600) / 10.0 - 180.0 + 0.05
    cy = ((pk * 23) % 1700) / 10.0 - 85.0 + 0.05
    geo = GeoType.point(crs="OGC:CRS84")
    pts = _nat.build_points(np.column_stack([cx, cy]), geo)
    wkts = wkt_codec.encode(pts, geo).to_pylist()
    path = os.path.join(
        tempfile.gettempdir(), f"georay_wkt_{len(pk)}_{int(pk[:16].sum())}.csv"
    )
    if not os.path.exists(path):
        with open(path + ".tmp", "w", newline="") as f:
            w = _csv.writer(f)
            w.writerow(["p_partkey", "wkt"])
            for key, s in zip(pk.tolist(), wkts):
                w.writerow([key, s])
        os.replace(path + ".tmp", path)

    ds = sources.read_wkt_csv(path, target=GeoType.point(), out_col="geotag")
    ds = ops.add_grid_column(ds, res=1.0, geom_col="geotag")
    return ops.salted_count(ds, "grid_cell", count_alias="n")


def q_geojsonl_source(sf_dir: str):
    """GeoJSONSeq ingest end-to-end: part centroids serialized as
    newline-delimited Features by the engine's GeoJSON writer, read
    back through the splittable text source (sources.read_geojsonl:
    line parse + property projection + native decode), grid-binned and
    counted — same cells-from-part oracle as the CSV source, pinning
    the writer→parser round trip AND the source plumbing."""
    import tempfile

    import pyarrow.parquet as pq

    from georay import sources
    from georay.codecs import geojson as gj
    from georay.codecs import native as _nat

    t = pq.read_table(_t(sf_dir, "part"), columns=["p_partkey"])
    pk = t["p_partkey"].to_numpy().astype(np.int64)
    cx = ((pk * 17) % 3600) / 10.0 - 180.0 + 0.05
    cy = ((pk * 23) % 1700) / 10.0 - 85.0 + 0.05
    geo = GeoType.point(crs="OGC:CRS84")
    pts = _nat.build_points(np.column_stack([cx, cy]), geo)
    feats = gj.encode(pts, geo).to_pylist()
    path = os.path.join(
        tempfile.gettempdir(),
        f"georay_gj_{len(pk)}_{int(pk[:16].sum())}.geojsonl",
    )
    if not os.path.exists(path):
        with open(path + ".tmp", "w") as f:
            for key, g in zip(pk.tolist(), feats):
                f.write(
                    '{"type":"Feature","properties":{"p_partkey":'
                    f"{key}" '},"geometry":' + g + "}\n"
                )
        os.replace(path + ".tmp", path)

    ds = sources.read_geojsonl(
        path, target=GeoType.point(), out_col="geotag",
        properties={"p_partkey": pa.int64()},
    )
    ds = ops.add_grid_column(ds, res=1.0, geom_col="geotag")
    return ops.salted_count(ds, "grid_cell", count_alias="n")


SQL_GEOJSONL_SOURCE = f"""
SELECT CAST(FLOOR(({PART_CX} + 180)/1.0) AS BIGINT)*100000
     + CAST(FLOOR(({PART_CY} + 90)/1.0) AS BIGINT) AS grid_cell,
       COUNT(*) AS n
FROM part
GROUP BY 1
"""


SQL_WKT_CSV_SOURCE = f"""
SELECT CAST(FLOOR(({PART_CX} + 180)/1.0) AS BIGINT)*100000
     + CAST(FLOOR(({PART_CY} + 90)/1.0) AS BIGINT) AS grid_cell,
       COUNT(*) AS n
FROM part
GROUP BY 1
"""


def q_intersect_join(sf_dir: str):
    """Rect↔polygon INTERSECTS join: supplier query rectangles counted
    against the part box polygons (exact rect–polygon decomposition,
    batch-local counts, no shuffle)."""
    import pyarrow.parquet as pq

    from georay.joins import rect_intersect_count

    sx, sy, sk = supplier_points(sf_dir)
    rects = rd.from_arrow(
        pa.table(
            {
                "s_suppkey": pa.array(sk, pa.int64()),
                "xmin": pa.array(sx - 1.3),
                "ymin": pa.array(sy - 0.7),
                "xmax": pa.array(sx + 1.3),
                "ymax": pa.array(sy + 0.7),
            }
        )
    )
    polys = part_box_polygons(sf_dir)
    return rect_intersect_count(
        rects, polys, id_col="s_suppkey",
        geometry_col="geometry", poly_id_col="p_partkey",
    )


def q_intersect_str(sf_dir: str):
    """The SAME rect↔polygon intersect counts through the STR R-tree
    candidate generator (rect_intersect_count(index="str") — shared
    exact decomposition, different pruning) — must hash-match
    intersect_join exactly (the pip_str pattern for rect probes)."""
    import pyarrow.parquet as pq

    from georay.joins import rect_intersect_count

    sx, sy, sk = supplier_points(sf_dir)
    rects = rd.from_arrow(
        pa.table(
            {
                "s_suppkey": pa.array(sk, pa.int64()),
                "xmin": pa.array(sx - 1.3),
                "ymin": pa.array(sy - 0.7),
                "xmax": pa.array(sx + 1.3),
                "ymax": pa.array(sy + 0.7),
            }
        )
    )
    polys = part_box_polygons(sf_dir)
    return rect_intersect_count(
        rects, polys, id_col="s_suppkey",
        geometry_col="geometry", poly_id_col="p_partkey", index="str",
    )


def q_knn_str(sf_dir: str):
    """The SAME kNN join as knn_part_supplier through the STR-packed
    point R-tree (joins.knn_join(index="str"): per-probe radius
    doubling instead of grid ring expansion) — must hash-match the
    grid plan and the SQL oracle exactly."""
    import pyarrow.parquet as pq

    t = pq.read_table(_t(sf_dir, "part"), columns=["p_partkey", "p_size"])
    pk = t["p_partkey"].to_numpy().astype(np.int64)
    cx = ((pk * 17) % 3600) / 10.0 - 180.0 + 0.05
    cy = ((pk * 23) % 1700) / 10.0 - 85.0 + 0.05
    geo = GeoType.point(crs="OGC:CRS84")
    probe = pa.table(
        {"p_partkey": pa.array(pk)},
        schema=pa.schema([pa.field("p_partkey", pa.int64())]),
    ).append_column(
        geo.field("geotag"), native.build_points(np.column_stack([cx, cy]), geo)
    )
    probes = rd.from_arrow(probe)
    sx, sy, sk = supplier_points(sf_dir)
    out = knn_join(probes, sx, sy, sk, k=KNN_K, id_out="s_suppkey", index="str")
    return out.select_columns(["p_partkey", "s_suppkey", "knn_rank"])


SQL_INTERSECT_JOIN = f"""
WITH rects AS (
  SELECT s_suppkey,
         {SUPP_SX} - 1.3 AS rxmin, {SUPP_SY} - 0.7 AS rymin,
         {SUPP_SX} + 1.3 AS rxmax, {SUPP_SY} + 0.7 AS rymax
  FROM supplier
),
boxes AS (
  SELECT p_partkey,
         {PART_CX} - ({PART_W}) AS bxmin, {PART_CY} - ({PART_H}) AS bymin,
         {PART_CX} + ({PART_W}) AS bxmax, {PART_CY} + ({PART_H}) AS bymax
  FROM part
)
SELECT r.s_suppkey AS s_suppkey, COUNT(*) AS n
FROM rects r JOIN boxes b
  ON r.rxmin < b.bxmax AND b.bxmin < r.rxmax
 AND r.rymin < b.bymax AND b.bymin < r.rymax
GROUP BY r.s_suppkey
"""


def q_radius_pairs(sf_dir: str):
    """Pair-emitting radius join: every (part point, supplier within
    2.5) pair as rows (the join itself, not just cardinalities)."""
    import pyarrow.parquet as pq

    from georay.joins import radius_join_pairs

    t = pq.read_table(_t(sf_dir, "part"), columns=["p_partkey"])
    pk = t["p_partkey"].to_numpy().astype(np.int64)
    cx = ((pk * 17) % 3600) / 10.0 - 180.0 + 0.05
    cy = ((pk * 23) % 1700) / 10.0 - 85.0 + 0.05
    geo = GeoType.point(crs="OGC:CRS84")
    probes = rd.from_arrow(
        pa.table(
            {"p_partkey": pa.array(pk)},
            schema=pa.schema([pa.field("p_partkey", pa.int64())]),
        ).append_column(
            geo.field("geotag"), native.build_points(np.column_stack([cx, cy]), geo)
        )
    )
    sx, sy, sk = supplier_points(sf_dir)
    return radius_join_pairs(
        probes, sx, sy, sk, radius=2.5, neighbor_out="s_suppkey"
    )


SQL_RADIUS_PAIRS = None  # assigned below once RADIUS_D exists


RADIUS_D = 2.5

SQL_RADIUS_PAIRS = f"""
WITH probes AS (
  SELECT p_partkey, {PART_CX} AS px, {PART_CY} AS py FROM part
),
refs AS (
  SELECT s_suppkey, {SUPP_SX} AS sx, {SUPP_SY} AS sy FROM supplier
)
SELECT p.p_partkey AS p_partkey, r.s_suppkey AS s_suppkey
FROM probes p JOIN refs r
  ON (r.sx - p.px)*(r.sx - p.px) + (r.sy - p.py)*(r.sy - p.py)
     <= {RADIUS_D} * {RADIUS_D}
"""


def q_radius_join(sf_dir: str):
    """Within-distance join: suppliers within planar distance 2.5 of
    each part point, counted per part (fixed cell disk — no ring loop,
    no shuffle: per-probe counts complete inside each batch)."""
    import pyarrow.parquet as pq

    from georay.joins import radius_join_count

    t = pq.read_table(_t(sf_dir, "part"), columns=["p_partkey"])
    pk = t["p_partkey"].to_numpy().astype(np.int64)
    cx = ((pk * 17) % 3600) / 10.0 - 180.0 + 0.05
    cy = ((pk * 23) % 1700) / 10.0 - 85.0 + 0.05
    geo = GeoType.point(crs="OGC:CRS84")
    probes = rd.from_arrow(
        pa.table(
            {"p_partkey": pa.array(pk)},
            schema=pa.schema([pa.field("p_partkey", pa.int64())]),
        ).append_column(
            geo.field("geotag"), native.build_points(np.column_stack([cx, cy]), geo)
        )
    )
    sx, sy, sk = supplier_points(sf_dir)
    return radius_join_count(probes, sx, sy, sk, radius=RADIUS_D)


def q_radius_partitioned(sf_dir: str):
    """The SAME within-distance count as radius_join, executed by the
    BOTH-SIDES-LARGE co-partitioned strategy (probes replicate to their
    radius-box grid cover, refs key by cell, one groupby(cell) shuffle,
    per-bucket PointIndex) — completes the broadcast/partitioned twin
    matrix; must agree with the broadcast plan bit-for-bit."""
    import pyarrow.parquet as pq

    from georay.joins import radius_join_count_partitioned

    t = pq.read_table(_t(sf_dir, "part"), columns=["p_partkey"])
    pk = t["p_partkey"].to_numpy().astype(np.int64)
    cx = ((pk * 17) % 3600) / 10.0 - 180.0 + 0.05
    cy = ((pk * 23) % 1700) / 10.0 - 85.0 + 0.05
    geo = GeoType.point(crs="OGC:CRS84")
    probes = rd.from_arrow(
        pa.table(
            {"p_partkey": pa.array(pk)},
            schema=pa.schema([pa.field("p_partkey", pa.int64())]),
        ).append_column(
            geo.field("geotag"), native.build_points(np.column_stack([cx, cy]), geo)
        )
    )
    sx, sy, sk = supplier_points(sf_dir)
    refs = rd.from_arrow(
        pa.table({"lon": pa.array(sx), "lat": pa.array(sy)})
    )
    return radius_join_count_partitioned(
        probes, refs, RADIUS_D, probe_id_col="p_partkey"
    )


SQL_RADIUS_JOIN = f"""
WITH probes AS (
  SELECT p_partkey, {PART_CX} AS px, {PART_CY} AS py FROM part
),
refs AS (
  SELECT s_suppkey, {SUPP_SX} AS sx, {SUPP_SY} AS sy FROM supplier
)
SELECT p.p_partkey AS p_partkey, COUNT(*) AS n
FROM probes p JOIN refs r
  ON (r.sx - p.px)*(r.sx - p.px) + (r.sy - p.py)*(r.sy - p.py)
     <= {RADIUS_D} * {RADIUS_D}
GROUP BY p.p_partkey
"""


RADIUS_KM = 300.0


def _part_point_probes(sf_dir: str):
    import pyarrow.parquet as pq

    t = pq.read_table(_t(sf_dir, "part"), columns=["p_partkey"])
    pk = t["p_partkey"].to_numpy().astype(np.int64)
    cx = ((pk * 17) % 3600) / 10.0 - 180.0 + 0.05
    cy = ((pk * 23) % 1700) / 10.0 - 85.0 + 0.05
    geo = GeoType.point(crs="OGC:CRS84")
    return rd.from_arrow(
        pa.table(
            {"p_partkey": pa.array(pk)},
            schema=pa.schema([pa.field("p_partkey", pa.int64())]),
        ).append_column(
            geo.field("geotag"), native.build_points(np.column_stack([cx, cy]), geo)
        )
    )


def q_radius_geodesic(sf_dir: str):
    """Geodesic within-distance join: suppliers within {RADIUS_KM} km
    great-circle (haversine) of each part point, counted per part. Same
    zero-shuffle fixed-disk plan as the planar twin; the candidate disk
    is sized per probe from the poleward-most latitude its circle
    reaches (see PointIndex.within_geodesic)."""
    from georay.joins import radius_join_count

    probes = _part_point_probes(sf_dir)
    sx, sy, sk = supplier_points(sf_dir)
    return radius_join_count(probes, sx, sy, sk, radius=RADIUS_KM, metric="haversine")


SQL_RADIUS_GEODESIC = f"""
WITH probes AS (
  SELECT p_partkey, radians({PART_CX}) AS rl, radians({PART_CY}) AS rp FROM part
),
refs AS (
  SELECT s_suppkey, radians({SUPP_SX}) AS rl, radians({SUPP_SY}) AS rp FROM supplier
)
SELECT p.p_partkey AS p_partkey, COUNT(*) AS n
FROM probes p JOIN refs r
  ON 2.0 * 6371.0088 * asin(sqrt(least(
       sin((r.rp - p.rp) / 2.0) * sin((r.rp - p.rp) / 2.0)
     + cos(p.rp) * cos(r.rp) * sin((r.rl - p.rl) / 2.0) * sin((r.rl - p.rl) / 2.0)
     , 1.0))) <= {RADIUS_KM}
GROUP BY p.p_partkey
"""


def q_radius_geodesic_partitioned(sf_dir: str):
    """The SAME geodesic within-distance count as radius_geodesic,
    executed both-sides-large (joins.radius_geodesic_count_partitioned
    — refs key by cell, probes replicate to their pole-safe lat-band ×
    widened-lon cover, ONE groupby(cell) co-shuffle, exact haversine
    in-bucket, combine-tree merge). Completes the geodesic twin
    column: nearest/kNN/radius all have partitioned plans."""
    import pyarrow.parquet as pq

    from georay.joins import radius_geodesic_count_partitioned

    t = pq.read_table(_t(sf_dir, "part"), columns=["p_partkey"])
    pk = t["p_partkey"].to_numpy().astype(np.int64)
    probes = rd.from_arrow(pa.table({
        "p_partkey": pa.array(pk, pa.int64()),
        "lon": pa.array(((pk * 17) % 3600) / 10.0 - 180.0 + 0.05),
        "lat": pa.array(((pk * 23) % 1700) / 10.0 - 85.0 + 0.05),
    }))
    sx, sy, sk = supplier_points(sf_dir)
    refs = rd.from_arrow(pa.table({
        "s_suppkey": pa.array(sk, pa.int64()),
        "lon": pa.array(sx), "lat": pa.array(sy),
    }))
    return radius_geodesic_count_partitioned(
        probes, refs, radius_km=RADIUS_KM, probe_id_col="p_partkey",
    )


def q_radius_payload(sf_dir: str):
    """Payload-carrying radius join: every (part, supplier within
    {RADIUS_D}°) pair with the supplier's nationkey and the exact
    squared distance as output columns — the join emits real payload
    rows, not just id pairs. Payload arrays ride inside the one
    broadcast of the index."""
    import pyarrow.parquet as pq

    from georay.joins import radius_join_pairs

    probes = _part_point_probes(sf_dir)
    # One file-order read keeps key and payload columns aligned.
    t = pq.read_table(_t(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"])
    sk = t["s_suppkey"].to_numpy().astype(np.int64)
    sx = ((sk * 41) % 3600) / 10.0 - 180.0 + 0.05
    sy = ((sk * 59) % 1700) / 10.0 - 85.0 + 0.05
    nationkey = t["s_nationkey"].to_numpy().astype(np.int64)
    return radius_join_pairs(
        probes, sx, sy, sk, radius=RADIUS_D,
        neighbor_out="s_suppkey",
        ref_payload={"s_nationkey": nationkey},
        dist_out="dist2",
    )


SQL_RADIUS_PAYLOAD = f"""
WITH probes AS (
  SELECT p_partkey, {PART_CX} AS px, {PART_CY} AS py FROM part
),
refs AS (
  SELECT s_suppkey, s_nationkey, {SUPP_SX} AS sx, {SUPP_SY} AS sy FROM supplier
)
SELECT p.p_partkey AS p_partkey, r.s_suppkey AS s_suppkey,
       r.s_nationkey AS s_nationkey,
       (r.sx - p.px)*(r.sx - p.px) + (r.sy - p.py)*(r.sy - p.py) AS dist2
FROM probes p JOIN refs r
  ON (r.sx - p.px)*(r.sx - p.px) + (r.sy - p.py)*(r.sy - p.py)
     <= {RADIUS_D} * {RADIUS_D}
"""


def q_tile_counts(sf_dir: str):
    """Web-mercator tiling: per-tile image counts at zoom {TILE_ZOOM}."""
    ds = lineitem_points(sf_dir)
    ds = ops.add_tile_columns(ds, zoom=TILE_ZOOM)

    def key2(batch: pa.Table) -> pa.Table:
        return batch.select(["tile_x", "tile_y"]).append_column(
            "txy",
            pa.array(
                batch["tile_x"].to_numpy(zero_copy_only=False) * 100000
                + batch["tile_y"].to_numpy(zero_copy_only=False),
                pa.int64(),
            ),
        )

    ds = ds.map_batches(key2, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    cnt = ops.salted_count(ds, "txy", count_alias="n")

    def split(batch: pa.Table) -> pa.Table:
        txy = batch["txy"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "tile_x": pa.array(txy // 100000, pa.int64()),
                "tile_y": pa.array(txy % 100000, pa.int64()),
                "n": batch["n"],
            }
        )

    return cnt.map_batches(split, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)


_N_TILES = 1 << TILE_ZOOM
SQL_TILE_COUNTS = f"""
SELECT CAST(FLOOR((lon + 180)/360*{_N_TILES}) AS BIGINT) AS tile_x,
       CAST(FLOOR((1 - LN(TAN(RADIANS(lat)) + 1/COS(RADIANS(lat)))/PI())/2*{_N_TILES}) AS BIGINT) AS tile_y,
       COUNT(*) AS n
FROM ({_LI_POINT_SQL})
GROUP BY 1, 2
"""


PYRAMID_ZOOM = 8
PYRAMID_LEVELS = 4


def q_tile_pyramid(sf_dir: str):
    """Multi-zoom tile pyramid (zooms 8..5) in ONE pass — per-batch
    partials for every level from the same base tile, one combine tree
    (ops.tile_pyramid); the map-serving rollup without per-level
    groupbys."""
    ds = lineitem_points(sf_dir)
    return ops.tile_pyramid(
        ds, zoom=PYRAMID_ZOOM, levels=PYRAMID_LEVELS
    )


def _tile_pyramid_sql() -> str:
    n_tiles = 1 << PYRAMID_ZOOM
    base = f"""
SELECT CAST(FLOOR((lon + 180)/360*{n_tiles}) AS BIGINT) AS bx,
       CAST(FLOOR((1 - LN(TAN(RADIANS(lat)) + 1/COS(RADIANS(lat)))/PI())/2*{n_tiles}) AS BIGINT) AS by
FROM ({_LI_POINT_SQL})
"""
    levels = []
    for i in range(PYRAMID_LEVELS):
        z = PYRAMID_ZOOM - i
        s = 1 << i
        levels.append(
            f"SELECT {z} AS zoom, bx // {s} AS tile_x, by // {s} AS tile_y,"
            f" COUNT(*) AS n FROM base GROUP BY 1, 2, 3"
        )
    return f"WITH base AS ({base})\n" + "\nUNION ALL\n".join(levels)


SQL_TILE_PYRAMID = _tile_pyramid_sql()


def q_top_cells(sf_dir: str):
    """Global top-k densest grid cells (partial top-k + combine-tree
    merge, no Sort barrier; ties broken by cell id)."""
    h = q_grid_cell_count(sf_dir)
    return ops.top_k(h, ["n", "grid_cell"], 20, descending=[True, False])


SQL_TOP_CELLS = SQL_GRID_CELL_COUNT + " ORDER BY n DESC, grid_cell LIMIT 20"


def q_dedup_docs(sf_dir: str):
    """Exact dedup: first (min doc_id) document per n_chars group."""
    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "n_chars"])
    return ops.dedup_exact(ds, "n_chars", keep_col="doc_id").select_columns(
        ["doc_id", "n_chars"]
    )


SQL_DEDUP_DOCS = "SELECT MIN(doc_id) AS doc_id, n_chars FROM documents GROUP BY n_chars"


def q_events_window(sf_dir: str):
    """Tumbling 1-hour window count per event_type (stream-shaped op over
    the ordered events log; exact integer bucket math)."""
    ds = rd.read_parquet(_t(sf_dir, "events"), columns=["event_type", "ts"])

    def bucket(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        hour = ts // 3_600_000_000  # µs → hour bucket
        return pa.table(
            {
                "event_type": batch["event_type"],
                "hour": pa.array(hour, pa.int64()),
            }
        )

    ds = ds.map_batches(bucket, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    return ops.salted_count(ds, ["event_type", "hour"], count_alias="n")


SQL_EVENTS_WINDOW = """
SELECT event_type, CAST(FLOOR(EPOCH(ts)/3600) AS BIGINT) AS hour, COUNT(*) AS n
FROM events GROUP BY 1, 2
"""


def q_wkb_endianness(sf_dir: str):
    """Big-endian WKB decode at the DRIVER gate (the both-endian
    contract of the reference reader, src/geoarrow.c:4508): supplier
    points are encoded little-endian by the engine's writer, byte-swapped
    to big-endian XDR (byte order 0, code + doubles reversed), decoded
    through the engine's general WKB reader (the big-endian branch —
    the LE point fast lane cannot take these), and the decoded coords
    are emitted as exact lattice integers the oracle recomputes from
    s_suppkey. Previously pytest-only."""
    from georay.codecs import wkb as _wkb

    ds = rd.read_parquet(_t(sf_dir, "supplier"), columns=["s_suppkey"])

    def swap_decode(batch: pa.Table) -> pa.Table:
        sk = batch["s_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        lon = ((sk * 41) % 3600) / 10.0 - 180.0 + 0.05
        lat = ((sk * 59) % 1700) / 10.0 - 85.0 + 0.05
        geo = GeoType.point(crs="OGC:CRS84")
        nat = native.build_points(np.column_stack([lon, lat]), geo)
        le = _wkb.encode(nat, GeoType.point())
        n = len(le)
        offs = np.frombuffer(le.buffers()[1], dtype=np.int32)[
            le.offset : le.offset + n + 1
        ]
        buf = np.frombuffer(le.buffers()[2], dtype=np.uint8)
        flat = buf[offs[0] : offs[0] + 21 * n].reshape(n, 21).copy()
        assert np.all(np.diff(offs) == 21) and np.all(flat[:, 0] == 1)
        be = np.empty_like(flat)
        be[:, 0] = 0  # XDR byte order
        be[:, 1:5] = flat[:, 1:5][:, ::-1]
        be[:, 5:13] = flat[:, 5:13][:, ::-1]
        be[:, 13:21] = flat[:, 13:21][:, ::-1]
        be_arr = pa.Array.from_buffers(
            pa.binary(), n,
            [None, pa.py_buffer(np.arange(0, 21 * (n + 1), 21, dtype=np.int32)),
             pa.py_buffer(be.tobytes())],
        )
        dec, _ = _wkb.decode(be_arr, GeoType.point())
        v = native.view(dec, GeoType.point())
        ilon = np.round(v.coords[:, 0] * 20.0).astype(np.int64)
        ilat = np.round(v.coords[:, 1] * 20.0).astype(np.int64)
        # bit-exactness of the decode itself (swap is an involution on
        # IEEE bytes): decoded doubles must equal the originals exactly
        ok = (v.coords[:, 0] == lon) & (v.coords[:, 1] == lat)
        return pa.table(
            {
                "s_suppkey": pa.array(sk, pa.int64()),
                "ilon20": pa.array(np.where(ok, ilon, np.int64(-(10 ** 9)))),
                "ilat20": pa.array(np.where(ok, ilat, np.int64(-(10 ** 9)))),
            }
        )

    return ds.map_batches(
        swap_decode, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


SQL_WKB_ENDIANNESS = """
SELECT s_suppkey,
       2*((s_suppkey*41)%3600) - 3599 AS ilon20,
       2*((s_suppkey*59)%1700) - 1699 AS ilat20
FROM supplier
"""


def q_wkt_roundtrip(sf_dir: str):
    """Codec conformance over synthesized points: native → WKT → native →
    WKB → native. The WKB legs must round-trip BIT-identically; the WKT
    leg is compared at 6 dp because the reference clamps WKT precision to
    16 FRACTIONAL digits (src/geoarrow.c:5823-5847) — a double whose
    shortest representation needs a 17th fractional digit (≈0.5% of the
    synthesized coords, e.g. -0.15000000000000280) legally re-parses
    1 ulp off, in the reference exactly as here. Bit-exact WKT behavior
    for ≤16-digit values is pinned by the corpus tests in
    tests/test_codecs.py."""
    ds = lineitem_points(sf_dir)

    def rt(batch: pa.Table) -> pa.Table:
        geo = GeoType.point(crs="OGC:CRS84")
        arr = batch["geotag"].combine_chunks()
        txt = wkt.encode(arr, geo)
        nat1, _ = wkt.decode(txt, GeoType.point())
        bin1 = wkb.encode(nat1, GeoType.point())
        nat2, _ = wkb.decode(bin1, GeoType.point())
        v0 = native.view(arr, geo)
        v1 = native.view(nat1, GeoType.point())
        v2 = native.view(nat2, GeoType.point())
        wkt_ok = np.all(
            np.round(v0.coords, 6) == np.round(v1.coords, 6), axis=1
        )
        wkb_ok = np.all(v1.coords == v2.coords, axis=1)  # bit-exact
        return pa.table(
            {
                "l_orderkey": batch["l_orderkey"],
                "l_linenumber": batch["l_linenumber"],
                "roundtrip_ok": pa.array(wkt_ok & wkb_ok),
            }
        )

    out = ds.map_batches(rt, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    from ray.data.aggregate import Count, Sum

    def to_int(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"ok": batch["roundtrip_ok"].cast(pa.int64()), "one": pa.array(np.ones(len(batch), np.int64))}
        )

    agg = out.map_batches(to_int, batch_format="pyarrow").aggregate(
        Sum("ok", alias_name="n_ok"), Sum("one", alias_name="n_total")
    )
    return pa.table({"n_ok": [agg["n_ok"]], "n_total": [agg["n_total"]]})


SQL_WKT_ROUNDTRIP = (
    "SELECT COUNT(*) AS n_ok, COUNT(*) AS n_total FROM lineitem"
)


def q_s2_cell_count(sf_dir: str):
    """S2-style cell histogram at the working level; the cell codec is
    replicated in ANSI SQL by ``_s2_parent_sql`` for the DuckDB oracle."""
    ds = lineitem_points(sf_dir)
    ds = ops.add_cell_column(ds, level=12, parent_level=6)
    return ops.salted_count(ds, "cell_parent", count_alias="n")


SQL_S2_CELL_COUNT = f"""
SELECT cell_parent, COUNT(*) AS n
FROM ({_s2_parent_sql(6, _LI_POINT_SQL)})
GROUP BY cell_parent
"""

# The engine's left PIP join is FIRST-match (one output row per point,
# ``pip_join`` "left" mode), so the flagship per-cell histogram equals the
# plain point histogram; the containment predicate itself is pinned by
# the pip_box_join oracle.
SQL_FLAGSHIP = f"""
SELECT cell_parent, COUNT(*) AS n
FROM ({_s2_parent_sql(6, _LI_POINT_SQL)})
GROUP BY cell_parent
ORDER BY n DESC, cell_parent
LIMIT 50
"""


# ------------------------------------------------- training-data queries

def q_token_count(sf_dir: str):
    """Whitespace token counting (text-analysis stage)."""
    from georay.stages import text as text_stage

    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return text_stage.add_token_count(ds).select_columns(["doc_id", "n_tokens"])


SQL_TOKEN_COUNT = r"""
SELECT doc_id, len(regexp_extract_all(text, '\S+')) AS n_tokens FROM documents
"""


def q_pretrain_prep(sf_dir: str, gate_broadcast_max: int = 2_000_000):
    """END-TO-END pretraining data prep, composing this round's new
    operators as ONE chain: corpus-rare-bigram novelty gate (keep docs
    with ≤10% rare bigrams — drops boilerplate-free noise) → semi join
    back to the corpus → sliding-window chunking (256/256 disjoint) →
    exact chunk dedup (keep lowest rid) → GPT-style sequence packing
    (budget 1024). Every stage is an oracled operator; the composition
    hash-matches SQL end-to-end.

    The semi join auto-switches (the movement_report pattern): below
    ``gate_broadcast_max`` passing ids the gate broadcasts as a sorted
    key array and the corpus — the chain's heaviest payload — never
    shuffles; above it the partitioned existence probe runs (only doc
    ids shuffle on the right, but the text column pays one bucket
    shuffle on the left)."""
    from georay.stages import text as text_stage

    docs = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    stats = text_stage.doc_rare_bigrams(docs, rare_max=1)

    def passing(batch: pa.Table) -> pa.Table:
        nb = batch["n_bigrams"].to_numpy(zero_copy_only=False)
        nr = batch["n_rare"].to_numpy(zero_copy_only=False)
        return pa.table({"ok_id": batch["doc_id"].filter(pa.array(nr * 10 <= nb))})

    ok = stats.map_batches(passing, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None).materialize()
    if ok.count() <= gate_broadcast_max:
        ids = np.sort(ok.to_pandas()["ok_id"].to_numpy().astype(np.int64))
        kept = ops.semi_join_filter(docs, "doc_id", ids)
    else:
        kept = ops.equi_join_partitioned(
            docs, ok, on="doc_id", right_on="ok_id", how="semi"
        )
    chunks = text_stage.chunk_documents(kept, size=256, stride=256)

    def add_rid(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        ci = batch["chunk_idx"].to_numpy(zero_copy_only=False)
        ln = pc.utf8_length(batch["chunk"]).cast(pa.int64())
        return pa.table(
            {"rid": pa.array(did * 8 + ci), "chunk": batch["chunk"],
             "n_chars": ln}
        )

    chunks = chunks.map_batches(add_rid, batch_format="pyarrow",
                                zero_copy_batch=True, batch_size=None)
    uniq = ops.dedup_exact(chunks, "chunk", keep_col="rid")
    packed = ops.pack_sequences(
        uniq.select_columns(["rid", "n_chars"]), id_col="rid",
        len_col="n_chars", budget=1024,
    )
    return packed.select_columns(["rid", "pack_id", "pack_offset"])


SQL_PRETRAIN_PREP = r"""
WITH arrs AS (
  SELECT doc_id, text, regexp_extract_all(lower(text), '\S+') AS arr
  FROM documents
),
toks AS (
  SELECT doc_id, arr[i] AS t, i
  FROM arrs, UNNEST(generate_series(1, len(arr))) AS g(i)
),
bigrams AS (
  SELECT a.doc_id, a.t || ' ' || b.t AS bg
  FROM toks a JOIN toks b ON a.doc_id = b.doc_id AND b.i = a.i + 1
),
bgc AS (SELECT bg, COUNT(*) AS c FROM bigrams GROUP BY bg),
stats AS (
  SELECT bigrams.doc_id, COUNT(*) AS n_bigrams,
         SUM(CASE WHEN c <= 1 THEN 1 ELSE 0 END) AS n_rare
  FROM bigrams JOIN bgc USING (bg) GROUP BY bigrams.doc_id
),
kept AS (
  SELECT d.doc_id, d.text FROM documents d
  SEMI JOIN (SELECT doc_id FROM stats WHERE n_rare * 10 <= n_bigrams) s
  ON d.doc_id = s.doc_id
),
chunks AS (
  SELECT doc_id * 8 + chunk_idx AS rid,
         substring(text, CAST(chunk_idx * 256 + 1 AS BIGINT), 256) AS chunk
  FROM (
    SELECT doc_id, text,
           UNNEST(generate_series(
             0, CAST(ceil(length(text) / 256.0) AS BIGINT) - 1)) AS chunk_idx
    FROM kept
  )
),
uniq AS (
  SELECT rid, length(chunk) AS n_chars FROM (
    SELECT rid, chunk,
           ROW_NUMBER() OVER (PARTITION BY chunk ORDER BY rid) AS rn
    FROM chunks
  ) WHERE rn = 1
),
hashed AS (
  SELECT rid, n_chars,
         xor(h2, h2 // 8589934592) AS h
  FROM (
    SELECT *, ( (h1 % 4294967296) * 18397679294719823053
              + ((h1 // 4294967296) * 18397679294719823053 % 4294967296) * 4294967296
              ) % 18446744073709551616 AS h2
    FROM (SELECT rid, n_chars,
                 xor(CAST(rid AS HUGEINT), CAST(rid AS HUGEINT) // 8589934592) AS h1
          FROM uniq)
  )
),
pfx AS (
  SELECT rid,
         COALESCE(SUM(n_chars) OVER (
           ORDER BY h, rid
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS off
  FROM hashed
)
SELECT rid,
       CAST(off // 1024 AS BIGINT) AS pack_id,
       CAST(off % 1024 AS BIGINT) AS pack_offset
FROM pfx
"""


def q_source_overlap(sf_dir: str):
    """Cross-source contamination audit: per source pair, the number of
    distinct 3-grams present in both (stages.text.source_ngram_overlap
    — presence dedup tree + gram-bucket pair expansion; text never
    shuffles). The overlap matrix a corpus-mixing decision reads."""
    from georay.stages.text import source_ngram_overlap

    docs = rd.read_parquet(_t(sf_dir, "documents"),
                           columns=["text", "source"])
    return source_ngram_overlap(docs)


SQL_SOURCE_OVERLAP = r"""
WITH toks AS (
  SELECT source, regexp_extract_all(lower(text), '\S+') AS arr FROM documents
),
ng AS (
  SELECT DISTINCT source, arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2] AS g
  FROM toks, UNNEST(generate_series(1, GREATEST(len(arr) - 2, 0))) AS t(i)
)
SELECT a.source AS src_a, b.source AS src_b,
       CAST(COUNT(*) AS BIGINT) AS n_shared
FROM ng a JOIN ng b ON b.g = a.g AND a.source < b.source
GROUP BY 1, 2
"""


def q_token_chi2(sf_dir: str):
    """χ² keyword selection over documents: per token (df ≥ 2), the
    distinct-doc frequency in English vs non-English docs plus the
    integer χ² numerator (n11·n00 − n10·n01)² — the feature-selection
    sufficient stats a classifier-training stage consumes
    (stages.text.token_label_stats: per-batch doc-dedup + vocabulary
    combine tree; class totals broadcast into the finish map)."""
    from georay.stages.text import token_label_stats

    docs = rd.read_parquet(_t(sf_dir, "documents"), columns=["text", "lang"])

    def is_en(batch: pa.Table) -> np.ndarray:
        # NULL lang → class 0 (SQL CASE WHEN lang='en' THEN 1 ELSE 0)
        return pc.fill_null(pc.equal(batch["lang"], "en"), False).to_numpy(
            zero_copy_only=False).astype(np.int64)

    return token_label_stats(docs, is_en)


SQL_TOKEN_CHI2 = r"""
WITH lab AS (
  SELECT CASE WHEN lang = 'en' THEN 1 ELSE 0 END AS y, text,
         ROW_NUMBER() OVER () AS rid
  FROM documents
),
tok AS (
  SELECT DISTINCT rid, y,
    unnest(string_split(trim(regexp_replace(lower(text), '\s+', ' ', 'g'),
                             ' '), ' ')) AS token
  FROM lab
),
tot AS (
  SELECT CAST(SUM(y) AS BIGINT) AS p,
         CAST(COUNT(*) - SUM(y) AS BIGINT) AS n
  FROM lab
),
s AS (
  SELECT token, CAST(SUM(y) AS BIGINT) AS df_pos,
         CAST(COUNT(*) - SUM(y) AS BIGINT) AS df_neg
  FROM tok GROUP BY token HAVING COUNT(*) >= 2
)
SELECT token, df_pos, df_neg,
       CAST((df_pos * (n - df_neg) - df_neg * (p - df_pos))
          * (df_pos * (n - df_neg) - df_neg * (p - df_pos)) AS BIGINT)
         AS chi2_num
FROM s, tot
"""


def q_rare_bigrams(sf_dir: str):
    """Corpus-novelty signal (n-gram LM filtering core): per doc, its
    bigram count and how many of its bigrams are globally rare (corpus
    frequency ≤ 1). One bigram-hash shuffle; frequency = in-group
    segment size, so no bigram table materializes and no join runs."""
    from georay.stages import text as text_stage

    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return text_stage.doc_rare_bigrams(ds, rare_max=1)


SQL_RARE_BIGRAMS = r"""
WITH arrs AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS arr FROM documents
),
toks AS (
  SELECT doc_id, arr[i] AS t, i
  FROM arrs, UNNEST(generate_series(1, len(arr))) AS g(i)
),
bigrams AS (
  SELECT a.doc_id, a.t || ' ' || b.t AS bg
  FROM toks a JOIN toks b ON a.doc_id = b.doc_id AND b.i = a.i + 1
),
counts AS (SELECT bg, COUNT(*) AS c FROM bigrams GROUP BY bg)
SELECT bigrams.doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_bigrams,
       CAST(SUM(CASE WHEN c <= 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_rare
FROM bigrams JOIN counts USING (bg)
GROUP BY bigrams.doc_id
"""


def q_decontaminate(sf_dir: str):
    """Benchmark decontamination (eval-overlap gate): docs with
    doc_id % 20 == 0 stand in for the held-out benchmark; every other
    doc reports its word-trigram count and how many of its trigrams
    appear anywhere in the benchmark. Benchmark trigrams broadcast once
    via exchange.broadcast; the corpus streams with one pc.is_in probe per batch
    — no shuffle, no join."""
    from georay.stages import text as text_stage

    docs = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def _split(batch: pa.Table, keep_bench: bool) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        m = (did % 20 == 0) if keep_bench else (did % 20 != 0)
        return batch.filter(pa.array(m))

    kw = dict(batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    bench = docs.map_batches(lambda b: _split(b, True), **kw)
    corpus = docs.map_batches(lambda b: _split(b, False), **kw)
    return text_stage.decontaminate(corpus, bench, n=3)


SQL_DECONTAMINATE = r"""
WITH arrs AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS arr FROM documents
),
tri AS (
  SELECT doc_id, arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2] AS ng
  FROM arrs, UNNEST(generate_series(1, len(arr) - 2)) AS g(i)
),
bench AS (SELECT DISTINCT ng FROM tri WHERE doc_id % 20 = 0)
SELECT t.doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_ngrams,
       CAST(SUM(CASE WHEN b.ng IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT)
         AS n_hits
FROM (SELECT * FROM tri WHERE doc_id % 20 <> 0) t
LEFT JOIN bench b ON t.ng = b.ng
GROUP BY t.doc_id
"""


def q_composite_join(sf_dir: str):
    """Composite-key decorated join: per-(l_partkey, l_suppkey) totals
    joined back onto every lineitem row — exercises the both-sides-
    large equality join on a TWO-COLUMN key (one combined hash covers
    both columns; still one co-partitioning shuffle)."""
    li = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_linenumber", "l_partkey", "l_suppkey",
                 "l_quantity"],
    )
    stats = ops.tree_sum(
        li.map_batches(
            lambda b: pa.table(
                {
                    "ps_partkey": b["l_partkey"],
                    "ps_suppkey": b["l_suppkey"],
                    "partial_n": pa.array(np.ones(len(b), np.int64)),
                    "partial_qty": b["l_quantity"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
        ),
        ["ps_partkey", "ps_suppkey"],
        {"partial_n": "ps_n", "partial_qty": "ps_qty"},
        int_cols=("partial_n", "partial_qty"),
    )
    out = ops.equi_join_partitioned(
        li.select_columns(
            ["l_orderkey", "l_linenumber", "l_partkey", "l_suppkey"]
        ),
        stats,
        on=["l_partkey", "l_suppkey"],
        right_on=["ps_partkey", "ps_suppkey"],
        how="inner",
    )
    return out.select_columns(
        ["l_orderkey", "l_linenumber", "l_partkey", "l_suppkey",
         "ps_n", "ps_qty"]
    )


SQL_COMPOSITE_JOIN = """
WITH stats AS (
  SELECT l_partkey AS ps_partkey, l_suppkey AS ps_suppkey,
         CAST(COUNT(*) AS BIGINT) AS ps_n,
         CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS ps_qty
  FROM lineitem GROUP BY l_partkey, l_suppkey
)
SELECT l.l_orderkey, l.l_linenumber, l.l_partkey, l.l_suppkey,
       s.ps_n, s.ps_qty
FROM lineitem l
JOIN stats s ON l.l_partkey = s.ps_partkey AND l.l_suppkey = s.ps_suppkey
"""


def q_dup_spans(sf_dir: str):
    """Exact substring-duplication signal (suffix-array dedup core,
    grid-quantized): per doc, its 40-char windows sampled every 20
    chars and how many occur byte-identical anywhere else in the
    corpus. One content-bucketed shuffle, frequency = in-group segment
    size — no join, no suffix array materialized."""
    from georay.stages import dedup as dedup_stage

    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return dedup_stage.doc_duplicate_spans(ds, width=40, stride=20)


SQL_DUP_SPANS = """
WITH g AS (
  SELECT doc_id,
         substring(text, CAST(p * 20 + 1 AS BIGINT), 40) AS gram
  FROM (
    SELECT doc_id, text,
           UNNEST(generate_series(
             0, CAST(floor((length(text) - 40) / 20.0) AS BIGINT))) AS p
    FROM documents WHERE length(text) >= 40
  )
),
c AS (SELECT gram, COUNT(*) AS cnt FROM g GROUP BY gram)
SELECT g.doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_spans,
       CAST(SUM(CASE WHEN cnt > 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_dup
FROM g JOIN c USING (gram)
GROUP BY g.doc_id
"""


def q_mixture_sample(sf_dir: str):
    """Domain-mixture sampling (pretraining recipe weights): keep 100%
    of de, 50% of fr, 25% of en, 0% of zh, 12.5% of everything else —
    deterministic per-language Bernoulli on mix64(doc_id), no RNG, no
    shuffle. Nested: raising a rate only adds rows."""
    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "lang"])
    out = ops.mixture_sample(
        ds, "doc_id", "lang",
        rates={"en": 0.25, "de": 1.0, "fr": 0.5, "zh": 0.0},
        default_rate=0.125,
    )
    return out.select_columns(["doc_id", "lang"])


# thresholds = mixture_rate_threshold(rate): rate quantized to 1/2^20
# then scaled by 2^44 — en 2^62, de 2^64 (keep all), fr 2^63, zh 0,
# default 2^61; the hash chain replicates ops._mix64 in HUGEINT.
SQL_MIXTURE_SAMPLE = """
WITH s1 AS (
  SELECT doc_id, lang, CAST(doc_id AS HUGEINT) AS rid FROM documents
),
m1 AS (SELECT doc_id, lang, xor(rid, rid // 8589934592) AS h1 FROM s1),
m2 AS (
  SELECT doc_id, lang,
         ( (h1 % 4294967296) * 18397679294719823053
         + ((h1 // 4294967296) * 18397679294719823053 % 4294967296)
           * 4294967296
         ) % 18446744073709551616 AS h2
  FROM m1
),
hashed AS (SELECT doc_id, lang, xor(h2, h2 // 8589934592) AS h FROM m2)
SELECT doc_id, lang FROM hashed
WHERE h < CASE lang
  WHEN 'en' THEN 4611686018427387904
  WHEN 'de' THEN 18446744073709551616
  WHEN 'fr' THEN 9223372036854775808
  WHEN 'zh' THEN 0
  ELSE 2305843009213693952 END
"""


def q_chunk_docs(sf_dir: str):
    """Sliding-window training-sample chunking (size 120, stride 90):
    pure row-expanding map_batches over flat Arrow string buffers, no
    shuffle."""
    from georay.stages import text as text_stage

    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return text_stage.chunk_documents(ds, size=120, stride=90)


SQL_CHUNK_DOCS = """
SELECT doc_id, chunk_idx,
       substring(text, CAST(chunk_idx * 90 + 1 AS BIGINT), 120) AS chunk
FROM (
  SELECT doc_id, text,
         UNNEST(generate_series(
           0, CAST(ceil(length(text) / 90.0) AS BIGINT) - 1)) AS chunk_idx
  FROM documents
)
"""


def q_doc_fingerprint(sf_dir: str):
    """Document fingerprinting (normalized-text md5)."""
    from georay.stages import text as text_stage

    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return text_stage.add_fingerprint(ds).select_columns(["doc_id", "fingerprint"])


SQL_DOC_FINGERPRINT = r"""
SELECT doc_id, md5(trim(regexp_replace(lower(text), '\s+', ' ', 'g'))) AS fingerprint
FROM documents
"""


def q_dedup_text_exact(sf_dir: str):
    """Exact dedup on normalized text content (fingerprint groupby)."""
    from georay.stages import dedup as dedup_stage

    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return dedup_stage.dedup_exact_text(ds).select_columns(["doc_id", "fingerprint"])


SQL_DEDUP_TEXT_EXACT = r"""
SELECT MIN(doc_id) AS doc_id,
       md5(trim(regexp_replace(lower(text), '\s+', ' ', 'g'))) AS fingerprint
FROM documents GROUP BY 2
"""


def q_doc_stats(sf_dir: str):
    """Quality-scoring components with exact SQL equivalents."""
    from georay.stages import text as text_stage

    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return text_stage.add_quality(ds).select_columns(["doc_id", "n_tokens", "n_digits"])


SQL_DOC_STATS = r"""
SELECT doc_id, len(regexp_extract_all(text, '\S+')) AS n_tokens,
       len(regexp_extract_all(text, '[0-9]')) AS n_digits
FROM documents
"""


def q_repetition(sf_dir: str):
    """Gopher-style repetition filter signals per document (distinct
    ratio inputs, top-token fraction, duplicate-2-gram coverage) —
    exact dictionary-encoded token/2-gram counting, one pass."""
    from georay.stages import text as text_stage

    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return text_stage.add_repetition(ds)


SQL_REPETITION = r"""
WITH d AS (
  SELECT doc_id,
         string_split(trim(regexp_replace(lower(text), '\s+', ' ', 'g'), ' '), ' ') AS toks
  FROM documents
),
tok AS (SELECT doc_id, unnest(toks) AS tok FROM d),
per_tok AS (SELECT doc_id, tok, COUNT(*) AS c FROM tok GROUP BY doc_id, tok),
t1 AS (SELECT doc_id, SUM(c) AS n_tok, COUNT(*) AS n_distinct, MAX(c) AS top_c
       FROM per_tok GROUP BY doc_id),
pr AS (SELECT doc_id, unnest(list_zip(toks[1:len(toks)-1], toks[2:len(toks)])) AS z
       FROM d),
per_pair AS (SELECT doc_id, z[1] AS a, z[2] AS b, COUNT(*) AS c
             FROM pr GROUP BY doc_id, a, b),
t2 AS (SELECT doc_id, SUM(c) AS n2,
              COALESCE(SUM(c) FILTER (WHERE c > 1), 0) AS dup2
       FROM per_pair GROUP BY doc_id)
SELECT t1.doc_id AS doc_id, CAST(n_tok AS BIGINT) AS n_tok,
       CAST(n_distinct AS BIGINT) AS n_distinct,
       round(top_c / n_tok, 6) AS top_frac,
       CASE WHEN COALESCE(n2, 0) > 0 THEN round(dup2 / n2, 6) ELSE 0.0 END AS dup2_frac
FROM t1 LEFT JOIN t2 ON t1.doc_id = t2.doc_id
"""


def q_redact(sf_dir: str):
    """Regex scrub (PII-shaped): global RE2 replace of a token pattern
    plus the per-doc match count, all C-path pyarrow kernels."""
    from georay.stages import text as text_stage

    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return text_stage.add_redact(ds).select_columns(
        ["doc_id", "redacted", "n_redacted"]
    )


SQL_REDACT = r"""
SELECT doc_id,
       regexp_replace(text, '\b(key|hash|scan)\b', '<REDACTED>', 'g') AS redacted,
       len(regexp_extract_all(text, '\b(key|hash|scan)\b')) AS n_redacted
FROM documents
"""


def q_lang_quality(sf_dir: str):
    """Language-ID heuristic + composite quality score; the marker-count
    argmax and the score formula are replicated expression-for-expression
    in SQL_LANG_QUALITY (RE2 regex semantics match pyarrow's)."""
    from georay.stages import text as text_stage

    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text", "lang"])
    ds = text_stage.add_language_id(ds)
    ds = text_stage.add_quality(ds)
    return ds.select_columns(["doc_id", "lang", "lang_pred", "quality"])


# Mirrors stages/text.py: LanguageId (first-max argmax over marker counts,
# CJK×2 for zh, 'und' when all zero) and quality_batch's composite score.
SQL_LANG_QUALITY = r"""
WITH s AS (
  SELECT doc_id, lang,
    length(text)::DOUBLE AS n_chars,
    len(regexp_extract_all(text, '\S+'))::DOUBLE AS n_tokens,
    len(regexp_extract_all(text, '[0-9]'))::DOUBLE AS n_digits,
    len(regexp_extract_all(text, '[!-/:-@\[-`{-~]'))::DOUBLE AS n_punct,
    len(regexp_extract_all(lower(text), '\b(the|and|of|to|a|in|is|that|it|for)\b'))::DOUBLE AS s_en,
    len(regexp_extract_all(lower(text), '\b(der|die|das|und|ist|nicht|ein|eine|mit|von)\b'))::DOUBLE AS s_de,
    len(regexp_extract_all(lower(text), '\b(le|la|les|et|est|une|un|des|dans|pour)\b'))::DOUBLE AS s_fr,
    len(regexp_extract_all(lower(text), '\b(el|los|las|y|es|una|un|de|en|por)\b'))::DOUBLE AS s_es,
    len(regexp_extract_all(lower(text), '[一-鿿]'))::DOUBLE * 2.0 AS s_zh
  FROM documents
)
SELECT doc_id, lang,
  CASE WHEN greatest(s_en, s_de, s_fr, s_es, s_zh) = 0 THEN 'und'
       WHEN s_en >= s_de AND s_en >= s_fr AND s_en >= s_es AND s_en >= s_zh THEN 'en'
       WHEN s_de >= s_fr AND s_de >= s_es AND s_de >= s_zh THEN 'de'
       WHEN s_fr >= s_es AND s_fr >= s_zh THEN 'fr'
       WHEN s_es >= s_zh THEN 'es'
       ELSE 'zh' END AS lang_pred,
  round(least(greatest(
      0.35 * least(greatest(n_tokens / 64.0, 0), 1)
    + 0.25 * least(greatest(1.0 - (CASE WHEN n_chars > 0 THEN n_digits / n_chars ELSE 0.0 END) * 5, 0), 1)
    + 0.2  * least(greatest(1.0 - (CASE WHEN n_chars > 0 THEN n_punct / n_chars ELSE 0.0 END) * 5, 0), 1)
    + 0.2  * least(greatest((CASE WHEN n_tokens > 0 THEN s_en / greatest(n_tokens, 1) ELSE 0.0 END) * 4, 0), 1)
  , 0.0), 1.0), 6) AS quality
FROM s
"""


def q_geohash_smoothing(sf_dir: str):
    """Occupancy smoothing on the geohash grid (the 4th cell system's
    B4 ring primitive — cells.geohash_ij/geohash_neighbors): for every
    OCCUPIED precision-2 cell of the lineitem points, how many of its 8
    Moore neighbors are also occupied (lon wraps, lat does not — polar
    rows have 5 neighbors). Distinct-occupancy dedup tree → neighbor
    contribution rows → one tagged combine tree merges counts with the
    occupancy flag; zero-neighbor cells emit 0."""
    from georay import cells as _cells

    ds = lineitem_points(sf_dir)

    def occ_partial(batch: pa.Table) -> pa.Table:
        lon, lat = ops.point_lonlat(batch, "geotag")
        ix, iy = _cells.geohash_ij(lon, lat, precision=2)
        key = ix * 1000 + iy
        u = np.unique(key)
        return pa.table(
            {
                "k": pa.array(u, pa.int64()),
                "partial_one": pa.array(np.ones(u.shape[0], np.int64)),
            }
        )

    occ = ops.tree_sum(
        ds.map_batches(
            occ_partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        "k", {"partial_one": "c"}, int_cols=("partial_one",),
    )

    def contrib(batch: pa.Table) -> pa.Table:
        k = batch["k"].to_numpy(zero_copy_only=False)
        ix, iy = k // 1000, k % 1000
        _, nix, niy = _cells.geohash_neighbors(ix, iy, precision=2)
        nk = nix * 1000 + niy
        # tag streams: occupancy flag rides partial_occ, neighbor
        # contributions ride partial_nbr — one merged tree
        return pa.table(
            {
                "k": pa.array(np.concatenate([k, nk]), pa.int64()),
                "partial_occ": pa.array(np.concatenate(
                    [np.ones(k.shape[0], np.int64),
                     np.zeros(nk.shape[0], np.int64)]
                )),
                "partial_nbr": pa.array(np.concatenate(
                    [np.zeros(k.shape[0], np.int64),
                     np.ones(nk.shape[0], np.int64)]
                )),
            }
        )

    merged = ops.tree_sum(
        occ.map_batches(
            contrib, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        "k", {"partial_occ": "occ", "partial_nbr": "n_nbrs"},
        int_cols=("partial_occ", "partial_nbr"),
    )

    def finish(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pc.greater(batch["occ"], 0))
        k = sub["k"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "ix": pa.array(k // 1000, pa.int64()),
                "iy": pa.array(k % 1000, pa.int64()),
                "n_nbrs": sub["n_nbrs"],
            }
        )

    return merged.map_batches(
        finish, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    )


SQL_GEOHASH_SMOOTHING = f"""
WITH pts AS ({_LI_POINT_SQL}),
sc AS (
  SELECT CAST(floor((lon + 180e0) / 360e0 * 32) AS BIGINT) AS ix,
         CAST(floor((lat + 90e0) / 180e0 * 32) AS BIGINT) AS iy
  FROM pts
),
cl AS (
  SELECT LEAST(GREATEST(ix, 0), 31) AS ix,
         LEAST(GREATEST(iy, 0), 31) AS iy
  FROM sc
),
occ AS (SELECT DISTINCT ix, iy FROM cl),
d(dx, dy) AS (VALUES (-1,-1),(-1,0),(-1,1),(0,-1),(0,1),(1,-1),(1,0),(1,1)),
nb AS (
  SELECT ((o.ix + d.dx) % 32 + 32) % 32 AS ix, o.iy + d.dy AS iy
  FROM occ o CROSS JOIN d WHERE o.iy + d.dy BETWEEN 0 AND 31
),
cnt AS (SELECT ix, iy, COUNT(*) AS n FROM nb GROUP BY 1, 2)
SELECT o.ix, o.iy, CAST(COALESCE(c.n, 0) AS BIGINT) AS n_nbrs
FROM occ o LEFT JOIN cnt c ON c.ix = o.ix AND c.iy = o.iy
"""


def q_lang_confusion(sf_dir: str):
    """Language-ID CONFUSION MATRIX — the detector-evaluation table a
    curation run reads before trusting the language gate: per (labeled
    lang, predicted lang), the document count. Detector = the engine's
    marker-argmax language id; counts via the salted two-stage
    aggregate. The SQL twin wraps the expression-for-expression
    SQL_LANG_QUALITY replica in a GROUP BY."""
    from georay.stages import text as text_stage

    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["text", "lang"])
    ds = text_stage.add_language_id(ds)
    return ops.salted_count(
        ds.select_columns(["lang", "lang_pred"]), ["lang", "lang_pred"],
        count_alias="n",
    )


def _sql_lang_confusion() -> str:
    # reuse SQL_LANG_QUALITY's s-CTE + argmax CASE, grouped (rsplit:
    # the CTE's inner SELECT also starts with "doc_id, lang")
    cte, tail = SQL_LANG_QUALITY.rsplit("SELECT doc_id, lang,", 1)
    case = tail.split("AS lang_pred", 1)[0]
    return (
        f"{cte}SELECT lang, {case} AS lang_pred, "
        "CAST(COUNT(*) AS BIGINT) AS n FROM s GROUP BY 1, 2"
    )


def q_minhash_neardup(sf_dir: str):
    """MinHash+LSH near-duplicate clustering (rows-only; recall pinned by
    tests/test_stages.py planted-duplicate checks)."""
    from georay.stages import dedup as dedup_stage

    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return dedup_stage.minhash_dedup(ds, threshold=0.8)


PLANT_MOD = 10
PLANT_OFFSET = 1_000_000


def q_minhash_planted(sf_dir: str):
    """Count-style ORACLE for the MinHash pipeline: plant an exact copy
    (new id = doc_id + {PLANT_OFFSET}) of every doc with
    ``doc_id % {PLANT_MOD} == 0`` and run the full distributed near-dup
    pipeline over the union. Identical text ⇒ identical signature ⇒ same
    bucket in every band ⇒ always a verified pair (Jaccard 1.0), so each
    planted doc is DETERMINISTICALLY flagged is_dup with
    cluster_id ≤ its original — regardless of whatever fuzzy near-dups
    the corpus itself contains. The oracle is the plain SQL count."""
    from georay.stages import dedup as dedup_stage

    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def plant(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = ids % PLANT_MOD == 0
        sub = batch.filter(pa.array(keep))
        new_ids = sub["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64) + PLANT_OFFSET
        return pa.table({"doc_id": pa.array(new_ids, pa.int64()), "text": sub["text"]})

    planted = ds.map_batches(plant, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    # the dedup pipeline consumes its input twice (band exchange, final
    # assign); materialize the planted union once so
    # the plant chain isn't re-executed per consumer (test-harness table,
    # bounded — a production corpus would just be re-read from parquet)
    both = ds.union(planted).materialize()
    out = dedup_stage.minhash_dedup(both, threshold=0.8)

    def summarize(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        cl = batch["cluster_id"].to_numpy(zero_copy_only=False)
        dup = batch["is_dup"].to_numpy(zero_copy_only=False)
        m = ids >= PLANT_OFFSET
        return pa.table(
            {
                "p_planted": pa.array([int(m.sum())], pa.int64()),
                "p_flagged": pa.array([int(dup[m].sum())], pa.int64()),
                "p_cluster_ok": pa.array(
                    [int((cl[m] <= ids[m] - PLANT_OFFSET).sum())], pa.int64()
                ),
            }
        )

    from ray.data.aggregate import Sum

    agg = out.map_batches(
        summarize, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).aggregate(
        Sum("p_planted", alias_name="n_planted"),
        Sum("p_flagged", alias_name="n_flagged_dup"),
        Sum("p_cluster_ok", alias_name="n_cluster_ok"),
    )
    return pa.table(
        {
            "n_planted": pa.array([agg["n_planted"]], pa.int64()),
            "n_flagged_dup": pa.array([agg["n_flagged_dup"]], pa.int64()),
            "n_cluster_ok": pa.array([agg["n_cluster_ok"]], pa.int64()),
        }
    )


SQL_MINHASH_PLANTED = f"""
SELECT COUNT(*) AS n_planted, COUNT(*) AS n_flagged_dup, COUNT(*) AS n_cluster_ok
FROM documents WHERE doc_id % {PLANT_MOD} = 0
"""


def q_simhash_planted(sf_dir: str):
    """Count-style oracle for the SimHash pipeline, same planting device
    as ``minhash_planted``: an exact copy has Hamming distance 0, so all
    four 16-bit bands collide and the pair is deterministically emitted;
    the oracle is the plain SQL count of planted docs."""
    from georay.stages import dedup as dedup_stage

    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def plant(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = ids % PLANT_MOD == 0
        sub = batch.filter(pa.array(keep))
        new_ids = sub["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64) + PLANT_OFFSET
        return pa.table({"doc_id": pa.array(new_ids, pa.int64()), "text": sub["text"]})

    planted = ds.map_batches(plant, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    # the PAIR table is the small side; collecting it for the planted
    # count is the blessed broadcast pattern, not corpus materialization
    pairs = dedup_stage.simhash_candidates(ds.union(planted)).to_pandas()
    ia = pairs["id_a"].to_numpy()
    ib = pairs["id_b"].to_numpy()
    ham = pairs["hamming"].to_numpy()
    found = int(
        np.sum((ib == ia + PLANT_OFFSET) & (ia % PLANT_MOD == 0) & (ham == 0))
    )
    return pa.table({"n_planted_found": pa.array([found], pa.int64())})


SQL_SIMHASH_PLANTED = f"""
SELECT COUNT(*) AS n_planted_found FROM documents WHERE doc_id % {PLANT_MOD} = 0
"""


ANN_K = 5
ANN_NQ = 5


def _ann_queries(sf_dir: str):
    import pyarrow.parquet as pq

    from georay.stages import embed as embed_stage

    t = pq.read_table(_t(sf_dir, "embeddings"))
    ids = t["vec_id"].to_numpy()
    sel = np.argsort(ids)[:ANN_NQ]
    vecs = embed_stage._embedding_matrix(t)
    return vecs[sel], ids[sel]


def q_ann_topk(sf_dir: str):
    """Brute-force cosine top-k similarity search (rank-only columns so
    float summation order cannot flip the hash; ties broken by vec_id)."""
    from georay.stages import embed as embed_stage

    ds = rd.read_parquet(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    q, qids = _ann_queries(sf_dir)
    out = embed_stage.ann_brute_topk(ds, q, qids, k=ANN_K)
    return out.select(["query_id", "vec_id", "rank"])


SQL_ANN_TOPK = f"""
WITH q AS (
  SELECT vec_id AS query_id, embedding AS qe FROM embeddings
  ORDER BY vec_id LIMIT {ANN_NQ}
),
scored AS (
  SELECT q.query_id, e.vec_id,
         ROW_NUMBER() OVER (
           PARTITION BY q.query_id
           ORDER BY list_cosine_similarity(e.embedding, q.qe) DESC, e.vec_id
         ) AS rank
  FROM q CROSS JOIN embeddings e
  WHERE e.vec_id != q.query_id
)
SELECT query_id, vec_id, rank FROM scored WHERE rank <= {ANN_K}
"""


ANN_FILTER_LABEL = 2


def q_ann_filtered(sf_dir: str):
    """Filtered vector search: the metadata predicate (label = 2) is a
    vectorized batch filter UPSTREAM of the brute-force cosine top-k, so
    the matmul only ever sees surviving rows — filter-then-search as
    pipeline composition, not a post-filter over results."""
    from georay.stages import embed as embed_stage

    ds = rd.read_parquet(
        _t(sf_dir, "embeddings"), columns=["vec_id", "embedding", "label"]
    )

    def keep(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.equal(batch["label"], ANN_FILTER_LABEL)
        ).drop_columns(["label"])

    ds = ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True,
                        batch_size=None)
    q, qids = _ann_queries(sf_dir)
    out = embed_stage.ann_brute_topk(ds, q, qids, k=ANN_K)
    return out.select(["query_id", "vec_id", "rank"])


SQL_ANN_FILTERED = f"""
WITH q AS (
  SELECT vec_id AS query_id, embedding AS qe FROM embeddings
  ORDER BY vec_id LIMIT {ANN_NQ}
),
scored AS (
  SELECT q.query_id, e.vec_id,
         ROW_NUMBER() OVER (
           PARTITION BY q.query_id
           ORDER BY list_cosine_similarity(e.embedding, q.qe) DESC, e.vec_id
         ) AS rank
  FROM q CROSS JOIN embeddings e
  WHERE e.vec_id != q.query_id AND e.label = {ANN_FILTER_LABEL}
)
SELECT query_id, vec_id, rank FROM scored WHERE rank <= {ANN_K}
"""


KNN_CLS_K = 7


def q_knn_classify(sf_dir: str):
    """k-NN majority-vote classifier over the embedding corpus: each
    held-out query takes its {KNN_CLS_K} cosine-nearest neighbors
    (exact brute top-k — the per-batch partial-top-k matmul plan of
    ``ann_topk``) and predicts the majority neighbor label, ties
    resolved deterministically (count DESC, label ASC). Neighbor labels
    come from ONE streaming ``pc.is_in`` probe of the label column by
    the nq·k hit set — the corpus itself never shuffles and no label
    array is broadcast; the vote fold is driver-side over ≤ nq·k rows."""
    from georay.stages import embed as embed_stage

    ds = rd.read_parquet(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    q, qids = _ann_queries(sf_dir)
    topk = embed_stage.ann_brute_topk(ds, q, qids, k=KNN_CLS_K)
    hits = topk.select(["query_id", "vec_id"]).to_pandas()
    hit_ref = exchange.broadcast(np.unique(hits["vec_id"].to_numpy()))

    lab = rd.read_parquet(_t(sf_dir, "embeddings"), columns=["vec_id", "label"])

    def probe(batch: pa.Table) -> pa.Table:
        hs = hit_ref.get()
        return batch.filter(pc.is_in(batch["vec_id"], pa.array(hs)))

    pairs = lab.map_batches(
        probe, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).to_pandas()  # bounded: ≤ nq·k distinct neighbor ids
    hits["label"] = hits["vec_id"].map(
        dict(zip(pairs["vec_id"], pairs["label"]))
    )
    votes = (
        hits.groupby(["query_id", "label"]).size().reset_index(name="c")
        .sort_values(["query_id", "c", "label"], ascending=[True, False, True])
    )
    best = votes.groupby("query_id", as_index=False).head(1)
    return pa.table(
        {
            "query_id": pa.array(best["query_id"].to_numpy(), pa.int64()),
            "pred_label": pa.array(
                best["label"].to_numpy().astype(np.int64), pa.int64()
            ),
        }
    )


SQL_KNN_CLASSIFY = f"""
WITH q AS (
  SELECT vec_id AS query_id, embedding AS qe FROM embeddings
  ORDER BY vec_id LIMIT {ANN_NQ}
),
scored AS (
  SELECT q.query_id, e.vec_id,
         ROW_NUMBER() OVER (
           PARTITION BY q.query_id
           ORDER BY list_cosine_similarity(e.embedding, q.qe) DESC, e.vec_id
         ) AS rank
  FROM q CROSS JOIN embeddings e
  WHERE e.vec_id != q.query_id
),
votes AS (
  SELECT s.query_id, e.label, COUNT(*) AS c
  FROM scored s JOIN embeddings e ON e.vec_id = s.vec_id
  WHERE s.rank <= {KNN_CLS_K}
  GROUP BY 1, 2
),
best AS (
  SELECT query_id, label,
         ROW_NUMBER() OVER (
           PARTITION BY query_id ORDER BY c DESC, label
         ) AS rn
  FROM votes
)
SELECT query_id, CAST(label AS BIGINT) AS pred_label FROM best WHERE rn = 1
"""


def q_explode(sf_dir: str):
    """UNNEST the embedding list column to element rows, then exact
    per-vector element stats (count/min/max — float-order-independent),
    validating the explode offsets end-to-end."""
    ds = rd.read_parquet(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    rows = ops.explode_list(ds, "embedding", value_out="x", pos_out=None)

    def partial(batch: pa.Table) -> pa.Table:
        vid = batch["vec_id"].to_numpy(zero_copy_only=False)
        x = batch["x"].to_numpy(zero_copy_only=False).astype(np.float64)
        (ks,), outs = ops._group_reduce(
            [vid],
            {"partial_n": np.ones(vid.shape[0], np.int64), "vmin": x, "vmax": x},
            ufunc={"partial_n": np.add, "vmin": np.minimum, "vmax": np.maximum},
        )
        return pa.table(
            {
                "vec_id": pa.array(ks, pa.int64()),
                "partial_n": pa.array(outs["partial_n"], pa.int64()),
                "vmin": pa.array(outs["vmin"], pa.float64()),
                "vmax": pa.array(outs["vmax"], pa.float64()),
            }
        )

    parts = rows.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return ops.tree_reduce(
        parts, "vec_id",
        {"partial_n": "n", "vmin": "vmin", "vmax": "vmax"},
        ufunc={"partial_n": np.add, "vmin": np.minimum, "vmax": np.maximum},
    )


SQL_EXPLODE = """
SELECT vec_id, COUNT(*) AS n,
       MIN(x) AS vmin, MAX(x) AS vmax
FROM (SELECT vec_id, CAST(unnest(embedding) AS DOUBLE) AS x FROM embeddings)
GROUP BY vec_id
"""


STUMP_SCALE_BITS = 40


def q_decision_stump(sf_dir: str):
    """Exact best decision stump over the embedding features vs label
    (stages.classify.decision_stump): quantized-value thresholds keep
    the candidate set bounded by dims × buckets, the split score is the
    integerized Gini gain, ties fully deterministic."""
    from georay.stages.classify import decision_stump

    ds = rd.read_parquet(_t(sf_dir, "embeddings"), columns=["embedding", "label"])
    return decision_stump(ds, "embedding", "label", quant_scale=16.0,
                          scale_bits=STUMP_SCALE_BITS)


SQL_DECISION_STUMP = f"""
WITH f AS (
  SELECT CAST(label AS BIGINT) AS label,
         generate_subscripts(embedding, 1) - 1 AS dim,
         CAST(FLOOR(CAST(unnest(embedding) AS DOUBLE) * 16) AS BIGINT) AS xq
  FROM embeddings
),
cnt AS (SELECT dim, xq, label, COUNT(*) AS c FROM f GROUP BY 1, 2, 3),
thr AS (
  SELECT dim, xq AS t FROM (SELECT DISTINCT dim, xq FROM cnt) d
  WHERE xq < (SELECT MAX(xq) FROM cnt c2 WHERE c2.dim = d.dim)
),
tot AS (SELECT label, COUNT(*) AS nc FROM f WHERE dim = 0 GROUP BY label),
n AS (SELECT COUNT(*) AS n FROM embeddings),
leftc AS (
  SELECT th.dim, th.t, c.label, SUM(c.c) AS nl
  FROM thr th JOIN cnt c ON c.dim = th.dim AND c.xq <= th.t
  GROUP BY 1, 2, 3
),
sides AS (
  SELECT dim, t, SUM(nl) AS n_l, SUM(nl * nl) AS s_l FROM leftc GROUP BY 1, 2
),
rights AS (
  SELECT th.dim, th.t,
         SUM((tot.nc - COALESCE(lc.nl, 0)) * (tot.nc - COALESCE(lc.nl, 0)))
           AS s_r
  FROM thr th CROSS JOIN tot
  LEFT JOIN leftc lc ON lc.dim = th.dim AND lc.t = th.t
    AND lc.label = tot.label
  GROUP BY 1, 2
),
score AS (
  SELECT s.dim, s.t AS thr,
         CAST(((s.s_l * (n.n - s.n_l) + r.s_r * s.n_l)
               * {1 << STUMP_SCALE_BITS})
              // (s.n_l * (n.n - s.n_l)) AS BIGINT) AS score_q
  FROM sides s JOIN rights r ON r.dim = s.dim AND r.t = s.t CROSS JOIN n
  WHERE s.n_l > 0 AND s.n_l < n.n
)
SELECT dim, thr, score_q FROM (
  SELECT dim, thr, score_q,
         ROW_NUMBER() OVER (ORDER BY score_q DESC, dim, thr) AS rn
  FROM score
) WHERE rn = 1
"""


KMEANS_K = 8


def q_kmeans_assign(sf_dir: str):
    """k-means E-step as a streaming stage: every embedding assigned to
    the nearest of 8 fixed centers (the first 8 vectors — a
    deterministic, SQL-replicable init), counted per center via the
    combine tree. Direct (x−c)² distances in float64 so the argmin
    matches SQL list_distance ordering bit-for-bit."""
    import pyarrow.parquet as pq
    from georay.stages import embed as embed_stage

    t = pq.read_table(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    first = t.filter(pc.less(t["vec_id"], KMEANS_K)).sort_by("vec_id")
    centers = np.stack(
        [np.asarray(v, dtype=np.float64) for v in first["embedding"].to_pylist()]
    )
    ds = rd.read_parquet(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    asg = embed_stage.kmeans_assign(ds, centers)
    return ops.tree_sum(
        asg.map_batches(
            lambda b: pa.table(
                {
                    "center_id": b["center_id"],
                    "partial_n": pa.array(np.ones(len(b), np.int64)),
                }
            ),
            batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
        ),
        "center_id", {"partial_n": "n"}, int_cols=("partial_n",),
    )


SQL_KMEANS_ASSIGN = f"""
WITH c AS (
  SELECT vec_id AS center_id, CAST(embedding AS DOUBLE[]) AS ce
  FROM embeddings WHERE vec_id < {KMEANS_K}
),
p AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS pe FROM embeddings
),
best AS (
  SELECT p.vec_id, c.center_id,
         ROW_NUMBER() OVER (
           PARTITION BY p.vec_id
           ORDER BY list_distance(p.pe, c.ce), c.center_id
         ) AS rn
  FROM p CROSS JOIN c
)
SELECT center_id, COUNT(*) AS n FROM best WHERE rn = 1 GROUP BY center_id
"""


IVF_RECALL_MIN = 0.6


def q_ivf_ann(sf_dir: str):
    """IVF ANN pipeline recall@k against the (separately oracle-green)
    brute-force top-k: both runs are deterministic (fixed seeds/sample),
    so ``recall_ok`` is a stable count-style oracle row while the IVF
    pipeline itself streams (sample-train → broadcast centroids →
    per-batch probe → partial top-k merge; zero full-table
    materialization)."""
    from georay.stages import embed as embed_stage

    ds = rd.read_parquet(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    q, qids = _ann_queries(sf_dir)
    ivf = embed_stage.ivf_ann_topk(
        ds, q, qids, k=ANN_K, n_probe=6, exclude_self=False
    ).to_pandas()
    brute = embed_stage.ann_brute_topk(
        ds, q, qids, k=ANN_K, exclude_self=False
    ).to_pandas()
    recalls = []
    for qid in qids:
        b = set(brute[brute["query_id"] == qid]["vec_id"])
        g = set(ivf[ivf["query_id"] == qid]["vec_id"])
        recalls.append(len(b & g) / max(len(b), 1))
    recall = float(np.mean(recalls)) if recalls else 0.0
    return pa.table(
        {
            "n_queries": pa.array([len(qids)], pa.int64()),
            "k": pa.array([ANN_K], pa.int64()),
            "recall_ok": pa.array([bool(recall >= IVF_RECALL_MIN)]),
        }
    )


SQL_IVF_ANN = f"""
SELECT {ANN_NQ} AS n_queries, {ANN_K} AS k, TRUE AS recall_ok
"""


IVF_PRUNED_NQ = 2
IVF_PRUNED_NPROBE = 4


def q_ivf_pruned(sf_dir: str):
    """Partition-PRUNED IVF search: vectors are written physically
    bucketed by inverted-list id (embed.ivf_build_index — the
    write_spatial sink shape) and the search opens ONLY the probed
    partitions (embed.ivf_search_index), so I/O scales with
    n_probe/n_list instead of table size — the actual IVF win at
    100 TB, vs the masking scan of ``ivf_ann``. With 2 queries × 4
    probes over 16 lists the scanned union is ≤ 8 lists, so
    ``pruned`` is structurally TRUE; recall is gated against the
    oracle-green brute-force top-k like ``ivf_ann``."""
    import shutil
    import tempfile

    from georay.stages import embed as embed_stage

    ds = rd.read_parquet(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    q, qids = _ann_queries(sf_dir)
    q, qids = q[:IVF_PRUNED_NQ], qids[:IVF_PRUNED_NQ]
    idx_dir = tempfile.mkdtemp(prefix="georay_ivf_", dir="/tmp")
    try:
        embed_stage.ivf_build_index(ds, idx_dir, n_list=16)
        got, stats = embed_stage.ivf_search_index(
            idx_dir, q, qids, k=ANN_K, n_probe=IVF_PRUNED_NPROBE,
            exclude_self=False, return_stats=True,
        )
    finally:
        shutil.rmtree(idx_dir, ignore_errors=True)
    got = got.to_pandas().reset_index(drop=True)
    # gate: identical rows to the masking IVF scan (same centroids, same
    # probes — pruning changes I/O, never results), AND the scan actually
    # pruned (structural: 2 queries × 4 probes ≤ 8 of 16 lists)
    masked = embed_stage.ivf_ann_topk(
        ds, q, qids, k=ANN_K, n_list=16, n_probe=IVF_PRUNED_NPROBE,
        exclude_self=False,
    ).to_pandas().reset_index(drop=True)
    same = bool(
        len(got) == len(masked)
        and (got["query_id"] == masked["query_id"]).all()
        and (got["vec_id"] == masked["vec_id"]).all()
        # sims agree to 1e-12: BLAS reduction order differs with batch
        # SHAPE (pruned read batches ≠ full-scan batches), so the last
        # ulp may differ while ids/ranks are identical
        and np.allclose(
            got["sim"].to_numpy(), masked["sim"].to_numpy(),
            rtol=0, atol=1e-12,
        )
    )
    return pa.table(
        {
            "n_queries": pa.array([len(qids)], pa.int64()),
            "k": pa.array([ANN_K], pa.int64()),
            "same_as_masked": pa.array([same]),
            "pruned": pa.array(
                [bool(stats["lists_scanned"] < stats["lists_total"]
                      and stats["bytes_scanned"] < stats["bytes_total"])]
            ),
        }
    )


SQL_IVF_PRUNED = f"""
SELECT {IVF_PRUNED_NQ} AS n_queries, {ANN_K} AS k,
       TRUE AS same_as_masked, TRUE AS pruned
"""


def q_ivf_incremental(sf_dir: str):
    """Incrementally MAINTAINED IVF index (embed.ivf_append_index): the
    base index is built on vec_id % 5 != 0 (training the centroids),
    the remaining fifth is appended against the SIDECAR centroids
    (delta files into the existing list partitions; base never
    re-read), and the pruned search over the maintained index must
    return IDENTICAL rows to the masking scan of the FULL table under
    the same centroids — same gate shape as ``ivf_pruned``, plus the
    structural pruning check."""
    import shutil
    import tempfile

    import pyarrow.parquet as _pq

    from georay.stages import embed as embed_stage

    ds = rd.read_parquet(_t(sf_dir, "embeddings"),
                         columns=["vec_id", "embedding"])

    def _part(batch: pa.Table, keep_delta: bool) -> pa.Table:
        v = batch["vec_id"].to_numpy(zero_copy_only=False)
        m = (v % 5) == 0
        return batch.filter(pa.array(m if keep_delta else ~m))

    q, qids = _ann_queries(sf_dir)
    q, qids = q[:IVF_PRUNED_NQ], qids[:IVF_PRUNED_NQ]
    idx_dir = tempfile.mkdtemp(prefix="georay_ivfinc_", dir="/tmp")
    try:
        embed_stage.ivf_build_index(
            ds.map_batches(lambda b: _part(b, False),
                           batch_format="pyarrow", zero_copy_batch=True,
                           batch_size=None),
            idx_dir, n_list=16,
        )
        embed_stage.ivf_append_index(
            idx_dir,
            ds.map_batches(lambda b: _part(b, True),
                           batch_format="pyarrow", zero_copy_batch=True,
                           batch_size=None),
        )
        sidecar = _pq.read_table(
            os.path.join(idx_dir, "_ivf_centroids.parquet")
        )
        cent = np.stack(
            sidecar["centroid"].to_numpy(zero_copy_only=False)
        ).astype(np.float64)
        got, stats = embed_stage.ivf_search_index(
            idx_dir, q, qids, k=ANN_K, n_probe=IVF_PRUNED_NPROBE,
            exclude_self=False, return_stats=True,
        )
    finally:
        shutil.rmtree(idx_dir, ignore_errors=True)
    got = got.to_pandas().reset_index(drop=True)
    masked = embed_stage.ivf_ann_topk(
        ds, q, qids, k=ANN_K, n_list=16, n_probe=IVF_PRUNED_NPROBE,
        exclude_self=False, centroids=cent,
    ).to_pandas().reset_index(drop=True)
    same = bool(
        len(got) == len(masked)
        and (got["query_id"] == masked["query_id"]).all()
        and (got["vec_id"] == masked["vec_id"]).all()
        and np.allclose(
            got["sim"].to_numpy(), masked["sim"].to_numpy(),
            rtol=0, atol=1e-12,
        )
    )
    return pa.table(
        {
            "n_queries": pa.array([len(qids)], pa.int64()),
            "k": pa.array([ANN_K], pa.int64()),
            "same_as_masked": pa.array([same]),
            "pruned": pa.array(
                [bool(stats["lists_scanned"] < stats["lists_total"]
                      and stats["bytes_scanned"] < stats["bytes_total"])]
            ),
        }
    )


PQ_RECALL_MIN = 0.8


def q_pq_ann(sf_dir: str):
    """Product-quantization ANN (ADC + exact re-rank) recall@k against
    the oracle-green brute-force top-k — the BYTES-scale path of the
    ANN family (m uint8 codes per vector; here 8 B vs 256 B float32).
    Deterministic train/search, so recall_ok is a stable oracle row."""
    from georay.stages import embed as embed_stage

    ds = rd.read_parquet(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    q, qids = _ann_queries(sf_dir)
    pq = embed_stage.pq_ann_topk(
        ds, q, qids, k=ANN_K, exclude_self=False
    ).to_pandas()
    brute = embed_stage.ann_brute_topk(
        ds, q, qids, k=ANN_K, exclude_self=False
    ).to_pandas()
    recalls = []
    for qid in qids:
        b = set(brute[brute["query_id"] == qid]["vec_id"])
        g = set(pq[pq["query_id"] == qid]["vec_id"])
        recalls.append(len(b & g) / max(len(b), 1))
    recall = float(np.mean(recalls)) if recalls else 0.0
    return pa.table(
        {
            "n_queries": pa.array([len(qids)], pa.int64()),
            "k": pa.array([ANN_K], pa.int64()),
            "recall_ok": pa.array([bool(recall >= PQ_RECALL_MIN)]),
        }
    )


SQL_PQ_ANN = f"""
SELECT {ANN_NQ} AS n_queries, {ANN_K} AS k, TRUE AS recall_ok
"""


def q_embed_planted(sf_dir: str):
    """Count-style ORACLE for the embedding-LSH near-dup pipeline, same
    planting device as ``minhash_planted``: clone every embedding with
    ``vec_id % PLANT_MOD == 0`` under ``vec_id + PLANT_OFFSET``. An
    identical vector shares every hyperplane sign (same bucket), and the
    bucket pairing is content-major sorted, so orig and clone are
    adjacent and always emit a direct cosine-1.0 pair. The oracle is the
    plain SQL count of planted rows."""
    from georay.stages import embed as embed_stage

    ds = rd.read_parquet(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])

    def plant(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = ids % PLANT_MOD == 0
        sub = batch.filter(pa.array(keep))
        new_ids = sub["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64) + PLANT_OFFSET
        return pa.table(
            {"vec_id": pa.array(new_ids, pa.int64()), "embedding": sub["embedding"]}
        )

    planted = ds.map_batches(plant, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    both = ds.union(planted)
    pairs = embed_stage.embedding_neardup_pairs(both, threshold=0.98).to_pandas()
    if len(pairs) == 0:
        n_direct = 0
    else:
        a = pairs["id_a"].to_numpy().astype(np.int64)
        b = pairs["id_b"].to_numpy().astype(np.int64)
        n_direct = int(((b - a == PLANT_OFFSET) & (a % PLANT_MOD == 0) & (a < PLANT_OFFSET)).sum())
    return pa.table({"n_direct_pairs": pa.array([n_direct], pa.int64())})


SQL_EMBED_PLANTED = f"""
SELECT COUNT(*) AS n_direct_pairs FROM embeddings WHERE vec_id % {PLANT_MOD} = 0
"""


def q_poly_measures(sf_dir: str):
    """Area + perimeter kernels over the part-box polygons; rounded to 6
    dp on both sides (shoelace vs w·h take different float paths)."""
    polys = part_box_polygons(sf_dir)
    ds = rd.from_arrow(polys)
    ds = ops.add_area_column(ds, "geometry")
    ds = ops.add_length_column(ds, "geometry", out="perimeter")

    def fin(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_partkey": batch["p_partkey"],
                "area": pa.array(
                    np.round(batch["area"].to_numpy(zero_copy_only=False), 6)
                ),
                "perimeter": pa.array(
                    np.round(batch["perimeter"].to_numpy(zero_copy_only=False), 6)
                ),
            }
        )

    return ds.map_batches(fin, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)


SQL_POLY_MEASURES = f"""
SELECT p_partkey,
       ROUND((2*({PART_W})) * (2*({PART_H})), 6) AS area,
       ROUND(2*((2*({PART_W})) + (2*({PART_H}))), 6) AS perimeter
FROM part
"""


def q_poly_bbox(sf_dir: str):
    """Per-feature box kernel over the part-box polygons (exact doubles —
    the ring vertices are the box corners)."""
    polys = part_box_polygons(sf_dir)
    ds = rd.from_arrow(polys)
    ds = ops.add_box_column(ds, "geometry")

    def fin(batch: pa.Table) -> pa.Table:
        mins, maxes, _ = native.box_view(batch["bbox"].combine_chunks())
        return pa.table(
            {
                "p_partkey": batch["p_partkey"],
                "xmin": pa.array(mins[:, 0]),
                "ymin": pa.array(mins[:, 1]),
                "xmax": pa.array(maxes[:, 0]),
                "ymax": pa.array(maxes[:, 1]),
            }
        )

    return ds.map_batches(fin, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)


SQL_POLY_BBOX = f"""
SELECT p_partkey,
       ({PART_CX}) - ({PART_W}) AS xmin, ({PART_CY}) - ({PART_H}) AS ymin,
       ({PART_CX}) + ({PART_W}) AS xmax, ({PART_CY}) + ({PART_H}) AS ymax
FROM part
"""


def q_geojson_roundtrip(sf_dir: str):
    """GeoJSON codec pin: part polygons → RFC 7946 geometry strings
    (shortest-round-trip doubles) → parsed back to native → box kernel.
    The bbox after the round trip must equal the direct SQL bbox
    bit-for-bit, proving encode→decode is lossless on the real kernel
    path (codecs/geojson.py; the reference reaches GeoJSON via sf,
    R/pkg-sf.R)."""
    from georay.codecs import geojson

    polys = part_box_polygons(sf_dir)
    geo = GeoType.polygon(crs="OGC:CRS84")

    def roundtrip(batch: pa.Table) -> pa.Table:
        js = geojson.encode(batch["geometry"].combine_chunks(), geo)
        back = geojson.decode(js, geo)
        boxes = kernels.box(back, geo)
        mins, maxes, _ = native.box_view(boxes)
        return pa.table(
            {
                "p_partkey": batch["p_partkey"],
                "xmin": pa.array(mins[:, 0]),
                "ymin": pa.array(mins[:, 1]),
                "xmax": pa.array(maxes[:, 0]),
                "ymax": pa.array(maxes[:, 1]),
            }
        )

    return rd.from_arrow(polys).map_batches(
        roundtrip, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


SQL_GEOJSON_ROUNDTRIP = f"""
SELECT p_partkey,
       ({PART_CX}) - ({PART_W}) AS xmin, ({PART_CY}) - ({PART_H}) AS ymin,
       ({PART_CX}) + ({PART_W}) AS xmax, ({PART_CY}) + ({PART_H}) AS ymax
FROM part
"""


def q_spherical_area(sf_dir: str):
    """GEODESIC polygon area: the part boxes are lon/lat-aligned, so
    the spherical area has the closed form
    ``R²·Δλ_rad·(sin φmax − sin φmin)`` (km², R = 6371.0088 — the
    engine's haversine radius). Runs on the real kernel path: native
    polygon ring → ``box`` kernel → vectorized spherical formula,
    rounded to 3 dp half-away like ``geodesic_stats`` so libm ulp
    drift between numpy and DuckDB cannot flip the hash."""
    polys = part_box_polygons(sf_dir)
    ds = ops.add_box_column(rd.from_arrow(polys), "geometry")

    def fin(batch: pa.Table) -> pa.Table:
        mins, maxes, _ = native.box_view(batch["bbox"].combine_chunks())
        r = kernels.EARTH_RADIUS_KM
        area = (
            r * r
            * np.radians(maxes[:, 0] - mins[:, 0])
            * (np.sin(np.radians(maxes[:, 1])) - np.sin(np.radians(mins[:, 1])))
        )
        area = np.floor(area * 1e3 + 0.5) / 1e3
        return pa.table(
            {
                "p_partkey": batch["p_partkey"],
                "area_km2": pa.array(area, pa.float64()),
            }
        )

    return ds.map_batches(
        fin, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


SQL_SPHERICAL_AREA = f"""
SELECT p_partkey,
       ROUND(6371.0088 * 6371.0088
             * RADIANS((({PART_CX}) + ({PART_W})) - (({PART_CX}) - ({PART_W})))
             * (SIN(RADIANS(({PART_CY}) + ({PART_H})))
                - SIN(RADIANS(({PART_CY}) - ({PART_H})))), 3) AS area_km2
FROM part
"""


def q_infer_schema(sf_dir: str):
    """unique_geometry_types_agg + MULTI-promotion inference over the
    polygon table, one row per observed ISO-WKB code. The codes and the
    promoted type are pinned by a constant SQL oracle (the polygon table
    is all POLYGON XY ⇒ code 3 ⇒ geoarrow.polygon); the promotion table
    itself is pinned by tests/test_kernels.py."""
    polys = part_box_polygons(sf_dir)
    ds = rd.from_arrow(polys)
    codes = ops.unique_geometry_types(ds, "geometry")
    inferred = ops.infer_geo_schema(ds, "geometry")
    return pa.table(
        {
            "wkb_code": pa.array(sorted(codes), pa.int64()),
            "inferred_type": pa.array([inferred.extension_name] * len(codes)),
        }
    )


SQL_INFER_SCHEMA = "SELECT 3 AS wkb_code, 'geoarrow.polygon' AS inferred_type"


def q_validate_wkt(sf_dir: str):
    """visit_void_agg validation kernel over WKT-serialized lineitem
    points (full parse of every feature; rows-only)."""
    ds = lineitem_points(sf_dir)
    ds = ops.add_wkt_column(ds, "geotag").select_columns(["wkt"])
    ds = ds.map_batches(
        lambda b: pa.Table.from_arrays(
            [b["wkt"].combine_chunks()], schema=pa.schema([GeoType.wkt().field("wkt")])
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,
    )
    n_valid = ops.validate_geometry(ds, "wkt")
    return pa.table({"n_valid": pa.array([n_valid], pa.int64())})


SQL_VALIDATE_WKT = "SELECT COUNT(*) AS n_valid FROM lineitem"


def q_poly_centroid(sf_dir: str):
    """Centroid kernel (coordinate mean over ring vertices — the
    reference-anchored semantics) over part-box polygons; the closed
    5-vertex ring repeats (xmin,ymin), mirrored exactly in the SQL."""
    polys = part_box_polygons(sf_dir)
    ds = rd.from_arrow(polys)
    ds = ops.add_centroid_column(ds, "geometry")

    def fin(batch: pa.Table) -> pa.Table:
        v = native.view(batch["centroid"].combine_chunks())
        return pa.table(
            {
                "p_partkey": batch["p_partkey"],
                "cx": pa.array(np.round(v.coords[:, 0], 6)),
                "cy": pa.array(np.round(v.coords[:, 1], 6)),
            }
        )

    return ds.map_batches(fin, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)


SQL_POLY_CENTROID = f"""
SELECT p_partkey,
       ROUND((3*(({PART_CX}) - ({PART_W})) + 2*(({PART_CX}) + ({PART_W})))/5, 6) AS cx,
       ROUND((3*(({PART_CY}) - ({PART_H})) + 2*(({PART_CY}) + ({PART_H})))/5, 6) AS cy
FROM part
"""


def q_image_pipeline(sf_dir: str):
    """Multimodal stage demo on a deterministic synthetic image table
    (no external data; cached under /tmp): decode → per-row invariant
    (lossless exact / lossy PSNR≥40dB) → resize → per-format stats.
    Rows-only (binary pipelines have no SQL analogue)."""
    import tempfile

    from georay import generate, pipeline
    from georay.stages import multimodal

    cache = os.path.join(tempfile.gettempdir(), "georay_q_images_1000")
    marker = os.path.join(cache, "_DONE")
    if not os.path.exists(marker):
        generate.write_images_dataset(cache, 1000, seed=77, rows_per_file=500)
        open(marker, "w").write("ok")
    ds = rd.read_parquet(cache)
    val = ds.map_batches(
        pipeline.ImageValidator(),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,
    ).to_pandas()
    resized = multimodal.decode_resize(rd.read_parquet(cache), size=32, concurrency=2)
    n_resized = resized.count()
    # constant SQL oracle: the generator is deterministic, so ALL 1000
    # rows must decode (lossless exact / lossy PSNR≥40dB) and resize
    return pa.table(
        {
            "n_rows": pa.array([len(val)], pa.int64()),
            "n_pixels_ok": pa.array([int(val["pixels_ok"].sum())], pa.int64()),
            "n_resized": pa.array([n_resized], pa.int64()),
        }
    )


SQL_IMAGE_PIPELINE = (
    "SELECT 1000 AS n_rows, 1000 AS n_pixels_ok, 1000 AS n_resized"
)


def q_image_patches(sf_dir: str):
    """ViT-style patch extraction over the deterministic image table:
    decode → 8×8 patch grid (actor-pool stage) → groupby(image) grid
    verification (complete row/col lattice, uniform byte length) —
    totals must equal the metadata-only count Σ (w//8)·(h//8), an
    independent engine path. Constant oracle (generator fixed-seed)."""
    import tempfile

    from georay import generate
    from georay.stages import multimodal

    cache = os.path.join(tempfile.gettempdir(), "georay_q_images_1000")
    marker = os.path.join(cache, "_DONE")
    if not os.path.exists(marker):
        generate.write_images_dataset(cache, 1000, seed=77, rows_per_file=500)
        open(marker, "w").write("ok")
    patches = multimodal.patch_images(
        rd.read_parquet(
            cache, columns=["image_id", "bytes", "fmt", "w", "h"]
        ),
        patch=8, concurrency=2,
    )

    def verify_grid(group: pa.Table) -> pa.Table:
        r = group["patch_row"].to_numpy(zero_copy_only=False)
        c = group["patch_col"].to_numpy(zero_copy_only=False)
        gr, gc = int(r.max()) + 1, int(c.max()) + 1
        lens = pc.binary_length(group["patch_bytes"]).to_numpy()
        ok = (
            len(group) == gr * gc
            and len(np.unique(r * gc + c)) == gr * gc
            and (lens == 8 * 8 * 3).all()
        )
        return pa.table(
            {
                "n_patches": pa.array([len(group)], pa.int64()),
                "grid_ok": pa.array([int(ok)], pa.int64()),
            }
        )

    per_img = exchange.co_shuffle(
        patches, "image_id", verify_grid, coalesce=False
    ).to_pandas()
    # independent metadata-only count: no decode involved
    meta = rd.read_parquet(cache, columns=["w", "h"]).map_batches(
        lambda b: pa.table({"np": pa.array([int((
            (b["w"].to_numpy(zero_copy_only=False).astype(np.int64) // 8)
            * (b["h"].to_numpy(zero_copy_only=False).astype(np.int64) // 8)
        ).sum())], pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    ).to_pandas()
    return pa.table(
        {
            "n_images": pa.array([len(per_img)], pa.int64()),
            "n_patches": pa.array([int(per_img["n_patches"].sum())], pa.int64()),
            "n_grids_ok": pa.array([int(per_img["grid_ok"].sum())], pa.int64()),
            "n_patches_meta": pa.array([int(meta["np"].sum())], pa.int64()),
        }
    )


SQL_IMAGE_PATCHES = (
    "SELECT 1000 AS n_images, 20132 AS n_patches, 1000 AS n_grids_ok, "
    "20132 AS n_patches_meta"
)


def q_image_neardup(sf_dir: str):
    """Near-duplicate IMAGE dedup by perceptual-hash Hamming banding
    (``hash64_band_candidates`` over the phash column — the same banded
    machinery as SimHash, content-major bucket sort). Planted-count
    oracle: clone every 10th image row under a shifted id — identical
    bytes ⇒ identical phash ⇒ a direct Hamming-0 pair, deterministically.
    """
    import tempfile

    from georay import generate
    from georay.stages import dedup as dedup_stage

    cache = os.path.join(tempfile.gettempdir(), "georay_q_images_1000")
    marker = os.path.join(cache, "_DONE")
    if not os.path.exists(marker):
        generate.write_images_dataset(cache, 1000, seed=77, rows_per_file=500)
        open(marker, "w").write("ok")
    ds = rd.read_parquet(cache, columns=["image_id", "phash"])

    def to_int_ids(batch: pa.Table) -> pa.Table:
        ids = np.asarray(
            [int(s[3:]) for s in batch["image_id"].to_pylist()], dtype=np.int64
        )
        return pa.table({"img": pa.array(ids), "phash": batch["phash"]})

    base = ds.map_batches(to_int_ids, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)

    def plant(batch: pa.Table) -> pa.Table:
        ids = batch["img"].to_numpy(zero_copy_only=False)
        keep = ids % PLANT_MOD == 0
        sub = batch.filter(pa.array(keep))
        return pa.table(
            {
                "img": pa.array(
                    sub["img"].to_numpy(zero_copy_only=False) + PLANT_OFFSET, pa.int64()
                ),
                "phash": sub["phash"],
            }
        )

    planted = base.map_batches(plant, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    pairs = dedup_stage.hash64_band_candidates(
        base.union(planted), "phash", id_col="img", max_hamming=6
    ).to_pandas()
    if len(pairs) == 0:
        found = 0
    else:
        a = pairs["id_a"].to_numpy()
        b = pairs["id_b"].to_numpy()
        h = pairs["hamming"].to_numpy()
        found = int(((b - a == PLANT_OFFSET) & (a % PLANT_MOD == 0) & (h == 0)).sum())
    return pa.table({"n_planted_found": pa.array([found], pa.int64())})


# constant oracle: the image table is deterministic (seed 77, 1000 rows),
# ids 0..999 → exactly 100 planted clones, each guaranteed a direct
# Hamming-0 pair by the content-major bucket sort
SQL_IMAGE_NEARDUP = "SELECT 100 AS n_planted_found"


def q_dct_image_neardup(sf_dir: str):
    """ROBUST image near-dup: decode pixels → DCT perceptual hash
    (actor-pool stage, basis built once per actor) → 16-bit Hamming
    banding. Planted NOISY clones (±4 per channel, fixed seed) — byte-
    and phash-distinct, but within a few DCT bits, so only a
    pixel-level perceptual hash finds them. Deterministic input ⇒
    constant-count oracle (pinned at all three sf scales)."""
    import tempfile

    from georay import generate, images as im
    from georay.stages import dedup as dedup_stage
    from georay.stages.multimodal import add_dct_phash

    cache = os.path.join(tempfile.gettempdir(), "georay_q_dctimages_600")
    marker = os.path.join(cache, "_DONE")
    if not os.path.exists(marker):
        generate.write_images_dataset(cache, 600, seed=78, rows_per_file=300)
        open(marker, "w").write("ok")
    ds = rd.read_parquet(cache)

    def to_int_ids(batch: pa.Table) -> pa.Table:
        ids = np.asarray(
            [int(s[3:]) for s in batch["image_id"].to_pylist()], dtype=np.int64
        )
        return batch.set_column(
            batch.schema.get_field_index("image_id"), "image_id", pa.array(ids)
        )

    base = ds.map_batches(
        to_int_ids, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )

    def plant_noisy(batch: pa.Table) -> pa.Table:
        ids = batch["image_id"].to_numpy(zero_copy_only=False)
        keep = ids % PLANT_MOD == 0
        sub = batch.filter(pa.array(keep))
        new_bytes, new_fmt = [], []
        for rid, data, fmt, w, h in zip(
            sub["image_id"].to_pylist(),
            sub["bytes"].to_pylist(),
            sub["fmt"].to_pylist(),
            sub["w"].to_pylist(),
            sub["h"].to_pylist(),
        ):
            pix = im.decode_image(data, fmt, w, h)
            rng = np.random.default_rng(10_000 + rid)  # per-row determinism
            noisy = np.clip(
                pix.astype(np.int16) + rng.integers(-4, 5, pix.shape), 0, 255
            ).astype(np.uint8)
            new_bytes.append(im.encode_ppm(noisy))
            new_fmt.append("ppm")
        return pa.table(
            {
                "image_id": pa.array(
                    sub["image_id"].to_numpy(zero_copy_only=False) + PLANT_OFFSET,
                    pa.int64(),
                ),
                "bytes": pa.array(new_bytes, pa.binary()),
                "fmt": pa.array(new_fmt),
                "w": sub["w"],
                "h": sub["h"],
            }
        )

    planted = base.map_batches(
        plant_noisy, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).select_columns(["image_id", "bytes", "fmt", "w", "h"])
    both = base.select_columns(["image_id", "bytes", "fmt", "w", "h"]).union(planted)
    hashed = add_dct_phash(both, concurrency=(2, 8))
    pairs = dedup_stage.hash64_band_candidates(
        hashed, "dct_phash", id_col="image_id", max_hamming=8
    ).to_pandas()
    if len(pairs) == 0:
        found = 0
    else:
        a = pairs["id_a"].to_numpy()
        b = pairs["id_b"].to_numpy()
        found = int(((b - a == PLANT_OFFSET) & (a % PLANT_MOD == 0)).sum())
    return pa.table({"n_planted_found": pa.array([found], pa.int64())})


# constant oracle: 600 deterministic images (seed 78) → 60 noisy clones;
# every one lands within Hamming ≤ 8 of its source's DCT hash AND shares
# a 16-bit band (verified at all three sf scales — the input is
# sf-independent by construction)
SQL_DCT_IMAGE_NEARDUP = "SELECT 60 AS n_planted_found"


def q_av_pipeline(sf_dir: str):
    """Audio + video multimodal pipeline over the engine's own RPCM/RVID
    containers (georay/media.py): 200 deterministic clips → audio decode
    + DSP features (log band energies, rms/zcr/centroid) and video frame
    sampling (every 5th frame re-encoded as PPM, composing with the image
    stages). Counts are closed-form from the generator parameters, so the
    oracle is constant:
    - audio frames/clip: 1 + (4096-1024)//512 = 7 → 1400 total
    - video clip i has 10 + i%15 frames; Σ ceil(nf/5) over i=0..199 = 755
    """
    from georay.stages import multimodal

    n = 200

    def gen(batch: pa.Table) -> pa.Table:
        from georay import media

        ids = batch["id"].to_numpy(zero_copy_only=False)
        aud, vid, sids = [], [], []
        rate = 8000
        t = np.arange(4096, dtype=np.float64) / rate
        for i in ids:
            tone = (np.sin(2 * np.pi * (100.0 + 3.0 * i) * t) * 0.4 * 32767).astype(
                np.int16
            )
            aud.append(media.encode_rawpcm(tone, rate))
            nf = 10 + int(i) % 15
            rng = np.random.default_rng(int(i))
            vid.append(
                media.encode_rawvid(
                    rng.integers(0, 256, (nf, 8, 8, 3), dtype=np.uint8)
                )
            )
            sids.append(f"clip{int(i):06d}")
        return pa.table(
            {
                "sample_id": pa.array(sids, pa.string()),
                "bytes": pa.array(aud, pa.binary()),
                "sample_rate": pa.array(np.full(len(ids), 8000, np.int32)),
                "video_id": pa.array(sids, pa.string()),
                "vbytes": pa.array(vid, pa.binary()),
            }
        )

    clips = rd.range(n).map_batches(
        gen, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    audio = clips.select_columns(["sample_id", "bytes", "sample_rate"]).map_batches(
        multimodal.AudioFeatures,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=64,
        concurrency=2,
    )
    video = (
        clips.drop_columns(["bytes"])
        .rename_columns({"vbytes": "bytes"})
        .map_batches(
            multimodal.VideoFrameSampler,
            fn_constructor_kwargs={"every_n": 5},
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=64,
            concurrency=2,
        )
    )
    a = audio.to_pandas()
    n_vframes = video.count()
    return pa.table(
        {
            "n_clips": pa.array([len(a)], pa.int64()),
            "n_audio_frames": pa.array([int(a.n_frames.sum())], pa.int64()),
            "n_rms_ok": pa.array([int((a.rms > 0.2).sum())], pa.int64()),
            "n_video_frames_sampled": pa.array([int(n_vframes)], pa.int64()),
        }
    )


SQL_AV_PIPELINE = (
    "SELECT 200 AS n_clips, 1400 AS n_audio_frames, 200 AS n_rms_ok, "
    "755 AS n_video_frames_sampled"
)


def q_augment(sf_dir: str):
    """Deterministic augmentation pipeline: 300 id-seeded synthetic
    images → actor-pool Augment stage (hash-derived flip/rot90/
    brightness per image) → partitioned join back to the source table →
    a SECOND, independent recompute per row verifies byte-exact
    equality (catches any partitioning/ordering/actor-state bug in the
    distributed pass). Closed-form oracle: n, deterministic count, and
    dim conservation (rot90 swaps w/h, flips keep them)."""
    from georay.stages.multimodal import Augment, augment_images

    n = 300

    def gen(batch: pa.Table) -> pa.Table:
        ids = batch["id"].to_numpy(zero_copy_only=False)
        out_id, out_b, out_w, out_h = [], [], [], []
        for i in ids:
            rng = np.random.default_rng(int(i))
            w, h = 12 + int(i) % 9, 10 + int(i) % 7
            pix = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
            out_id.append(f"img{int(i):05d}")
            out_b.append(images.encode_ppm(pix))
            out_w.append(w)
            out_h.append(h)
        return pa.table(
            {
                "image_id": pa.array(out_id, pa.string()),
                "bytes": pa.array(out_b, pa.binary()),
                "fmt": pa.array(["ppm"] * len(out_id), pa.string()),
                "w": pa.array(np.array(out_w, np.int32)),
                "h": pa.array(np.array(out_h, np.int32)),
            }
        )

    src = rd.range(n).map_batches(
        gen, batch_format="pyarrow", zero_copy_batch=True, batch_size=64
    )
    aug = augment_images(src, seed=3, concurrency=(2, 4)).map_batches(
        lambda b: pa.table(
            {
                "image_id": b["image_id"], "aug_op": b["aug_op"],
                "aw": b["w"], "ah": b["h"], "abytes": b["bytes"],
            }
        ),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )
    joined = ops.equi_join_partitioned(
        aug, src, on="image_id", n_buckets=8
    )

    def verify(batch: pa.Table) -> pa.Table:
        redo = Augment(seed=3)(
            pa.table(
                {
                    "image_id": batch["image_id"], "bytes": batch["bytes"],
                    "fmt": batch["fmt"], "w": batch["w"], "h": batch["h"],
                }
            )
        )
        same = np.array(
            [a == b for a, b in zip(
                batch["abytes"].to_pylist(), redo["bytes"].to_pylist())],
            dtype=np.int64,
        )
        op = batch["aug_op"].to_numpy(zero_copy_only=False)
        aw = batch["aw"].to_numpy(zero_copy_only=False).astype(np.int64)
        ah = batch["ah"].to_numpy(zero_copy_only=False).astype(np.int64)
        w = batch["w"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = batch["h"].to_numpy(zero_copy_only=False).astype(np.int64)
        dims_ok = np.where(op == "rot90", (aw == h) & (ah == w),
                           (aw == w) & (ah == h)).astype(np.int64)
        return pa.table(
            {
                "partial_n": pa.array(np.ones(len(batch), np.int64)),
                "partial_det": pa.array(same),
                "partial_dims": pa.array(dims_ok),
            }
        )

    parts = joined.map_batches(
        verify, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).map_batches(
        lambda b: pa.table(
            {
                "k": pa.array([0], pa.int64()),
                "partial_n": pa.array([pc.sum(b["partial_n"]).as_py() or 0]),
                "partial_det": pa.array([pc.sum(b["partial_det"]).as_py() or 0]),
                "partial_dims": pa.array([pc.sum(b["partial_dims"]).as_py() or 0]),
            }
        ),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )
    out = ops.tree_sum(
        parts, "k",
        {"partial_n": "n_images", "partial_det": "n_deterministic",
         "partial_dims": "n_dims_ok"},
        int_cols=("partial_n", "partial_det", "partial_dims"),
    )
    return out.map_batches(
        lambda b: b.drop_columns(["k"]),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )


SQL_AUGMENT = (
    "SELECT 300 AS n_images, 300 AS n_deterministic, 300 AS n_dims_ok"
)


def q_blur_detect(sf_dir: str):
    """Image sharpness scoring / blur detection (data-curation quality
    gate): 300 id-seeded synthetic images — odd ids are exact linear
    gradients (the channel-sum plane is affine, so the integer
    Laplacian is IDENTICALLY zero), even ids are seeded noise — scored
    by the exact-integer variance-of-Laplacian actor stage
    (stages/multimodal.LaplacianSharpness). The blur class therefore
    scores num = 0 and the sharp class num > 0 BY CONSTRUCTION, making
    the class counts a closed-form oracle (the augment pattern)."""
    from georay.stages.multimodal import add_sharpness

    n = 300

    def gen(batch: pa.Table) -> pa.Table:
        ids = batch["id"].to_numpy(zero_copy_only=False)
        out_id, out_b, out_w, out_h = [], [], [], []
        for i in ids:
            w, h = 12 + int(i) % 8, 10 + int(i) % 6
            if int(i) % 2 == 1:  # blurred: exact linear gradient
                x = np.arange(w)[None, :, None]
                y = np.arange(h)[:, None, None]
                c = np.arange(3)[None, None, :]
                pix = (2 * x + y + c).astype(np.uint8)  # max 56 < 256
                pix = np.broadcast_to(pix, (h, w, 3)).copy()
            else:  # sharp: seeded noise
                rng = np.random.default_rng(int(i))
                pix = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
            out_id.append(int(i))
            out_b.append(images.encode_ppm(pix))
            out_w.append(w)
            out_h.append(h)
        return pa.table(
            {
                "image_id": pa.array(out_id, pa.int64()),
                "bytes": pa.array(out_b, pa.binary()),
                "fmt": pa.array(["ppm"] * len(out_id), pa.string()),
                "w": pa.array(np.array(out_w, np.int32)),
                "h": pa.array(np.array(out_h, np.int32)),
            }
        )

    src = rd.range(n).map_batches(
        gen, batch_format="pyarrow", zero_copy_batch=True, batch_size=64
    )
    scored = add_sharpness(src)

    def partial(batch: pa.Table) -> pa.Table:
        num = batch["lap_var_num"].to_numpy(zero_copy_only=False)
        ids = batch["image_id"].to_numpy(zero_copy_only=False)
        sharp = num > 0
        # construction check: sharpness class must equal id parity
        agree = int((sharp == (ids % 2 == 0)).sum())
        return pa.table(
            {
                "p_n": pa.array([len(batch)], pa.int64()),
                "p_sharp": pa.array([int(sharp.sum())], pa.int64()),
                "p_agree": pa.array([agree], pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    agg = scored.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).aggregate(
        Sum("p_n", alias_name="n_images"),
        Sum("p_sharp", alias_name="n_sharp"),
        Sum("p_agree", alias_name="n_class_ok"),
    )
    return pa.table(
        {
            "n_images": pa.array([agg["n_images"]], pa.int64()),
            "n_sharp": pa.array([agg["n_sharp"]], pa.int64()),
            "n_class_ok": pa.array([agg["n_class_ok"]], pa.int64()),
        }
    )


SQL_BLUR_DETECT = (
    "SELECT 300 AS n_images, 150 AS n_sharp, 300 AS n_class_ok"
)


def q_tile_assign(sf_dir: str):
    """Raster-tile → vector assignment: every mercator tile observed in
    the lineitem points intersected (exact rect–polygon test) against the
    part-box polygons. Rows-only: boundary-touch conventions are the
    engine's half-open ones, pinned by tests/test_tile_assign.py (incl. a
    consistency proof against the PIP join)."""
    ds = lineitem_points(sf_dir)
    ds = ops.add_tile_columns(ds, zoom=TILE_ZOOM)
    polys = part_box_polygons(sf_dir)
    return ops.tile_polygon_assign(ds, polys, zoom=TILE_ZOOM, id_col="p_partkey")


# For axis-aligned box polygons, the exact rect–polygon intersection test
# reduces to STRICT bbox overlap (interiors-overlap semantics) — exactly
# SQL-expressible. Tile y-bounds use the exp-based mercator inverse
# (DEGREES(ATAN(sinh)) with sinh spelled via EXP); the comparisons are
# strict and the box coordinates live on a 0.05° grid that never
# coincides with the transcendental tile bounds, so 1-ulp libm
# differences cannot flip a row.
SQL_TILE_ASSIGN = f"""
WITH pts AS ({_LI_POINT_SQL}),
t AS (
  SELECT DISTINCT
    CAST(FLOOR((lon + 180)/360*{_N_TILES}) AS BIGINT) AS tx,
    CAST(FLOOR((1 - LN(TAN(RADIANS(lat)) + 1/COS(RADIANS(lat)))/PI())/2*{_N_TILES}) AS BIGINT) AS ty
  FROM pts
),
b AS (
  SELECT tx, ty,
    tx/{_N_TILES}.0*360 - 180 AS txmin,
    (tx+1)/{_N_TILES}.0*360 - 180 AS txmax,
    DEGREES(ATAN((EXP(PI()*(1 - 2*(ty+1)/{_N_TILES}.0)) - EXP(-PI()*(1 - 2*(ty+1)/{_N_TILES}.0)))/2)) AS tymin,
    DEGREES(ATAN((EXP(PI()*(1 - 2*ty/{_N_TILES}.0)) - EXP(-PI()*(1 - 2*ty/{_N_TILES}.0)))/2)) AS tymax
  FROM t
),
boxes AS (
  SELECT p_partkey, {PART_CX} AS cx, {PART_CY} AS cy, {PART_W} AS w, {PART_H} AS h FROM part
)
SELECT CAST({TILE_ZOOM} AS BIGINT)*288230376151711744 + b.tx*536870912 + b.ty AS tile_key,
       x.p_partkey AS p_partkey
FROM b JOIN boxes x
  ON x.cx - x.w < b.txmax AND x.cx + x.w > b.txmin
 AND x.cy - x.h < b.tymax AND x.cy + x.h > b.tymin
"""


def q_asof_partitioned(sf_dir: str):
    """The SAME as-of join as ``asof_join``, executed by the
    both-sides-large co-partitioned strategy (hash-bucket groupby, no
    broadcast) — the two physical plans must agree bit-for-bit."""
    events = rd.read_parquet(_t(sf_dir, "events"), columns=["event_id", "user_id", "ts"])
    orders = rd.read_parquet(_t(sf_dir, "orders"), columns=["o_custkey", "o_orderdate"])
    out = ops.asof_join_partitioned(
        events,
        orders,
        "user_id",
        "ts",
        "o_custkey",
        "o_orderdate",
        out_ts="order_ts",
        left_payload=["event_id"],
    )
    return out.select_columns(["event_id", "user_id", "order_ts"])


def q_interval_join(sf_dir: str):
    """RANGE JOIN: each event counts the orders whose 7-day window
    [o_orderdate, o_orderdate + 7d) contains the event timestamp —
    broadcast sorted starts, count pushed into the probe
    (ops.interval_join_count), no pair intermediate."""
    import pyarrow.parquet as pq

    ds = rd.read_parquet(_t(sf_dir, "events"), columns=["event_id", "ts"])
    orders = pq.read_table(_t(sf_dir, "orders"), columns=["o_orderdate"])
    out = ops.interval_join_count(
        ds, orders, "ts", "o_orderdate", width_us=7 * 86400 * 1_000_000, out="n_orders"
    )
    return out.select_columns(["event_id", "n_orders"])


SQL_INTERVAL_JOIN = """
SELECT e.event_id, COUNT(o.o_orderkey) AS n_orders
FROM events e
LEFT JOIN orders o
  ON o.o_orderdate <= e.ts AND e.ts < o.o_orderdate + INTERVAL 7 DAY
GROUP BY e.event_id
"""


def q_interval_partitioned(sf_dir: str):
    """The SAME range join as interval_join, executed by the
    both-sides-large time-bucket co-shuffle (no broadcast) — the two
    physical plans must agree bit-for-bit."""
    events = rd.read_parquet(_t(sf_dir, "events"), columns=["event_id", "ts"])
    orders = rd.read_parquet(_t(sf_dir, "orders"), columns=["o_orderdate"])
    out = ops.interval_join_count_partitioned(
        events, orders, "ts", "o_orderdate",
        width_us=7 * 86400 * 1_000_000, payload=["event_id"], out="n_orders",
    )
    return out.select_columns(["event_id", "n_orders"])


SQL_INTERVAL_PARTITIONED = SQL_INTERVAL_JOIN


def q_asof_join(sf_dir: str):
    """As-of join: each event matched to the customer's latest order at
    or before the event time (broadcast rank-compressed right side)."""
    import pyarrow.parquet as pq

    ds = rd.read_parquet(_t(sf_dir, "events"), columns=["event_id", "user_id", "ts"])
    orders = pq.read_table(_t(sf_dir, "orders"), columns=["o_custkey", "o_orderdate"])
    out = ops.asof_join_broadcast(
        ds, orders, "user_id", "ts", "o_custkey", "o_orderdate", out_ts="order_ts"
    )
    return out.select_columns(["event_id", "user_id", "order_ts"])


SQL_ASOF_JOIN = """
SELECT e.event_id, e.user_id, epoch_us(o.o_orderdate) AS order_ts
FROM events e ASOF JOIN orders o
  ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
"""


_ASOF_TOL_US = 6 * 3_600_000_000  # 6 hours in µs


def q_asof_tolerance(sf_dir: str):
    """As-of join with a max-gap TOLERANCE (pandas merge_asof parity):
    each purchase matched to the same user's latest preceding click,
    dropped when that click is more than 6 hours stale — the staleness
    gate freshness-sensitive feature/attribution joins need."""
    import pyarrow.parquet as pq

    ds = rd.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "ts", "event_type"]
    )

    def purchases(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pc.equal(batch["event_type"], "purchase"))
        return sub.select(["event_id", "user_id", "ts"])

    left = ds.map_batches(
        purchases, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    ev = pq.read_table(
        _t(sf_dir, "events"), columns=["user_id", "ts", "event_type"]
    )
    clicks = ev.filter(pc.equal(ev["event_type"], "click")).select(
        ["user_id", "ts"]
    ).rename_columns(["c_user", "c_ts"])
    out = ops.asof_join_broadcast(
        left, clicks, "user_id", "ts", "c_user", "c_ts",
        out_ts="click_ts", tolerance=_ASOF_TOL_US,
    )
    return out.select_columns(["event_id", "user_id", "click_ts"])


SQL_ASOF_TOLERANCE = f"""
SELECT p.event_id, p.user_id, epoch_us(c.ts) AS click_ts
FROM (SELECT * FROM events WHERE event_type = 'purchase') p
ASOF JOIN (SELECT * FROM events WHERE event_type = 'click') c
  ON p.user_id = c.user_id AND p.ts >= c.ts
WHERE epoch_us(p.ts) - epoch_us(c.ts) <= {_ASOF_TOL_US}
"""


def q_asof_forward(sf_dir: str):
    """FORWARD as-of join: each order matched to the customer's first
    event at or after the order date (direction="forward" on the same
    rank-compressed broadcast kernel)."""
    import pyarrow.parquet as pq

    ds = rd.read_parquet(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )
    events = pq.read_table(_t(sf_dir, "events"), columns=["user_id", "ts"])
    out = ops.asof_join_broadcast(
        ds, events, "o_custkey", "o_orderdate", "user_id", "ts",
        out_ts="first_event_ts", direction="forward",
    )
    return out.select_columns(["o_orderkey", "o_custkey", "first_event_ts"])


SQL_ASOF_FORWARD = """
SELECT o.o_orderkey, o.o_custkey, epoch_us(e.ts) AS first_event_ts
FROM orders o ASOF JOIN events e
  ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
"""


def q_asof_nearest(sf_dir: str):
    """NEAREST as-of join: each order matched to the customer's event
    with the minimum |Δts| (ties to the earlier event) — the third
    direction on the rank-compressed broadcast kernel (backward and
    forward candidates compared per row). SQL twin: LATERAL
    ORDER BY abs(Δ), ts LIMIT 1."""
    import pyarrow.parquet as pq

    ds = rd.read_parquet(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )
    events = pq.read_table(_t(sf_dir, "events"), columns=["user_id", "ts"])
    out = ops.asof_join_broadcast(
        ds, events, "o_custkey", "o_orderdate", "user_id", "ts",
        out_ts="nearest_ts", direction="nearest",
    )
    return out.select_columns(["o_orderkey", "o_custkey", "nearest_ts"])


SQL_ASOF_NEAREST = """
SELECT o.o_orderkey, o.o_custkey, x.nearest_ts
FROM orders o, LATERAL (
  SELECT epoch_us(e.ts) AS nearest_ts
  FROM events e WHERE e.user_id = o.o_custkey
  ORDER BY abs(epoch_us(e.ts) - epoch_us(o.o_orderdate)), epoch_us(e.ts)
  LIMIT 1
) x
"""


def q_interval_cover(sf_dir: str):
    """Per-user UNION-of-intervals coverage (uptime with overlaps
    collapsed): each event opens a deterministic 10–70-minute interval
    (length from event_id) and overlapping intervals count once —
    one running-max sweep per key bucket (ops.interval_union_length),
    integer-exact against the SQL window twin."""
    ds = rd.read_parquet(_t(sf_dir, "events"), columns=["event_id", "user_id", "ts"])

    def mk_iv(batch: pa.Table) -> pa.Table:
        eid = batch["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        dur = (eid % 7 + 1) * np.int64(600_000_000)
        return pa.table(
            {
                "user_id": batch["user_id"].cast(pa.int64()),
                "s": pa.array(t, pa.int64()),
                "e": pa.array(t + dur, pa.int64()),
            }
        )

    iv = ds.map_batches(
        mk_iv, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return ops.interval_union_length(iv, "user_id", "s", "e")


SQL_INTERVAL_COVER = """
WITH iv AS (
  SELECT user_id, epoch_us(ts) AS s,
         epoch_us(ts) + (event_id % 7 + 1) * 600000000 AS e
  FROM events
),
x AS (
  SELECT user_id, s, e,
         MAX(e) OVER (PARTITION BY user_id ORDER BY s, e
                      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS pm
  FROM iv
)
SELECT user_id,
       CAST(SUM(GREATEST(e - GREATEST(s, COALESCE(pm, s)), 0)) AS BIGINT) AS covered
FROM x GROUP BY user_id
"""


def q_dissolve_area(sf_dir: str):
    """Per-group area of the UNION of axis-aligned boxes (GIS dissolve,
    ops.dissolve_area): deterministic integer rects derived from part
    (deci-degree units, widths from p_size), 97 groups so rects overlap
    within a group — overlapping area counts ONCE. Exact int64 slab
    sweep, bit-identical to the SQL slab+window twin."""
    ds = rd.read_parquet(_t(sf_dir, "part"), columns=["p_partkey", "p_size"])

    def mk_rect(batch: pa.Table) -> pa.Table:
        pk = batch["p_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        sz = batch["p_size"].to_numpy(zero_copy_only=False).astype(np.int64)
        x1 = (pk * 17) % 3600
        y1 = (pk * 23) % 1700
        return pa.table(
            {
                "g": pa.array(pk % 97, pa.int64()),
                "x1": pa.array(x1, pa.int64()),
                "y1": pa.array(y1, pa.int64()),
                "x2": pa.array(x1 + (sz % 10) + 1, pa.int64()),
                "y2": pa.array(y1 + (sz % 7) + 1, pa.int64()),
            }
        )

    rects = ds.map_batches(
        mk_rect, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return ops.dissolve_area(rects, "g", "x1", "y1", "x2", "y2")


SQL_DISSOLVE_AREA = """
WITH r AS (
  SELECT p_partkey % 97 AS g,
         (p_partkey * 17) % 3600 AS x1,
         (p_partkey * 23) % 1700 AS y1,
         (p_partkey * 17) % 3600 + (p_size % 10) + 1 AS x2,
         (p_partkey * 23) % 1700 + (p_size % 7) + 1 AS y2
  FROM part
),
e AS (
  SELECT DISTINCT g, x1 AS x FROM r
  UNION
  SELECT DISTINCT g, x2 FROM r
),
s0 AS (
  SELECT g, x AS x0, LEAD(x) OVER (PARTITION BY g ORDER BY x) AS x1e FROM e
),
s AS (SELECT g, x0, x1e FROM s0 WHERE x1e IS NOT NULL),
cov AS (
  SELECT s.g, s.x0, s.x1e, r.y1, r.y2
  FROM s JOIN r ON r.g = s.g AND r.x1 <= s.x0 AND r.x2 >= s.x1e
),
sw AS (
  SELECT g, x0, x1e, y1, y2,
         MAX(y2) OVER (PARTITION BY g, x0 ORDER BY y1, y2
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS pm
  FROM cov
)
SELECT g,
       CAST(SUM((x1e - x0) *
                GREATEST(y2 - GREATEST(y1, COALESCE(pm, y1)), 0)) AS BIGINT)
         AS union_area
FROM sw GROUP BY g
"""


def q_twa(sf_dir: str):
    """Per-user TIME-WEIGHTED average of the event value (step signal:
    each sample holds until the next) — quantized integer weighted sum
    over the held durations, one int/int division at the end
    (ops.time_weighted_avg); bit-exact vs the SQL LEAD twin."""
    ds = rd.read_parquet(_t(sf_dir, "events"), columns=["user_id", "ts", "value"])
    return ops.time_weighted_avg(ds, "user_id", "ts", "value")


SQL_TWA = """
WITH q AS (
  SELECT user_id, epoch_us(ts) AS t,
         CAST(floor(value * 1000.0e0 + 0.5e0) AS BIGINT) AS vq
  FROM events
),
l AS (
  SELECT user_id, t, vq,
         COALESCE(LEAD(t) OVER (PARTITION BY user_id ORDER BY t, vq) - t, 0) AS dt
  FROM q
)
SELECT user_id,
       CAST(SUM(vq * dt) AS BIGINT) AS twa_num,
       CAST(MAX(t) - MIN(t) AS BIGINT) AS twa_den,
       CAST(SUM(vq * dt) AS DOUBLE) / CAST(MAX(t) - MIN(t) AS DOUBLE) AS twa
FROM l GROUP BY user_id HAVING MAX(t) - MIN(t) > 0
"""


def q_attribution(sf_dir: str):
    """Last-touch attribution: every purchase matched to the user's
    most recent preceding click (self as-of over the event log —
    streaming purchase side, broadcast click side)."""
    import pyarrow.parquet as pq

    ds = rd.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "ts", "event_type"]
    )

    def purchases(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch["event_type"], "purchase")).select(
            ["event_id", "user_id", "ts"]
        )

    left = ds.map_batches(
        purchases, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    ev = pq.read_table(_t(sf_dir, "events"), columns=["user_id", "ts", "event_type"])
    clicks = ev.filter(pc.equal(ev["event_type"], "click")).select(["user_id", "ts"])
    out = ops.asof_join_broadcast(
        left, clicks, "user_id", "ts", "user_id", "ts", out_ts="click_ts"
    )
    return out.select_columns(["event_id", "user_id", "click_ts"])


SQL_ATTRIBUTION = """
SELECT p.event_id, p.user_id, epoch_us(c.ts) AS click_ts
FROM (SELECT * FROM events WHERE event_type = 'purchase') p
ASOF JOIN (SELECT * FROM events WHERE event_type = 'click') c
  ON p.user_id = c.user_id AND p.ts >= c.ts
"""


def q_cast_roundtrip_grid(sf_dir: str):
    """Dataset-level as_geoarrow cast chain: native point → WKB → native,
    then the grid histogram — hash-equal to grid_cell_count iff the cast
    matrix is bit-lossless end-to-end under Ray."""
    ds = lineitem_points(sf_dir)
    ds = ops.cast_geometry(ds, "geotag", GeoType.wkb())
    ds = ops.cast_geometry(ds, "geotag", GeoType.point())
    ds = ops.add_grid_column(ds, res=GRID_RES)
    return ops.salted_count(ds, "grid_cell", count_alias="n")


def q_union_grid(sf_dir: str):
    """``c()`` concatenation semantics lifted to Datasets: lineitem and
    supplier point sets unioned (same geometry type → plain union), then
    the grid histogram over the combined set."""
    li = lineitem_points(sf_dir).select_columns(["geotag"])
    sx, sy, sk = supplier_points(sf_dir)
    geo = GeoType.point(crs="OGC:CRS84")
    sup_tbl = pa.table(
        {"geotag": native.build_points(np.column_stack([sx, sy]), geo)},
        schema=pa.schema([geo.field("geotag")]),
    )
    both = ops.union_geo([li, rd.from_arrow(sup_tbl)], col="geotag")
    ds = ops.add_grid_column(both, res=GRID_RES)
    return ops.salted_count(ds, "grid_cell", count_alias="n")


SQL_UNION_GRID = f"""
WITH pts AS (
  SELECT {LI_LON} AS lon, {LI_LAT} AS lat FROM lineitem
  UNION ALL
  SELECT {SUPP_SX} AS lon, {SUPP_SY} AS lat FROM supplier
)
SELECT CAST(FLOOR((lon + 180)/1.0) AS BIGINT)*100000
     + CAST(FLOOR((lat + 90)/1.0) AS BIGINT) AS grid_cell,
       COUNT(*) AS n
FROM pts GROUP BY 1
"""


def q_semi_join(sf_dir: str):
    """Broadcast semi-join: lineitem rows restricted to large parts
    (p_size > 40), counted per returnflag."""
    import pyarrow.parquet as pq

    big = pq.read_table(_t(sf_dir, "part"), columns=["p_partkey", "p_size"])
    keep = big.filter(pc.greater(big["p_size"], 40))["p_partkey"].to_numpy()
    ds = rd.read_parquet(_t(sf_dir, "lineitem"), columns=["l_partkey", "l_returnflag"])
    ds = ops.semi_join_filter(ds, "l_partkey", keep)
    return ops.salted_count(ds, "l_returnflag", count_alias="n")


SQL_SEMI_JOIN = """
SELECT l_returnflag, COUNT(*) AS n FROM lineitem
WHERE l_partkey IN (SELECT p_partkey FROM part WHERE p_size > 40)
GROUP BY l_returnflag
"""


def q_semi_bloom(sf_dir: str):
    """Bloom-prefiltered partitioned semi join — the SAME result as
    ``semi_join`` by a different physical plan (ops.semi_join_bloom:
    128 KiB bitmap broadcast rules out non-matching lineitem rows
    before the exact partitioned semi join, so only the maybe-set
    shuffles). Shares the IN-subquery oracle."""
    big = rd.read_parquet(_t(sf_dir, "part"), columns=["p_partkey", "p_size"])
    big = big.filter(expr="p_size > 40").select_columns(["p_partkey"])
    ds = rd.read_parquet(_t(sf_dir, "lineitem"),
                         columns=["l_partkey", "l_returnflag"])
    out = ops.semi_join_bloom(ds, "l_partkey", big, "p_partkey")
    return ops.salted_count(out, "l_returnflag", count_alias="n")


def q_distinct_parts(sf_dir: str):
    """Exact distinct count (two-stage unique) + HLL approximation with
    its relative error — the mergeable-sketch pattern. The exact column
    is oracle-checked; the sketch column is engine-defined (bounded by
    the test suite instead)."""
    ds = rd.read_parquet(_t(sf_dir, "lineitem"), columns=["l_partkey"])
    exact = len(ds.unique("l_partkey"))
    approx = ops.approx_distinct(ds, "l_partkey")
    err_ok = abs(approx - exact) / exact < 0.05
    return pa.table(
        {
            "n_distinct": pa.array([exact], pa.int64()),
            "hll_within_5pct": pa.array([bool(err_ok)]),
        }
    )


SQL_DISTINCT_PARTS = """
SELECT COUNT(DISTINCT l_partkey) AS n_distinct, TRUE AS hll_within_5pct
FROM lineitem
"""


def q_grouped_distinct(sf_dir: str):
    """Per-event-type distinct users: EXACT via two-stage dedup+count
    (oracled) alongside the grouped-HLL estimate with a per-key 5%%
    error flag (the mergeable-sketch pattern, grouped)."""
    ds = rd.read_parquet(_t(sf_dir, "events"), columns=["event_type", "user_id"])
    uniq = ops.dedup_exact(ds, ["event_type", "user_id"], keep_col="user_id")
    exact = {
        r["event_type"]: r["n"]
        for r in ops.salted_count(uniq, "event_type", count_alias="n").take_all()
    }
    approx = ops.grouped_approx_distinct(ds, "event_type", "user_id")
    keys = sorted(exact)
    return pa.table(
        {
            "event_type": pa.array(keys),
            "n_distinct": pa.array([exact[k] for k in keys], pa.int64()),
            "hll_within_5pct": pa.array(
                [abs(approx[k] - exact[k]) / exact[k] < 0.05 for k in keys]
            ),
        }
    )


SQL_GROUPED_DISTINCT = """
SELECT event_type, COUNT(DISTINCT user_id) AS n_distinct,
       TRUE AS hll_within_5pct
FROM events GROUP BY event_type
"""


def q_sample(sf_dir: str):
    """Deterministic 10% content-hash sample of lineitem (stable
    held-out-split semantics; bit-identical to the SQL mirror)."""
    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_linenumber"]
    )
    return ops.systematic_sample(ds, ["l_orderkey", "l_linenumber"], mod=10, keep=0)


SQL_SAMPLE = """
SELECT l_orderkey, l_linenumber FROM lineitem
WHERE ('0x' || substr(md5(CAST(l_orderkey AS VARCHAR) || '-' ||
                          CAST(l_linenumber AS VARCHAR)), 1, 8))::UBIGINT % 10 = 0
"""


def q_sliding_window(sf_dir: str):
    """Sliding window count: 2-hour windows stepping hourly — each event
    lands in exactly two windows (flat-map explode + grouped count)."""
    ds = rd.read_parquet(_t(sf_dir, "events"), columns=["event_type", "ts"])

    def explode(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        hour = ts // 3_600_000_000
        et = batch["event_type"]
        return pa.table(
            {
                "event_type": pa.concat_arrays(
                    [et.combine_chunks(), et.combine_chunks()]
                ),
                "window_start": pa.array(
                    np.concatenate([hour, hour - 1]), pa.int64()
                ),
            }
        )

    exploded = ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    return ops.salted_count(exploded, ["event_type", "window_start"], count_alias="n")


SQL_SLIDING_WINDOW = """
SELECT event_type,
       CAST(FLOOR(EPOCH(ts)/3600) AS BIGINT) - off.o AS window_start,
       COUNT(*) AS n
FROM events CROSS JOIN (VALUES (0), (1)) AS off(o)
GROUP BY 1, 2
"""


SESSION_GAP_US = 6 * 3600 * 1_000_000  # 6h


def q_sessionize(sf_dir: str):
    """Session windows over the event log (gap > 6h splits)."""
    ds = rd.read_parquet(_t(sf_dir, "events"), columns=["user_id", "ts", "event_id"])
    out = ops.sessionize(ds, "user_id", "ts", SESSION_GAP_US, order_tiebreak="event_id")
    return out


SQL_SESSIONIZE = f"""
WITH d AS (
  SELECT user_id, epoch_us(ts) AS t,
         CASE WHEN epoch_us(ts) - LAG(epoch_us(ts)) OVER w > {SESSION_GAP_US}
              THEN 1 ELSE 0 END AS brk
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
s AS (
  SELECT user_id, t,
         SUM(brk) OVER (PARTITION BY user_id ORDER BY t
                        ROWS UNBOUNDED PRECEDING) AS sid
  FROM d
)
SELECT user_id, MIN(t) AS session_start, MAX(t) AS session_end,
       COUNT(*) AS n_events
FROM s GROUP BY user_id, sid
"""


def q_peak_concurrency(sf_dir: str):
    """Exact PEAK concurrent sessions across all users (capacity
    planning's headline number): sessionize → ±1 boundary deltas →
    ops.peak_concurrency's time-sharded distributed sweep (per-shard
    totals give exclusive bases; equal timestamps stay in one shard so
    the starts-before-ends tie rule is local). Closed intervals — a
    session ending at t still counts at t."""
    ev = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["user_id", "ts", "event_id"])
    sess = ops.sessionize(ev, key="user_id", ts="ts",
                          gap_us=SESSION_GAP_US, order_tiebreak="event_id")

    def deltas(batch: pa.Table) -> pa.Table:
        s = batch["session_start"].to_numpy(zero_copy_only=False)
        e = batch["session_end"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "t": pa.array(np.concatenate([s, e]), pa.int64()),
                "dlt": pa.array(
                    np.concatenate(
                        [np.ones(s.shape[0], np.int64),
                         -np.ones(e.shape[0], np.int64)]
                    )
                ),
            }
        )

    d = sess.map_batches(deltas, batch_format="pyarrow",
                         zero_copy_batch=True, batch_size=None)
    return ops.peak_concurrency(d, "t", "dlt")


SQL_PEAK_CONCURRENCY = f"""
WITH d0 AS (
  SELECT user_id, epoch_us(ts) AS t,
         CASE WHEN epoch_us(ts) - LAG(epoch_us(ts)) OVER w > {SESSION_GAP_US}
              THEN 1 ELSE 0 END AS brk
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
s0 AS (
  SELECT user_id, t,
         SUM(brk) OVER (PARTITION BY user_id ORDER BY t
                        ROWS UNBOUNDED PRECEDING) AS sid
  FROM d0
),
sess AS (
  SELECT user_id, MIN(t) AS a, MAX(t) AS b FROM s0 GROUP BY user_id, sid
),
dd AS (
  SELECT a AS t, 1 AS dlt FROM sess
  UNION ALL SELECT b, -1 FROM sess
),
p AS (
  SELECT SUM(dlt) OVER (ORDER BY t, dlt DESC
                        ROWS UNBOUNDED PRECEDING) AS c
  FROM dd
)
SELECT CAST(MAX(c) AS BIGINT) AS peak FROM p
"""


def q_session_overlap(sf_dir: str):
    """INTERVAL-OVERLAP join, both sides intervals (the generalization
    of the point-in-interval range join): per user session, the number
    of 7-day order windows it overlaps. No pair intermediate — with
    the order windows' sorted starts and (exclusive) ends broadcast,
    ``overlaps = #(start ≤ session_end) − #(end ≤ session_start)``
    (two searchsorteds per session, the standard counting identity).
    Sessions stream; the window table is the broadcast side."""
    import pyarrow.parquet as pq

    ev = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["user_id", "ts", "event_id"])
    sess = ops.sessionize(ev, key="user_id", ts="ts",
                          gap_us=SESSION_GAP_US, order_tiebreak="event_id")
    od = pq.read_table(_t(sf_dir, "orders"), columns=["o_orderdate"])
    s = np.sort(od["o_orderdate"].cast(pa.int64()).to_numpy())
    e = s + 7 * 86400 * 1_000_000  # exclusive ends (sorted too)
    ref = exchange.broadcast((s, e))

    def count(batch: pa.Table) -> pa.Table:
        ss, ee = ref.get()
        a = batch["session_start"].to_numpy(zero_copy_only=False)
        b = batch["session_end"].to_numpy(zero_copy_only=False)
        n = (
            np.searchsorted(ss, b, side="right")
            - np.searchsorted(ee, a, side="right")
        )
        return pa.table(
            {
                "user_id": batch["user_id"],
                "session_start": batch["session_start"],
                "n_windows": pa.array(n, pa.int64()),
            }
        )

    return sess.map_batches(
        count, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


SQL_SESSION_OVERLAP = f"""
WITH d0 AS (
  SELECT user_id, epoch_us(ts) AS t,
         CASE WHEN epoch_us(ts) - LAG(epoch_us(ts)) OVER w > {SESSION_GAP_US}
              THEN 1 ELSE 0 END AS brk
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
s0 AS (
  SELECT user_id, t,
         SUM(brk) OVER (PARTITION BY user_id ORDER BY t
                        ROWS UNBOUNDED PRECEDING) AS sid
  FROM d0
),
sess AS (
  SELECT user_id, MIN(t) AS a, MAX(t) AS b FROM s0 GROUP BY user_id, sid
),
ows AS (
  SELECT epoch_us(o_orderdate) AS s,
         epoch_us(o_orderdate) + {7 * 86400 * 1_000_000} AS e
  FROM orders
)
SELECT sess.user_id, sess.a AS session_start,
       CAST(COALESCE(SUM(CASE WHEN ows.s <= sess.b AND ows.e > sess.a
                              THEN 1 ELSE 0 END), 0) AS BIGINT) AS n_windows
FROM sess CROSS JOIN ows
GROUP BY sess.user_id, sess.a
"""


CLUSTER_RADIUS = 5.0


def q_spatial_clusters(sf_dir: str):
    """DBSCAN-style spatial clustering of supplier points: link every
    pair within {CLUSTER_RADIUS}° (the engine's zero-shuffle radius
    pair join), then connected components — cluster label = min member
    id. Noise points (no neighbor within radius) are excluded, DBSCAN
    convention. Oracle: SQL distance self-join + recursive-CTE closure."""
    from georay.joins import radius_join_pairs
    from georay.stages.components import connected_components

    sx, sy, sk = supplier_points(sf_dir)
    geo = GeoType.point(crs="OGC:CRS84")
    probes = rd.from_arrow(
        pa.table({"s_a": pa.array(sk)}).append_column(
            geo.field("geotag"), native.build_points(np.column_stack([sx, sy]), geo)
        )
    )
    pairs = radius_join_pairs(
        probes, sx, sy, sk, CLUSTER_RADIUS,
        probe_id_col="s_a", neighbor_out="s_b",
    )

    def ordered(batch: pa.Table) -> pa.Table:
        a = batch["s_a"].to_numpy(zero_copy_only=False)
        b = batch["s_b"].to_numpy(zero_copy_only=False)
        keep = a < b
        return pa.table(
            {"id_a": pa.array(a[keep]), "id_b": pa.array(b[keep])}
        )

    edges = pairs.map_batches(
        ordered, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return connected_components(edges)


SQL_SPATIAL_CLUSTERS = f"""
WITH RECURSIVE
refs AS (SELECT s_suppkey, {SUPP_SX} AS sx, {SUPP_SY} AS sy FROM supplier),
e AS (
  SELECT a.s_suppkey AS x, b.s_suppkey AS y
  FROM refs a JOIN refs b
    ON a.s_suppkey < b.s_suppkey
   AND (b.sx - a.sx)*(b.sx - a.sx) + (b.sy - a.sy)*(b.sy - a.sy)
       <= {CLUSTER_RADIUS} * {CLUSTER_RADIUS}
),
sym AS (SELECT x AS s, y AS d FROM e UNION ALL SELECT y, x FROM e),
reach(n, m) AS (
  SELECT s, d FROM sym
  UNION
  SELECT r.n, s.d FROM reach r JOIN sym s ON s.s = r.m
)
SELECT n AS node, LEAST(n, MIN(m)) AS label FROM reach GROUP BY n
"""


def q_nn_stats(sf_dir: str):
    """Point-pattern analysis (Clark–Evans) sufficient statistics:
    each supplier's nearest-OTHER-neighbor planar distance, quantized
    with the movement family's correctly-rounded
    ``floor(sqrt(d2)·2^20 + 0.5)`` convention, folded to ONE row
    ``(n_points, sum_q, min_q, max_q)`` — mean NN distance vs the
    ½/√density expectation is the standard clustered-vs-dispersed
    test. Plan: broadcast kNN join (k=2 covers the self hit), the
    per-probe min resolves inside its batch, scalar partials merge
    through the combine tree."""
    from georay.joins import knn_join

    sx, sy, sk = supplier_points(sf_dir)
    geo = GeoType.point(crs="OGC:CRS84")
    probes = rd.from_arrow(
        pa.table({"s_a": pa.array(sk)}).append_column(
            geo.field("geotag"), native.build_points(np.column_stack([sx, sy]), geo)
        )
    )
    pairs = knn_join(probes, sx, sy, sk, k=2, id_out="s_b")

    def nn_partial(batch: pa.Table) -> pa.Table:
        a = batch["s_a"].to_numpy(zero_copy_only=False)
        b = batch["s_b"].to_numpy(zero_copy_only=False)
        d2 = batch["knn_dist2"].to_numpy(zero_copy_only=False)
        keep = a != b  # drop the self hit
        a, d2 = a[keep], d2[keep]
        if a.shape[0] == 0:
            return pa.table(
                {"k": pa.array([], pa.int64()),
                 "pn": pa.array([], pa.int64()),
                 "ps": pa.array([], pa.int64()),
                 "pmin": pa.array([], pa.int64()),
                 "pmax": pa.array([], pa.int64())}
            )
        (_,), outs = ops._group_reduce([a], {"d2": d2}, ufunc=np.minimum)
        q = np.floor(np.sqrt(outs["d2"]) * 1048576.0 + 0.5).astype(np.int64)
        return pa.table(
            {"k": pa.array([0], pa.int64()),
             "pn": pa.array([q.shape[0]], pa.int64()),
             "ps": pa.array([int(q.sum())], pa.int64()),
             "pmin": pa.array([int(q.min())], pa.int64()),
             "pmax": pa.array([int(q.max())], pa.int64())}
        )

    return ops.tree_reduce(
        pairs.map_batches(nn_partial, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None),
        "k",
        {"pn": "n_points", "ps": "sum_q", "pmin": "min_q", "pmax": "max_q"},
        ufunc={"pn": np.add, "ps": np.add, "pmin": np.minimum,
               "pmax": np.maximum},
    ).map_batches(
        lambda b: b.drop_columns(["k"]),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )


SQL_NN_STATS = f"""
WITH refs AS (
  SELECT s_suppkey AS id, {SUPP_SX} AS sx, {SUPP_SY} AS sy FROM supplier
),
d AS (
  SELECT a.id,
         MIN((b.sx - a.sx)*(b.sx - a.sx) + (b.sy - a.sy)*(b.sy - a.sy))
           AS d2
  FROM refs a JOIN refs b ON b.id != a.id GROUP BY a.id
),
q AS (SELECT CAST(floor(sqrt(d2) * 1048576e0 + 0.5e0) AS BIGINT) AS qd FROM d)
SELECT CAST(COUNT(*) AS BIGINT) AS n_points,
       CAST(SUM(qd) AS BIGINT) AS sum_q,
       MIN(qd) AS min_q, MAX(qd) AS max_q
FROM q
"""


DBSCAN_EPS2 = 104.0  # eps = √104 ≈ 10.198° — NOT exactly representable
DBSCAN_MINPTS = 3


def q_dbscan(sf_dir: str):
    """Full DBSCAN (minPts={DBSCAN_MINPTS}, eps²={DBSCAN_EPS2}) over
    supplier points — the minPts generalization of ``spatial_clusters``
    (which is DBSCAN with minPts=2). eps is given PRE-SQUARED via the
    radius join's ``radius2`` contract so the exact filter compares
    ``d² <= 104.0`` bit-for-bit with the SQL predicate (√104 has no
    exact double; squaring its rounding would drift the boundary).

    Semantics (all deterministic): neighborhood counts INCLUDE the
    point itself (classical DBSCAN |N_eps(p)| ≥ minPts); clusters =
    connected components of core points under the eps relation, label
    = min core id in the component (isolated cores label themselves);
    border points (non-core with ≥1 core neighbor) take the MIN
    neighboring core label — the deterministic variant of DBSCAN's
    scan-order-dependent border assignment; noise points are excluded.

    Scale shape: one broadcast-grid radius pair join (each probe's
    pairs AND its neighbor count resolve inside one batch — no count
    shuffle); the core set, component labels and border partial-mins
    are driver-held, all bounded by the broadcast REF-set size — the
    same memory budget the broadcast PointIndex already pays. For a
    both-sides-large DBSCAN swap in ``radius_join_count_partitioned``'s
    cell co-shuffle and ``connected_components_partitioned``."""
    from georay.joins import radius_join_pairs
    from georay.stages.components import connected_components

    sx, sy, sk = supplier_points(sf_dir)
    geo = GeoType.point(crs="OGC:CRS84")
    probes = rd.from_arrow(
        pa.table({"s_a": pa.array(sk)}).append_column(
            geo.field("geotag"), native.build_points(np.column_stack([sx, sy]), geo)
        )
    )
    # disk-sizing radius one ulp above √eps² so radius² ≥ eps² always
    eps = float(np.nextafter(np.sqrt(DBSCAN_EPS2), np.inf))
    pairs = radius_join_pairs(
        probes, sx, sy, sk, eps, radius2=DBSCAN_EPS2,
        probe_id_col="s_a", neighbor_out="s_b", count_out="n_a",
    ).materialize()

    def core_ids(batch: pa.Table) -> pa.Table:
        a = batch["s_a"].to_numpy(zero_copy_only=False)
        n = batch["n_a"].to_numpy(zero_copy_only=False)
        return pa.table({"id": pa.array(np.unique(a[n >= DBSCAN_MINPTS]), pa.int64())})

    cores = np.unique(
        np.concatenate(
            [np.empty(0, np.int64)]
            + [
                b["id"].to_numpy()
                for b in pairs.map_batches(
                    core_ids, batch_format="pyarrow", zero_copy_batch=True,
                    batch_size=None,
                ).iter_batches(batch_format="pyarrow")
            ]
        )
    )
    core_ref = exchange.broadcast(cores)

    def core_edges(batch: pa.Table) -> pa.Table:
        cs = core_ref.get()
        a = batch["s_a"].to_numpy(zero_copy_only=False)
        b = batch["s_b"].to_numpy(zero_copy_only=False)
        keep = (a < b) & np.isin(a, cs) & np.isin(b, cs)
        return pa.table(
            {"id_a": pa.array(a[keep], pa.int64()), "id_b": pa.array(b[keep], pa.int64())}
        )

    comp = connected_components(
        pairs.map_batches(
            core_edges, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
        )
    )
    node = comp["node"].to_numpy()
    label = comp["label"].to_numpy()
    iso = cores[~np.isin(cores, node)]  # cores with no core-core edge
    node = np.concatenate([node, iso])
    label = np.concatenate([label, iso])
    order = np.argsort(node)
    node, label = node[order], label[order]
    lab_ref = exchange.broadcast((cores, node, label))

    def border_partials(batch: pa.Table) -> pa.Table:
        cs, cn, cl = lab_ref.get()
        a = batch["s_a"].to_numpy(zero_copy_only=False)
        b = batch["s_b"].to_numpy(zero_copy_only=False)
        keep = ~np.isin(a, cs) & np.isin(b, cs)
        a, b = a[keep], b[keep]
        lb = cl[np.searchsorted(cn, b)]
        (ga,), outs = ops._group_reduce([a], {"label": lb}, ufunc=np.minimum)
        return pa.table(
            {"node": pa.array(ga, pa.int64()), "label": pa.array(outs["label"], pa.int64())}
        )

    bn, bl = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for b in pairs.map_batches(
        border_partials, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    ).iter_batches(batch_format="pyarrow"):
        bn.append(b["node"].to_numpy())  # bounded: ≤1 row/non-core ref/block
        bl.append(b["label"].to_numpy())
    (bnode,), bouts = ops._group_reduce(
        [np.concatenate(bn)], {"label": np.concatenate(bl)}, ufunc=np.minimum
    )
    blabel = bouts["label"]
    return pa.table(
        {
            "node": pa.array(np.concatenate([node, bnode]), pa.int64()),
            "label": pa.array(np.concatenate([label, blabel]), pa.int64()),
            "core": pa.array(
                np.concatenate(
                    [np.ones(node.shape[0], np.int32), np.zeros(bnode.shape[0], np.int32)]
                ),
                pa.int32(),
            ),
        }
    )


SQL_DBSCAN = f"""
WITH RECURSIVE
refs AS (SELECT s_suppkey AS id, {SUPP_SX} AS sx, {SUPP_SY} AS sy FROM supplier),
nbr AS (
  SELECT a.id AS x, b.id AS y
  FROM refs a JOIN refs b
    ON (b.sx - a.sx)*(b.sx - a.sx) + (b.sy - a.sy)*(b.sy - a.sy)
       <= {DBSCAN_EPS2}
),
core AS (SELECT x AS id FROM nbr GROUP BY x HAVING COUNT(*) >= {DBSCAN_MINPTS}),
ce AS (
  SELECT n.x, n.y FROM nbr n
  JOIN core c1 ON n.x = c1.id JOIN core c2 ON n.y = c2.id
  WHERE n.x <> n.y
),
reach(n, m) AS (
  SELECT x, y FROM ce
  UNION
  SELECT r.n, e.y FROM reach r JOIN ce e ON e.x = r.m
),
corelab AS (
  SELECT c.id, LEAST(c.id, COALESCE(MIN(r.m), c.id)) AS label
  FROM core c LEFT JOIN reach r ON r.n = c.id GROUP BY c.id
),
border AS (
  SELECT n.x AS id, MIN(cl.label) AS label
  FROM nbr n JOIN corelab cl ON n.y = cl.id
  WHERE n.x NOT IN (SELECT id FROM core)
  GROUP BY n.x
)
SELECT id AS node, label, 1 AS core FROM corelab
UNION ALL
SELECT id AS node, label, 0 AS core FROM border
"""


def q_geo_curate(sf_dir: str):
    """END-TO-END geo-curation chain, the spatial sibling of
    ``pretrain_prep`` — every stage an already-oracled operator, the
    WHOLE chain hash-matched against one SQL query:

      geotag points → broadcast PIP SEMI gate (inside ≥1 part box)
      → equirect grid cell → domain-mixture sampling by returnflag
      (keep A=100%, R=50%, N=25%) → per-cell weighted sample (3 rows
      per cell, l_quantity-proportional priority sampling).

    One broadcast (the polygon index), zero corpus shuffles until the
    map-side-pruned per-cell top-k."""
    from georay.joins import pip_join

    pts = lineitem_points(sf_dir, extra_cols=["l_returnflag", "l_quantity"])
    pts = pip_join(
        pts, part_box_polygons(sf_dir), geometry_col="geometry",
        id_col="p_partkey", mode="semi",
    )
    pts = ops.add_grid_column(pts)

    def add_rid(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "rid",
            pc.add(
                pc.multiply(batch["l_orderkey"], 8),
                pc.cast(batch["l_linenumber"], pa.int64()),
            ),
        )

    pts = pts.map_batches(
        add_rid, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    pts = ops.mixture_sample(
        pts, "rid", "l_returnflag", {"A": 1.0, "R": 0.5, "N": 0.25},
        default_rate=0.0,
    )
    out = ops.weighted_sample_grouped(pts, "rid", "grid_cell", "l_quantity", 3)
    return out.select_columns(
        ["grid_cell", "l_returnflag", "l_orderkey", "l_linenumber",
         "l_quantity", "priority"]
    )


def _mix_thr(rate: float) -> int:
    return ops.mixture_rate_threshold(rate)


SQL_GEO_CURATE = f"""
WITH pts AS (
  SELECT l_orderkey, l_linenumber, l_returnflag, l_quantity,
         {LI_LON} AS lon, {LI_LAT} AS lat
  FROM lineitem
),
boxes AS (
  SELECT {PART_CX} AS cx, {PART_CY} AS cy, {PART_W} AS w, {PART_H} AS h
  FROM part
),
inbox AS (
  SELECT p.* FROM pts p
  WHERE EXISTS (
    SELECT 1 FROM boxes b
    WHERE p.lon >= b.cx - b.w AND p.lon < b.cx + b.w
      AND p.lat >= b.cy - b.h AND p.lat < b.cy + b.h)
),
cellp AS (
  SELECT *, CAST(FLOOR((lon + 180)/1.0) AS BIGINT)*100000
          + CAST(FLOOR((lat + 90)/1.0) AS BIGINT) AS grid_cell,
         CAST(l_orderkey*8 + l_linenumber AS HUGEINT) AS rid
  FROM inbox
),
m1 AS (SELECT *, xor(rid, rid // 8589934592) AS h1 FROM cellp),
m2 AS (SELECT * EXCLUDE(h1),
              ( (h1 % 4294967296) * 18397679294719823053
              + ((h1 // 4294967296) * 18397679294719823053 % 4294967296)
                * 4294967296 ) % 18446744073709551616 AS h2
       FROM m1),
hx AS (SELECT * EXCLUDE(h2), xor(h2, h2 // 8589934592) AS h FROM m2),
mixed AS (
  SELECT * FROM hx
  WHERE h < CASE l_returnflag
    WHEN 'A' THEN {_mix_thr(1.0)}
    WHEN 'R' THEN {_mix_thr(0.5)}
    WHEN 'N' THEN {_mix_thr(0.25)}
    ELSE 0 END
),
pri AS (
  SELECT grid_cell, l_returnflag, l_orderkey, l_linenumber, l_quantity, rid,
         l_quantity / ((CAST(h AS DOUBLE) + 1.0) / 18446744073709551616.0)
           AS priority
  FROM mixed
)
SELECT grid_cell, l_returnflag, l_orderkey, l_linenumber, l_quantity, priority
FROM (
  SELECT *, ROW_NUMBER() OVER (
      PARTITION BY grid_cell ORDER BY priority DESC, rid) AS rn
  FROM pri
) WHERE rn <= 3
"""


def q_convex_hulls(sf_dir: str):
    """Per-nation convex hulls of the supplier locations, as ORACLED
    derived scalars (vertex count, exact 2×shoelace area, quantized
    perimeter — analytics.grouped_hull_stats). Coordinates are the
    supplier lattice scaled ×20 to integers (ix = 20·lon exactly), so
    cross products and squared lengths are integer-exact on both sides;
    the SQL twin computes the hull edge set directly (an ordered pair
    is a CCW hull edge iff every other point is strictly left or on the
    closed segment — exact integer arithmetic, O(m³) per group, fine
    for coarse groups). Degenerate groups match the monotone-chain
    semantics: 1 point → 0 vertices, all-collinear → 2."""
    from georay import analytics

    ds = rd.read_parquet(_t(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"])

    def scaled(batch: pa.Table) -> pa.Table:
        sk = batch["s_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        nk = batch["s_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        ix = 2 * ((sk * 41) % 3600) - 3599
        iy = 2 * ((sk * 59) % 1700) - 1699
        return pa.table(
            {
                "s_nationkey": pa.array(nk, pa.int64()),
                "ix": pa.array(ix.astype(np.float64)),
                "iy": pa.array(iy.astype(np.float64)),
            }
        )

    pts = ds.map_batches(
        scaled, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return analytics.grouped_hull_stats(pts, "s_nationkey", "ix", "iy")


SQL_CONVEX_HULLS = """
WITH pts AS (
  SELECT DISTINCT s_nationkey AS g,
         2*((s_suppkey*41)%3600) - 3599 AS x,
         2*((s_suppkey*59)%1700) - 1699 AS y
  FROM supplier
),
cnt AS (SELECT g, COUNT(*) AS m FROM pts GROUP BY g),
tri AS (
  SELECT DISTINCT a.g FROM pts a JOIN pts b ON a.g=b.g JOIN pts c ON a.g=c.g
  WHERE (b.x-a.x)*(c.y-a.y) - (b.y-a.y)*(c.x-a.x) > 0
),
edges AS (
  SELECT a.g AS g, a.x AS ax, a.y AS ay, b.x AS bx, b.y AS by_
  FROM pts a JOIN pts b ON a.g = b.g AND (a.x <> b.x OR a.y <> b.y)
  WHERE a.g IN (SELECT g FROM tri)
    AND NOT EXISTS (
      SELECT 1 FROM pts c WHERE c.g = a.g AND (
        (b.x-a.x)*(c.y-a.y) - (b.y-a.y)*(c.x-a.x) < 0
        OR ((b.x-a.x)*(c.y-a.y) - (b.y-a.y)*(c.x-a.x) = 0
            AND NOT ((c.x-a.x)*(b.x-a.x) + (c.y-a.y)*(b.y-a.y) >= 0
                     AND (c.x-b.x)*(a.x-b.x) + (c.y-b.y)*(a.y-b.y) >= 0))
      )
    )
),
hs AS (
  SELECT g, COUNT(*) AS nv,
         SUM(ax*by_ - bx*ay) AS area2,
         SUM(CAST(floor(sqrt(CAST((bx-ax)*(bx-ax) + (by_-ay)*(by_-ay) AS DOUBLE))*1e6 + 0.5) AS BIGINT)) AS perim_q
  FROM edges GROUP BY g
)
SELECT c.g AS s_nationkey,
       CAST(CASE WHEN c.m = 1 THEN 0 WHEN h.nv IS NULL THEN 2 ELSE h.nv END AS BIGINT) AS n_vertices,
       CAST(COALESCE(h.area2, 0) AS BIGINT) AS area2,
       CAST(COALESCE(h.perim_q, 0) AS BIGINT) AS perim_q
FROM cnt c LEFT JOIN hs h ON c.g = h.g
"""


# --------------------------------------------- trajectories / OD matrix

EV_LON = "((user_id*37 + event_id*13) % 3600)/10.0 - 180.0 + 0.05"
EV_LAT = "((user_id*53 + event_id*29) % 1700)/10.0 - 85.0 + 0.05"


def _event_points(sf_dir: str) -> rd.Dataset:
    """events with deterministic synthetic lon/lat (mirrors EV_LON/LAT)."""
    ds = rd.read_parquet(_t(sf_dir, "events"), columns=["user_id", "ts", "event_id"])

    def add_pt(batch: pa.Table) -> pa.Table:
        u = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        e = batch["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lon = ((u * 37 + e * 13) % 3600) / 10.0 - 180.0 + 0.05
        lat = ((u * 53 + e * 29) % 1700) / 10.0 - 85.0 + 0.05
        return batch.append_column("lon", pa.array(lon)).append_column(
            "lat", pa.array(lat)
        )

    return ds.map_batches(
        add_pt, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def q_trajectory(sf_dir: str):
    """Per-user movement stats over the event stream (path length +
    net displacement, legs quantized via correctly-rounded sqrt so the
    SQL LAG twin is bit-exact — analytics.trajectory_stats)."""
    from georay import analytics

    return analytics.trajectory_stats(
        _event_points(sf_dir), "user_id", "ts", "lon", "lat",
        tiebreak_col="event_id",
    )


SQL_TRAJECTORY = f"""
WITH pts AS (
  SELECT user_id, ts, event_id, {EV_LON} AS lon, {EV_LAT} AS lat FROM events
),
seq AS (
  SELECT *, ROW_NUMBER() OVER w AS rn,
         LAG(lon) OVER w AS plon, LAG(lat) OVER w AS plat
  FROM pts WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
legs AS (
  SELECT user_id,
         CASE WHEN rn = 1 THEN 0
              ELSE CAST(floor(sqrt((lon - plon)*(lon - plon)
                                 + (lat - plat)*(lat - plat)) * 1048576e0
                              + 0.5e0) AS BIGINT) END AS leg_q
  FROM seq
),
agg AS (SELECT user_id, COUNT(*) AS n_points,
               CAST(SUM(leg_q) AS BIGINT) AS path_q FROM legs GROUP BY user_id),
f AS (SELECT user_id, lon AS flon, lat AS flat FROM seq WHERE rn = 1),
l AS (SELECT s.user_id, s.lon AS llon, s.lat AS llat
      FROM seq s JOIN (SELECT user_id, MAX(rn) AS mrn FROM seq GROUP BY 1) m
        ON s.user_id = m.user_id AND s.rn = m.mrn)
SELECT agg.user_id, agg.n_points, agg.path_q,
       CAST(floor(sqrt((llon - flon)*(llon - flon)
                     + (llat - flat)*(llat - flat)) * 1048576e0 + 0.5e0)
            AS BIGINT) AS net_q
FROM agg JOIN f USING (user_id) JOIN l USING (user_id)
"""

def q_hausdorff(sf_dir: str):
    """Trajectory-similarity join: discrete Hausdorff distance between
    every pair of users whose FIRST fix lands in the same 90° grid cell
    (analytics.hausdorff_pairs — packed-track co-shuffle by user, then
    by cell; per-cell vectorized directed-H matrix). Quantized via the
    correctly-rounded sqrt so the SQL cross-join twin is bit-exact."""
    from georay import analytics

    def cell90(lon0: np.ndarray, lat0: np.ndarray) -> np.ndarray:
        return (
            np.floor((lon0 + 180.0) / 90.0).astype(np.int64) * 10
            + np.floor((lat0 + 90.0) / 90.0).astype(np.int64)
        )

    return analytics.hausdorff_pairs(
        _event_points(sf_dir), "user_id", "ts", "lon", "lat",
        group_fn=cell90, tiebreak_col="event_id",
    )


SQL_HAUSDORFF = f"""
WITH pts AS (
  SELECT user_id, ts, event_id, {EV_LON} AS lon, {EV_LAT} AS lat FROM events
),
f AS (
  SELECT user_id, lon, lat FROM (
    SELECT user_id, lon, lat,
           ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
    FROM pts) WHERE rn = 1
),
cellof AS (
  SELECT user_id,
         CAST(floor((lon + 180e0) / 90e0) AS BIGINT) * 10
       + CAST(floor((lat + 90e0) / 90e0) AS BIGINT) AS grp
  FROM f
),
pairs AS (
  SELECT a.user_id AS ua, b.user_id AS ub
  FROM cellof a JOIN cellof b ON a.grp = b.grp AND a.user_id < b.user_id
),
dab AS (
  SELECT p.ua, p.ub, pa.event_id AS pe,
         MIN((pa.lon - pb.lon) * (pa.lon - pb.lon)
           + (pa.lat - pb.lat) * (pa.lat - pb.lat)) AS mind
  FROM pairs p
  JOIN pts pa ON pa.user_id = p.ua
  JOIN pts pb ON pb.user_id = p.ub
  GROUP BY 1, 2, 3
),
hab AS (SELECT ua, ub, MAX(mind) AS h FROM dab GROUP BY 1, 2),
dba AS (
  SELECT p.ua, p.ub, pb.event_id AS pe,
         MIN((pa.lon - pb.lon) * (pa.lon - pb.lon)
           + (pa.lat - pb.lat) * (pa.lat - pb.lat)) AS mind
  FROM pairs p
  JOIN pts pa ON pa.user_id = p.ua
  JOIN pts pb ON pb.user_id = p.ub
  GROUP BY 1, 2, 3
),
hba AS (SELECT ua, ub, MAX(mind) AS h FROM dba GROUP BY 1, 2)
SELECT hab.ua AS user_a, hab.ub AS user_b,
       CAST(floor(sqrt(GREATEST(hab.h, hba.h)) * 1048576e0 + 0.5e0) AS BIGINT)
         AS hausdorff_q
FROM hab JOIN hba ON hab.ua = hba.ua AND hab.ub = hba.ub
"""


def q_path_selfintersect(sf_dir: str):
    """Trajectory validity gate: per user, the count of PROPER
    self-intersections between non-adjacent legs of the (ts, event_id)-
    ordered path (analytics.path_self_intersections — integer cross
    products over quantized endpoints, exact; strict sign flips, so
    touching is not a crossing). Zero-count users included."""
    from georay import analytics

    return analytics.path_self_intersections(
        _event_points(sf_dir), "user_id", ["ts", "event_id"], "lon", "lat",
    )


SQL_PATH_SELFINTERSECT = f"""
WITH pts AS (
  SELECT user_id, ts, event_id, {EV_LON} AS lon, {EV_LAT} AS lat FROM events
),
seq AS (
  SELECT user_id,
         CAST(floor(lon * 20e0 + 0.5e0) AS BIGINT) AS qx,
         CAST(floor(lat * 20e0 + 0.5e0) AS BIGINT) AS qy,
         ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
  FROM pts
),
seg AS (
  SELECT a.user_id, a.rn AS i, a.qx AS ax, a.qy AS ay,
         b.qx AS bx, b.qy AS b_y
  FROM seq a JOIN seq b ON b.user_id = a.user_id AND b.rn = a.rn + 1
),
x AS (
  SELECT s.user_id, COUNT(*) AS n
  FROM seg s JOIN seg t ON t.user_id = s.user_id AND t.i > s.i + 1
  WHERE ((s.bx - s.ax) * (t.ay - s.ay) - (s.b_y - s.ay) * (t.ax - s.ax))
      * ((s.bx - s.ax) * (t.b_y - s.ay) - (s.b_y - s.ay) * (t.bx - s.ax)) < 0
    AND ((t.bx - t.ax) * (s.ay - t.ay) - (t.b_y - t.ay) * (s.ax - t.ax))
      * ((t.bx - t.ax) * (s.b_y - t.ay) - (t.b_y - t.ay) * (s.bx - t.ax)) < 0
  GROUP BY 1
),
u AS (SELECT DISTINCT user_id FROM pts)
SELECT u.user_id, CAST(COALESCE(x.n, 0) AS BIGINT) AS n_self_crossings
FROM u LEFT JOIN x USING (user_id)
"""


def q_movement_report(sf_dir: str, gate_broadcast_max: int = 2_000_000):
    """END-TO-END movement analytics chain, hash-matched as ONE SQL
    query: per-user path length AND in-rect clipped length (ONE fused
    trajectory pass — trajectory_clip_stats) → dwell gate (users
    spending more than a sixth of their track inside the rect — just
    above the rect's area share, exact integer compare) → semi-filter
    the event stream to those users → 1°-cell origin–destination
    matrix of the survivors. Below ``gate_broadcast_max`` qualifying
    users the set broadcasts as a sorted key array; above it the
    filter auto-switches to ``equi_join_partitioned(how="semi")``
    (only the gated keys shuffle, never the event payload) — the same
    bounded-broadcast/shuffle-fallback pattern as the minhash verify
    stage (stages/dedup.py)."""
    from georay import analytics

    pts = _event_points(sf_dir)
    joined = analytics.trajectory_clip_stats(
        pts, "user_id", "ts", "lon", "lat", rect=_CLIP_RECT,
        tiebreak_col="event_id",
    )

    def gate(batch: pa.Table) -> pa.Table:
        path = batch["path_q"].to_numpy(zero_copy_only=False)
        cq = batch["clip_q"].to_numpy(zero_copy_only=False)
        keep = (path > 0) & (6 * cq > path)
        return pa.table({"user_id": batch["user_id"].filter(pa.array(keep))})

    sel = joined.map_batches(
        gate, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).materialize()
    if sel.count() <= gate_broadcast_max:
        users = np.sort(sel.to_pandas()["user_id"].to_numpy().astype(np.int64))
        fpts = ops.semi_join_filter(pts, "user_id", users)
    else:
        fpts = ops.equi_join_partitioned(pts, sel, on="user_id", how="semi")

    def add_cell(batch: pa.Table) -> pa.Table:
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        cell = (np.floor(lon).astype(np.int64) + 180) * 400 + (
            np.floor(lat).astype(np.int64) + 90
        )
        return batch.append_column("cell", pa.array(cell, pa.int64()))

    fpts = fpts.map_batches(
        add_cell, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return analytics.od_matrix(
        fpts, "user_id", "ts", "cell", tiebreak_col="event_id"
    )


def _movement_report_sql() -> str:
    xmin, ymin, xmax, ymax = (f"{v!r}e0" for v in _CLIP_RECT)
    dx, dy = "(lon - x0)", "(lat - y0)"
    lo_x = f"CASE WHEN {dx} = 0 THEN 0.0e0 ELSE LEAST(({xmin} - x0) / {dx}, ({xmax} - x0) / {dx}) END"
    hi_x = f"CASE WHEN {dx} = 0 THEN 1.0e0 ELSE GREATEST(({xmin} - x0) / {dx}, ({xmax} - x0) / {dx}) END"
    lo_y = f"CASE WHEN {dy} = 0 THEN 0.0e0 ELSE LEAST(({ymin} - y0) / {dy}, ({ymax} - y0) / {dy}) END"
    hi_y = f"CASE WHEN {dy} = 0 THEN 1.0e0 ELSE GREATEST(({ymin} - y0) / {dy}, ({ymax} - y0) / {dy}) END"
    empty = (
        f"({dx} = 0 AND (x0 < {xmin} OR x0 > {xmax})) "
        f"OR ({dy} = 0 AND (y0 < {ymin} OR y0 > {ymax}))"
    )
    frac = (
        f"CASE WHEN {empty} THEN 0.0e0 ELSE GREATEST(0.0e0, "
        f"LEAST(1.0e0, {hi_x}, {hi_y}) - GREATEST(0.0e0, {lo_x}, {lo_y})) END"
    )
    return f"""
WITH pts AS (
  SELECT user_id, ts, event_id, {EV_LON} AS lon, {EV_LAT} AS lat FROM events
),
seq AS (
  SELECT *, ROW_NUMBER() OVER w AS rn,
         LAG(lon) OVER w AS x0, LAG(lat) OVER w AS y0
  FROM pts WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
legs AS (
  SELECT user_id,
         CASE WHEN rn = 1 THEN CAST(0 AS BIGINT)
              ELSE CAST(floor(sqrt({dx}*{dx} + {dy}*{dy}) * 1048576e0
                              + 0.5e0) AS BIGINT) END AS leg_q,
         CASE WHEN rn = 1 THEN CAST(0 AS BIGINT)
              ELSE CAST(floor(sqrt({dx}*{dx} + {dy}*{dy}) * ({frac})
                        * 1048576e0 + 0.5e0) AS BIGINT) END AS clip_q
  FROM seq
),
agg AS (
  SELECT user_id, SUM(leg_q) AS path_q, SUM(clip_q) AS clip_q
  FROM legs GROUP BY user_id
),
sel AS (
  SELECT user_id FROM agg WHERE path_q > 0 AND 6 * clip_q > path_q
),
fp AS (
  SELECT p.user_id, p.ts, p.event_id,
         (CAST(floor(p.lon) AS BIGINT) + 180) * 400
         + (CAST(floor(p.lat) AS BIGINT) + 90) AS cell
  FROM pts p JOIN sel USING (user_id)
),
fseq AS (
  SELECT user_id, cell, LAG(cell) OVER w AS pcell, ROW_NUMBER() OVER w AS rn
  FROM fp WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT pcell AS cell_from, cell AS cell_to, COUNT(*) AS n
FROM fseq WHERE rn > 1 GROUP BY 1, 2
"""


SQL_MOVEMENT_REPORT = _movement_report_sql()


def q_out_of_order(sf_dir: str):
    """Streaming-health metric: per user, events whose timestamp runs
    BACKWARD relative to arrival order (event_id) — the late-data rate
    a watermarking stage must absorb. One user-bucket shuffle, lexsort
    by arrival, vectorized shifted compare."""
    from georay.analytics import _group_starts

    ds = rd.read_parquet(
        _t(sf_dir, "events"), columns=["user_id", "event_id", "ts"]
    )

    def per_bucket(group: pa.Table) -> pa.Table:
        u = group["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        e = group["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        order, starts, gid = _group_starts(u, e, group_keys=1)
        tso = ts[order]
        n = tso.shape[0]
        if n == 0:
            return pa.table(
                {
                    "user_id": pa.array([], pa.int64()),
                    "n_events": pa.array([], pa.int64()),
                    "n_late": pa.array([], pa.int64()),
                }
            )
        first = np.zeros(n, dtype=bool)
        first[starts] = True
        late = np.zeros(n, dtype=np.int64)
        late[1:] = (tso[1:] < tso[:-1]).astype(np.int64)
        late[first] = 0
        return pa.table(
            {
                "user_id": pa.array(u[order][starts], pa.int64()),
                "n_events": pa.array(
                    np.diff(np.append(starts, n)), pa.int64()
                ),
                "n_late": pa.array(np.add.reduceat(late, starts), pa.int64()),
            }
        )

    return exchange.co_shuffle(ds, "user_id", per_bucket, n_buckets=64, coalesce=True)


SQL_OUT_OF_ORDER = """
WITH seq AS (
  SELECT user_id, ts, LAG(ts) OVER w AS pts, ROW_NUMBER() OVER w AS rn
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY event_id)
)
SELECT user_id, COUNT(*) AS n_events,
       CAST(COALESCE(SUM(CASE WHEN rn > 1 AND ts < pts THEN 1 ELSE 0 END), 0)
            AS BIGINT) AS n_late
FROM seq GROUP BY user_id
"""

def q_grouped_moments(sf_dir: str):
    """Per-mktsegment exact moments of customer balances in cents
    (ops.grouped_moments — int64 sum and sum-of-squares through the
    combine tree; variance derives exactly downstream)."""
    ds = rd.read_parquet(
        _t(sf_dir, "customer"), columns=["c_mktsegment", "c_acctbal"]
    )
    return ops.grouped_moments(ds, "c_mktsegment", "c_acctbal", quantize=100.0)


SQL_GROUPED_MOMENTS = """
WITH v AS (
  SELECT c_mktsegment,
         CAST(floor(c_acctbal * 100.0e0 + 0.5e0) AS BIGINT) AS vq
  FROM customer
)
SELECT c_mktsegment, COUNT(*) AS n,
       CAST(SUM(vq) AS BIGINT) AS sum_q,
       CAST(SUM(vq * vq) AS BIGINT) AS sumsq_q
FROM v GROUP BY c_mktsegment
"""

def q_shuffled_layout(sf_dir: str):
    """The training-loader END-TO-END: epoch-shuffle positions
    (``hash_shuffle_rank``) are PERSISTED as a range-clustered layout
    (``write_sorted`` on pos), so a data loader reads any global batch
    window [lo, hi) SEQUENTIALLY from ≤ ⌈window/range⌉ partitions — a
    shuffled corpus with sorted-read I/O. Returns the docs at shuffle
    positions [100, 200); must equal the HUGEINT-mix ROW_NUMBER slice."""
    import shutil
    import tempfile

    from georay import pipeline

    tag = os.path.basename(os.path.normpath(sf_dir))
    root = os.path.join(tempfile.gettempdir(), f"georay_shufl_{tag}")
    if not os.path.exists(os.path.join(root, "_zonemap.json")):
        stage = root + ".build"
        shutil.rmtree(stage, ignore_errors=True)
        shutil.rmtree(root, ignore_errors=True)
        ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])
        pos = ops.hash_shuffle_rank(ds, "doc_id", epoch=1)
        pipeline.write_sorted(pos, stage, "pos", n_ranges=16)
        os.rename(stage, root)
    sl, n_opened, n_total = pipeline.read_range(
        root, 100, 200, columns=["doc_id", "pos"]
    )

    def residual(batch: pa.Table) -> pa.Table:
        p = batch["pos"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array((p >= 100) & (p < 200)))

    return sl.map_batches(residual, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None)


SQL_SHUFFLED_LAYOUT = """
WITH s1 AS (
  SELECT doc_id,
         (CAST(doc_id AS HUGEINT) + 11400714819323198485)
           % 18446744073709551616 AS rid
  FROM documents
),
m1 AS (SELECT doc_id, xor(rid, rid // 8589934592) AS h1 FROM s1),
m2 AS (
  SELECT doc_id,
         ( (h1 % 4294967296) * 18397679294719823053
         + ((h1 // 4294967296) * 18397679294719823053 % 4294967296)
           * 4294967296
         ) % 18446744073709551616 AS h2
  FROM m1
),
hashed AS (SELECT doc_id, xor(h2, h2 // 8589934592) AS h FROM m2),
ranked AS (
  SELECT doc_id,
         CAST(ROW_NUMBER() OVER (ORDER BY h, doc_id) - 1 AS BIGINT) AS pos
  FROM hashed
)
SELECT doc_id, pos FROM ranked WHERE pos >= 100 AND pos < 200
"""


def q_anova(sf_dir: str):
    """One-way ANOVA sufficient statistics for l_quantity across return
    flags — the parametric sibling of ``kruskal``: per group the exact
    int64 (n, Σq, Σq²) AND the within-group numerator
    ``ssw_num = n_g·Σq² − (Σq)²`` (= n_g² · biased variance — exact,
    division-free; F derives downstream in one driver-side float).
    One combine-tree pass; budget n_g·Σq² < 2^63 (holds for any
    bounded-integer measure; use ``grouped_moments``' quantize for
    money columns)."""
    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_returnflag", "l_quantity"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        f = batch["l_returnflag"].to_numpy(zero_copy_only=False)
        v = batch["l_quantity"].to_numpy(zero_copy_only=False)
        q = v.astype(np.int64)
        if not np.all(v == q):
            raise ValueError("anova: non-integral quantity")
        (fk,), outs = ops._group_reduce(
            [f],
            {"n": np.ones(q.shape[0], np.int64), "s": q, "ss": q * q},
        )
        return pa.table(
            {
                "l_returnflag": pa.array(fk),
                "n": pa.array(outs["n"].astype(np.int64), pa.int64()),
                "s": pa.array(outs["s"].astype(np.int64), pa.int64()),
                "ss": pa.array(outs["ss"].astype(np.int64), pa.int64()),
            }
        )

    agg = ops.tree_sum(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        "l_returnflag", {"n": "n_g", "s": "sum_q", "ss": "sumsq_q"},
        int_cols=("n", "s", "ss"),
    )

    def fin(batch: pa.Table) -> pa.Table:
        n = batch["n_g"].to_numpy(zero_copy_only=False)
        s = batch["sum_q"].to_numpy(zero_copy_only=False)
        ss = batch["sumsq_q"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "ssw_num", pa.array(n * ss - s * s, pa.int64())
        )

    return agg.map_batches(fin, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None)


SQL_ANOVA = """
WITH v AS (
  SELECT l_returnflag, CAST(l_quantity AS BIGINT) AS q FROM lineitem
)
SELECT l_returnflag,
       CAST(COUNT(*) AS BIGINT) AS n_g,
       CAST(SUM(q) AS BIGINT) AS sum_q,
       CAST(SUM(q * q) AS BIGINT) AS sumsq_q,
       CAST(COUNT(*) * SUM(q * q) - SUM(q) * SUM(q) AS BIGINT) AS ssw_num
FROM v GROUP BY 1
"""


_SPLIT_FRACS = {"train": 0.8, "val": 0.1, "test": 0.1}


def q_split(sf_dir: str):
    """Deterministic content-hash train/val/test split of lineitem rows
    (80/10/10 via ops.split_dataset), reported as per-split counts —
    the stable-split contract (row order and new data never move old
    rows between splits)."""
    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_linenumber"]
    )

    def add_rid(batch: pa.Table) -> pa.Table:
        ok = batch["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        ln = batch["l_linenumber"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"rid": pa.array(ok * 8 + ln, pa.int64())})

    ds = ds.map_batches(
        add_rid, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    out = ops.split_dataset(ds, "rid", _SPLIT_FRACS)
    return ops.salted_count(out, ["split"], count_alias="n")


def _split_sql() -> str:
    pairs = ops.split_thresholds_sql(_SPLIT_FRACS)
    case = "CASE " + " ".join(
        f"WHEN h < {t}::HUGEINT THEN '{name}'" for name, t in pairs[:-1]
    ) + f" ELSE '{pairs[-1][0]}' END"
    return f"""
WITH ids AS (
  SELECT CAST(l_orderkey * 8 + l_linenumber AS HUGEINT) AS rid FROM lineitem
),
s1 AS (SELECT xor(rid, rid // 8589934592) AS h1 FROM ids),
m1 AS (
  SELECT ( (h1 % 4294967296) * 18397679294719823053
         + ((h1 // 4294967296) * 18397679294719823053 % 4294967296) * 4294967296
         ) % 18446744073709551616 AS h2
  FROM s1
),
hashed AS (SELECT xor(h2, h2 // 8589934592) AS h FROM m1)
SELECT {case} AS split, COUNT(*) AS n FROM hashed GROUP BY 1
"""


SQL_SPLIT = _split_sql()


def q_snapshot_diff(sf_dir: str):
    """Snapshot drift report between two deterministic versions of the
    orders table: v2 drops orderkey % 10 == 0, bumps totalprice where
    orderkey % 7 == 0, and inserts re-keyed copies of orderkey % 13 ==
    0 (ops.snapshot_diff — one key co-shuffle, four-scalar result)."""
    old = rd.read_parquet(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_totalprice"]
    )

    def mk_new(batch: pa.Table) -> pa.Table:
        ok = batch["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        tp = batch["o_totalprice"].to_numpy(zero_copy_only=False)
        keep = ok % 10 != 0
        k1 = ok[keep]
        v1 = np.where(k1 % 7 == 0, tp[keep] + 1.0, tp[keep])
        ins = ok % 13 == 0
        k2 = ok[ins] + 1_000_000_000
        v2 = tp[ins]
        return pa.table(
            {
                "o_orderkey": pa.array(np.concatenate([k1, k2]), pa.int64()),
                "o_totalprice": pa.array(np.concatenate([v1, v2])),
            }
        )

    new = old.map_batches(
        mk_new, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return ops.snapshot_diff(old, new, "o_orderkey", "o_totalprice")


def q_snapshot_changes(sf_dir: str):
    """Row-level CDC feed for the same two synthetic order-table
    versions as snapshot_diff: one (key, change) row per drifted key
    (ops.snapshot_changes)."""
    old = rd.read_parquet(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_totalprice"]
    )

    def mk_new(batch: pa.Table) -> pa.Table:
        ok = batch["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        tp = batch["o_totalprice"].to_numpy(zero_copy_only=False)
        keep = ok % 10 != 0
        k1 = ok[keep]
        v1 = np.where(k1 % 7 == 0, tp[keep] + 1.0, tp[keep])
        ins = ok % 13 == 0
        return pa.table(
            {
                "o_orderkey": pa.array(
                    np.concatenate([k1, ok[ins] + 1_000_000_000]), pa.int64()
                ),
                "o_totalprice": pa.array(np.concatenate([v1, tp[ins]])),
            }
        )

    new = old.map_batches(
        mk_new, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return ops.snapshot_changes(old, new, "o_orderkey", "o_totalprice")


SQL_SNAPSHOT_CHANGES = """
WITH newv AS (
  SELECT o_orderkey AS k,
         CASE WHEN o_orderkey % 7 = 0 THEN o_totalprice + 1.0e0
              ELSE o_totalprice END AS v
  FROM orders WHERE o_orderkey % 10 <> 0
  UNION ALL
  SELECT o_orderkey + 1000000000, o_totalprice
  FROM orders WHERE o_orderkey % 13 = 0
),
oldv AS (SELECT o_orderkey AS k, o_totalprice AS v FROM orders),
j AS (
  SELECT COALESCE(o.k, n.k) AS o_orderkey,
         CASE WHEN o.k IS NULL THEN 'added'
              WHEN n.k IS NULL THEN 'removed'
              WHEN o.v <> n.v THEN 'changed' END AS change
  FROM oldv o FULL OUTER JOIN newv n ON o.k = n.k
)
SELECT o_orderkey, change FROM j WHERE change IS NOT NULL
"""


SQL_SNAPSHOT_DIFF = """
WITH newv AS (
  SELECT o_orderkey AS k,
         CASE WHEN o_orderkey % 7 = 0 THEN o_totalprice + 1.0e0
              ELSE o_totalprice END AS v
  FROM orders WHERE o_orderkey % 10 <> 0
  UNION ALL
  SELECT o_orderkey + 1000000000, o_totalprice
  FROM orders WHERE o_orderkey % 13 = 0
),
oldv AS (SELECT o_orderkey AS k, o_totalprice AS v FROM orders),
j AS (
  SELECT o.k AS ok, n.k AS nk, o.v AS ov, n.v AS nv
  FROM oldv o FULL OUTER JOIN newv n ON o.k = n.k
)
SELECT CAST(COUNT(*) FILTER (ok IS NULL) AS BIGINT) AS n_added,
       CAST(COUNT(*) FILTER (nk IS NULL) AS BIGINT) AS n_removed,
       CAST(COUNT(*) FILTER (ok IS NOT NULL AND nk IS NOT NULL AND ov <> nv)
            AS BIGINT) AS n_changed,
       CAST(COUNT(*) FILTER (ok IS NOT NULL AND nk IS NOT NULL AND ov = nv)
            AS BIGINT) AS n_unchanged
FROM j
"""


def q_mad_outliers(sf_dir: str):
    """Per-user robust outlier counts: events whose value deviates more
    than 3 MAD from the user's median (ops.mad_outliers — two
    histogram-exact quantile passes + a map-side flag)."""
    ds = rd.read_parquet(_t(sf_dir, "events"), columns=["user_id", "value"])
    return ops.mad_outliers(ds, "user_id", "value", k=3.0)


SQL_MAD_OUTLIERS = """
WITH m AS (
  SELECT user_id, quantile_disc(value, 0.5) AS med FROM events GROUP BY user_id
),
d AS (
  SELECT e.user_id, ABS(e.value - m.med) AS dev
  FROM events e JOIN m USING (user_id)
),
md AS (
  SELECT user_id, quantile_disc(dev, 0.5) AS mad FROM d GROUP BY user_id
)
SELECT d.user_id, COUNT(*) AS n,
       CAST(SUM(CASE WHEN d.dev > 3.0e0 * md.mad THEN 1 ELSE 0 END) AS BIGINT)
         AS n_outliers
FROM d JOIN md USING (user_id)
GROUP BY d.user_id
"""


def q_winsorize(sf_dir: str):
    """Per-user winsorized event values (clamped to the user's
    [5%, 95%] disc quantiles — ops.winsorize; histogram-exact bounds
    broadcast, corpus clamps map-side, never shuffles)."""
    ds = rd.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "value"]
    )
    out = ops.winsorize(ds, "user_id", "value", q_lo=0.05, q_hi=0.95)
    return out.select_columns(["event_id", "user_id", "value_w"])


SQL_WINSORIZE = """
WITH b AS (
  SELECT user_id,
         quantile_disc(value, 0.05) AS lo,
         quantile_disc(value, 0.95) AS hi
  FROM events GROUP BY user_id
)
SELECT e.event_id, e.user_id,
       LEAST(GREATEST(e.value, b.lo), b.hi) AS value_w
FROM events e JOIN b USING (user_id)
"""


def q_except_all(sf_dir: str):
    """SQL EXCEPT ALL (bag difference) between two lineitem slices:
    early-shipped (partkey, suppkey) tuples minus returned ones, with
    multiplicities (ops.except_all — counted-multiset plan; duplicates
    never shuffle)."""
    left = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_partkey", "l_suppkey", "l_shipdate"],
    )

    def lf(batch: pa.Table) -> pa.Table:
        sd = batch["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        sub = batch.filter(pa.array(sd < _Y96_LO_US))
        return sub.select(["l_partkey", "l_suppkey"])

    right = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_partkey", "l_suppkey", "l_returnflag"],
    )

    def rf(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pc.equal(batch["l_returnflag"], "R"))
        return sub.select(["l_partkey", "l_suppkey"])

    return ops.except_all(
        left.map_batches(lf, batch_format="pyarrow", zero_copy_batch=True,
                         batch_size=None),
        right.map_batches(rf, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=None),
        ["l_partkey", "l_suppkey"],
    )


SQL_EXCEPT_ALL = f"""
SELECT l_partkey, l_suppkey FROM lineitem WHERE epoch_us(l_shipdate) < {_Y96_LO_US}
EXCEPT ALL
SELECT l_partkey, l_suppkey FROM lineitem WHERE l_returnflag = 'R'
"""


def q_intersect_all(sf_dir: str):
    """SQL INTERSECT ALL (bag intersection) between the same two
    lineitem slices (ops.intersect_all — shared counted-multiset
    plan)."""
    left = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_partkey", "l_suppkey", "l_shipdate"],
    )

    def lf(batch: pa.Table) -> pa.Table:
        sd = batch["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        sub = batch.filter(pa.array(sd < _Y96_LO_US))
        return sub.select(["l_partkey", "l_suppkey"])

    right = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_partkey", "l_suppkey", "l_returnflag"],
    )

    def rf(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pc.equal(batch["l_returnflag"], "R"))
        return sub.select(["l_partkey", "l_suppkey"])

    return ops.intersect_all(
        left.map_batches(lf, batch_format="pyarrow", zero_copy_batch=True,
                         batch_size=None),
        right.map_batches(rf, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=None),
        ["l_partkey", "l_suppkey"],
    )


SQL_INTERSECT_ALL = f"""
SELECT l_partkey, l_suppkey FROM lineitem WHERE epoch_us(l_shipdate) < {_Y96_LO_US}
INTERSECT ALL
SELECT l_partkey, l_suppkey FROM lineitem WHERE l_returnflag = 'R'
"""


def q_gini(sf_dir: str):
    """Exact Gini concentration of customer account balances in cents,
    as a rational (ops.gini_exact — value-histogram combine tree, no
    global sort, no float arithmetic)."""
    ds = rd.read_parquet(_t(sf_dir, "customer"), columns=["c_acctbal"])
    return ops.gini_exact(ds, "c_acctbal", quantize=100.0)


SQL_GINI = """
WITH vals AS (
  SELECT CAST(floor(c_acctbal * 100.0e0 + 0.5e0) AS BIGINT) AS v FROM customer
),
hist AS (SELECT v, COUNT(*) AS c FROM vals GROUP BY v),
runs AS (
  SELECT v, c,
         COALESCE(SUM(c) OVER (ORDER BY v ROWS BETWEEN UNBOUNDED PRECEDING
                               AND 1 PRECEDING), 0) AS rprev
  FROM hist
),
agg AS (
  SELECT SUM(v * (c * rprev + (c * (c + 1)) // 2)) AS w,
         SUM(v * c) AS s, SUM(c) AS n
  FROM runs
)
SELECT CAST(2 * w - (n + 1) * s AS BIGINT) AS gini_num,
       CAST(n * s AS BIGINT) AS gini_den
FROM agg
"""

_KANON_K = 5


def q_k_anonymity(sf_dir: str):
    """Privacy profile of the customer table: equivalence classes of
    the quasi-identifier (nationkey, mktsegment) smaller than k=5, and
    the rows inside them (ops.k_anonymity_stats — combine-tree class
    sizes, two-scalar result)."""
    ds = rd.read_parquet(
        _t(sf_dir, "customer"), columns=["c_nationkey", "c_mktsegment"]
    )
    return ops.k_anonymity_stats(ds, ["c_nationkey", "c_mktsegment"], _KANON_K)


SQL_K_ANONYMITY = f"""
WITH classes AS (
  SELECT COUNT(*) AS class_n FROM customer
  GROUP BY c_nationkey, c_mktsegment
)
SELECT CAST(COUNT(*) FILTER (class_n < {_KANON_K}) AS BIGINT) AS n_small_groups,
       CAST(COALESCE(SUM(class_n) FILTER (class_n < {_KANON_K}), 0) AS BIGINT)
         AS n_rows_at_risk
FROM classes
"""


def q_benford(sf_dir: str):
    """Leading-digit (Benford) histogram of order totals in exact cents
    (ops.digit_histogram — Arrow string-cast digit, no float log10)."""
    ds = rd.read_parquet(_t(sf_dir, "orders"), columns=["o_totalprice"])

    def cents(batch: pa.Table) -> pa.Table:
        p = batch["o_totalprice"].to_numpy(zero_copy_only=False)
        return pa.table(
            {"cents": pa.array(np.floor(p * 100.0 + 0.5).astype(np.int64))}
        )

    ds = ds.map_batches(
        cents, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return ops.digit_histogram(ds, "cents")


SQL_BENFORD = """
SELECT CAST(left(CAST(CAST(floor(o_totalprice * 100.0e0 + 0.5e0) AS BIGINT)
                 AS VARCHAR), 1) AS BIGINT) AS digit,
       COUNT(*) AS n
FROM orders GROUP BY 1
"""

_RASTER_RES = 10.0


def q_rasterize(sf_dir: str):
    """Area-weighted footprint raster: part boxes rasterized onto a 10°
    grid — per cell, overlapping-box count + summed exact intersection
    area (ops.rasterize_boxes — ragged cell expansion, combine-tree
    merge; SQL twin enumerates the same cells with
    unnest(generate_series))."""
    part = rd.read_parquet(_t(sf_dir, "part"), columns=["p_partkey", "p_size"])

    def bounds(batch: pa.Table) -> pa.Table:
        pk = batch["p_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        sz = batch["p_size"].to_numpy(zero_copy_only=False).astype(np.int64)
        cx = ((pk * 17) % 3600) / 10.0 - 180.0 + 0.05
        cy = ((pk * 23) % 1700) / 10.0 - 85.0 + 0.05
        w = (sz % 10) / 2.0 + 0.5
        h = (sz % 7) / 2.0 + 0.5
        return pa.table(
            {
                "xmin": pa.array(cx - w),
                "ymin": pa.array(cy - h),
                "xmax": pa.array(cx + w),
                "ymax": pa.array(cy + h),
            }
        )

    boxes = part.map_batches(
        bounds, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return ops.rasterize_boxes(
        boxes, "xmin", "ymin", "xmax", "ymax", res=_RASTER_RES
    )


SQL_RASTERIZE = f"""
WITH boxes AS (
  SELECT ({PART_CX}) - ({PART_W}) AS xmin,
         ({PART_CY}) - ({PART_H}) AS ymin,
         ({PART_CX}) + ({PART_W}) AS xmax,
         ({PART_CY}) + ({PART_H}) AS ymax
  FROM part
),
rng AS (
  SELECT *,
         CAST(floor((xmin + 180.0) / 10.0) AS BIGINT) AS gx0,
         CAST(floor((xmax + 180.0) / 10.0) AS BIGINT) AS gx1,
         CAST(floor((ymin + 90.0) / 10.0) AS BIGINT) AS gy0,
         CAST(floor((ymax + 90.0) / 10.0) AS BIGINT) AS gy1
  FROM boxes
),
ex AS (SELECT *, unnest(generate_series(gx0, gx1)) AS gx FROM rng),
exy AS (SELECT *, unnest(generate_series(gy0, gy1)) AS gy FROM ex),
cells AS (
  SELECT gx, gy,
         LEAST(xmax, gx * 10.0 - 180.0 + 10.0) - GREATEST(xmin, gx * 10.0 - 180.0) AS ow,
         LEAST(ymax, gy * 10.0 - 90.0 + 10.0) - GREATEST(ymin, gy * 10.0 - 90.0) AS oh
  FROM exy
)
SELECT gx, gy, COUNT(*) AS n_boxes,
       CAST(SUM(CAST(floor(ow * oh * 1048576e0 + 0.5e0) AS BIGINT)) AS BIGINT) AS area_q
FROM cells WHERE ow > 0 AND oh > 0
GROUP BY gx, gy
"""


def part_diamond_polygons(sf_dir: str) -> rd.Dataset:
    """CONVEX non-box polygons for the polyfill family: one CCW diamond
    per part — vertices (cx±w, cy), (cx, cy±h) from the same
    deterministic center/extent arithmetic as ``part_box_polygons``
    (FIXTURES.md F6), built as geoarrow.polygon rings. A Dataset (not a
    broadcast table): polyfill treats polygons as the BIG side."""
    part = rd.read_parquet(_t(sf_dir, "part"), columns=["p_partkey", "p_size"])

    def build(batch: pa.Table) -> pa.Table:
        pk = batch["p_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        sz = batch["p_size"].to_numpy(zero_copy_only=False).astype(np.int64)
        cx = ((pk * 17) % 3600) / 10.0 - 180.0 + 0.05
        cy = ((pk * 23) % 1700) / 10.0 - 85.0 + 0.05
        w = (sz % 10) / 2.0 + 0.5
        h = (sz % 7) / 2.0 + 0.5
        n = len(pk)
        ring = np.empty((n, 5, 2), dtype=np.float64)
        ring[:, 0] = np.column_stack([cx + w, cy])
        ring[:, 1] = np.column_stack([cx, cy + h])
        ring[:, 2] = np.column_stack([cx - w, cy])
        ring[:, 3] = np.column_stack([cx, cy - h])
        ring[:, 4] = ring[:, 0]
        geo = GeoType.polygon(crs="OGC:CRS84")
        geom = native.build_nested(
            ring.reshape(-1, 2),
            [np.arange(n + 1, dtype=np.int64),
             np.arange(0, 5 * n + 1, 5, dtype=np.int64)],
            geo,
        )
        return pa.table(
            {"p_partkey": pa.array(pk), "geometry": geom},
            schema=pa.schema(
                [pa.field("p_partkey", pa.int64()), geo.field("geometry")]
            ),
        )

    return part.map_batches(
        build, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def q_polyfill(sf_dir: str):
    """H3-style polyfill coverage raster: every part diamond expanded to
    its covering 1° cells (ops.polyfill_convex — exact SAT keep over the
    bbox candidate range, stateless flat-map, polygons stream as the
    big side) then a skew-safe per-cell cover count. The SQL twin
    enumerates the same candidates with generate_series and spells the
    identical four GREATEST-of-cross-products edge conditions."""
    dia = part_diamond_polygons(sf_dir)
    pairs = ops.polyfill_convex(
        dia, geometry_col="geometry", id_col="p_partkey", res=1.0
    )
    return ops.salted_count(pairs, "grid_cell", count_alias="n")


def _polyfill_edge_sql(ax: str, ay: str, bx: str, by: str) -> str:
    """One edge's inner-side test: GREATEST over the 4 candidate-rect
    corners of the verbatim cross product the engine computes."""
    corners = [("x0", "y0"), ("x1", "y0"), ("x0", "y1"), ("x1", "y1")]
    terms = ", ".join(
        f"(({bx})-({ax}))*(({py})-({ay})) - (({by})-({ay}))*(({px})-({ax}))"
        for px, py in corners
    )
    return f"GREATEST({terms}) >= 0"


SQL_POLYFILL = f"""
WITH dia AS (
  SELECT ({PART_CX}) AS cx, ({PART_CY}) AS cy,
         ({PART_W}) AS w, ({PART_H}) AS h
  FROM part
),
rng AS (
  SELECT *,
         CAST(floor((cx - w + 180.0) / 1.0) AS BIGINT) AS gx0,
         CAST(floor((cx + w + 180.0) / 1.0) AS BIGINT) AS gx1,
         CAST(floor((cy - h + 90.0) / 1.0) AS BIGINT) AS gy0,
         CAST(floor((cy + h + 90.0) / 1.0) AS BIGINT) AS gy1
  FROM dia
),
ex AS (SELECT *, unnest(generate_series(gx0, gx1)) AS gx FROM rng),
exy AS (SELECT *, unnest(generate_series(gy0, gy1)) AS gy FROM ex),
cand AS (
  SELECT gx, gy,
         gx * 1.0 - 180.0 AS x0, gx * 1.0 - 180.0 + 1.0 AS x1,
         gy * 1.0 - 90.0 AS y0, gy * 1.0 - 90.0 + 1.0 AS y1,
         cx, cy, w, h
  FROM exy
)
SELECT gx * 100000 + gy AS grid_cell, COUNT(*) AS n
FROM cand
WHERE {_polyfill_edge_sql('cx + w', 'cy', 'cx', 'cy + h')}
  AND {_polyfill_edge_sql('cx', 'cy + h', 'cx - w', 'cy')}
  AND {_polyfill_edge_sql('cx - w', 'cy', 'cx', 'cy - h')}
  AND {_polyfill_edge_sql('cx', 'cy - h', 'cx + w', 'cy')}
GROUP BY 1
"""


def q_movement_rose(sf_dir: str):
    """Per-user compass rose over the event stream: movement-leg counts
    per 45° octant (analytics.movement_rose — comparison-only sector
    decision, no atan2, mirrored as a SQL CASE chain)."""
    from georay import analytics

    return analytics.movement_rose(
        _event_points(sf_dir), "user_id", "ts", "lon", "lat",
        tiebreak_col="event_id",
    )


SQL_MOVEMENT_ROSE = f"""
WITH pts AS (
  SELECT user_id, ts, event_id, {EV_LON} AS lon, {EV_LAT} AS lat FROM events
),
seq AS (
  SELECT *, ROW_NUMBER() OVER w AS rn,
         LAG(lon) OVER w AS x0, LAG(lat) OVER w AS y0
  FROM pts WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
legs AS (
  SELECT user_id, (lon - x0) AS dx, (lat - y0) AS dy
  FROM seq WHERE rn > 1 AND NOT (lon - x0 = 0 AND lat - y0 = 0)
)
SELECT user_id,
       CASE
         WHEN dx > 0 AND dy >= 0 AND dx >= dy THEN 0
         WHEN dy > 0 AND dx >= 0 THEN 1
         WHEN dy > 0 AND -dx <= dy THEN 2
         WHEN dy >= 0 THEN 3
         WHEN dx < 0 AND -dx >= -dy THEN 4
         WHEN dx <= 0 THEN 5
         WHEN dx > 0 AND dx <= -dy THEN 6
         ELSE 7 END AS octant,
       COUNT(*) AS n
FROM legs GROUP BY 1, 2
"""



def q_clip_rect(sf_dir: str):
    """Per-user track length INSIDE a geofence rectangle: every
    consecutive-fix leg parametric-slab-clipped to the rect, quantized
    clipped lengths summed per user (analytics.trajectory_clip_rect —
    one user-bucket shuffle, vectorized clip, IEEE ops replicated
    term-for-term in the SQL LAG twin)."""
    from georay import analytics

    return analytics.trajectory_clip_rect(
        _event_points(sf_dir), "user_id", "ts", "lon", "lat",
        rect=_CLIP_RECT, tiebreak_col="event_id",
    )


def _clip_sql() -> str:
    xmin, ymin, xmax, ymax = (f"{v!r}e0" for v in _CLIP_RECT)
    # shared subexpressions, spelled identically to the numpy kernel
    dx, dy = "(lon - x0)", "(lat - y0)"
    lo_x = f"CASE WHEN {dx} = 0 THEN 0.0e0 ELSE LEAST(({xmin} - x0) / {dx}, ({xmax} - x0) / {dx}) END"
    hi_x = f"CASE WHEN {dx} = 0 THEN 1.0e0 ELSE GREATEST(({xmin} - x0) / {dx}, ({xmax} - x0) / {dx}) END"
    lo_y = f"CASE WHEN {dy} = 0 THEN 0.0e0 ELSE LEAST(({ymin} - y0) / {dy}, ({ymax} - y0) / {dy}) END"
    hi_y = f"CASE WHEN {dy} = 0 THEN 1.0e0 ELSE GREATEST(({ymin} - y0) / {dy}, ({ymax} - y0) / {dy}) END"
    empty = (
        f"({dx} = 0 AND (x0 < {xmin} OR x0 > {xmax})) "
        f"OR ({dy} = 0 AND (y0 < {ymin} OR y0 > {ymax}))"
    )
    frac = (
        f"CASE WHEN {empty} THEN 0.0e0 ELSE GREATEST(0.0e0, "
        f"LEAST(1.0e0, {hi_x}, {hi_y}) - GREATEST(0.0e0, {lo_x}, {lo_y})) END"
    )
    return f"""
WITH pts AS (
  SELECT user_id, ts, event_id, {EV_LON} AS lon, {EV_LAT} AS lat FROM events
),
seq AS (
  SELECT *, ROW_NUMBER() OVER w AS rn,
         LAG(lon) OVER w AS x0, LAG(lat) OVER w AS y0
  FROM pts WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
legs AS (
  SELECT user_id,
         CASE WHEN rn = 1 THEN CAST(0 AS BIGINT)
              ELSE CAST(floor(sqrt({dx}*{dx} + {dy}*{dy}) * ({frac})
                        * 1048576e0 + 0.5e0) AS BIGINT) END AS clip_q
  FROM seq
)
SELECT user_id, COUNT(*) AS n_points,
       CAST(SUM(clip_q) AS BIGINT) AS clip_q
FROM legs GROUP BY user_id
"""


SQL_CLIP_RECT = _clip_sql()


_SPEED_VQ = 5800  # quantized-units/second (~the synthetic median speed)


def q_speeding(sf_dir: str):
    """Movement QA — per user: total legs, legs exceeding the speed
    limit, and the max quantized leg length among violations. Speed
    compares EXACTLY in int64: a leg violates iff ``dt_s > 0 AND
    leg_q > VQ·dt_s`` (leg_q the movement family's 2^20-quantized
    length, dt floored to whole seconds — both sides define the
    predicate identically; zero-duration legs have undefined speed and
    are excluded). One user-bucket shuffle, vectorized legs."""
    ds = _event_points(sf_dir)

    def per_bucket(group: pa.Table) -> pa.Table:
        from georay.analytics import _group_starts

        u = group["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        e = group["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order, starts, _ = _group_starts(u, ts, e, group_keys=1)
        lon = group["lon"].to_numpy(zero_copy_only=False)[order]
        lat = group["lat"].to_numpy(zero_copy_only=False)[order]
        tss = ts[order]
        n = lon.shape[0]
        if n == 0:
            return pa.table(
                {"user_id": pa.array([], pa.int64()),
                 "n_legs": pa.array([], pa.int64()),
                 "n_speeding": pa.array([], pa.int64()),
                 "max_leg_q": pa.array([], pa.int64())}
            )
        first = np.zeros(n, dtype=bool)
        first[starts] = True
        x0 = np.empty(n); y0 = np.empty(n)
        x0[1:] = lon[:-1]; y0[1:] = lat[:-1]
        x0[first] = lon[first]; y0[first] = lat[first]
        t0 = np.empty(n, np.int64)
        t0[1:] = tss[:-1]
        t0[first] = tss[first]
        dxy = np.sqrt((lon - x0) ** 2 + (lat - y0) ** 2)
        leg_q = np.floor(dxy * 1048576.0 + 0.5).astype(np.int64)
        dt_s = (tss - t0) // 1_000_000
        is_leg = ~first
        viol = is_leg & (dt_s > 0) & (leg_q > _SPEED_VQ * dt_s)
        counts = np.diff(np.append(starts, n))
        nv = np.add.reduceat(viol.astype(np.int64), starts)
        mx = np.maximum.reduceat(np.where(viol, leg_q, 0), starts)
        return pa.table(
            {
                "user_id": pa.array(u[order][starts], pa.int64()),
                "n_legs": pa.array(counts - 1, pa.int64()),
                "n_speeding": pa.array(nv, pa.int64()),
                "max_leg_q": pa.array(mx, pa.int64()),
            }
        )

    return exchange.co_shuffle(
        ds.select_columns(["user_id", "ts", "event_id", "lon", "lat"]),
        "user_id", per_bucket, n_buckets=64, coalesce=True,
    )


SQL_SPEEDING = f"""
WITH pts AS (
  SELECT user_id, ts, event_id, {EV_LON} AS lon, {EV_LAT} AS lat FROM events
),
seq AS (
  SELECT *, ROW_NUMBER() OVER w AS rn,
         LAG(lon) OVER w AS x0, LAG(lat) OVER w AS y0,
         (epoch_us(ts) - LAG(epoch_us(ts)) OVER w) // 1000000 AS dt_s
  FROM pts WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
legs AS (
  SELECT user_id, rn,
         CASE WHEN rn = 1 THEN CAST(0 AS BIGINT)
              ELSE CAST(floor(sqrt((lon - x0)*(lon - x0)
                                 + (lat - y0)*(lat - y0)) * 1048576e0
                              + 0.5e0) AS BIGINT) END AS leg_q,
         dt_s
  FROM seq
),
v AS (
  SELECT user_id, rn, leg_q,
         (rn > 1 AND dt_s > 0 AND leg_q > {_SPEED_VQ} * dt_s) AS viol
  FROM legs
)
SELECT user_id, CAST(COUNT(*) - 1 AS BIGINT) AS n_legs,
       CAST(COALESCE(SUM(CASE WHEN viol THEN 1 ELSE 0 END), 0) AS BIGINT)
         AS n_speeding,
       CAST(COALESCE(MAX(CASE WHEN viol THEN leg_q ELSE 0 END), 0) AS BIGINT)
         AS max_leg_q
FROM v GROUP BY user_id
"""


def q_zone_dwell(sf_dir: str):
    """Per-user TIME inside the geofence rectangle (linear-motion
    leg-fraction × elapsed µs, analytics.zone_dwell_time — the temporal
    sibling of ``clip_rect`` with the identical slab-clip fractions)."""
    from georay import analytics

    return analytics.zone_dwell_time(
        _event_points(sf_dir), "user_id", "ts", "lon", "lat",
        rect=_CLIP_RECT, tiebreak_col="event_id",
    )


def _dwell_sql() -> str:
    xmin, ymin, xmax, ymax = (f"{v!r}e0" for v in _CLIP_RECT)
    dx, dy = "(lon - x0)", "(lat - y0)"
    lo_x = f"CASE WHEN {dx} = 0 THEN 0.0e0 ELSE LEAST(({xmin} - x0) / {dx}, ({xmax} - x0) / {dx}) END"
    hi_x = f"CASE WHEN {dx} = 0 THEN 1.0e0 ELSE GREATEST(({xmin} - x0) / {dx}, ({xmax} - x0) / {dx}) END"
    lo_y = f"CASE WHEN {dy} = 0 THEN 0.0e0 ELSE LEAST(({ymin} - y0) / {dy}, ({ymax} - y0) / {dy}) END"
    hi_y = f"CASE WHEN {dy} = 0 THEN 1.0e0 ELSE GREATEST(({ymin} - y0) / {dy}, ({ymax} - y0) / {dy}) END"
    empty = (
        f"({dx} = 0 AND (x0 < {xmin} OR x0 > {xmax})) "
        f"OR ({dy} = 0 AND (y0 < {ymin} OR y0 > {ymax}))"
    )
    frac = (
        f"CASE WHEN {empty} THEN 0.0e0 ELSE GREATEST(0.0e0, "
        f"LEAST(1.0e0, {hi_x}, {hi_y}) - GREATEST(0.0e0, {lo_x}, {lo_y})) END"
    )
    return f"""
WITH pts AS (
  SELECT user_id, ts, event_id, {EV_LON} AS lon, {EV_LAT} AS lat FROM events
),
seq AS (
  SELECT *, ROW_NUMBER() OVER w AS rn,
         LAG(lon) OVER w AS x0, LAG(lat) OVER w AS y0,
         epoch_us(ts) - LAG(epoch_us(ts)) OVER w AS dt
  FROM pts WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
legs AS (
  SELECT user_id,
         CASE WHEN rn = 1 THEN CAST(0 AS BIGINT)
              ELSE CAST(floor(CAST(dt AS DOUBLE) * ({frac}) + 0.5e0)
                        AS BIGINT) END AS dwell_us
  FROM seq
)
SELECT user_id, COUNT(*) AS n_points,
       CAST(SUM(dwell_us) AS BIGINT) AS dwell_us
FROM legs GROUP BY user_id
"""


SQL_ZONE_DWELL = _dwell_sql()


def q_path_midpoint(sf_dir: str):
    """Per-user linear-interpolated point at HALF the cumulative track
    length (analytics.trajectory_midpoint — integer-quantized legs so
    the running sum is window-implementation-independent, then an IEEE
    lerp the SQL twin replicates exactly)."""
    from georay import analytics

    return analytics.trajectory_midpoint(
        _event_points(sf_dir), "user_id", "ts", "lon", "lat",
        tiebreak_col="event_id",
    )


SQL_PATH_MIDPOINT = f"""
WITH pts AS (
  SELECT user_id, ts, event_id, {EV_LON} AS lon, {EV_LAT} AS lat FROM events
),
seq AS (
  SELECT *, ROW_NUMBER() OVER w AS rn,
         LAG(lon) OVER w AS x0, LAG(lat) OVER w AS y0
  FROM pts WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
legs AS (
  SELECT user_id, rn, lon, lat, x0, y0,
         CASE WHEN rn = 1 THEN CAST(0 AS BIGINT)
              ELSE CAST(floor(sqrt((lon - x0)*(lon - x0)
                                 + (lat - y0)*(lat - y0)) * 1048576e0
                              + 0.5e0) AS BIGINT) END AS leg_q
  FROM seq
),
cums AS (
  SELECT *,
         SUM(leg_q) OVER (PARTITION BY user_id ORDER BY rn
                          ROWS UNBOUNDED PRECEDING) AS cum_q,
         SUM(leg_q) OVER (PARTITION BY user_id) AS tot_q
  FROM legs
),
sel AS (
  SELECT user_id,
         MIN(rn) FILTER (leg_q > 0 AND cum_q >= tot_q // 2) AS pick
  FROM cums GROUP BY user_id
),
firsts AS (
  SELECT user_id, lon AS fx, lat AS fy FROM cums WHERE rn = 1
)
SELECT c.user_id,
       CAST(floor((CASE WHEN s.pick IS NULL THEN f.fx
             ELSE c.x0 + ((c.tot_q // 2 - (c.cum_q - c.leg_q)) / c.leg_q)
                  * (c.lon - c.x0) END) * 1048576e0 + 0.5e0) AS BIGINT)
         AS mid_x_q,
       CAST(floor((CASE WHEN s.pick IS NULL THEN f.fy
             ELSE c.y0 + ((c.tot_q // 2 - (c.cum_q - c.leg_q)) / c.leg_q)
                  * (c.lat - c.y0) END) * 1048576e0 + 0.5e0) AS BIGINT)
         AS mid_y_q
FROM sel s
JOIN firsts f ON f.user_id = s.user_id
JOIN cums c ON c.user_id = s.user_id AND c.rn = COALESCE(s.pick, 1)
"""


def _supplier_segments(sf_dir: str) -> pa.Table:
    """Synthetic polyline network: consecutive suppliers (by s_suppkey)
    chained into segments, zero-length pairs dropped; seg_id = the
    lower supplier key. Mirrors the LEAD-window SQL in SQL_SNAP_JOIN."""
    sx, sy, sk = supplier_points(sf_dir)
    order = np.argsort(sk, kind="stable")
    sx, sy, sk = sx[order], sy[order], sk[order]
    ax, ay, bx, by = sx[:-1], sy[:-1], sx[1:], sy[1:]
    keep = ~((ax == bx) & (ay == by))
    return pa.table(
        {
            "seg_id": pa.array(sk[:-1][keep], pa.int64()),
            "ax": pa.array(ax[keep]),
            "ay": pa.array(ay[keep]),
            "bx": pa.array(bx[keep]),
            "by": pa.array(by[keep]),
        }
    )


def q_snap_join(sf_dir: str):
    """Map-matching: every first-line lineitem point snapped to the
    nearest segment of the supplier polyline chain
    (joins.nearest_segment_join — broadcast segments, blocked
    running-min probe, no shuffle). Ties by ascending seg_id; the SQL
    twin is a cross join + ROW_NUMBER argmin over the identical IEEE
    distance expression."""
    from georay import joins

    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_partkey", "l_suppkey", "l_linenumber"],
    )

    def prep(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pc.equal(batch["l_linenumber"], 1))
        ok = sub["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        pk = sub["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        sk = sub["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        ln = sub["l_linenumber"].to_numpy(zero_copy_only=False).astype(np.int64)
        lon, lat = _li_lonlat(ok, pk, sk, ln)
        return pa.table(
            {
                "l_orderkey": sub["l_orderkey"],
                "l_partkey": sub["l_partkey"],
                "l_suppkey": sub["l_suppkey"],
                "lon": pa.array(lon),
                "lat": pa.array(lat),
            }
        )

    pts = ds.map_batches(
        prep, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    out = joins.nearest_segment_join(pts, _supplier_segments(sf_dir))
    return out.map_batches(
        lambda b: b.drop_columns(["lon", "lat"]),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )


SQL_SNAP_JOIN = f"""
WITH sp AS (
  SELECT s_suppkey,
         ((s_suppkey * 41) % 3600) / 10.0 - 180.0 + 0.05 AS sx,
         ((s_suppkey * 59) % 1700) / 10.0 - 85.0 + 0.05 AS sy
  FROM supplier
),
seq AS (
  SELECT s_suppkey, sx, sy,
         LEAD(s_suppkey) OVER w AS nk,
         LEAD(sx) OVER w AS nx, LEAD(sy) OVER w AS ny
  FROM sp WINDOW w AS (ORDER BY s_suppkey)
),
segs AS (
  SELECT s_suppkey AS seg_id, sx AS ax, sy AS ay, nx AS bx, ny AS by
  FROM seq WHERE nk IS NOT NULL AND NOT (nx = sx AND ny = sy)
),
pts AS (
  SELECT l_orderkey, l_partkey, l_suppkey, {LI_LON} AS px, {LI_LAT} AS py
  FROM lineitem WHERE l_linenumber = 1
),
cand AS (
  SELECT p.l_orderkey, p.l_partkey, p.l_suppkey, s.seg_id,
         (p.px - (s.ax + LEAST(1.0e0, GREATEST(0.0e0,
             ((p.px - s.ax) * (s.bx - s.ax) + (p.py - s.ay) * (s.by - s.ay))
             / ((s.bx - s.ax) * (s.bx - s.ax) + (s.by - s.ay) * (s.by - s.ay))
           )) * (s.bx - s.ax)))
         * (p.px - (s.ax + LEAST(1.0e0, GREATEST(0.0e0,
             ((p.px - s.ax) * (s.bx - s.ax) + (p.py - s.ay) * (s.by - s.ay))
             / ((s.bx - s.ax) * (s.bx - s.ax) + (s.by - s.ay) * (s.by - s.ay))
           )) * (s.bx - s.ax)))
         + (p.py - (s.ay + LEAST(1.0e0, GREATEST(0.0e0,
             ((p.px - s.ax) * (s.bx - s.ax) + (p.py - s.ay) * (s.by - s.ay))
             / ((s.bx - s.ax) * (s.bx - s.ax) + (s.by - s.ay) * (s.by - s.ay))
           )) * (s.by - s.ay)))
         * (p.py - (s.ay + LEAST(1.0e0, GREATEST(0.0e0,
             ((p.px - s.ax) * (s.bx - s.ax) + (p.py - s.ay) * (s.by - s.ay))
             / ((s.bx - s.ax) * (s.bx - s.ax) + (s.by - s.ay) * (s.by - s.ay))
           )) * (s.by - s.ay))) AS d2
  FROM pts p CROSS JOIN segs s
),
best AS (
  SELECT l_orderkey, l_partkey, l_suppkey, seg_id, d2,
         ROW_NUMBER() OVER (PARTITION BY l_orderkey, l_partkey, l_suppkey
                            ORDER BY d2, seg_id) AS rn
  FROM cand
)
SELECT l_orderkey, l_partkey, l_suppkey, seg_id,
       CAST(floor(d2 * 1048576e0 + 0.5e0) AS BIGINT) AS d2_q
FROM best WHERE rn = 1
"""

def q_nearest_geodesic(sf_dir: str):
    """Geodesic nearest-supplier assignment: every first-line lineitem
    point snapped to the supplier minimizing GREAT-CIRCLE distance
    (joins.nearest_geodesic_join — broadcast refs, blocked running-min
    on milli-km-quantized haversine so near-ties are engine-stable)."""
    from georay import joins

    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_partkey", "l_suppkey", "l_linenumber"],
    )

    def prep(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pc.equal(batch["l_linenumber"], 1))
        ok = sub["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        pk = sub["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        sk = sub["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        ln = sub["l_linenumber"].to_numpy(zero_copy_only=False).astype(np.int64)
        lon, lat = _li_lonlat(ok, pk, sk, ln)
        return pa.table(
            {
                "l_orderkey": sub["l_orderkey"],
                "l_partkey": sub["l_partkey"],
                "l_suppkey": sub["l_suppkey"],
                "lon": pa.array(lon),
                "lat": pa.array(lat),
            }
        )

    pts = ds.map_batches(
        prep, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    sx, sy, sk = supplier_points(sf_dir)
    out = joins.nearest_geodesic_join(
        pts, sx, sy, sk, out_id="nearest_supp", out_d="d_mkm"
    )
    return out.map_batches(
        lambda b: b.drop_columns(["lon", "lat"]),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )


SQL_NEAREST_GEODESIC = f"""
WITH sp AS (
  SELECT s_suppkey,
         radians(((s_suppkey * 41) % 3600) / 10.0 - 180.0 + 0.05) AS rl2,
         radians(((s_suppkey * 59) % 1700) / 10.0 - 85.0 + 0.05) AS rp2
  FROM supplier
),
pts AS (
  SELECT l_orderkey, l_partkey, l_suppkey,
         radians({LI_LON}) AS rl1, radians({LI_LAT}) AS rp1
  FROM lineitem WHERE l_linenumber = 1
),
cand AS (
  SELECT p.l_orderkey, p.l_partkey, p.l_suppkey, s.s_suppkey,
         CAST(floor(2.0 * 6371.0088 * asin(sqrt(least(
             sin((s.rp2 - p.rp1) / 2.0) * sin((s.rp2 - p.rp1) / 2.0)
           + cos(p.rp1) * cos(s.rp2)
             * sin((s.rl2 - p.rl1) / 2.0) * sin((s.rl2 - p.rl1) / 2.0)
         , 1.0))) * 1000.0e0 + 0.5e0) AS BIGINT) AS d_mkm
  FROM pts p CROSS JOIN sp s
),
best AS (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY l_orderkey, l_partkey, l_suppkey
                               ORDER BY d_mkm, s_suppkey) AS rn
  FROM cand
)
SELECT l_orderkey, l_partkey, l_suppkey,
       s_suppkey AS nearest_supp, d_mkm
FROM best WHERE rn = 1
"""

def q_knn_geodesic(sf_dir: str):
    """Geodesic 3-nearest suppliers per first-line lineitem point
    (joins.knn_geodesic_join — packed (quantized-distance, id) order
    keys make the top-k engine-stable)."""
    from georay import joins

    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_partkey", "l_suppkey", "l_linenumber"],
    )

    def prep(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pc.equal(batch["l_linenumber"], 1))
        ok = sub["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        pk = sub["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        sk = sub["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        ln = sub["l_linenumber"].to_numpy(zero_copy_only=False).astype(np.int64)
        lon, lat = _li_lonlat(ok, pk, sk, ln)
        return pa.table(
            {
                "l_orderkey": sub["l_orderkey"],
                "l_partkey": sub["l_partkey"],
                "l_suppkey": sub["l_suppkey"],
                "lon": pa.array(lon),
                "lat": pa.array(lat),
            }
        )

    pts = ds.map_batches(
        prep, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    sx, sy, sk = supplier_points(sf_dir)
    out = joins.knn_geodesic_join(
        pts, sx, sy, sk, k=3, out_id="nearest_supp", out_d="d_mkm"
    )
    return out.map_batches(
        lambda b: b.drop_columns(["lon", "lat"]),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )


SQL_KNN_GEODESIC = f"""
WITH sp AS (
  SELECT s_suppkey,
         radians(((s_suppkey * 41) % 3600) / 10.0 - 180.0 + 0.05) AS rl2,
         radians(((s_suppkey * 59) % 1700) / 10.0 - 85.0 + 0.05) AS rp2
  FROM supplier
),
pts AS (
  SELECT l_orderkey, l_partkey, l_suppkey,
         radians({LI_LON}) AS rl1, radians({LI_LAT}) AS rp1
  FROM lineitem WHERE l_linenumber = 1
),
cand AS (
  SELECT p.l_orderkey, p.l_partkey, p.l_suppkey, s.s_suppkey,
         CAST(floor(2.0 * 6371.0088 * asin(sqrt(least(
             sin((s.rp2 - p.rp1) / 2.0) * sin((s.rp2 - p.rp1) / 2.0)
           + cos(p.rp1) * cos(s.rp2)
             * sin((s.rl2 - p.rl1) / 2.0) * sin((s.rl2 - p.rl1) / 2.0)
         , 1.0))) * 1000.0e0 + 0.5e0) AS BIGINT) AS d_mkm
  FROM pts p CROSS JOIN sp s
),
best AS (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY l_orderkey, l_partkey, l_suppkey
                               ORDER BY d_mkm, s_suppkey) AS rank
  FROM cand
)
SELECT l_orderkey, l_partkey, l_suppkey,
       s_suppkey AS nearest_supp, d_mkm, rank
FROM best WHERE rank <= 3
"""


def _geo_part_probe_refs(sf_dir: str):
    """Part probes + supplier refs as lon/lat DATASETS for the
    both-sides-large geodesic twins."""
    import pyarrow.parquet as pq

    t = pq.read_table(_t(sf_dir, "part"), columns=["p_partkey"])
    pk = t["p_partkey"].to_numpy().astype(np.int64)
    probes = rd.from_arrow(pa.table({
        "p_partkey": pa.array(pk, pa.int64()),
        "lon": pa.array(((pk * 17) % 3600) / 10.0 - 180.0 + 0.05),
        "lat": pa.array(((pk * 23) % 1700) / 10.0 - 85.0 + 0.05),
    }))
    sx, sy, sk = supplier_points(sf_dir)
    refs = rd.from_arrow(pa.table({
        "s_suppkey": pa.array(sk, pa.int64()),
        "lon": pa.array(sx), "lat": pa.array(sy),
    }))
    return probes, refs


def q_knn_geodesic_partitioned(sf_dir: str):
    """The SAME geodesic kNN as knn_geodesic, executed by the
    both-sides-large co-partitioned strategy (driver-free in-band-state
    ring co-shuffle with the pole-safe stopping bound + lat-band polar
    stall finish — joins.knn_geodesic_partitioned); closes the twin
    matrix's last broadcast-only row. Part probes vs supplier refs so
    the probe id is a single key the SQL twin can PARTITION BY."""
    from georay import joins

    probes, refs = _geo_part_probe_refs(sf_dir)
    return joins.knn_geodesic_partitioned(
        probes, refs, k=KNN_K, probe_id_col="p_partkey",
        ref_id_col="s_suppkey",
    )


def q_nearest_geodesic_partitioned(sf_dir: str):
    """Both-sides-large geodesic NEAREST twin (k=1 plan of
    joins.knn_geodesic_partitioned, rank dropped)."""
    from georay import joins

    probes, refs = _geo_part_probe_refs(sf_dir)
    return joins.nearest_geodesic_partitioned(
        probes, refs, probe_id_col="p_partkey", ref_id_col="s_suppkey",
    )


_GEO_PART_CAND = f"""
WITH sp AS (
  SELECT s_suppkey,
         radians({SUPP_SX}) AS rl2,
         radians({SUPP_SY}) AS rp2
  FROM supplier
),
pts AS (
  SELECT p_partkey,
         radians({PART_CX}) AS rl1, radians({PART_CY}) AS rp1
  FROM part
),
cand AS (
  SELECT p.p_partkey, s.s_suppkey,
         CAST(floor(2.0 * 6371.0088 * asin(sqrt(least(
             sin((s.rp2 - p.rp1) / 2.0) * sin((s.rp2 - p.rp1) / 2.0)
           + cos(p.rp1) * cos(s.rp2)
             * sin((s.rl2 - p.rl1) / 2.0) * sin((s.rl2 - p.rl1) / 2.0)
         , 1.0))) * 1000.0e0 + 0.5e0) AS BIGINT) AS d_mkm
  FROM pts p CROSS JOIN sp s
),
best AS (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY p_partkey
                               ORDER BY d_mkm, s_suppkey) AS rank
  FROM cand
)
"""

SQL_KNN_GEODESIC_PART = (
    _GEO_PART_CAND
    + f"""
SELECT p_partkey, s_suppkey, d_mkm, rank
FROM best WHERE rank <= {KNN_K}
"""
)

SQL_NEAREST_GEODESIC_PART = (
    _GEO_PART_CAND
    + """
SELECT p_partkey, s_suppkey, d_mkm
FROM best WHERE rank = 1
"""
)

_SNAP_RADIUS = 30.0


def q_snap_partitioned(sf_dir: str):
    """Both-sides-large snap join: first-line lineitem points against
    per-supplier stub segments (short, locally bounded — the
    partitioned plan's intended corpus shape), bounded search radius
    (joins.nearest_segment_join_partitioned — grid co-shuffle, bucket
    blocked argmin, group-top-1 merge on (d2 bits, seg_id)). Points
    whose nearest stub is beyond the radius drop on BOTH sides. The
    probe id packs the unique lineitem triple so the SQL twin can
    reproduce it."""
    from georay import joins

    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_partkey", "l_suppkey", "l_linenumber"],
    )

    def prep(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pc.equal(batch["l_linenumber"], 1))
        ok = sub["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        pk = sub["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        sk = sub["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        ln = sub["l_linenumber"].to_numpy(zero_copy_only=False).astype(np.int64)
        lon, lat = _li_lonlat(ok, pk, sk, ln)
        pid = (ok * 100000 + pk) * 10000 + sk
        return pa.table(
            {
                "pid": pa.array(pid, pa.int64()),
                "lon": pa.array(lon),
                "lat": pa.array(lat),
            }
        )

    pts = ds.map_batches(
        prep, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    sx, sy, sk = supplier_points(sf_dir)
    segs = pa.table(
        {
            "seg_id": pa.array(sk, pa.int64()),
            "ax": pa.array(sx),
            "ay": pa.array(sy),
            "bx": pa.array(sx + 0.5),
            "by": pa.array(sy + (sk % 3) * 0.4 - 0.4),
        }
    )
    return joins.nearest_segment_join_partitioned(
        pts, rd.from_arrow(segs), _SNAP_RADIUS, point_id_col="pid"
    )


SQL_SNAP_PARTITIONED = f"""
WITH segs AS (
  SELECT s_suppkey AS seg_id,
         ((s_suppkey * 41) % 3600) / 10.0 - 180.0 + 0.05 AS ax,
         ((s_suppkey * 59) % 1700) / 10.0 - 85.0 + 0.05 AS ay,
         ((s_suppkey * 41) % 3600) / 10.0 - 180.0 + 0.05 + 0.5 AS bx,
         ((s_suppkey * 59) % 1700) / 10.0 - 85.0 + 0.05
           + (s_suppkey % 3) * 0.4 - 0.4 AS by
  FROM supplier
),
pts AS (
  SELECT (l_orderkey * 100000 + l_partkey) * 10000 + l_suppkey AS pid,
         {LI_LON} AS px, {LI_LAT} AS py
  FROM lineitem WHERE l_linenumber = 1
),
cand AS (
  SELECT p.pid, s.seg_id,
         (p.px - (s.ax + LEAST(1.0e0, GREATEST(0.0e0,
             ((p.px - s.ax) * (s.bx - s.ax) + (p.py - s.ay) * (s.by - s.ay))
             / ((s.bx - s.ax) * (s.bx - s.ax) + (s.by - s.ay) * (s.by - s.ay))
           )) * (s.bx - s.ax)))
         * (p.px - (s.ax + LEAST(1.0e0, GREATEST(0.0e0,
             ((p.px - s.ax) * (s.bx - s.ax) + (p.py - s.ay) * (s.by - s.ay))
             / ((s.bx - s.ax) * (s.bx - s.ax) + (s.by - s.ay) * (s.by - s.ay))
           )) * (s.bx - s.ax)))
         + (p.py - (s.ay + LEAST(1.0e0, GREATEST(0.0e0,
             ((p.px - s.ax) * (s.bx - s.ax) + (p.py - s.ay) * (s.by - s.ay))
             / ((s.bx - s.ax) * (s.bx - s.ax) + (s.by - s.ay) * (s.by - s.ay))
           )) * (s.by - s.ay)))
         * (p.py - (s.ay + LEAST(1.0e0, GREATEST(0.0e0,
             ((p.px - s.ax) * (s.bx - s.ax) + (p.py - s.ay) * (s.by - s.ay))
             / ((s.bx - s.ax) * (s.bx - s.ax) + (s.by - s.ay) * (s.by - s.ay))
           )) * (s.by - s.ay))) AS d2
  FROM pts p CROSS JOIN segs s
),
best AS (
  SELECT pid, seg_id, d2,
         ROW_NUMBER() OVER (PARTITION BY pid ORDER BY d2, seg_id) AS rn
  FROM cand WHERE d2 <= {_SNAP_RADIUS!r} * {_SNAP_RADIUS!r}
)
SELECT pid, seg_id,
       CAST(floor(d2 * 1048576e0 + 0.5e0) AS BIGINT) AS d2_q
FROM best WHERE rn = 1
"""


def q_od_matrix(sf_dir: str):
    """Origin–destination transition matrix between 1° grid cells over
    the event stream (analytics.od_matrix; one user-bucket shuffle +
    combine tree)."""
    from georay import analytics

    pts = _event_points(sf_dir)

    def add_cell(batch: pa.Table) -> pa.Table:
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        cell = (np.floor(lon).astype(np.int64) + 180) * 400 + (
            np.floor(lat).astype(np.int64) + 90
        )
        return batch.append_column("cell", pa.array(cell, pa.int64()))

    pts = pts.map_batches(
        add_cell, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return analytics.od_matrix(
        pts, "user_id", "ts", "cell", tiebreak_col="event_id"
    )


SQL_OD_MATRIX = f"""
WITH pts AS (
  SELECT user_id, ts, event_id,
         (CAST(floor({EV_LON}) AS BIGINT) + 180) * 400
         + (CAST(floor({EV_LAT}) AS BIGINT) + 90) AS cell
  FROM events
),
seq AS (
  SELECT user_id, cell, LAG(cell) OVER w AS pcell,
         ROW_NUMBER() OVER w AS rn
  FROM pts WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT pcell AS cell_from, cell AS cell_to, COUNT(*) AS n
FROM seq WHERE rn > 1 GROUP BY 1, 2
"""

_EVENT_TYPE_IDS = {"signup": 0, "view": 1, "click": 2, "purchase": 3, "error": 4}


def q_event_flow(sf_dir: str):
    """Process-mining direct-follow matrix: counts of consecutive
    event-type transitions per the user timeline — the od_matrix
    machinery applied to the TYPE dimension (a fixed dictionary maps
    the five types to ids; the SQL twin uses the same CASE map)."""
    from georay import analytics

    ds = rd.read_parquet(
        _t(sf_dir, "events"), columns=["user_id", "ts", "event_id", "event_type"]
    )
    tset = pa.array(list(_EVENT_TYPE_IDS), pa.string())
    tids = pa.array(list(_EVENT_TYPE_IDS.values()), pa.int64())

    def encode(batch: pa.Table) -> pa.Table:
        pos = pc.index_in(batch["event_type"], value_set=tset)
        return pa.table(
            {
                "user_id": batch["user_id"],
                "ts": batch["ts"],
                "event_id": batch["event_id"],
                "cell": pc.take(tids, pos),
            }
        )

    enc = ds.map_batches(
        encode, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    out = analytics.od_matrix(enc, "user_id", "ts", "cell", tiebreak_col="event_id")
    return out.map_batches(
        lambda b: b.rename_columns(["type_from", "type_to", "n"]),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )


def _type_case(col: str) -> str:
    return (
        "CASE " + " ".join(
            f"WHEN {col} = '{t}' THEN {i}" for t, i in _EVENT_TYPE_IDS.items()
        ) + " END"
    )


SQL_EVENT_FLOW = f"""
WITH seq AS (
  SELECT user_id, {_type_case('event_type')} AS t,
         LAG({_type_case('event_type')}) OVER w AS pt,
         ROW_NUMBER() OVER w AS rn
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT pt AS type_from, t AS type_to, COUNT(*) AS n
FROM seq WHERE rn > 1 GROUP BY 1, 2
"""


def q_geofence(sf_dir: str):
    """Geofence enter/exit detection over the event stream: per-event
    inside-any-part-box flag (broadcast PIP index probe), per-user LAG
    on the flag (one bucket shuffle), transition counts — the
    spatio-temporal alerting primitive (PIP × window composition)."""
    from georay.index import PolygonIndex

    polys = part_box_polygons(sf_dir)
    index = PolygonIndex.build(polys, geometry_col="geometry", id_col="p_partkey")

    ref = exchange.broadcast(index)

    pts = _event_points(sf_dir)

    def flag(batch: pa.Table) -> pa.Table:
        idx = ref.get()
        lon = batch["lon"].to_numpy(zero_copy_only=False)
        lat = batch["lat"].to_numpy(zero_copy_only=False)
        pidx, _poly = idx.contains(lon, lat)
        f = np.zeros(len(batch), dtype=np.int64)
        f[np.unique(pidx)] = 1
        return pa.table(
            {
                "user_id": batch["user_id"],
                "ts": batch["ts"],
                "event_id": batch["event_id"],
                "in_fence": pa.array(f, pa.int64()),
            }
        )

    flagged = pts.map_batches(
        flag, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    lagged = ops.window_lag(
        flagged, key="user_id", ts="ts", value_col="in_fence",
        out_col="prev", order_tiebreak="event_id",
    )

    def count_transitions(batch: pa.Table) -> pa.Table:
        f = batch["in_fence"].to_numpy(zero_copy_only=False)
        pv = pc.fill_null(batch["prev"], -1).to_numpy(zero_copy_only=False)
        enters = int(((f == 1) & (pv == 0)).sum())
        exits = int(((f == 0) & (pv == 1)).sum())
        return pa.table(
            {
                "transition": pa.array(["enter", "exit"]),
                "partial_n": pa.array([enters, exits], pa.int64()),
            }
        )

    parts = lagged.map_batches(
        count_transitions, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    )

    def merge(batch: pa.Table) -> pa.Table:
        t = batch["transition"]
        n = batch["partial_n"].to_numpy(zero_copy_only=False)
        is_enter = pc.equal(t, "enter").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "transition": pa.array(["enter", "exit"]),
                "n": pa.array(
                    [int(n[is_enter].sum()), int(n[~is_enter].sum())],
                    pa.int64(),
                ),
            }
        )

    return exchange.gather(parts, merge)


SQL_GEOFENCE = f"""
WITH pts AS (
  SELECT user_id, ts, event_id, {EV_LON} AS lon, {EV_LAT} AS lat FROM events
),
boxes AS (
  SELECT {PART_CX} AS cx, {PART_CY} AS cy, {PART_W} AS w, {PART_H} AS h
  FROM part
),
f AS (
  SELECT user_id, ts, event_id,
         CASE WHEN EXISTS (
           SELECT 1 FROM boxes b
           WHERE p.lon >= b.cx - b.w AND p.lon < b.cx + b.w
             AND p.lat >= b.cy - b.h AND p.lat < b.cy + b.h)
         THEN 1 ELSE 0 END AS in_fence
  FROM pts p
),
lagged AS (
  SELECT *, LAG(in_fence) OVER (
    PARTITION BY user_id ORDER BY ts, event_id) AS prev
  FROM f
)
SELECT * FROM (
  SELECT 'enter' AS transition, COUNT(*) AS n FROM lagged
   WHERE in_fence = 1 AND prev = 0
  UNION ALL
  SELECT 'exit', COUNT(*) FROM lagged WHERE in_fence = 0 AND prev = 1)
"""


# ---------------------------------------- classic TPC-H compositions
#
# Money sums are quantized to integers (cents / 1e-4 units) BEFORE
# aggregation: floor(x·scale + 0.5) is deterministic on both engines
# and integer-valued float64 partial sums stay exact below 2^53, so
# hash-matching float "SUM(price)" (whose rounding is order-dependent)
# is never attempted. avg = exact-sum / exact-count, one double divide.

_Q1_CUTOFF_US = 905_731_200_000_000  # 1998-09-02


def q_tpch_q1(sf_dir: str):
    """TPC-H Q1 pricing summary (quantized money): one pruned read →
    stateless quantize map → skew-safe grouped sums (map-side combine +
    combine tree) — the canonical one-pass aggregate pipeline."""
    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=[
            "l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
            "l_discount", "l_tax", "l_shipdate",
        ],
    )

    def prep(batch: pa.Table) -> pa.Table:
        ship = batch["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        sub = batch.filter(pa.array(ship <= _Q1_CUTOFF_US))
        p = sub["l_extendedprice"].to_numpy(zero_copy_only=False)
        d = sub["l_discount"].to_numpy(zero_copy_only=False)
        t = sub["l_tax"].to_numpy(zero_copy_only=False)
        disc_price = p * (1.0 - d)
        return pa.table(
            {
                "l_returnflag": sub["l_returnflag"],
                "l_linestatus": sub["l_linestatus"],
                "qty": sub["l_quantity"],
                "base_c": pa.array(np.floor(p * 100.0 + 0.5)),
                "disc_t": pa.array(np.floor(disc_price * 10000.0 + 0.5)),
                "charge_t": pa.array(
                    np.floor(disc_price * (1.0 + t) * 10000.0 + 0.5)
                ),
            }
        )

    prepped = ds.map_batches(
        prep, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    agg = ops.salted_count(
        prepped,
        ["l_returnflag", "l_linestatus"],
        agg_cols={"qty": "sum", "base_c": "sum", "disc_t": "sum", "charge_t": "sum"},
        count_alias="count_order",
    )

    def finish(batch: pa.Table) -> pa.Table:
        s = batch["sum_qty"].to_numpy(zero_copy_only=False)
        n = batch["count_order"].to_numpy(zero_copy_only=False).astype(np.float64)
        return batch.append_column("avg_qty", pa.array(s / n, pa.float64()))

    return agg.map_batches(
        finish, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


SQL_TPCH_Q1 = """
SELECT l_returnflag, l_linestatus,
       COUNT(*) AS count_order,
       CAST(SUM(l_quantity) AS DOUBLE) AS sum_qty,
       CAST(SUM(CAST(floor(l_extendedprice * 100.0e0 + 0.5e0) AS BIGINT)) AS DOUBLE) AS sum_base_c,
       CAST(SUM(CAST(floor(l_extendedprice * (1.0e0 - l_discount) * 10000.0e0 + 0.5e0) AS BIGINT)) AS DOUBLE) AS sum_disc_t,
       CAST(SUM(CAST(floor(l_extendedprice * (1.0e0 - l_discount) * (1.0e0 + l_tax) * 10000.0e0 + 0.5e0) AS BIGINT)) AS DOUBLE) AS sum_charge_t,
       CAST(SUM(l_quantity) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE) AS avg_qty
FROM lineitem
WHERE epoch_us(l_shipdate) <= 905731200000000
GROUP BY l_returnflag, l_linestatus
"""



def q_tpch_q3(sf_dir: str):
    """TPC-H Q3 shipping priority (quantized revenue): BUILDING
    customers broadcast into orders (map-side probe), unshipped
    lineitems co-shuffled against the filtered orders with the
    partitioned equality join, grouped revenue, combine-tree top-10."""
    import pyarrow.parquet as pq

    cust = pq.read_table(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"]
    )
    cust = cust.filter(pc.equal(cust["c_mktsegment"], "BUILDING")).select(
        ["c_custkey"]
    )
    # add a probe-marker column so the inner broadcast join can filter
    cust = cust.append_column("seg_ok", pa.array(np.ones(len(cust), np.int8)))

    orders = rd.read_parquet(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )

    def ord_prep(batch: pa.Table) -> pa.Table:
        od = batch["o_orderdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        sub = batch.filter(pa.array(od < _Q3_DATE_US))
        od2 = sub["o_orderdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "o_orderkey": sub["o_orderkey"],
                "o_custkey": sub["o_custkey"],
                "o_orderday": pa.array(od2 // _DAY_US, pa.int64()),
            }
        )

    orders = orders.map_batches(
        ord_prep, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    orders = ops.broadcast_join(orders, cust, on="o_custkey", dim_on="c_custkey")

    li = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def li_prep(batch: pa.Table) -> pa.Table:
        ship = batch["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        sub = batch.filter(pa.array(ship > _Q3_DATE_US))
        p = sub["l_extendedprice"].to_numpy(zero_copy_only=False)
        d = sub["l_discount"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_orderkey": sub["l_orderkey"],
                "rev_t": pa.array(
                    np.floor(p * (1.0 - d) * 10000.0 + 0.5)
                ),
            }
        )

    li = li.map_batches(
        li_prep, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    # physical projection (not select_columns): the logical Project is
    # not reflected in Dataset.schema() under some parallelism, and
    # equi_join_partitioned derives its column plan from schema()
    orders = orders.map_batches(
        lambda b: b.select(["o_orderkey", "o_orderday"]),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )
    joined = ops.equi_join_partitioned(
        li, orders, on="l_orderkey", right_on="o_orderkey",
    )
    agg = ops.salted_count(
        joined, ["l_orderkey", "o_orderday"],
        agg_cols={"rev_t": "sum"}, count_alias="n_lines",
    )

    def to_int(batch: pa.Table) -> pa.Table:
        r = batch["sum_rev_t"].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.set_column(
            batch.schema.get_field_index("sum_rev_t"), "revenue_t",
            pa.array(r, pa.int64()),
        ).drop_columns(["n_lines"])

    agg = agg.map_batches(
        to_int, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return ops.top_k(
        agg, ["revenue_t", "o_orderday", "l_orderkey"], 10,
        descending=[True, False, False],
    )


SQL_TPCH_Q3 = f"""
SELECT l.l_orderkey,
       epoch_us(o.o_orderdate) // {_DAY_US} AS o_orderday,
       CAST(SUM(CAST(floor(l.l_extendedprice * (1.0e0 - l.l_discount) * 10000.0e0 + 0.5e0) AS BIGINT)) AS BIGINT) AS revenue_t
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
WHERE c.c_mktsegment = 'BUILDING'
  AND epoch_us(o.o_orderdate) < {_Q3_DATE_US}
  AND epoch_us(l.l_shipdate) > {_Q3_DATE_US}
GROUP BY 1, 2
ORDER BY revenue_t DESC, o_orderday, l_orderkey
LIMIT 10
"""

_Q5_LO_US = 820_454_400_000_000  # 1996-01-01
_Q5_HI_US = 852_076_800_000_000  # 1997-01-01


def q_tpch_q5(sf_dir: str):
    """TPC-H Q5 local-supplier volume (quantized revenue): the dim
    chain region→nation→customer is broadcast into orders, the order
    keys co-shuffle against lineitem (partitioned join), supplier
    nations attach map-side, and only same-nation pairs count.
    One wide shuffle total."""
    import pyarrow.parquet as pq

    region = pq.read_table(_t(sf_dir, "region"), columns=["r_regionkey", "r_name"])
    nation = pq.read_table(
        _t(sf_dir, "nation"), columns=["n_nationkey", "n_regionkey", "n_name"]
    )
    rk = region.filter(pc.equal(region["r_name"], "ASIA"))["r_regionkey"]
    nat = nation.filter(pc.is_in(nation["n_regionkey"], value_set=rk.combine_chunks()))
    nat = nat.select(["n_nationkey", "n_name"])

    cust = pq.read_table(_t(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"])
    cust = cust.filter(
        pc.is_in(cust["c_nationkey"], value_set=nat["n_nationkey"].combine_chunks())
    )

    supp = pq.read_table(_t(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"])

    orders = rd.read_parquet(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )

    def ord_prep(batch: pa.Table) -> pa.Table:
        od = batch["o_orderdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = (od >= _Q5_LO_US) & (od < _Q5_HI_US)
        return batch.filter(pa.array(keep)).select(["o_orderkey", "o_custkey"])

    orders = orders.map_batches(
        ord_prep, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    orders = ops.broadcast_join(orders, cust, on="o_custkey", dim_on="c_custkey")

    li = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    def li_prep(batch: pa.Table) -> pa.Table:
        p = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        d = batch["l_discount"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_orderkey": batch["l_orderkey"],
                "l_suppkey": batch["l_suppkey"],
                "rev_t": pa.array(np.floor(p * (1.0 - d) * 10000.0 + 0.5)),
            }
        )

    li = li.map_batches(
        li_prep, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    li = ops.broadcast_join(li, supp, on="l_suppkey", dim_on="s_suppkey")
    # physical projection — see q_tpch_q3 note on select_columns/schema()
    orders = orders.map_batches(
        lambda b: b.select(["o_orderkey", "c_nationkey"]),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )
    joined = ops.equi_join_partitioned(
        li, orders, on="l_orderkey", right_on="o_orderkey",
    )

    def same_nation(batch: pa.Table) -> pa.Table:
        keep = pc.equal(batch["s_nationkey"], batch["c_nationkey"])
        return batch.filter(pc.fill_null(keep, False))

    joined = joined.map_batches(
        same_nation, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    joined = ops.broadcast_join(
        joined, nat, on="c_nationkey", dim_on="n_nationkey"
    )
    agg = ops.salted_count(
        joined, ["n_name"], agg_cols={"rev_t": "sum"}, count_alias="n_lines"
    )

    def to_int(batch: pa.Table) -> pa.Table:
        r = batch["sum_rev_t"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"n_name": batch["n_name"], "revenue_t": pa.array(r, pa.int64())}
        )

    return agg.map_batches(
        to_int, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


SQL_TPCH_Q5 = f"""
SELECT n.n_name,
       CAST(SUM(CAST(floor(l.l_extendedprice * (1.0e0 - l.l_discount) * 10000.0e0 + 0.5e0) AS BIGINT)) AS BIGINT) AS revenue_t
FROM region r
JOIN nation n ON n.n_regionkey = r.r_regionkey
JOIN customer c ON c.c_nationkey = n.n_nationkey
JOIN orders o ON o.o_custkey = c.c_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
JOIN supplier s ON s.s_suppkey = l.l_suppkey AND s.s_nationkey = c.c_nationkey
WHERE r.r_name = 'ASIA'
  AND epoch_us(o.o_orderdate) >= {_Q5_LO_US}
  AND epoch_us(o.o_orderdate) < {_Q5_HI_US}
GROUP BY n.n_name
"""


# ---- TPC-H Q6 / Q4 / Q14 (adapted to the driver tables' columns)

_Y97_LO_US = 852_076_800_000_000   # 1997-01-01


def q_tpch_q6(sf_dir: str):
    """TPC-H Q6 forecasting-revenue change: pure pruned-read →
    stateless filter → one global quantized sum (no shuffle at all —
    per-batch partials through one Sum aggregate). The canonical
    predicate-pushdown showcase: only 4 of lineitem's 11 columns leave
    storage."""
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        ship = batch["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        d = batch["l_discount"].to_numpy(zero_copy_only=False)
        q = batch["l_quantity"].to_numpy(zero_copy_only=False)
        p = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        m = (
            (ship >= _Y96_LO_US) & (ship < _Y97_LO_US)
            & (d >= 0.05) & (d <= 0.07) & (q < 24.0)
        )
        rev = np.floor(p[m] * d[m] * 10000.0 + 0.5).astype(np.int64)
        return pa.table(
            {
                "partial_rev": pa.array([int(rev.sum())], pa.int64()),
                "partial_n": pa.array([int(m.sum())], pa.int64()),
            }
        )

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    agg = parts.aggregate(
        Sum("partial_rev", alias_name="revenue_t"),
        Sum("partial_n", alias_name="n_rows"),
    )
    return pa.table(
        {
            "revenue_t": pa.array([agg["revenue_t"]], pa.int64()),
            "n_rows": pa.array([agg["n_rows"]], pa.int64()),
        }
    )


SQL_TPCH_Q6 = f"""
SELECT CAST(SUM(CAST(floor(l_extendedprice * l_discount * 10000.0e0 + 0.5e0) AS BIGINT)) AS BIGINT) AS revenue_t,
       COUNT(*) AS n_rows
FROM lineitem
WHERE epoch_us(l_shipdate) >= {_Y96_LO_US} AND epoch_us(l_shipdate) < {_Y97_LO_US}
  AND l_discount BETWEEN 0.05e0 AND 0.07e0 AND l_quantity < 24.0e0
"""


def q_tpch_q4(sf_dir: str):
    """TPC-H Q4 order-priority checking, adapted to the driver schema:
    count Q1-1996 orders having AT LEAST ONE returned lineitem
    (l_returnflag = 'R' standing in for the reference's
    commitdate < receiptdate, which the synthetic lineitem lacks).
    Shape preserved exactly: big-side semi join (right ships only its
    distinct key column through the bucket co-shuffle) → grouped
    count."""
    orders = rd.read_parquet(
        _t(sf_dir, "orders"),
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    )

    def ofilter(batch: pa.Table) -> pa.Table:
        od = batch["o_orderdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        sub = batch.filter(pa.array((od >= _Y96_LO_US) & (od < _Y96_Q2_US)))
        return pa.table(
            {"o_orderkey": sub["o_orderkey"],
             "o_orderpriority": sub["o_orderpriority"]}
        )

    orders = orders.map_batches(
        ofilter, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    li = rd.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_returnflag"]
    )

    def lfilter(batch: pa.Table) -> pa.Table:
        rf = batch["l_returnflag"]
        sub = batch.filter(pc.equal(rf, "R"))
        return pa.table({"l_orderkey": sub["l_orderkey"]})

    li = li.map_batches(
        lfilter, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    hit = ops.equi_join_partitioned(
        orders, li, on="o_orderkey", right_on="l_orderkey", how="semi"
    )
    return ops.salted_count(hit, ["o_orderpriority"], count_alias="order_count")


SQL_TPCH_Q4 = f"""
SELECT o_orderpriority, COUNT(*) AS order_count
FROM orders
WHERE epoch_us(o_orderdate) >= {_Y96_LO_US} AND epoch_us(o_orderdate) < {_Y96_Q2_US}
  AND EXISTS (SELECT 1 FROM lineitem WHERE l_orderkey = o_orderkey AND l_returnflag = 'R')
GROUP BY o_orderpriority
"""


def q_tpch_q14(sf_dir: str):
    """TPC-H Q14 promo-revenue ratio, adapted: p_type = 'ECONOMY'
    stands in for LIKE 'PROMO%%' (the synthetic p_type is a single
    word). Shape preserved: month-filtered lineitem stream, part
    dimension BROADCAST (exchange.broadcast once, pc.index_in probe per batch),
    conditional quantized sums, one-row ratio from two exact
    integers."""
    import pyarrow.parquet as _pq

    from ray.data.aggregate import Sum

    part = _pq.read_table(_t(sf_dir, "part"), columns=["p_partkey", "p_type"])
    pk = part["p_partkey"].to_numpy().astype(np.int64)
    is_promo = pc.equal(part["p_type"], "ECONOMY").to_numpy(zero_copy_only=False)
    order = np.argsort(pk, kind="stable")
    ref = exchange.broadcast((pk[order], is_promo[order]))

    li = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        keys, promo = ref.get()
        ship = batch["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        m = (ship >= _Y96_LO_US) & (ship < _Y96_FEB_US)
        sub = batch.filter(pa.array(m))
        lp = sub["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        p = sub["l_extendedprice"].to_numpy(zero_copy_only=False)
        d = sub["l_discount"].to_numpy(zero_copy_only=False)
        rev = np.floor(p * (1.0 - d) * 10000.0 + 0.5).astype(np.int64)
        pr = promo[np.searchsorted(keys, lp)]
        return pa.table(
            {
                "partial_promo": pa.array([int(rev[pr].sum())], pa.int64()),
                "partial_total": pa.array([int(rev.sum())], pa.int64()),
            }
        )

    parts = li.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    agg = parts.aggregate(
        Sum("partial_promo", alias_name="p"), Sum("partial_total", alias_name="t")
    )
    promo_t, total_t = int(agg["p"]), int(agg["t"])
    ratio = 100.0 * promo_t / total_t if total_t else 0.0
    return pa.table(
        {
            "promo_revenue_t": pa.array([promo_t], pa.int64()),
            "total_revenue_t": pa.array([total_t], pa.int64()),
            "promo_ratio": pa.array([ratio], pa.float64()),
        }
    )


SQL_TPCH_Q14 = f"""
WITH m AS (
  SELECT CAST(floor(l_extendedprice * (1.0e0 - l_discount) * 10000.0e0 + 0.5e0) AS BIGINT) AS rev,
         (p_type = 'ECONOMY') AS promo
  FROM lineitem JOIN part ON p_partkey = l_partkey
  WHERE epoch_us(l_shipdate) >= {_Y96_LO_US} AND epoch_us(l_shipdate) < {_Y96_FEB_US}
)
SELECT CAST(SUM(CASE WHEN promo THEN rev ELSE 0 END) AS BIGINT) AS promo_revenue_t,
       CAST(SUM(rev) AS BIGINT) AS total_revenue_t,
       100.0e0 * CAST(SUM(CASE WHEN promo THEN rev ELSE 0 END) AS DOUBLE)
         / CAST(SUM(rev) AS DOUBLE) AS promo_ratio
FROM m
"""


def q_tpch_q10(sf_dir: str):
    """TPC-H Q10 returned-item reporting (quantized revenue): returned
    ('R') lineitems of Q1-1996 orders, revenue grouped per customer,
    top 20. Join order minimizes shuffle width twice over: the
    DATE-FILTERED orders (a 3-month window — the bounded dim side, the
    same broadcast precedent as Q3's segment-filtered customers) probe
    map-side into the lineitem scan, so the corpus never shuffles for
    the first join; then the per-customer aggregate (bounded by
    #customers, 2 columns) is all that co-shuffles against customer,
    and nation attaches via broadcast. No driver-side merge anywhere;
    were the date window unbounded, the partitioned first-join twin is
    one `equi_join_partitioned` swap away."""
    import pyarrow.parquet as _opq

    otbl = _opq.read_table(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )
    od = otbl["o_orderdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    keep = (od >= _Y96_LO_US) & (od < _Y96_Q2_US)
    odim = otbl.filter(pa.array(keep)).select(["o_orderkey", "o_custkey"])

    li = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"],
    )

    def li_prep(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pc.equal(batch["l_returnflag"], "R"))
        p = sub["l_extendedprice"].to_numpy(zero_copy_only=False)
        d = sub["l_discount"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_orderkey": sub["l_orderkey"],
                "rev_t": pa.array(np.floor(p * (1.0 - d) * 10000.0 + 0.5)),
            }
        )

    li = li.map_batches(
        li_prep, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    joined = ops.broadcast_join(li, odim, on="l_orderkey", dim_on="o_orderkey")
    agg = ops.salted_count(
        joined, ["o_custkey"], agg_cols={"rev_t": "sum"}, count_alias="nl"
    )

    def to_int(batch: pa.Table) -> pa.Table:
        r = batch["sum_rev_t"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"o_custkey": batch["o_custkey"], "revenue_t": pa.array(r, pa.int64())}
        )

    agg = agg.map_batches(
        to_int, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    cust = rd.read_parquet(
        _t(sf_dir, "customer"),
        columns=["c_custkey", "c_name", "c_acctbal", "c_nationkey"],
    )
    agg = ops.equi_join_partitioned(
        agg, cust, on="o_custkey", right_on="c_custkey"
    )
    import pyarrow.parquet as _pq

    nation = _pq.read_table(
        _t(sf_dir, "nation"), columns=["n_nationkey", "n_name"]
    )
    nation = nation.set_column(
        0, "n_nationkey", nation["n_nationkey"].cast(pa.int32())
    )
    agg = ops.broadcast_join(agg, nation, on="c_nationkey", dim_on="n_nationkey")
    agg = agg.map_batches(
        lambda b: b.drop_columns(["c_nationkey"]),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )
    return ops.top_k(agg, ["revenue_t", "o_custkey"], 20, descending=[True, False])


SQL_TPCH_Q10 = f"""
SELECT o.o_custkey, c.c_name, c.c_acctbal, n.n_name,
       CAST(SUM(CAST(floor(l.l_extendedprice * (1.0e0 - l.l_discount) * 10000.0e0 + 0.5e0) AS BIGINT)) AS BIGINT) AS revenue_t
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
WHERE epoch_us(o.o_orderdate) >= {_Y96_LO_US} AND epoch_us(o.o_orderdate) < {_Y96_Q2_US}
  AND l.l_returnflag = 'R'
GROUP BY 1, 2, 3, 4
ORDER BY revenue_t DESC, o.o_custkey
LIMIT 20
"""

def q_tpch_q12(sf_dir: str):
    """TPC-H Q12 shipping-mode priority counts, adapted to the driver
    schema: l_linestatus stands in for shipmode (the synthetic lineitem
    has no shipmode), 1996 ship dates for the receipt window. Shape
    preserved exactly: order priorities broadcast into the lineitem
    scan as a 2-valued dim column, conditional counts combine
    map-side — one wide op total."""
    import pyarrow.parquet as _pq

    orders = _pq.read_table(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_orderpriority"]
    )
    ok = orders["o_orderkey"].to_numpy().astype(np.int64)
    pri = orders["o_orderpriority"].to_pylist()
    high = np.array([p in ("1-URGENT", "2-HIGH") for p in pri])
    order = np.argsort(ok, kind="stable")
    ref = exchange.broadcast((ok[order], high[order]))

    li = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_linestatus", "l_shipdate"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        keys, hi = ref.get()
        ship = batch["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        m = (ship >= _Y96_LO_US) & (ship < _Y96_LO_US + 366 * _DAY_US)
        sub = batch.filter(pa.array(m))
        lk = sub["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = hi[np.searchsorted(keys, lk)]
        ls = sub["l_linestatus"].to_numpy(zero_copy_only=False)
        (ks,), vs = ops._group_reduce(
            [ls], {"partial_high": h.astype(np.int64),
                   "partial_low": (~h).astype(np.int64)}
        )
        return pa.table(
            {
                "l_linestatus": pa.array(ks),
                "partial_high": pa.array(vs["partial_high"]),
                "partial_low": pa.array(vs["partial_low"]),
            }
        )

    parts = li.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return ops.tree_sum(
        parts, ["l_linestatus"],
        {"partial_high": "high_line_count", "partial_low": "low_line_count"},
        int_cols=("partial_high", "partial_low"),
    )


SQL_TPCH_Q12 = f"""
SELECT l_linestatus,
       CAST(SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count,
       CAST(SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                THEN 0 ELSE 1 END) AS BIGINT) AS low_line_count
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
WHERE epoch_us(l_shipdate) >= {_Y96_LO_US}
  AND epoch_us(l_shipdate) < {_Y96_LO_US} + 366 * {_DAY_US}
GROUP BY l_linestatus
"""

_Q18_QTY = 300.0


def q_tpch_q18(sf_dir: str):
    """TPC-H Q18 large-volume customer: orders whose total quantity
    exceeds 300, with customer name and order facts, top 100 by price.
    The HAVING gate runs FIRST (map-side combine + tree merge over
    lineitem, then a vectorized filter), so only the tiny surviving
    order set flows through the two co-partitioned joins; the final
    per-order sum is the already-computed gate aggregate (orders are
    unique on o_orderkey), matching the spec's re-group exactly."""
    li = rd.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_quantity"]
    )
    sums = ops.salted_count(
        li, ["l_orderkey"], agg_cols={"l_quantity": "sum"}, count_alias="nl"
    )

    def gate(batch: pa.Table) -> pa.Table:
        q = batch["sum_l_quantity"].to_numpy(zero_copy_only=False)
        sub = batch.filter(pa.array(q > _Q18_QTY))
        return pa.table(
            {"l_orderkey": sub["l_orderkey"], "sum_qty": sub["sum_l_quantity"]}
        )

    sums = sums.map_batches(
        gate, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )

    orders = rd.read_parquet(
        _t(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    )

    def ord_prep(batch: pa.Table) -> pa.Table:
        od = batch["o_orderdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "o_orderkey": batch["o_orderkey"],
                "o_custkey": batch["o_custkey"],
                "o_orderday": pa.array(od // _DAY_US, pa.int64()),
                "o_totalprice": batch["o_totalprice"],
            }
        )

    orders = orders.map_batches(
        ord_prep, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    hit = ops.equi_join_partitioned(
        orders, sums, on="o_orderkey", right_on="l_orderkey"
    )
    cust = rd.read_parquet(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_name"]
    )
    hit = ops.equi_join_partitioned(
        hit, cust, on="o_custkey", right_on="c_custkey"
    )
    return ops.top_k(
        hit, ["o_totalprice", "o_orderday", "o_orderkey"], 100,
        descending=[True, False, False],
    )


SQL_TPCH_Q18 = f"""
SELECT c.c_name, o.o_custkey, o.o_orderkey,
       epoch_us(o.o_orderdate) // {_DAY_US} AS o_orderday,
       o.o_totalprice, t.sum_qty
FROM (
  SELECT l_orderkey, SUM(l_quantity) AS sum_qty
  FROM lineitem GROUP BY l_orderkey HAVING SUM(l_quantity) > {_Q18_QTY!r}
) t
JOIN orders o ON o.o_orderkey = t.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
ORDER BY o.o_totalprice DESC, o_orderday, o.o_orderkey
LIMIT 100
"""

_Q19_BRACKETS = [
    ("Brand#12", 1.0, 11.0, 1, 5),
    ("Brand#23", 10.0, 20.0, 1, 10),
    ("Brand#3", 20.0, 30.0, 1, 15),
]


def q_tpch_q19(sf_dir: str):
    """TPC-H Q19 discounted-revenue with disjunctive brackets, adapted
    to the driver schema (brand + size + quantity brackets; the
    synthetic lineitem lacks shipmode/shipinstruct). The part dimension
    collapses to ONE int8 bracket id per partkey at build time
    (broadcast once), so the probe is a searchsorted + two vectorized
    compares per batch and the whole query is a single lineitem scan
    with a one-row combine — no shuffle at all."""
    import pyarrow.parquet as _pq

    from ray.data.aggregate import Sum

    part = _pq.read_table(
        _t(sf_dir, "part"), columns=["p_partkey", "p_brand", "p_size"]
    )
    pk = part["p_partkey"].to_numpy().astype(np.int64)
    brand = part["p_brand"].to_pylist()
    size = part["p_size"].to_numpy().astype(np.int64)
    bracket = np.full(len(pk), -1, np.int8)
    for bi, (bname, _qlo, _qhi, slo, shi) in enumerate(_Q19_BRACKETS):
        m = np.array([b == bname for b in brand]) & (size >= slo) & (size <= shi)
        bracket[m] = bi
    order = np.argsort(pk, kind="stable")
    ref = exchange.broadcast((pk[order], bracket[order]))
    qlo = np.array([b[1] for b in _Q19_BRACKETS])
    qhi = np.array([b[2] for b in _Q19_BRACKETS])

    li = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        keys, br = ref.get()
        lp = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        q = batch["l_quantity"].to_numpy(zero_copy_only=False)
        b = br[np.searchsorted(keys, lp)]
        hit = (b >= 0) & (q >= qlo[np.maximum(b, 0)]) & (q <= qhi[np.maximum(b, 0)])
        p = batch["l_extendedprice"].to_numpy(zero_copy_only=False)[hit]
        d = batch["l_discount"].to_numpy(zero_copy_only=False)[hit]
        rev = np.floor(p * (1.0 - d) * 10000.0 + 0.5).astype(np.int64)
        return pa.table({"partial": pa.array([int(rev.sum())], pa.int64())})

    parts = li.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    agg = parts.aggregate(Sum("partial", alias_name="s"))
    return pa.table({"revenue_t": pa.array([int(agg["s"])], pa.int64())})


def _q19_pred() -> str:
    terms = []
    for bname, ql, qh, slo, shi in _Q19_BRACKETS:
        terms.append(
            f"(p_brand = '{bname}' AND p_size BETWEEN {slo} AND {shi} "
            f"AND l_quantity >= {ql!r} AND l_quantity <= {qh!r})"
        )
    return " OR ".join(terms)


SQL_TPCH_Q19 = f"""
SELECT CAST(SUM(CAST(floor(l_extendedprice * (1.0e0 - l_discount) * 10000.0e0 + 0.5e0) AS BIGINT)) AS BIGINT) AS revenue_t
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE {_q19_pred()}
"""

_Q16_SIZES = (1, 9, 14, 19, 23, 36, 45, 49)
_Q16_EXCL_BRAND = "Brand#5"


def q_tpch_q16(sf_dir: str):
    """TPC-H Q16 parts/supplier relationship, adapted: the synthetic
    schema has no partsupp, so the part↔supplier pairs come from
    lineitem (every (l_partkey, l_suppkey) that ever shipped). Part
    attrs broadcast into the lineitem scan; the COUNT(DISTINCT
    supplier) runs as exact dedup on (brand, type, size, suppkey)
    (one hash-bucket shuffle of the already-attribute-pruned pairs)
    followed by a combine-tree count."""
    import pyarrow.parquet as _pq

    part = _pq.read_table(
        _t(sf_dir, "part"), columns=["p_partkey", "p_brand", "p_type", "p_size"]
    )
    keep = pc.and_(
        pc.not_equal(part["p_brand"], _Q16_EXCL_BRAND),
        pc.is_in(part["p_size"], value_set=pa.array(_Q16_SIZES, pa.int32())),
    )
    part = part.filter(keep)

    li = rd.read_parquet(_t(sf_dir, "lineitem"), columns=["l_partkey", "l_suppkey"])
    joined = ops.broadcast_join(li, part, on="l_partkey", dim_on="p_partkey")
    joined = joined.map_batches(
        lambda b: b.select(["p_brand", "p_type", "p_size", "l_suppkey"]),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )
    distinct = ops.dedup_exact(
        joined, ["p_brand", "p_type", "p_size", "l_suppkey"]
    )
    return ops.salted_count(
        distinct, ["p_brand", "p_type", "p_size"], count_alias="supplier_cnt"
    )


SQL_TPCH_Q16 = f"""
SELECT p_brand, p_type, p_size,
       COUNT(DISTINCT l_suppkey) AS supplier_cnt
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE p_brand <> '{_Q16_EXCL_BRAND}'
  AND p_size IN {_Q16_SIZES}
GROUP BY p_brand, p_type, p_size
"""


# ------------------------------------------ analytics: funnel / cohort


FUNNEL_STEPS = ["signup", "view", "click", "purchase"]


def q_funnel(sf_dir: str):
    """Ordered conversion funnel over the event log: users reaching
    signup, then view/click/purchase each STRICTLY later — one user-
    bucket shuffle, per-bucket chained masked reduceat (analytics.funnel)."""
    from georay import analytics

    ds = rd.read_parquet(_t(sf_dir, "events"), columns=["user_id", "ts", "event_type"])
    return analytics.funnel(ds, "user_id", "ts", "event_type", FUNNEL_STEPS)


SQL_FUNNEL = """
WITH s1 AS (SELECT user_id, MIN(ts) t FROM events WHERE event_type='signup' GROUP BY user_id),
s2 AS (SELECT e.user_id, MIN(e.ts) t FROM events e JOIN s1 USING(user_id)
       WHERE e.event_type='view' AND e.ts > s1.t GROUP BY e.user_id),
s3 AS (SELECT e.user_id, MIN(e.ts) t FROM events e JOIN s2 USING(user_id)
       WHERE e.event_type='click' AND e.ts > s2.t GROUP BY e.user_id),
s4 AS (SELECT e.user_id, MIN(e.ts) t FROM events e JOIN s3 USING(user_id)
       WHERE e.event_type='purchase' AND e.ts > s3.t GROUP BY e.user_id)
SELECT * FROM (
  SELECT 1 AS step, 'signup' AS step_name, COUNT(*) AS n_users FROM s1
  UNION ALL SELECT 2, 'view', COUNT(*) FROM s2
  UNION ALL SELECT 3, 'click', COUNT(*) FROM s3
  UNION ALL SELECT 4, 'purchase', COUNT(*) FROM s4)
"""


COHORT_PERIOD_US = 86_400_000_000  # 1 day


def q_cohort(sf_dir: str):
    """Cohort retention: users cohorted by first-event day, counted once
    per (cohort, day-offset) active — one user-bucket shuffle
    (analytics.cohort_retention)."""
    from georay import analytics

    ds = rd.read_parquet(_t(sf_dir, "events"), columns=["user_id", "ts"])
    return analytics.cohort_retention(ds, "user_id", "ts", COHORT_PERIOD_US)


SQL_COHORT = f"""
WITH per AS (SELECT user_id, epoch_us(ts) // {COHORT_PERIOD_US} AS p FROM events),
fst AS (SELECT user_id, MIN(p) AS c FROM per GROUP BY user_id)
SELECT c AS cohort, p - c AS "offset", COUNT(DISTINCT per.user_id) AS n_users
FROM per JOIN fst USING (user_id) GROUP BY 1, 2
"""


def q_audience_overlap(sf_dir: str):
    """Audience-overlap matrix: for every PAIR of event types, the
    number of users who performed both (plus each type's audience
    size) — the exact Jaccard numerators segmentation tools plot.
    Plan: per-batch per-user type BITMASKS OR-merge through one
    combine tree (``tree_reduce`` with ``np.bitwise_or`` — each user
    ends as exactly one mask row, batch-split-safe); a second pass
    folds the 5×5 pair counts per batch and a tiny tree merges the
    matrix — the event stream itself never shuffles."""
    ev = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["user_id", "event_type"])
    tset = pa.array(list(_EVENT_TYPE_IDS), pa.string())

    def mask_partial(batch: pa.Table) -> pa.Table:
        u = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = pc.index_in(batch["event_type"], value_set=tset).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        ks, vs = ops._group_reduce(
            [u], {"partial_m": (np.int64(1) << t)}, ufunc=np.bitwise_or
        )
        return pa.table(
            {"user_id": pa.array(ks[0], pa.int64()),
             "partial_m": pa.array(vs["partial_m"], pa.int64())}
        )

    masks_ds = ops.tree_reduce(
        ev.map_batches(mask_partial, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        "user_id", {"partial_m": "mask"}, ufunc=np.bitwise_or,
    )

    def pair_partial(batch: pa.Table) -> pa.Table:
        masks = batch["mask"].to_numpy(zero_copy_only=False).astype(np.int64)
        n_types = len(_EVENT_TYPE_IDS)
        pa_, pb_, cnt = [], [], []
        for a in range(n_types):
            for b in range(a, n_types):
                both = ((masks >> a) & 1) & ((masks >> b) & 1)
                pa_.append(a)
                pb_.append(b)
                cnt.append(int(both.sum()))
        return pa.table(
            {"ta": pa.array(pa_, pa.int64()),
             "tb": pa.array(pb_, pa.int64()),
             "partial_n": pa.array(cnt, pa.int64())}
        )

    return ops.tree_sum(
        masks_ds.map_batches(pair_partial, batch_format="pyarrow",
                             zero_copy_batch=True, batch_size=None),
        ["ta", "tb"], {"partial_n": "n_users"}, int_cols=("partial_n",),
    )


def _audience_sql() -> str:
    whens = " ".join(
        f"WHEN '{name}' THEN {i}" for name, i in _EVENT_TYPE_IDS.items()
    )
    return f"""
WITH pres AS (
  SELECT DISTINCT user_id,
         CASE event_type {whens} END AS t
  FROM events
)
SELECT a.t AS ta, b.t AS tb, CAST(COUNT(*) AS BIGINT) AS n_users
FROM pres a JOIN pres b ON b.user_id = a.user_id AND b.t >= a.t
GROUP BY 1, 2
"""


SQL_AUDIENCE_OVERLAP = _audience_sql()


def q_cohort_ltv(sf_dir: str):
    """Cohort LTV curve — per (cohort, period offset): that period's
    revenue cents AND the cohort's cumulative LTV, exact ints.
    Plan: per-user first period via one combine-tree min (o(users)
    broadcast, the cohort family budget); ONE streaming event pass
    emits (cohort, offset) cent partials; the bounded periods² table
    folds driver-side for the cumulative (same bounded-domain
    convention as the grid ops). NULL values contribute nothing (SQL
    SUM-skip)."""
    ev = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["user_id", "ts", "value"])

    def first_partial(batch: pa.Table) -> pa.Table:
        u = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        p = (
            batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            // COHORT_PERIOD_US
        )
        (ks,), outs = ops._group_reduce([u], {"pm": p}, ufunc=np.minimum)
        return pa.table(
            {"user_id": pa.array(ks, pa.int64()),
             "pm": pa.array(outs["pm"], pa.int64())}
        )

    fst = ops.tree_reduce(
        ev.map_batches(first_partial, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        "user_id", {"pm": "c"}, ufunc=np.minimum,
    ).to_pandas()
    un = fst["user_id"].to_numpy().astype(np.int64)
    uc = fst["c"].to_numpy().astype(np.int64)
    o = np.argsort(un)
    ref = exchange.broadcast((un[o], uc[o]))

    def rev_partial(batch: pa.Table) -> pa.Table:
        uu, cc = ref.get()
        u = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        p = (
            batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            // COHORT_PERIOD_US
        )
        v = batch["value"].to_numpy(zero_copy_only=False)
        ok = np.isfinite(v)
        cents = np.where(ok, np.floor(v * 100.0 + 0.5), 0.0).astype(np.int64)
        coh = cc[np.searchsorted(uu, u)]
        ks, vs = ops._group_reduce(
            [coh, p - coh], {"partial_rev": cents}
        )
        return pa.table(
            {
                "cohort": pa.array(ks[0], pa.int64()),
                "off": pa.array(ks[1], pa.int64()),
                "partial_rev": pa.array(vs["partial_rev"], pa.int64()),
            }
        )

    rv = ops.tree_sum(
        ev.map_batches(rev_partial, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["cohort", "off"], {"partial_rev": "rev"}, int_cols=("partial_rev",),
    ).to_pandas().sort_values(["cohort", "off"])
    coh = rv["cohort"].to_numpy().astype(np.int64)
    rev = rv["rev"].to_numpy().astype(np.int64)
    starts = np.r_[True, coh[1:] != coh[:-1]]
    sid = np.cumsum(starts) - 1  # segment id per row
    cs = np.cumsum(rev)
    seg_prev = (cs - rev)[np.nonzero(starts)[0]]
    cum_per = cs - seg_prev[sid]  # segmented cumsum, sign-safe
    return pa.table(
        {
            "cohort": pa.array(coh, pa.int64()),
            "offset": pa.array(rv["off"].to_numpy().astype(np.int64),
                               pa.int64()),
            "rev_cents": pa.array(rev, pa.int64()),
            "cum_cents": pa.array(cum_per, pa.int64()),
        }
    )


SQL_COHORT_LTV = f"""
WITH per AS (
  SELECT user_id, epoch_us(ts) // {COHORT_PERIOD_US} AS p,
         CAST(floor(value * 100.0e0 + 0.5e0) AS BIGINT) AS cents
  FROM events
),
fst AS (SELECT user_id, MIN(p) AS c FROM per GROUP BY user_id),
rv AS (
  SELECT c AS cohort, p - c AS "offset",
         SUM(COALESCE(cents, 0)) AS rev
  FROM per JOIN fst USING (user_id) GROUP BY 1, 2
)
SELECT cohort, "offset", CAST(rev AS BIGINT) AS rev_cents,
       CAST(SUM(rev) OVER (PARTITION BY cohort ORDER BY "offset"
                           ROWS UNBOUNDED PRECEDING) AS BIGINT)
         AS cum_cents
FROM rv
"""


# ---------------------------------------------- weighted / CDC operators


def q_weighted_sample(sf_dir: str):
    """Priority sampling (Duffield–Lund–Thorup): 100 lineitems drawn
    proportionally to l_quantity — priority = w/u on mix64(rid),
    RNG-free, transcendental-free, so SQL is bit-identical. One map
    pass + combine-tree top-k; the table never shuffles."""
    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_linenumber", "l_quantity"],
    )

    def add_rid(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "rid",
            pc.add(
                pc.multiply(batch["l_orderkey"], 8),
                pc.cast(batch["l_linenumber"], pa.int64()),
            ),
        )

    keyed = ds.map_batches(
        add_rid, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    out = ops.weighted_sample(keyed, "rid", "l_quantity", 100)
    return out.select_columns(["l_orderkey", "l_linenumber", "l_quantity", "priority"])


SQL_WEIGHTED_SAMPLE = """
WITH s1 AS (SELECT l_orderkey, l_linenumber, l_quantity,
                   CAST(l_orderkey*8 + l_linenumber AS HUGEINT) AS rid FROM lineitem),
m1 AS (SELECT *, xor(rid, rid // 8589934592) AS h1 FROM s1),
m2 AS (SELECT * EXCLUDE(h1),
              ( (h1 % 4294967296) * 18397679294719823053
              + ((h1 // 4294967296) * 18397679294719823053 % 4294967296)
                * 4294967296 ) % 18446744073709551616 AS h2
       FROM m1),
hx AS (SELECT * EXCLUDE(h2), xor(h2, h2 // 8589934592) AS h FROM m2)
SELECT l_orderkey, l_linenumber, l_quantity,
       l_quantity / ((CAST(h AS DOUBLE) + 1.0) / 18446744073709551616.0) AS priority
FROM hx ORDER BY priority DESC, rid LIMIT 100
"""


def q_weighted_grouped(sf_dir: str):
    """Per-group weighted sampling: 20 documents per language, drawn
    proportionally to n_chars (priority sampling per stratum —
    ops.weighted_sample_grouped; map-side-pruned group shuffle)."""
    ds = rd.read_parquet(
        _t(sf_dir, "documents"), columns=["doc_id", "lang", "n_chars"]
    )
    out = ops.weighted_sample_grouped(ds, "doc_id", "lang", "n_chars", 20)
    return out.select_columns(["doc_id", "lang", "n_chars", "priority"])


SQL_WEIGHTED_GROUPED = """
WITH s1 AS (SELECT doc_id, lang, n_chars, CAST(doc_id AS HUGEINT) AS rid FROM documents),
m1 AS (SELECT *, xor(rid, rid // 8589934592) AS h1 FROM s1),
m2 AS (SELECT * EXCLUDE(h1),
              ( (h1 % 4294967296) * 18397679294719823053
              + ((h1 // 4294967296) * 18397679294719823053 % 4294967296)
                * 4294967296 ) % 18446744073709551616 AS h2
       FROM m1),
hx AS (SELECT * EXCLUDE(h2), xor(h2, h2 // 8589934592) AS h FROM m2),
pr AS (SELECT doc_id, lang, n_chars,
              n_chars / ((CAST(h AS DOUBLE) + 1.0) / 18446744073709551616.0) AS priority
       FROM hx)
SELECT doc_id, lang, n_chars, priority FROM (
  SELECT *, ROW_NUMBER() OVER (PARTITION BY lang ORDER BY priority DESC, doc_id) AS rn
  FROM pr
) WHERE rn <= 20
"""


def q_merge_upsert(sf_dir: str):
    """CDC merge (lakehouse MERGE INTO): a deterministic update stream —
    orders with mix64(o_orderkey)%4==1 re-priced (+100, version 1),
    %4==2 deleted — applied to the full orders base by key. Both sides
    large: tag → union → one key-bucket shuffle → per-bucket Arrow sort
    resolve (ops.merge_upsert)."""
    base = rd.read_parquet(
        _t(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )

    def add_version(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "version", pa.array(np.zeros(len(batch), np.int64))
        )

    base = base.map_batches(
        add_version, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )

    def make_updates(batch: pa.Table) -> pa.Table:
        from georay.ops import _mix64

        ok = batch["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = _mix64(ok.view(np.uint64).copy()) % np.uint64(4)
        upd = h == 1
        dele = h == 2
        keep = upd | dele
        sub = batch.filter(pa.array(keep))
        price = pc.add(sub["o_totalprice"], 100.0)
        n = len(sub)
        return pa.table(
            {
                "o_orderkey": sub["o_orderkey"],
                "o_custkey": sub["o_custkey"],
                "o_totalprice": price,
                "version": pa.array(np.ones(n, np.int64)),
                "op": pc.if_else(
                    pa.array(dele[keep]), pa.scalar("D"), pa.scalar("U")
                ),
            }
        )

    updates = rd.read_parquet(
        _t(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    ).map_batches(
        make_updates, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return ops.merge_upsert(base, updates, "o_orderkey", "version")


SQL_MERGE_UPSERT = """
WITH m1 AS (SELECT o_orderkey, o_custkey, o_totalprice,
                   xor(CAST(o_orderkey AS HUGEINT),
                       CAST(o_orderkey AS HUGEINT) // 8589934592) AS h1
            FROM orders),
m2 AS (SELECT * EXCLUDE(h1),
              ( (h1 % 4294967296) * 18397679294719823053
              + ((h1 // 4294967296) * 18397679294719823053 % 4294967296)
                * 4294967296 ) % 18446744073709551616 AS h2
       FROM m1),
hx AS (SELECT * EXCLUDE(h2), xor(h2, h2 // 8589934592) % 4 AS h FROM m2)
SELECT o_orderkey, o_custkey,
       CASE WHEN h = 1 THEN o_totalprice + 100.0 ELSE o_totalprice END AS o_totalprice,
       CAST(CASE WHEN h = 1 THEN 1 ELSE 0 END AS BIGINT) AS version
FROM hx WHERE h != 2
"""


# ------------------------------------------------- BM25 / LM scoring

BM25_TERMS = ["spark", "hash", "window", "sort"]
BM25_K = 25

_TOKS_CTE = (
    r"SELECT doc_id, unnest(string_split(trim(regexp_replace(lower(text),"
    r" '\s+', ' ', 'g')), ' ')) AS token FROM documents"
)


def q_bm25(sf_dir: str):
    """BM25 top-k search over documents for a fixed query (rational
    Robertson idf — transcendental-free, bit-exact vs SQL; see
    stages.text.bm25_topk). Two streaming passes + combine-tree top-k,
    zero shuffles."""
    from georay.stages.text import bm25_topk

    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return bm25_topk(ds, BM25_TERMS, k=BM25_K)


def _bm25_sql() -> str:
    t_ix = range(len(BM25_TERMS))
    tf_cols = ", ".join(
        f"SUM(CASE WHEN token = '{t}' THEN 1 ELSE 0 END) AS tf{i}"
        for i, t in zip(t_ix, BM25_TERMS)
    )
    df_cols = ", ".join(
        f"COUNT(DISTINCT doc_id) FILTER (WHERE token = '{t}') AS df{i}"
        for i, t in zip(t_ix, BM25_TERMS)
    )
    avgdl = "(CAST(st.sumdl AS DOUBLE) / CAST(st.n AS DOUBLE))"
    contribs = []
    for i in t_ix:
        idf = (
            f"((CAST(st.n - df.df{i} AS DOUBLE) + 0.5e0)"
            f" / (CAST(df.df{i} AS DOUBLE) + 0.5e0))"
        )
        denom = (
            f"(tf.tf{i} + 1.2e0 * (0.25e0 + 0.75e0 *"
            f" (CAST(dl.dl AS DOUBLE) / {avgdl})))"
        )
        contribs.append(f"(({idf} * (tf.tf{i} * (1.2e0 + 1.0e0))) / {denom})")
    score = " + ".join(contribs)
    any_tf = " + ".join(f"tf.tf{i}" for i in t_ix)
    return f"""
WITH toks AS ({_TOKS_CTE}),
dl AS (SELECT doc_id, COUNT(*) AS dl FROM toks GROUP BY doc_id),
st AS (SELECT COUNT(*) AS n, SUM(dl) AS sumdl FROM dl),
tf AS (SELECT doc_id, {tf_cols} FROM toks GROUP BY doc_id),
df AS (SELECT {df_cols} FROM toks)
SELECT tf.doc_id, {score} AS score
FROM tf JOIN dl USING (doc_id) CROSS JOIN st CROSS JOIN df
WHERE {any_tf} > 0
ORDER BY score DESC, tf.doc_id LIMIT {BM25_K}
"""


SQL_BM25 = _bm25_sql()


def q_lm_score(sf_dir: str):
    """Bigram-LM likelihood scoring (quantized-integer probabilities —
    order-free exact sums; see stages.text.lm_score): corpus-trained
    conditionals, broadcast once, one index_in + reduceat per batch."""
    from georay.stages.text import lm_score

    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return lm_score(ds)


SQL_LM_SCORE = r"""
WITH docs AS (
  SELECT doc_id,
         string_split(trim(regexp_replace(lower(text), '\s+', ' ', 'g')), ' ') AS l
  FROM documents
),
bg AS (
  SELECT doc_id, l[i] AS w1, l[i+1] AS w2
  FROM docs, UNNEST(generate_series(1, len(l) - 1)) AS g(i)
),
cnt AS (SELECT w1, w2, COUNT(*) AS c2 FROM bg GROUP BY 1, 2),
c1 AS (SELECT w1, SUM(c2) AS c1 FROM cnt GROUP BY 1),
q AS (
  SELECT w1, w2,
         CAST(floor((CAST(c2 AS DOUBLE) / CAST(c1.c1 AS DOUBLE)) * 1048576e0)
              AS BIGINT) AS q
  FROM cnt JOIN c1 USING (w1)
),
persum AS (
  SELECT doc_id, COUNT(*) AS nb, SUM(q.q) AS s
  FROM bg JOIN q USING (w1, w2) GROUP BY doc_id
)
SELECT d.doc_id,
       COALESCE(nb, 0) AS n_bigrams,
       CAST(COALESCE(s, 0) AS BIGINT) AS lm_q
FROM documents d LEFT JOIN persum USING (doc_id)
"""


def q_fuzzy_pairs(sf_dir: str):
    """Exact edit distance over candidate pairs (the fuzzy-dedup verify
    primitive): consecutive-doc-id pairs co-shuffled with the
    partitioned equality join, then the pair-vectorized Levenshtein
    (stages.dedup.edit_distance_batch — min-plus prefix-scan DP, no
    per-pair Python). DuckDB ``levenshtein`` twin is exact."""
    from georay.stages.dedup import edit_distance_batch

    docs = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def left_prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "next_id": pc.add(batch["doc_id"], 1),
                "text_a": batch["text"],
            }
        )

    def right_prep(batch: pa.Table) -> pa.Table:
        return pa.table({"rid": batch["doc_id"], "text_b": batch["text"]})

    left = docs.map_batches(
        left_prep, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    right = docs.map_batches(
        right_prep, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    joined = ops.equi_join_partitioned(left, right, on="next_id", right_on="rid")

    def dist(batch: pa.Table) -> pa.Table:
        d = edit_distance_batch(batch["text_a"], batch["text_b"])
        return pa.table(
            {"doc_id": batch["doc_id"], "dist": pa.array(d, pa.int64())}
        )

    return joined.map_batches(
        dist, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


SQL_FUZZY_PAIRS = """
SELECT a.doc_id, levenshtein(a.text, b.text) AS dist
FROM documents a JOIN documents b ON b.doc_id = a.doc_id + 1
"""


def q_entity_resolution(sf_dir: str):
    """Entity-resolution chain: consecutive-id candidate pairs → exact
    pair-vectorized Levenshtein gate (≤ 100, the planted near-dup
    band) → DISTRIBUTED connected components → canonical = min doc id
    per cluster; docs with no similar neighbor stay their own
    canonical. The candidate graph is run-structured (edges only
    between adjacent ids), so the SQL twin is the closed-form
    gaps-and-islands window — an independent check on the generic
    distributed components machinery. The label table is bounded by
    the dup rate (minhash-components convention) and broadcast for the
    final mapping; the corpus itself streams."""
    from georay.stages.components import connected_components
    from georay.stages.dedup import edit_distance_batch

    docs = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def left_prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "next_id": pc.add(batch["doc_id"], 1),
                "text_a": batch["text"],
            }
        )

    def right_prep(batch: pa.Table) -> pa.Table:
        return pa.table({"rid": batch["doc_id"], "text_b": batch["text"]})

    joined = ops.equi_join_partitioned(
        docs.map_batches(left_prep, batch_format="pyarrow",
                         zero_copy_batch=True, batch_size=None),
        docs.map_batches(right_prep, batch_format="pyarrow",
                         zero_copy_batch=True, batch_size=None),
        on="next_id", right_on="rid",
    )

    def gate(batch: pa.Table) -> pa.Table:
        d = edit_distance_batch(batch["text_a"], batch["text_b"])
        keep = d <= 100
        return pa.table(
            {
                "id_a": batch["doc_id"].filter(pa.array(keep)),
                "id_b": batch["next_id"].filter(pa.array(keep)),
            }
        )

    edges = joined.map_batches(
        gate, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    labels = connected_components(edges, "id_a", "id_b")  # (node, label)
    node = labels["node"].to_numpy(zero_copy_only=False).astype(np.int64)
    lab = labels["label"].to_numpy(zero_copy_only=False).astype(np.int64)
    o = np.argsort(node)
    ref = exchange.broadcast((node[o], lab[o]))

    def assign(batch: pa.Table) -> pa.Table:
        ns, ls = ref.get()
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(ns, ids)
        pos_c = np.minimum(pos, max(ns.shape[0] - 1, 0))
        hit = (ns[pos_c] == ids) if ns.shape[0] else np.zeros(
            ids.shape[0], bool
        )
        canon = np.where(hit, ls[pos_c] if ns.shape[0] else 0, ids)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "canonical": pa.array(canon, pa.int64()),
            }
        )

    return docs.map_batches(
        assign, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


SQL_ENTITY_RESOLUTION = """
WITH d AS (SELECT doc_id, text FROM documents),
sim AS (
  SELECT a.doc_id AS id,
         CASE WHEN b.doc_id IS NOT NULL
               AND levenshtein(a.text, b.text) <= 100
              THEN 1 ELSE 0 END AS joined_prev
  FROM d a LEFT JOIN d b ON b.doc_id = a.doc_id - 1
),
g AS (
  SELECT id,
         SUM(1 - joined_prev) OVER (ORDER BY id
                                    ROWS UNBOUNDED PRECEDING) AS grp
  FROM sim
)
SELECT id AS doc_id,
       MIN(id) OVER (PARTITION BY grp) AS canonical
FROM g
"""


# --------------------------------------------------------- BPE tokenizer

BPE_MERGES = 100


def q_bpe_trained(sf_dir: str):
    """BPE tokenizer trained on the corpus (distributed wordcount →
    driver merge loop over the o(vocab) table, the standard recipe)
    then per-doc BPE token counts via the cached actor-pool encoder.
    No SQL twin for LEARNED merges — correctness pinned by pytest
    (classic Sennrich example); the oracled encode queries are
    ``bpe_base`` (0 merges) and ``bpe_tokens`` (fixed vocab)."""
    from georay.stages.text import add_bpe_token_count, bpe_train

    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    merges = bpe_train(ds, n_merges=BPE_MERGES)
    out = add_bpe_token_count(ds, merges)
    return out.select_columns(["doc_id", "n_bpe_tokens"])


# the production encode shape: a FIXED vocab (training happens once,
# offline — q_bpe_trained) applied at corpus scale. Fixed merges make
# the greedy rank-by-rank BPE encode SQL-replicable: each chained
# replace() is exactly one rank's leftmost-non-overlapping merge pass,
# and the end-of-word marker (fused into the last char) is handled by
# restricting matches to the word's first len-1 chars.
BPE_FIXED_MERGES = [("t", "h"), ("th", "e")]


def q_bpe_tokens(sf_dir: str):
    """Per-doc BPE token counts under the FIXED two-merge vocab
    ``th``, ``the`` via the cached actor-pool encoder
    (stages/text.py BpeTokenCounter). Token count per word =
    chars − merge applications; the SQL twin counts applications with
    chained replace() over the word's first len-1 chars (the last char
    carries the end-of-word marker and can never match)."""
    from georay.stages.text import add_bpe_token_count

    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    out = add_bpe_token_count(ds, merges=BPE_FIXED_MERGES)
    return out.select_columns(["doc_id", "n_bpe_tokens"])


SQL_BPE_TOKENS = r"""
WITH words AS (
  SELECT doc_id,
         unnest(string_split(trim(regexp_replace(lower(text), '\s+', ' ', 'g')), ' ')) AS w
  FROM documents
),
wt AS (
  SELECT doc_id,
         length(w)
         - (length(substr(w, 1, length(w)-1))
            - length(replace(substr(w, 1, length(w)-1), 'th', chr(1))))
         - (length(replace(substr(w, 1, length(w)-1), 'th', chr(1)))
            - length(replace(replace(substr(w, 1, length(w)-1), 'th', chr(1)), chr(1)||'e', chr(2))))
           AS toks
  FROM words WHERE w <> ''
)
SELECT d.doc_id AS doc_id, CAST(COALESCE(s.n, 0) AS BIGINT) AS n_bpe_tokens
FROM documents d
LEFT JOIN (SELECT doc_id, SUM(toks) AS n FROM wt GROUP BY doc_id) s ON d.doc_id = s.doc_id
"""


def q_bpe_base(sf_dir: str):
    """Oracled twin of ``bpe_tokens``: with ZERO merges every word is
    its characters, so the count is the normalized text's non-space
    codepoint count — pins the whole tokenize → segment → per-doc
    reduce plumbing in SQL."""
    from georay.stages.text import add_bpe_token_count

    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    out = add_bpe_token_count(ds, merges=[])
    return out.select_columns(["doc_id", "n_bpe_tokens"])


SQL_BPE_BASE = r"""
SELECT doc_id,
       length(replace(trim(regexp_replace(lower(text), '\s+', ' ', 'g')), ' ', ''))
         AS n_bpe_tokens
FROM documents
"""


# --------------------------------------------------------------- PCA

GRAM_DIMS = 8


def q_gram_matrix(sf_dir: str):
    """Quantized-integer embedding Gram matrix (the one-pass distributed
    state behind pca_fit) — oracle checks the first 8×8 upper triangle;
    the engine computes all 64 dims in the same pass."""
    from georay.stages.embed import gram_quantized

    ds = rd.read_parquet(_t(sf_dir, "embeddings"), columns=["embedding"])
    g = gram_quantized(ds)
    return g.filter(
        expr=f"i >= 0 and j >= 0 and i < {GRAM_DIMS} and j < {GRAM_DIMS}"
    )


SQL_GRAM_MATRIX = f"""
SELECT s.i, t.j,
       CAST(SUM(
         CAST(floor(CAST(embedding[s.i + 1] AS DOUBLE) * 1048576e0) AS BIGINT)
         * CAST(floor(CAST(embedding[t.j + 1] AS DOUBLE) * 1048576e0) AS BIGINT)
       ) AS BIGINT) AS g
FROM embeddings,
     UNNEST(generate_series(0, {GRAM_DIMS - 1})) AS s(i),
     UNNEST(generate_series(0, {GRAM_DIMS - 1})) AS t(j)
WHERE t.j >= s.i
GROUP BY s.i, t.j
"""


# ------------------------------------------------------ graph analytics

# distinct co-purchased part pairs within an order, support >= 2 orders
SQL_COPURCHASE_EDGES = """
p0 AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
e AS (
  SELECT a.l_partkey AS a, b.l_partkey AS b
  FROM p0 a JOIN p0 b
    ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
  GROUP BY 1, 2 HAVING COUNT(*) >= 2
)
"""


def _copurchase_edges(sf_dir: str):
    from georay import analytics

    li = rd.read_parquet(_t(sf_dir, "lineitem"), columns=["l_orderkey", "l_partkey"])
    return analytics.cooccurrence_edges(
        li, "l_orderkey", "l_partkey", min_support=2
    )


def q_degree_hist(sf_dir: str):
    """Degree histogram of the co-purchase part graph (edges = part
    pairs sharing ≥2 orders): pair expansion in order buckets + two
    combine-tree aggregations — the lineitem table shuffles once, edges
    never do (analytics.cooccurrence_edges / degree_distribution)."""
    from georay import analytics

    return analytics.degree_distribution(_copurchase_edges(sf_dir))


SQL_DEGREE_HIST = f"""
WITH {SQL_COPURCHASE_EDGES},
deg AS (SELECT node, COUNT(*) AS degree
        FROM (SELECT a AS node FROM e UNION ALL SELECT b FROM e) GROUP BY node)
SELECT degree, COUNT(*) AS n_nodes FROM deg GROUP BY degree
"""


def q_triangles(sf_dir: str):
    """Exact triangle count of the co-purchase graph via the degree-
    ordered node-iterator (wedges bounded O(m^1.5); see
    analytics.triangle_count). Count is orientation-invariant, so the
    oracle uses the plain a<b three-way self-join."""
    from georay import analytics

    return analytics.triangle_count(_copurchase_edges(sf_dir))


SQL_TRIANGLES = f"""
WITH {SQL_COPURCHASE_EDGES}
SELECT COUNT(*) AS n_triangles
FROM e e1 JOIN e e2 ON e2.a = e1.b JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b
"""


DAG_ROUNDS = 12


def q_dag_layers(sf_dir: str):
    """Topological layers of the co-purchase DAG (edges directed
    low→high part key, so acyclicity is structural): longest path of
    ≤12 edges ending at each node (analytics.dag_layers — max-plus
    relaxation through the sssp machinery's directed mode). The SQL
    twin is the depth-bounded recursive CTE with the same cap."""
    from georay import analytics

    return analytics.dag_layers(_copurchase_edges(sf_dir), rounds=DAG_ROUNDS)


SQL_DAG_LAYERS = f"""
WITH RECURSIVE {SQL_COPURCHASE_EDGES},
nodes AS (SELECT a AS v FROM e UNION SELECT b FROM e),
walk AS (
  SELECT v, 0 AS d FROM nodes
  UNION
  SELECT e.b AS v, walk.d + 1 AS d FROM walk JOIN e ON e.a = walk.v
  WHERE walk.d < {DAG_ROUNDS}
)
SELECT v AS node, MAX(d) AS layer FROM walk GROUP BY v
"""


LPA_ROUNDS = 3


def q_label_prop(sf_dir: str):
    """Deterministic synchronous label propagation (community
    detection) on the co-purchase graph, {LPA_ROUNDS} fixed rounds:
    every node simultaneously adopts its neighbors' modal label, ties
    to the smaller label (analytics.label_propagation — per round one
    streaming edge pass into the combine tree, labels broadcast)."""
    from georay import analytics

    return analytics.label_propagation(
        _copurchase_edges(sf_dir), rounds=LPA_ROUNDS
    )


def q_label_prop_distributed(sf_dir: str):
    """Distributed-plan twin of ``label_prop`` (local_edge_cutoff=0):
    the per-round streaming-edge-pass + combine-tree + broadcast-label
    path runs even on the small test graph, proving it produces the
    identical communities. Shares the unrolled-CTE oracle."""
    from georay import analytics

    return analytics.label_propagation(
        _copurchase_edges(sf_dir), rounds=LPA_ROUNDS, local_edge_cutoff=0
    )


def q_label_prop_partitioned(sf_dir: str):
    """Billion-node twin of ``label_prop``
    (analytics.label_propagation_partitioned): labels stay a Dataset —
    per round one node-keyed co-shuffle in which each bucket applies
    the modal pick to the (dst, label, count) messages it received and
    sends its new labels along its edges. Shares the unrolled-CTE
    oracle."""
    from georay import analytics

    return analytics.label_propagation_partitioned(
        _copurchase_edges(sf_dir), rounds=LPA_ROUNDS
    )


def _lpa_ctes(rounds: int) -> str:
    """WITH-body producing ``l{rounds}(node, lab)`` — the unrolled
    synchronous-LPA chain shared by the label_prop and modularity
    oracles."""
    ctes = ["l0 AS (SELECT node, node AS lab FROM nodes)"]
    for r in range(1, rounds + 1):
        ctes.append(f"""l{r} AS (
  SELECT node, lab FROM (
    SELECT s.d AS node, l.lab, COUNT(*) AS c,
           ROW_NUMBER() OVER (
             PARTITION BY s.d ORDER BY COUNT(*) DESC, l.lab
           ) AS rn
    FROM sym s JOIN l{r - 1} l ON l.node = s.s
    GROUP BY s.d, l.lab)
  WHERE rn = 1
)""")
    return (
        f"{SQL_COPURCHASE_EDGES},\n"
        "sym AS (SELECT a AS s, b AS d FROM e UNION ALL SELECT b, a FROM e),\n"
        "nodes AS (SELECT DISTINCT s AS node FROM sym),\n"
        + ",\n".join(ctes)
    )


SQL_LABEL_PROP = (
    f"WITH {_lpa_ctes(LPA_ROUNDS)}\n"
    f"SELECT node, lab AS label FROM l{LPA_ROUNDS}"
)


def q_modularity(sf_dir: str):
    """Newman modularity of the ``label_prop`` communities on the
    co-purchase graph — exact integer numerator
    ``q_num = Σ_c (4m·e_c − d_c²)`` so ``Q = q_num/(4m²)``
    (analytics.modularity: labels broadcast, one streaming edge pass,
    combine tree, o(communities) driver fold). The quality gate that
    makes the LPA output actionable."""
    from georay import analytics

    edges = _copurchase_edges(sf_dir).materialize()
    labels = analytics.label_propagation(edges, rounds=LPA_ROUNDS)
    return analytics.modularity(edges, labels)


SQL_MODULARITY = f"""
WITH {_lpa_ctes(LPA_ROUNDS)},
lab AS (SELECT node, lab FROM l{LPA_ROUNDS}),
m AS (SELECT COUNT(*) AS m FROM e),
deg AS (SELECT s AS node, COUNT(*) AS k FROM sym GROUP BY s),
dc AS (
  SELECT l.lab, SUM(d.k) AS dsum
  FROM deg d JOIN lab l ON l.node = d.node GROUP BY l.lab
),
ec AS (
  SELECT la.lab, COUNT(*) AS intra
  FROM e JOIN lab la ON la.node = e.a JOIN lab lb ON lb.node = e.b
  WHERE la.lab = lb.lab GROUP BY la.lab
),
terms AS (
  SELECT dc.lab, dc.dsum, COALESCE(ec.intra, 0) AS intra
  FROM dc LEFT JOIN ec ON ec.lab = dc.lab
)
SELECT CAST(m.m AS BIGINT) AS m_edges,
       CAST(SUM(4 * m.m * terms.intra - terms.dsum * terms.dsum) AS BIGINT)
         AS q_num
FROM terms CROSS JOIN m GROUP BY m.m
"""


ITEM_SIM_K = 3


def q_item_sim(sf_dir: str):
    """Item-item co-purchase recommender: top-{ITEM_SIM_K} similar
    parts per part by integer-exact bipartite cosine²
    (analytics.item_similarity_topk — co-occurrence bucket plan +
    o(items) count broadcast + map-side-pruned group_top_k)."""
    from georay import analytics

    li = rd.read_parquet(_t(sf_dir, "lineitem"),
                         columns=["l_orderkey", "l_partkey"])
    return analytics.item_similarity_topk(
        li, "l_orderkey", "l_partkey", k=ITEM_SIM_K, min_support=2,
        scale_bits=20,
    )


SQL_ITEM_SIM = f"""
WITH p0 AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
nx AS (SELECT l_partkey AS item, COUNT(*) AS n FROM p0 GROUP BY 1),
e AS (
  SELECT a.l_partkey AS a, b.l_partkey AS b, COUNT(*) AS sup
  FROM p0 a JOIN p0 b
    ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
  GROUP BY 1, 2 HAVING COUNT(*) >= 2
),
d AS (
  SELECT a AS src, b AS dst, sup FROM e
  UNION ALL SELECT b, a, sup FROM e
),
s AS (
  SELECT d.src, d.dst,
         CAST((d.sup * d.sup * 1048576) // (na.n * nb.n) AS BIGINT)
           AS score_q
  FROM d JOIN nx na ON na.item = d.src JOIN nx nb ON nb.item = d.dst
)
SELECT src, dst, score_q FROM (
  SELECT src, dst, score_q,
         ROW_NUMBER() OVER (PARTITION BY src ORDER BY score_q DESC, dst)
           AS rn
  FROM s
) WHERE rn <= {ITEM_SIM_K}
"""


LINK_MIN_CN = 2


def q_link_predict(sf_dir: str):
    """Common-neighbor link prediction on the co-purchase graph:
    non-adjacent part pairs with ≥2 shared neighbors, scored by the
    count (analytics.link_prediction_cn — wedge counting reuses the
    co-occurrence bucket co-shuffle; existing edges removed with the
    composite-key partitioned anti join, keys-only on the right)."""
    from georay import analytics

    return analytics.link_prediction_cn(
        _copurchase_edges(sf_dir), min_cn=LINK_MIN_CN
    )


SQL_LINK_PREDICT = f"""
WITH {SQL_COPURCHASE_EDGES},
inc AS (SELECT a AS v, b AS n FROM e UNION ALL SELECT b AS v, a AS n FROM e),
cn AS (
  SELECT x.n AS a, y.n AS b, COUNT(*) AS cn
  FROM inc x JOIN inc y ON x.v = y.v AND x.n < y.n
  GROUP BY 1, 2
  HAVING COUNT(*) >= {LINK_MIN_CN}
)
SELECT cn.a, cn.b, cn.cn
FROM cn ANTI JOIN e ON e.a = cn.a AND e.b = cn.b
"""


PAGERANK_ITERS = 3


def q_pagerank(sf_dir: str):
    """Integer-exact PageRank (3 fixed-point power iterations) over the
    co-purchase graph — every update is integer arithmetic
    (analytics.pagerank), so the chained-CTE SQL twin is bit-identical.
    One streaming edge pass + combine-tree per iteration."""
    from georay import analytics

    edges = _copurchase_edges(sf_dir).materialize()
    return analytics.pagerank(edges, n_iter=PAGERANK_ITERS)


def q_pagerank_partitioned(sf_dir: str):
    """Partitioned-state twin of ``pagerank``: the (node, degree, rank)
    table never lands on the driver — one node-keyed co-shuffle per
    power iteration (analytics.pagerank_partitioned). Identical
    fixed-point integers, so it shares the chained-CTE oracle. The
    billion-node scale path."""
    from georay import analytics

    edges = _copurchase_edges(sf_dir).materialize()
    return analytics.pagerank_partitioned(edges, n_iter=PAGERANK_ITERS)


def q_rectangles(sf_dir: str):
    """Exact 4-cycle (rectangle) count of the co-purchase graph —
    wedge multiplicities per endpoint pair through mid-node bucket
    co-shuffle + combine tree, Σ C(t,2)/2 (analytics.rectangle_count).
    Count is orientation-invariant, so the oracle is the symmetric
    wedge self-join with the same choose-2 identity."""
    from georay import analytics

    return analytics.rectangle_count(_copurchase_edges(sf_dir))


def q_rectangles_partitioned(sf_dir: str):
    """Distributed-plan twin of ``rectangles`` (local_edge_cutoff=0):
    the adjacency co-shuffle + combine-tree path runs even on the small
    test graph, proving the partitioned plan produces the identical
    count. Shares the wedge self-join oracle."""
    from georay import analytics

    return analytics.rectangle_count(
        _copurchase_edges(sf_dir), local_edge_cutoff=0
    )


SQL_RECTANGLES = f"""
WITH {SQL_COPURCHASE_EDGES},
e2 AS (SELECT a AS s, b AS d FROM e UNION ALL SELECT b AS s, a AS d FROM e),
w AS (
  SELECT x.d AS u, y.d AS w, COUNT(*) AS t
  FROM e2 x JOIN e2 y ON x.s = y.s AND x.d < y.d
  GROUP BY 1, 2
)
SELECT CAST(COALESCE(SUM(t * (t - 1) // 2), 0) // 2 AS BIGINT)
       AS n_rectangles FROM w
"""


def q_triangles_partitioned(sf_dir: str):
    """Degree-partitioned twin of ``triangles``: degrees reach the
    orientation pass through two hash-bucket co-shuffle joins
    (analytics._attach_lookup) instead of a driver broadcast, and the
    wedge stage reads the attached deg_dst column — the node table
    never materializes anywhere central. Count is identical, so it
    shares the a<b three-way self-join oracle."""
    from georay import analytics

    return analytics.triangle_count(
        _copurchase_edges(sf_dir), local_edge_cutoff=0,
        degree_strategy="partitioned",
    )


def _pagerank_sql() -> str:
    scale = 1 << 30
    parts = [
        f"WITH {SQL_COPURCHASE_EDGES.strip()}",
        ",\nsym AS (SELECT a AS s, b AS d FROM e UNION ALL SELECT b, a FROM e)",
        ",\ndeg AS (SELECT s AS node, COUNT(*) AS deg FROM sym GROUP BY s)",
        ",\nnn AS (SELECT COUNT(*) AS n FROM deg)",
        f",\nr0 AS (SELECT node, {scale} // nn.n AS rq FROM deg CROSS JOIN nn)",
    ]
    for it in range(1, PAGERANK_ITERS + 1):
        prev = f"r{it - 1}"
        parts.append(
            f""",
s{it} AS (SELECT s.d AS node, SUM(r.rq // dg.deg) AS c
       FROM sym s JOIN {prev} r ON r.node = s.s
       JOIN deg dg ON dg.node = s.s GROUP BY s.d),
r{it} AS (SELECT deg.node,
              (15 * CAST({scale} AS BIGINT)) // (100 * nn.n)
              + (85 * COALESCE(s{it}.c, 0)) // 100 AS rq
       FROM deg CROSS JOIN nn LEFT JOIN s{it} ON s{it}.node = deg.node)"""
        )
    # final rq is HUGEINT (SUM promotes) — cast so pandas keeps int64
    parts.append(
        f"\nSELECT node, CAST(rq AS BIGINT) AS rank_q FROM r{PAGERANK_ITERS}"
    )
    return "".join(parts)


SQL_PAGERANK = _pagerank_sql()


_KTRUSS_K = 3
_KTRUSS_ROUNDS = 3


def q_ktruss(sf_dir: str):
    """{_KTRUSS_K}-truss of the co-purchase graph, {_KTRUSS_ROUNDS}
    fixed peel rounds (analytics.ktruss_edges — per-round edge-support
    recount via edge_jaccard's bounded co-shuffles, edge set stays a
    Dataset)."""
    from georay import analytics

    return analytics.ktruss_edges(
        _copurchase_edges(sf_dir), k=_KTRUSS_K, rounds=_KTRUSS_ROUNDS
    )


def _ktruss_sql() -> str:
    # MATERIALIZED for the reason given at ``_kcore_sql``: each round
    # reads the previous edge set four times.
    parts = [
        f"WITH {SQL_COPURCHASE_EDGES.strip()}",
        ",\ne0 AS MATERIALIZED (SELECT a, b FROM e)",
    ]
    for r in range(1, _KTRUSS_ROUNDS + 1):
        p = f"e{r - 1}"
        parts.append(f""",
sym{r} AS MATERIALIZED (SELECT a AS s, b AS d FROM {p} UNION ALL SELECT b, a FROM {p}),
sup{r} AS (
  SELECT e.a, e.b, COUNT(*) AS c FROM {p} e
  JOIN sym{r} s1 ON s1.s = e.a JOIN sym{r} s2 ON s2.s = e.b AND s2.d = s1.d
  GROUP BY e.a, e.b
),
e{r} AS MATERIALIZED (
  SELECT e.a, e.b FROM {p} e
  LEFT JOIN sup{r} c ON c.a = e.a AND c.b = e.b
  WHERE COALESCE(c.c, 0) >= {_KTRUSS_K - 2}
)""")
    parts.append(f"\nSELECT a, b FROM e{_KTRUSS_ROUNDS}")
    return "".join(parts)


SQL_KTRUSS = _ktruss_sql()


def q_pagerank_weighted(sf_dir: str):
    """Edge-weighted PageRank on the co-purchase graph, weight
    1 + (a+b)%7 (the sssp family's id-derived convention): rank splits
    proportionally to edge weight, per-edge integer floor
    (analytics.pagerank_weighted)."""
    from georay import analytics

    return analytics.pagerank_weighted(
        _copurchase_edges(sf_dir).materialize(),
        lambda a, b: 1 + (a + b) % 7,
        n_iter=PAGERANK_ITERS,
    )


def _pagerank_weighted_sql() -> str:
    scale = 1 << 30
    parts = [
        f"WITH {SQL_COPURCHASE_EDGES.strip()}",
        """,
sym AS (SELECT a AS s, b AS d, 1 + (a + b) % 7 AS w FROM e
        UNION ALL SELECT b, a, 1 + (a + b) % 7 FROM e)""",
        ",\ndeg AS (SELECT s AS node, SUM(w) AS wdeg FROM sym GROUP BY s)",
        ",\nnn AS (SELECT COUNT(*) AS n FROM deg)",
        f",\nr0 AS (SELECT node, {scale} // nn.n AS rq FROM deg CROSS JOIN nn)",
    ]
    for it in range(1, PAGERANK_ITERS + 1):
        prev = f"r{it - 1}"
        parts.append(
            f""",
s{it} AS (SELECT s.d AS node, SUM((r.rq * s.w) // dg.wdeg) AS c
       FROM sym s JOIN {prev} r ON r.node = s.s
       JOIN deg dg ON dg.node = s.s GROUP BY s.d),
r{it} AS (SELECT deg.node,
              (15 * CAST({scale} AS BIGINT)) // (100 * nn.n)
              + (85 * COALESCE(s{it}.c, 0)) // 100 AS rq
       FROM deg CROSS JOIN nn LEFT JOIN s{it} ON s{it}.node = deg.node)"""
        )
    parts.append(
        f"\nSELECT node, CAST(rq AS BIGINT) AS rank_q FROM r{PAGERANK_ITERS}"
    )
    return "".join(parts)


SQL_PAGERANK_WEIGHTED = _pagerank_weighted_sql()


PPR_N_SEEDS = 3


def q_ppr(sf_dir: str):
    """Personalized PageRank (random walk with restart) from the
    {PPR_N_SEEDS} smallest part keys in the co-purchase graph — the
    proximity ranking behind 'more like these' recommendations
    (analytics.pagerank(seeds=...): teleport mass concentrated on the
    seed set, identical integer fixed-point iteration)."""
    from georay import analytics

    edges = _copurchase_edges(sf_dir).materialize()
    nodes = analytics.degree_table(edges).to_pandas()["node"].to_numpy()
    seeds = np.sort(nodes.astype(np.int64))[:PPR_N_SEEDS]
    return analytics.pagerank(edges, n_iter=PAGERANK_ITERS, seeds=seeds)


def _ppr_sql() -> str:
    scale = 1 << 30
    parts = [
        f"WITH {SQL_COPURCHASE_EDGES.strip()}",
        ",\nsym AS (SELECT a AS s, b AS d FROM e UNION ALL SELECT b, a FROM e)",
        ",\ndeg AS (SELECT s AS node, COUNT(*) AS deg FROM sym GROUP BY s)",
        f",\nsd AS (SELECT node FROM deg ORDER BY node LIMIT {PPR_N_SEEDS})",
        ",\nns AS (SELECT COUNT(*) AS k FROM sd)",
        f""",
r0 AS (SELECT deg.node,
              CASE WHEN deg.node IN (SELECT node FROM sd)
                   THEN {scale} // ns.k ELSE 0 END AS rq
       FROM deg CROSS JOIN ns)""",
    ]
    for it in range(1, PAGERANK_ITERS + 1):
        prev = f"r{it - 1}"
        parts.append(
            f""",
s{it} AS (SELECT s.d AS node, SUM(r.rq // dg.deg) AS c
       FROM sym s JOIN {prev} r ON r.node = s.s
       JOIN deg dg ON dg.node = s.s GROUP BY s.d),
r{it} AS (SELECT deg.node,
              CASE WHEN deg.node IN (SELECT node FROM sd)
                   THEN (15 * CAST({scale} AS BIGINT)) // (100 * ns.k)
                   ELSE 0 END
              + (85 * COALESCE(s{it}.c, 0)) // 100 AS rq
       FROM deg CROSS JOIN ns LEFT JOIN s{it} ON s{it}.node = deg.node)"""
        )
    parts.append(
        f"\nSELECT node, CAST(rq AS BIGINT) AS rank_q FROM r{PAGERANK_ITERS}"
    )
    return "".join(parts)


SQL_PPR = _ppr_sql()


def q_components(sf_dir: str):
    """Connected components of the co-purchase graph: distributed
    min-label propagation + driver pointer jumping
    (stages.components.connected_components; the small-edge-list local
    fast path takes over below 2M edges). Label = component-min node."""
    from georay.stages.components import connected_components

    return connected_components(_copurchase_edges(sf_dir), id_a="a", id_b="b")


SQL_COMPONENTS = f"""
WITH RECURSIVE
{SQL_COPURCHASE_EDGES.strip()},
sym AS (SELECT a AS s, b AS d FROM e UNION ALL SELECT b, a FROM e),
reach(n, m) AS (
  SELECT s, d FROM sym
  UNION
  SELECT r.n, s.d FROM reach r JOIN sym s ON s.s = r.m
)
SELECT n AS node, LEAST(n, MIN(m)) AS label FROM reach GROUP BY n
"""


def q_graph_report(sf_dir: str):
    """END-TO-END graph summary — the graph family's ``movement_report``
    sibling: ONE row fusing components, communities, modularity,
    cohesion and centrality over the co-purchase graph, every number an
    already-oracled operator's output and the WHOLE row matched against
    one mega-CTE SQL query:

      (n_nodes, n_edges, n_components, n_communities, mod_q_num,
       truss_edges, top_node, top_rank_q)

    The edge list materializes once and feeds every stage; label/rank
    tables are o(nodes) (the broadcast family budget)."""
    from georay import analytics
    from georay.stages.components import connected_components

    edges = _copurchase_edges(sf_dir).materialize()
    n_edges = edges.count()
    comp = connected_components(edges, id_a="a", id_b="b")
    n_nodes = comp.num_rows
    n_components = len(set(comp["label"].to_pylist()))
    lpa = analytics.label_propagation(edges, rounds=LPA_ROUNDS)
    lpat = lpa.to_pandas()
    n_communities = int(lpat["label"].nunique())
    mod = analytics.modularity(edges, lpa).to_pandas()
    truss_edges = analytics.ktruss_edges(edges, k=_KTRUSS_K,
                                         rounds=_KTRUSS_ROUNDS).count()
    pr = analytics.pagerank(edges, n_iter=PAGERANK_ITERS).to_pandas()
    top = pr.sort_values(["rank_q", "node"],
                         ascending=[False, True]).iloc[0]
    return pa.table(
        {
            "n_nodes": pa.array([n_nodes], pa.int64()),
            "n_edges": pa.array([n_edges], pa.int64()),
            "n_components": pa.array([n_components], pa.int64()),
            "n_communities": pa.array([n_communities], pa.int64()),
            "mod_q_num": pa.array([int(mod["q_num"].iloc[0])], pa.int64()),
            "truss_edges": pa.array([truss_edges], pa.int64()),
            "top_node": pa.array([int(top["node"])], pa.int64()),
            "top_rank_q": pa.array([int(top["rank_q"])], pa.int64()),
        }
    )


def _graph_report_sql() -> str:
    scale = 1 << 30
    parts = [
        f"WITH RECURSIVE {SQL_COPURCHASE_EDGES.strip()}",
        """,
sym AS (SELECT a AS s, b AS d FROM e UNION ALL SELECT b, a FROM e),
nodes AS (SELECT DISTINCT s AS node FROM sym),
deg AS (SELECT s AS node, COUNT(*) AS deg FROM sym GROUP BY s),
nn AS (SELECT COUNT(*) AS n FROM deg),
reach(n, m) AS (
  SELECT s, d FROM sym
  UNION
  SELECT r.n, s.d FROM reach r JOIN sym s ON s.s = r.m
),
comp AS (SELECT n AS node, LEAST(n, MIN(m)) AS label FROM reach GROUP BY n),
l0 AS (SELECT node, node AS lab FROM nodes)""",
    ]
    for r in range(1, LPA_ROUNDS + 1):
        parts.append(f""",
l{r} AS (
  SELECT node, lab FROM (
    SELECT s.d AS node, l.lab, COUNT(*) AS c,
           ROW_NUMBER() OVER (
             PARTITION BY s.d ORDER BY COUNT(*) DESC, l.lab
           ) AS rn
    FROM sym s JOIN l{r - 1} l ON l.node = s.s
    GROUP BY s.d, l.lab)
  WHERE rn = 1
)""")
    parts.append(f""",
mm AS (SELECT COUNT(*) AS m FROM e),
dc AS (
  SELECT l.lab, SUM(d.deg) AS dsum
  FROM deg d JOIN l{LPA_ROUNDS} l ON l.node = d.node GROUP BY l.lab
),
ec AS (
  SELECT la.lab, COUNT(*) AS intra
  FROM e JOIN l{LPA_ROUNDS} la ON la.node = e.a
  JOIN l{LPA_ROUNDS} lb ON lb.node = e.b
  WHERE la.lab = lb.lab GROUP BY la.lab
),
terms AS (
  SELECT dc.lab, dc.dsum, COALESCE(ec.intra, 0) AS intra
  FROM dc LEFT JOIN ec ON ec.lab = dc.lab
),
e0 AS (SELECT a, b FROM e)""")
    for r in range(1, _KTRUSS_ROUNDS + 1):
        p = f"e{r - 1}"
        parts.append(f""",
tsym{r} AS (SELECT a AS s, b AS d FROM {p} UNION ALL SELECT b, a FROM {p}),
tsup{r} AS (
  SELECT x.a, x.b, COUNT(*) AS c FROM {p} x
  JOIN tsym{r} s1 ON s1.s = x.a JOIN tsym{r} s2 ON s2.s = x.b AND s2.d = s1.d
  GROUP BY x.a, x.b
),
e{r} AS (
  SELECT x.a, x.b FROM {p} x
  LEFT JOIN tsup{r} c ON c.a = x.a AND c.b = x.b
  WHERE COALESCE(c.c, 0) >= {_KTRUSS_K - 2}
)""")
    parts.append(
        f",\nr0 AS (SELECT node, {scale} // nn.n AS rq FROM deg CROSS JOIN nn)"
    )
    for it in range(1, PAGERANK_ITERS + 1):
        prev = f"r{it - 1}"
        parts.append(f""",
ps{it} AS (SELECT s.d AS node, SUM(r.rq // dg.deg) AS c
       FROM sym s JOIN {prev} r ON r.node = s.s
       JOIN deg dg ON dg.node = s.s GROUP BY s.d),
r{it} AS (SELECT deg.node,
              (15 * CAST({scale} AS BIGINT)) // (100 * nn.n)
              + (85 * COALESCE(ps{it}.c, 0)) // 100 AS rq
       FROM deg CROSS JOIN nn LEFT JOIN ps{it} ON ps{it}.node = deg.node)""")
    parts.append(f"""
SELECT
  (SELECT CAST(COUNT(*) AS BIGINT) FROM deg) AS n_nodes,
  (SELECT CAST(COUNT(*) AS BIGINT) FROM e) AS n_edges,
  (SELECT CAST(COUNT(DISTINCT label) AS BIGINT) FROM comp) AS n_components,
  (SELECT CAST(COUNT(DISTINCT lab) AS BIGINT) FROM l{LPA_ROUNDS})
    AS n_communities,
  (SELECT CAST(SUM(4 * mm.m * terms.intra - terms.dsum * terms.dsum)
               AS BIGINT) FROM terms CROSS JOIN mm) AS mod_q_num,
  (SELECT CAST(COUNT(*) AS BIGINT) FROM e{_KTRUSS_ROUNDS}) AS truss_edges,
  (SELECT node FROM r{PAGERANK_ITERS} ORDER BY rq DESC, node LIMIT 1)
    AS top_node,
  (SELECT CAST(MAX(rq) AS BIGINT) FROM r{PAGERANK_ITERS}) AS top_rank_q
""")
    return "".join(parts)


SQL_GRAPH_REPORT = _graph_report_sql()


def q_components_partitioned(sf_dir: str):
    """Partitioned-label twin of ``components``: same co-purchase graph,
    but the (node → label) table stays DISTRIBUTED — large-star/small-star
    contraction, one node-keyed co-shuffle per superstep and O(log² n)
    rounds, driver sees one row count per superstep
    (stages.components.connected_components_partitioned). The scale path
    for graphs whose node table exceeds the broadcast cutoff; must be
    bit-equal to the broadcast plan, so it shares the recursive-CTE
    oracle."""
    from georay.stages.components import connected_components_partitioned

    return connected_components_partitioned(
        _copurchase_edges(sf_dir), id_a="a", id_b="b"
    )


# ---------------------------------------------------------------- TPC-H r4


def q_tpch_q13(sf_dir: str):
    """TPC-H Q13 customer order-count distribution, adapted: the
    left-join predicate o_orderstatus <> 'F' stands in for the
    reference's NOT LIKE comment filter (the synthetic orders table has
    no comment column). Shape preserved exactly: orders pre-aggregate
    to (custkey, n) partials BEFORE the join (map-side combine — the
    big side never ships raw rows), LEFT-attach to customers through
    the partitioned bucket join so order-less customers keep c_count=0,
    then the tiny (c_count → custdist) histogram folds in the combine
    tree."""
    cust = rd.read_parquet(_t(sf_dir, "customer"), columns=["c_custkey"])
    orders = rd.read_parquet(
        _t(sf_dir, "orders"), columns=["o_custkey", "o_orderstatus"]
    )

    def ofilter(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pc.invert(pc.equal(batch["o_orderstatus"], "F")))
        return pa.table({"o_custkey": sub["o_custkey"]})

    per_cust = ops.salted_count(
        orders.map_batches(
            ofilter, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        "o_custkey", count_alias="c_count",
    )
    joined = ops.equi_join_partitioned(
        cust, per_cust, on="c_custkey", right_on="o_custkey", how="left"
    )

    def fill0(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"c_count": pc.fill_null(batch["c_count"], 0).cast(pa.int64())}
        )

    counts = joined.map_batches(
        fill0, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return ops.salted_count(counts, "c_count", count_alias="custdist")


SQL_TPCH_Q13 = """
SELECT c_count, COUNT(*) AS custdist
FROM (
  SELECT c_custkey, COUNT(o_custkey) AS c_count
  FROM customer LEFT JOIN orders
    ON c_custkey = o_custkey AND o_orderstatus <> 'F'
  GROUP BY c_custkey
)
GROUP BY c_count
"""


def q_tpch_q15(sf_dir: str):
    """TPC-H Q15 top supplier(s) by quarterly revenue: per-supplier
    quantized revenue over 1996Q1 (map-side combine + tree merge), the
    one-row global max broadcast back, and the equality filter keeps
    ALL tied suppliers (the spec's revenue = max(total_revenue)
    correlated view). Revenue quantizes per row to
    floor(price·(1−disc)·10000+0.5) so the max compare is exact
    integer arithmetic on both engines."""
    li = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def prep(batch: pa.Table) -> pa.Table:
        ship = batch["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        sub = batch.filter(
            pa.array((ship >= _Y96_LO_US) & (ship < _Y96_Q2_US))
        )
        p = sub["l_extendedprice"].to_numpy(zero_copy_only=False)
        d = sub["l_discount"].to_numpy(zero_copy_only=False)
        rev = np.floor(p * (1.0 - d) * 10000.0 + 0.5).astype(np.int64)
        return pa.table(
            {"l_suppkey": sub["l_suppkey"], "rev_q": pa.array(rev)}
        )

    rev = ops.salted_count(
        li.map_batches(
            prep, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        "l_suppkey", agg_cols={"rev_q": "sum"}, count_alias="_n",
    )
    top = ops.top_k(rev, "sum_rev_q", 1).take_all()  # one row — bounded
    best = int(top[0]["sum_rev_q"]) if top else 0

    def keep_max(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pc.equal(batch["sum_rev_q"], best))
        return pa.table(
            {"s_suppkey": sub["l_suppkey"].cast(pa.int64()),
             "total_revenue": sub["sum_rev_q"]}
        )

    return rev.map_batches(
        keep_max, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    )


SQL_TPCH_Q15 = f"""
WITH revenue AS (
  SELECT l_suppkey AS supplier_no,
         SUM(CAST(floor(l_extendedprice * (1.0e0 - l_discount) * 10000.0e0
                        + 0.5e0) AS BIGINT)) AS total_revenue
  FROM lineitem
  WHERE epoch_us(l_shipdate) >= {_Y96_LO_US}
    AND epoch_us(l_shipdate) < {_Y96_Q2_US}
  GROUP BY l_suppkey
)
SELECT supplier_no AS s_suppkey, total_revenue
FROM revenue
WHERE total_revenue = (SELECT MAX(total_revenue) FROM revenue)
"""


def q_tpch_q17(sf_dir: str):
    """TPC-H Q17 small-quantity-order revenue, adapted: p_brand =
    'Brand#1' + p_size < 10 stand in for the reference's brand +
    container pair (the synthetic part has no container). Shape
    preserved: per-part quantity sums pre-aggregate map-side, the
    filtered part dimension BROADCASTS with its (sum, count) stats,
    and the correlated l_quantity < 0.2·avg(l_quantity) predicate
    evaluates as the EXACT integer cross-multiplication
    5·qty_q·cnt < sum_q (no float division on either engine). One-row
    output: quantized yearly revenue."""
    part = rd.read_parquet(
        _t(sf_dir, "part"), columns=["p_partkey", "p_brand", "p_size"]
    )

    def pfilter(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.equal(batch["p_brand"], "Brand#1"),
            pc.less(batch["p_size"], 10),
        )
        return pa.table({"p_partkey": batch.filter(keep)["p_partkey"]})

    pk = np.sort(
        part.map_batches(
            pfilter, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ).to_pandas()["p_partkey"].to_numpy().astype(np.int64)
    )  # filtered dimension — bounded by |part|

    li = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_partkey", "l_quantity", "l_extendedprice"],
    )

    def qprep(batch: pa.Table) -> pa.Table:
        k = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        hit = np.searchsorted(pk, k)
        ok = (hit < pk.size) & (pk[np.minimum(hit, max(pk.size - 1, 0))] == k) if pk.size else np.zeros(k.shape[0], bool)
        sub = batch.filter(pa.array(ok))
        q = sub["l_quantity"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_partkey": sub["l_partkey"],
                "qty_q": pa.array(
                    np.floor(q * 100.0 + 0.5).astype(np.int64)
                ),
                "l_extendedprice": sub["l_extendedprice"],
            }
        )

    hits = li.map_batches(
        qprep, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).materialize()
    stats = ops.salted_count(
        hits.select_columns(["l_partkey", "qty_q"]),
        "l_partkey", agg_cols={"qty_q": "sum"}, count_alias="cnt",
    ).to_pandas()  # one row per FILTERED part — dimension-bounded
    sk = stats["l_partkey"].to_numpy().astype(np.int64)
    so = np.argsort(sk)
    sk = sk[so]
    ssum = stats["sum_qty_q"].to_numpy().astype(np.int64)[so]
    scnt = stats["cnt"].to_numpy().astype(np.int64)[so]
    ref = exchange.broadcast((sk, ssum, scnt))

    def small(batch: pa.Table) -> pa.Table:
        sk, ssum, scnt = ref.get()
        k = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(sk, k)
        q = batch["qty_q"].to_numpy(zero_copy_only=False)
        # 5·qty·cnt < sum  <=>  qty < 0.2·avg (all int64, exact)
        keep = 5 * q * scnt[pos] < ssum[pos]
        p = batch["l_extendedprice"].to_numpy(zero_copy_only=False)[keep]
        rev = np.floor(p * 10000.0 + 0.5).astype(np.int64)
        return pa.table(
            {"partial_rev": pa.array([int(rev.sum())], pa.int64())}
        )

    partials = hits.map_batches(
        small, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )

    def finish(batch: pa.Table) -> pa.Table:
        t = int(pc.sum(batch["partial_rev"]).as_py() or 0)
        return pa.table({"avg_yearly_q": pa.array([t // 7], pa.int64())})

    return exchange.gather(partials, finish)


SQL_TPCH_Q17 = """
SELECT CAST(SUM(CAST(floor(l_extendedprice * 10000.0e0 + 0.5e0) AS BIGINT))
            // 7 AS BIGINT) AS avg_yearly_q
FROM lineitem, part
WHERE p_partkey = l_partkey AND p_brand = 'Brand#1' AND p_size < 10
  AND 5 * CAST(floor(l_quantity * 100.0e0 + 0.5e0) AS BIGINT)
      * (SELECT COUNT(*) FROM lineitem l2 WHERE l2.l_partkey = p_partkey)
      < (SELECT SUM(CAST(floor(l2.l_quantity * 100.0e0 + 0.5e0) AS BIGINT))
         FROM lineitem l2 WHERE l2.l_partkey = p_partkey)
"""


def q_tpch_q21(sf_dir: str):
    """TPC-H Q21 suppliers-who-kept-orders-waiting, adapted:
    l_returnflag = 'R' stands in for the reference's
    l_receiptdate > l_commitdate, and the order-status filter is
    o_orderstatus = 'F'. Shape preserved exactly — the EXISTS (another
    supplier in the order) and NOT EXISTS (another LATE supplier)
    correlations collapse into ONE bucket co-shuffle of lineitem keyed
    by order: a per-order vectorized segment pass computes distinct
    suppliers, distinct late suppliers, and emits the blamed supplier
    when exactly one supplier is late and others exist; per-supplier
    counts then fold in the combine tree with the supplier name
    broadcast-attached."""
    orders = rd.read_parquet(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_orderstatus"]
    )

    def ofilter(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pc.equal(batch["o_orderstatus"], "F"))
        return pa.table({"fk": sub["o_orderkey"]})

    fo = orders.map_batches(
        ofilter, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    li = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_suppkey", "l_returnflag"],
    )
    li = ops.equi_join_partitioned(li, fo, on="l_orderkey", right_on="fk", how="semi")

    def to_pairs(batch: pa.Table) -> pa.Table:
        late = pc.equal(batch["l_returnflag"], "R").to_numpy(
            zero_copy_only=False
        )
        return pa.table(
            {
                "o": batch["l_orderkey"].cast(pa.int64()),
                "s": batch["l_suppkey"].cast(pa.int64()),
                "late": pa.array(late.astype(np.int8)),
            }
        )

    pairs = li.map_batches(
        to_pairs, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )

    def per_bucket(group: pa.Table) -> pa.Table:
        o = group["o"].to_numpy(zero_copy_only=False)
        s = group["s"].to_numpy(zero_copy_only=False)
        lt = group["late"].to_numpy(zero_copy_only=False).astype(bool)
        if o.shape[0] == 0:
            return pa.table({"s_suppkey": pa.array([], pa.int64())})
        order = np.lexsort((s, o))
        o, s, lt = o[order], s[order], lt[order]
        # distinct (o, s) pairs; a pair is "late" if ANY of its rows is,
        # and carries its LATE ROW COUNT (SQL counts each qualifying l1
        # row, so a supplier late twice in one order counts twice)
        first = np.ones(o.shape[0], bool)
        first[1:] = (o[1:] != o[:-1]) | (s[1:] != s[:-1])
        seg = np.cumsum(first) - 1
        late_rows = np.bincount(seg, weights=lt).astype(np.int64)
        pair_late = late_rows > 0
        po, ps = o[first], s[first]
        ofirst = np.ones(po.shape[0], bool)
        ofirst[1:] = po[1:] != po[:-1]
        oseg = np.cumsum(ofirst) - 1
        n_supp = np.bincount(oseg)
        n_late = np.bincount(oseg, weights=pair_late.astype(np.int64)).astype(np.int64)
        # blamed: exactly one late supplier, at least one other supplier
        ok_order = (n_late == 1) & (n_supp > 1)
        hit = pair_late & ok_order[oseg]
        blamed = np.repeat(ps[hit], late_rows[hit])
        return pa.table({"s_suppkey": pa.array(blamed, pa.int64())})

    blamed = exchange.co_shuffle(pairs, "o", per_bucket, n_buckets=64, coalesce=True)
    counts = ops.salted_count(blamed, "s_suppkey", count_alias="numwait")
    import pyarrow.parquet as _pq

    sup = _pq.read_table(_t(sf_dir, "supplier"), columns=["s_suppkey", "s_name"])
    return ops.broadcast_join(
        counts, sup, on="s_suppkey", dim_on="s_suppkey"
    ).select_columns(["s_name", "numwait"])


SQL_TPCH_Q21 = """
SELECT s_name, COUNT(*) AS numwait
FROM supplier, lineitem l1, orders
WHERE s_suppkey = l1.l_suppkey AND o_orderkey = l1.l_orderkey
  AND o_orderstatus = 'F' AND l1.l_returnflag = 'R'
  AND EXISTS (SELECT 1 FROM lineitem l2
              WHERE l2.l_orderkey = l1.l_orderkey
                AND l2.l_suppkey <> l1.l_suppkey)
  AND NOT EXISTS (SELECT 1 FROM lineitem l3
                  WHERE l3.l_orderkey = l1.l_orderkey
                    AND l3.l_suppkey <> l1.l_suppkey
                    AND l3.l_returnflag = 'R')
GROUP BY s_name
"""


def q_tpch_q22(sf_dir: str):
    """TPC-H Q22 global-sales-opportunity, adapted: the country code is
    the LAST key digit of c_name ('Customer#000000042' → '2' — the
    leading digits are all zero at test scales), and the code list
    filter keeps digits 1–5. Shape preserved exactly: the
    positive-balance average is a one-row tree aggregate whose
    (sum_q, cnt) pair broadcasts back so the acctbal > avg predicate
    is the exact integer cross-multiplication bal_q·cnt > sum_q; the
    no-orders condition is the partitioned ANTI join (right ships only
    keys); the final (code, count, sum) histogram folds in the combine
    tree."""
    cust = rd.read_parquet(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_name", "c_acctbal"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        code = pc.utf8_slice_codeunits(batch["c_name"], 17, 18)
        bal = batch["c_acctbal"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "c_custkey": batch["c_custkey"],
                "cntrycode": code,
                "bal_q": pa.array(
                    np.floor(bal * 100.0 + 0.5).astype(np.int64)
                ),
            }
        )

    cs = cust.map_batches(
        prep, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )

    def in_codes(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.is_in(batch["cntrycode"], value_set=pa.array(list("12345")))
        )

    cs = cs.map_batches(
        in_codes, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).materialize()

    def pos_partial(batch: pa.Table) -> pa.Table:
        b = batch["bal_q"].to_numpy(zero_copy_only=False)
        pos = b[b > 0]
        return pa.table(
            {
                "partial_sum": pa.array([int(pos.sum())], pa.int64()),
                "partial_cnt": pa.array([int(pos.size)], pa.int64()),
            }
        )

    stats = cs.map_batches(
        pos_partial, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    ).take_all()  # a handful of partial rows — bounded by block count
    sum_q = sum(int(r["partial_sum"]) for r in stats)
    cnt = sum(int(r["partial_cnt"]) for r in stats)

    def rich(batch: pa.Table) -> pa.Table:
        b = batch["bal_q"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(b * cnt > sum_q))

    orders = rd.read_parquet(
        _t(sf_dir, "orders"), columns=["o_custkey", "o_orderstatus"]
    )

    def fstatus(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pc.equal(batch["o_orderstatus"], "F"))
        return pa.table({"o_custkey": sub["o_custkey"]})

    orders = orders.map_batches(
        fstatus, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    # anti join first (cs is materialized, schema known), then the rich
    # filter — left filters commute with the anti existence probe
    noord = ops.equi_join_partitioned(
        cs, orders, on="c_custkey", right_on="o_custkey", how="anti"
    )
    noord = noord.map_batches(
        rich, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return ops.salted_count(
        noord.select_columns(["cntrycode", "bal_q"]),
        "cntrycode", agg_cols={"bal_q": "sum"}, count_alias="numcust",
    )


SQL_TPCH_Q22 = """
WITH cs AS (
  SELECT c_custkey, substring(c_name, 18, 1) AS cntrycode,
         CAST(floor(c_acctbal * 100.0e0 + 0.5e0) AS BIGINT) AS bal_q
  FROM customer
  WHERE substring(c_name, 18, 1) IN ('1','2','3','4','5')
)
SELECT cntrycode, COUNT(*) AS numcust, SUM(bal_q) AS sum_bal_q
FROM cs
WHERE bal_q * (SELECT COUNT(*) FROM cs WHERE bal_q > 0)
      > (SELECT SUM(bal_q) FROM cs WHERE bal_q > 0)
  AND NOT EXISTS (SELECT 1 FROM orders
                  WHERE o_custkey = c_custkey AND o_orderstatus = 'F')
GROUP BY cntrycode
"""


def q_tpch_q7(sf_dir: str):
    """TPC-H Q7 volume shipping between two nation GROUPS (even ↔ odd
    nationkey, both directions — single nations are too sparse at test
    scales to produce rows), 1996–1997 ship years. Shape preserved
    exactly: supplier→nation and customer→nation are BROADCAST
    attaches (exchange.broadcast once, pc.index_in per batch); the one big-big
    edge — lineitem↔orders on orderkey — takes the partitioned bucket
    co-shuffle; revenue quantizes per row and the (supp_nation,
    cust_nation, year) sums fold in the combine tree."""
    import pyarrow.parquet as _pq

    nat = _pq.read_table(_t(sf_dir, "nation"), columns=["n_nationkey", "n_name"])
    sup = _pq.read_table(_t(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"])
    cus = _pq.read_table(_t(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"])
    s_nat = pa.table(
        {"s_suppkey": sup["s_suppkey"],
         "supp_nation": pa.array(
             [f"GRP_{k % 2}" for k in sup["s_nationkey"].to_pylist()])}
    )
    c_nat = pa.table(
        {"c_custkey": cus["c_custkey"],
         "cust_nation": pa.array(
             [f"GRP_{k % 2}" for k in cus["c_nationkey"].to_pylist()])}
    )
    li = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount",
                 "l_shipdate"],
    )

    def prep(batch: pa.Table) -> pa.Table:
        ship = batch["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        sub = batch.filter(
            pa.array((ship >= _Y96_LO_US) & (ship < _Y98_LO_US))
        )
        p = sub["l_extendedprice"].to_numpy(zero_copy_only=False)
        d = sub["l_discount"].to_numpy(zero_copy_only=False)
        ship2 = sub["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_orderkey": sub["l_orderkey"],
                "l_suppkey": sub["l_suppkey"],
                "rev_q": pa.array(
                    np.floor(p * (1.0 - d) * 10000.0 + 0.5).astype(np.int64)
                ),
                "l_year": pa.array(
                    1996 + (ship2 >= _Y97_LO_US).astype(np.int64), pa.int64()
                ),
            }
        )

    li = li.map_batches(
        prep, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    li = ops.broadcast_join(li, s_nat, on="l_suppkey", dim_on="s_suppkey")

    orders = rd.read_parquet(_t(sf_dir, "orders"), columns=["o_orderkey", "o_custkey"])
    j = ops.equi_join_partitioned(
        li, orders, on="l_orderkey", right_on="o_orderkey"
    )
    j = ops.broadcast_join(j, c_nat, on="o_custkey", dim_on="c_custkey")

    def pairs(batch: pa.Table) -> pa.Table:
        sn = batch["supp_nation"]
        cn = batch["cust_nation"]
        keep = pc.or_(
            pc.and_(pc.equal(sn, "GRP_0"), pc.equal(cn, "GRP_1")),
            pc.and_(pc.equal(sn, "GRP_1"), pc.equal(cn, "GRP_0")),
        )
        sub = batch.filter(keep)
        return pa.table(
            {"supp_nation": sub["supp_nation"], "cust_nation": sub["cust_nation"],
             "l_year": sub["l_year"], "rev_q": sub["rev_q"]}
        )

    j = j.map_batches(
        pairs, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return ops.salted_count(
        j, ["supp_nation", "cust_nation", "l_year"],
        agg_cols={"rev_q": "sum"}, count_alias="n",
    )


SQL_TPCH_Q7 = f"""
SELECT supp_nation, cust_nation, l_year, COUNT(*) AS n,
       SUM(rev_q) AS sum_rev_q
FROM (
  SELECT 'GRP_' || CAST(s_nationkey % 2 AS VARCHAR) AS supp_nation,
         'GRP_' || CAST(c_nationkey % 2 AS VARCHAR) AS cust_nation,
         CASE WHEN epoch_us(l_shipdate) >= {_Y97_LO_US} THEN 1997 ELSE 1996 END AS l_year,
         CAST(floor(l_extendedprice * (1.0e0 - l_discount) * 10000.0e0 + 0.5e0) AS BIGINT) AS rev_q
  FROM supplier, lineitem, orders, customer
  WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey
    AND c_custkey = o_custkey
    AND ((s_nationkey % 2 = 0 AND c_nationkey % 2 = 1)
      OR (s_nationkey % 2 = 1 AND c_nationkey % 2 = 0))
    AND epoch_us(l_shipdate) >= {_Y96_LO_US}
    AND epoch_us(l_shipdate) < {_Y98_LO_US}
)
GROUP BY supp_nation, cust_nation, l_year
"""


def q_tpch_q8(sf_dir: str):
    """TPC-H Q8 national market share, adapted: the share of NATION_3
    suppliers in ECONOMY-part revenue to EUROPE-region customers, by
    order year. Shape preserved: part/supplier/customer dims broadcast,
    lineitem↔orders co-shuffles once, and the per-year market share is
    the exact integer ``(nation_sum << 20) // total_sum`` (no float
    division on either engine)."""
    import pyarrow.parquet as _pq

    nat = _pq.read_table(_t(sf_dir, "nation"))
    reg = _pq.read_table(_t(sf_dir, "region"))
    eu = {r["r_regionkey"] for r in reg.to_pylist() if r["r_name"] == "EUROPE"}
    eu_nations = {
        r["n_nationkey"] for r in nat.to_pylist() if r["n_regionkey"] in eu
    }
    part = _pq.read_table(_t(sf_dir, "part"), columns=["p_partkey", "p_type"])
    pk = part.filter(pc.equal(part["p_type"], "ECONOMY"))["p_partkey"]
    pset = np.sort(pk.to_numpy().astype(np.int64))
    sup = _pq.read_table(_t(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"])
    s_nat = pa.table(
        {"s_suppkey": sup["s_suppkey"],
         "s_is_n3": pa.array(
             pc.equal(sup["s_nationkey"], 3).to_numpy(zero_copy_only=False)
             .astype(np.int64)
         )}
    )
    cus = _pq.read_table(_t(sf_dir, "customer"), columns=["c_custkey", "c_nationkey"])
    c_eu = pa.table(
        {"c_custkey": cus["c_custkey"],
         "c_is_eu": pa.array(
             np.isin(cus["c_nationkey"].to_numpy(), sorted(eu_nations))
             .astype(np.int64)
         )}
    )
    li = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice",
                 "l_discount"],
    )

    def prep(batch: pa.Table) -> pa.Table:
        k = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        hit = np.searchsorted(pset, k)
        ok = (
            (hit < pset.size)
            & (pset[np.minimum(hit, max(pset.size - 1, 0))] == k)
            if pset.size else np.zeros(k.shape[0], bool)
        )
        sub = batch.filter(pa.array(ok))
        p = sub["l_extendedprice"].to_numpy(zero_copy_only=False)
        d = sub["l_discount"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_orderkey": sub["l_orderkey"],
                "l_suppkey": sub["l_suppkey"],
                "rev_q": pa.array(
                    np.floor(p * (1.0 - d) * 10000.0 + 0.5).astype(np.int64)
                ),
            }
        )

    li = li.map_batches(
        prep, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    li = ops.broadcast_join(li, s_nat, on="l_suppkey", dim_on="s_suppkey")
    orders = rd.read_parquet(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )

    def oprep(batch: pa.Table) -> pa.Table:
        od = batch["o_orderdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "o_orderkey": batch["o_orderkey"],
                "o_custkey": batch["o_custkey"],
                "o_year": pa.array(
                    1995 + np.minimum((od - _Y95_LO_US) // _YEAR_US, 6),
                    pa.int64(),
                ),
            }
        )

    orders = orders.map_batches(
        oprep, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    j = ops.equi_join_partitioned(
        li, orders, on="l_orderkey", right_on="o_orderkey"
    )
    j = ops.broadcast_join(j, c_eu, on="o_custkey", dim_on="c_custkey")

    def volumes(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pc.equal(batch["c_is_eu"], 1))
        rev = sub["rev_q"].to_numpy(zero_copy_only=False)
        n3 = sub["s_is_n3"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "o_year": sub["o_year"],
                "rev_q": pa.array(rev),
                "n3_rev_q": pa.array(rev * n3),
            }
        )

    vols = j.map_batches(
        volumes, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    sums = ops.salted_count(
        vols, "o_year", agg_cols={"rev_q": "sum", "n3_rev_q": "sum"},
        count_alias="n",
    )

    def share(batch: pa.Table) -> pa.Table:
        tot = batch["sum_rev_q"].to_numpy(zero_copy_only=False).astype(np.int64)
        n3 = batch["sum_n3_rev_q"].to_numpy(zero_copy_only=False).astype(np.int64)
        mkt = np.where(tot > 0, (n3 << np.int64(20)) // np.maximum(tot, 1), 0)
        return pa.table(
            {"o_year": batch["o_year"],
             "mkt_share_q": pa.array(mkt, pa.int64())}
        )

    return sums.map_batches(
        share, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


SQL_TPCH_Q8 = f"""
WITH vols AS (
  SELECT 1995 + LEAST(CAST((epoch_us(o_orderdate) - {_Y95_LO_US}) // {_YEAR_US} AS BIGINT), 6) AS o_year,
         CAST(floor(l_extendedprice * (1.0e0 - l_discount) * 10000.0e0 + 0.5e0) AS BIGINT) AS rev_q,
         CASE WHEN s_nationkey = 3 THEN 1 ELSE 0 END AS is_n3
  FROM lineitem, orders, customer, supplier, part, nation, region
  WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey
    AND l_suppkey = s_suppkey AND l_partkey = p_partkey
    AND c_nationkey = n_nationkey AND n_regionkey = r_regionkey
    AND r_name = 'EUROPE' AND p_type = 'ECONOMY'
)
SELECT o_year,
       CAST((SUM(rev_q * is_n3) << 20) // GREATEST(SUM(rev_q), 1) AS BIGINT) AS mkt_share_q
FROM vols GROUP BY o_year
"""


def q_tpch_q9(sf_dir: str):
    """TPC-H Q9 product-type profit, adapted: profit =
    l_extendedprice·(1−l_discount) − 0.5·p_retailprice·l_quantity
    (p_retailprice stands in for the missing partsupp supplycost) over
    PROMO parts, grouped by (supplier nation, order year). Shape
    preserved: part (filter + retailprice) and supplier→nation
    broadcast; lineitem↔orders co-shuffles once; per-row quantized
    profit folds in the combine tree."""
    import pyarrow.parquet as _pq

    nat = _pq.read_table(_t(sf_dir, "nation"), columns=["n_nationkey", "n_name"])
    nk = dict(zip(nat["n_nationkey"].to_pylist(), nat["n_name"].to_pylist()))
    sup = _pq.read_table(_t(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"])
    s_nat = pa.table(
        {"s_suppkey": sup["s_suppkey"],
         "nation": pa.array([nk[k] for k in sup["s_nationkey"].to_pylist()])}
    )
    part = _pq.read_table(
        _t(sf_dir, "part"), columns=["p_partkey", "p_type", "p_retailprice"]
    )
    psel = part.filter(pc.equal(part["p_type"], "PROMO"))
    p_dim = pa.table(
        {"p_partkey": psel["p_partkey"], "p_retailprice": psel["p_retailprice"]}
    )
    li = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
                 "l_extendedprice", "l_discount"],
    )
    li = ops.broadcast_join(li, p_dim, on="l_partkey", dim_on="p_partkey")

    def prep(batch: pa.Table) -> pa.Table:
        p = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        d = batch["l_discount"].to_numpy(zero_copy_only=False)
        q = batch["l_quantity"].to_numpy(zero_copy_only=False)
        rp = batch["p_retailprice"].to_numpy(zero_copy_only=False)
        amount = (
            np.floor(p * (1.0 - d) * 10000.0 + 0.5).astype(np.int64)
            - np.floor(0.5 * rp * q * 10000.0 + 0.5).astype(np.int64)
        )
        return pa.table(
            {
                "l_orderkey": batch["l_orderkey"],
                "l_suppkey": batch["l_suppkey"],
                "amount_q": pa.array(amount),
            }
        )

    li = li.map_batches(
        prep, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    li = ops.broadcast_join(li, s_nat, on="l_suppkey", dim_on="s_suppkey")
    orders = rd.read_parquet(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_orderdate"]
    )

    def oprep(batch: pa.Table) -> pa.Table:
        od = batch["o_orderdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "o_orderkey": batch["o_orderkey"],
                "o_year": pa.array(
                    1995 + np.minimum((od - _Y95_LO_US) // _YEAR_US, 6),
                    pa.int64(),
                ),
            }
        )

    orders = orders.map_batches(
        oprep, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    j = ops.equi_join_partitioned(
        li, orders, on="l_orderkey", right_on="o_orderkey"
    )
    return ops.salted_count(
        j.select_columns(["nation", "o_year", "amount_q"]),
        ["nation", "o_year"], agg_cols={"amount_q": "sum"},
        count_alias="n",
    )


SQL_TPCH_Q9 = f"""
SELECT nation, o_year, COUNT(*) AS n, SUM(amount_q) AS sum_amount_q
FROM (
  SELECT n_name AS nation,
         1995 + LEAST(CAST((epoch_us(o_orderdate) - {_Y95_LO_US}) // {_YEAR_US} AS BIGINT), 6) AS o_year,
         CAST(floor(l_extendedprice * (1.0e0 - l_discount) * 10000.0e0 + 0.5e0) AS BIGINT)
         - CAST(floor(0.5e0 * p_retailprice * l_quantity * 10000.0e0 + 0.5e0) AS BIGINT) AS amount_q
  FROM lineitem, orders, supplier, part, nation
  WHERE l_orderkey = o_orderkey AND l_suppkey = s_suppkey
    AND l_partkey = p_partkey AND s_nationkey = n_nationkey
    AND p_type = 'PROMO'
)
GROUP BY nation, o_year
"""


def q_tpch_q11(sf_dir: str):
    """TPC-H Q11 important stock identification, adapted to lineitem
    value (the synthetic schema has no partsupp): per-part quantized
    value sum(l_extendedprice·l_quantity) restricted to even-
    nationkey suppliers (single nations are empty at test scales),
    keeping parts whose value exceeds 0.1% of the total.
    Shape preserved exactly: grouped sums pre-aggregate map-side, the
    scalar total is ONE tree-folded row broadcast back, and the
    threshold compare is exact integer cross-multiplication
    value·1000 > total."""
    import pyarrow.parquet as _pq

    sup = _pq.read_table(_t(sf_dir, "supplier"), columns=["s_suppkey", "s_nationkey"])
    s0 = np.sort(
        sup["s_suppkey"].to_numpy().astype(np.int64)[
            sup["s_nationkey"].to_numpy() % 2 == 0
        ]
    )
    li = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_partkey", "l_suppkey", "l_extendedprice", "l_quantity"],
    )

    def prep(batch: pa.Table) -> pa.Table:
        k = batch["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        hit = np.searchsorted(s0, k)
        ok = (
            (hit < s0.size) & (s0[np.minimum(hit, max(s0.size - 1, 0))] == k)
            if s0.size else np.zeros(k.shape[0], bool)
        )
        sub = batch.filter(pa.array(ok))
        p = sub["l_extendedprice"].to_numpy(zero_copy_only=False)
        q = sub["l_quantity"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_partkey": sub["l_partkey"],
                "val_q": pa.array(
                    np.floor(p * q * 100.0 + 0.5).astype(np.int64)
                ),
            }
        )

    vals = li.map_batches(
        prep, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    per_part = ops.salted_count(
        vals, "l_partkey", agg_cols={"val_q": "sum"}, count_alias="_n"
    ).materialize()

    def tot_partial(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"t": pa.array(
                [int(pc.sum(batch["sum_val_q"]).as_py() or 0)], pa.int64()
            )}
        )

    rows = per_part.map_batches(
        tot_partial, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    ).take_all()  # block-count partials — bounded
    total = sum(int(r["t"]) for r in rows)

    def keep(batch: pa.Table) -> pa.Table:
        v = batch["sum_val_q"].to_numpy(zero_copy_only=False)
        sub = batch.filter(pa.array(v * 1000 > total))
        return pa.table(
            {"p_partkey": sub["l_partkey"].cast(pa.int64()),
             "value_q": sub["sum_val_q"]}
        )

    return per_part.map_batches(
        keep, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


SQL_TPCH_Q11 = """
WITH pv AS (
  SELECT l_partkey,
         SUM(CAST(floor(l_extendedprice * l_quantity * 100.0e0 + 0.5e0) AS BIGINT)) AS value_q
  FROM lineitem, supplier
  WHERE l_suppkey = s_suppkey AND s_nationkey % 2 = 0
  GROUP BY l_partkey
)
SELECT l_partkey AS p_partkey, value_q
FROM pv
WHERE value_q * 1000 > (SELECT SUM(value_q) FROM pv)
"""


def q_tpch_q20(sf_dir: str):
    """TPC-H Q20 potential part promotion, adapted: odd-nationkey
    suppliers (single nations are empty at test scales) who shipped MORE THAN 50 units of some ECONOMY part in
    1996 (the grouped-HAVING stands in for the partsupp availqty
    subquery the synthetic schema lacks). Shape preserved: grouped
    (supplier, part) quantity sums pre-aggregate map-side, the
    qualifying supplier keys flow through the partitioned SEMI join
    into the nation-filtered supplier dimension."""
    import pyarrow.parquet as _pq

    part = _pq.read_table(_t(sf_dir, "part"), columns=["p_partkey", "p_type"])
    pset = np.sort(
        part.filter(pc.equal(part["p_type"], "ECONOMY"))["p_partkey"]
        .to_numpy().astype(np.int64)
    )
    li = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"],
    )

    def prep(batch: pa.Table) -> pa.Table:
        ship = batch["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        k = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        hit = np.searchsorted(pset, k)
        okp = (
            (hit < pset.size)
            & (pset[np.minimum(hit, max(pset.size - 1, 0))] == k)
            if pset.size else np.zeros(k.shape[0], bool)
        )
        sub = batch.filter(
            pa.array(okp & (ship >= _Y96_LO_US) & (ship < _Y97_LO_US))
        )
        q = sub["l_quantity"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_suppkey": sub["l_suppkey"],
                "l_partkey": sub["l_partkey"],
                "qty_q": pa.array(
                    np.floor(q * 100.0 + 0.5).astype(np.int64)
                ),
            }
        )

    qty = ops.salted_count(
        li.map_batches(
            prep, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["l_suppkey", "l_partkey"], agg_cols={"qty_q": "sum"},
        count_alias="_n",
    )

    def having(batch: pa.Table) -> pa.Table:
        v = batch["sum_qty_q"].to_numpy(zero_copy_only=False)
        sub = batch.filter(pa.array(v > 5000))  # 50 units at scale 100
        return pa.table({"qual_supp": sub["l_suppkey"].cast(pa.int64())})

    qual = qty.map_batches(
        having, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    sup = rd.read_parquet(
        _t(sf_dir, "supplier"), columns=["s_suppkey", "s_name", "s_nationkey"]
    )

    def sfilter(batch: pa.Table) -> pa.Table:
        nk = batch["s_nationkey"].to_numpy(zero_copy_only=False)
        sub = batch.filter(pa.array(nk % 2 == 1))
        return pa.table({"s_suppkey": sub["s_suppkey"], "s_name": sub["s_name"]})

    sup = sup.map_batches(
        sfilter, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return ops.equi_join_partitioned(
        sup, qual, on="s_suppkey", right_on="qual_supp", how="semi"
    )


SQL_TPCH_Q20 = f"""
SELECT s_suppkey, s_name
FROM supplier
WHERE s_nationkey % 2 = 1
  AND EXISTS (
    SELECT 1 FROM lineitem, part
    WHERE l_suppkey = s_suppkey AND l_partkey = p_partkey
      AND p_type = 'ECONOMY'
      AND epoch_us(l_shipdate) >= {_Y96_LO_US}
      AND epoch_us(l_shipdate) < {_Y97_LO_US}
    GROUP BY l_partkey
    HAVING SUM(CAST(floor(l_quantity * 100.0e0 + 0.5e0) AS BIGINT)) > 5000
  )
"""


def q_tpch_q2(sf_dir: str):
    """TPC-H Q2 minimum-cost supplier, adapted: for each size-15 part,
    the EUROPE-region supplier(s) who shipped it with the MINIMUM
    account balance (s_acctbal stands in for the missing partsupp
    supplycost; 'shipped it' = has a lineitem for it). Shape preserved
    exactly: distinct (part, supplier) pairs dedup through one content
    bucket shuffle, supplier/nation/region attach by broadcast, the
    per-part minimum folds in the combine tree (min-ufunc tree_reduce),
    and the correlated ``= min`` filter is a broadcast probe that keeps
    ties."""
    import pyarrow.parquet as _pq

    nat = _pq.read_table(_t(sf_dir, "nation"))
    reg = _pq.read_table(_t(sf_dir, "region"))
    eu = {r["r_regionkey"] for r in reg.to_pylist() if r["r_name"] == "EUROPE"}
    eu_nations = sorted(
        r["n_nationkey"] for r in nat.to_pylist() if r["n_regionkey"] in eu
    )
    sup = _pq.read_table(
        _t(sf_dir, "supplier"),
        columns=["s_suppkey", "s_name", "s_nationkey", "s_acctbal"],
    )
    sup = sup.filter(pc.is_in(sup["s_nationkey"], value_set=pa.array(eu_nations)))
    bal = np.floor(
        sup["s_acctbal"].to_numpy(zero_copy_only=False) * 100.0 + 0.5
    ).astype(np.int64)
    s_dim = pa.table(
        {"s_suppkey": sup["s_suppkey"], "s_name": sup["s_name"],
         "bal_q": pa.array(bal)}
    )
    part = _pq.read_table(_t(sf_dir, "part"), columns=["p_partkey", "p_size"])
    p15 = np.sort(
        part.filter(pc.equal(part["p_size"], 15))["p_partkey"]
        .to_numpy().astype(np.int64)
    )
    li = rd.read_parquet(_t(sf_dir, "lineitem"), columns=["l_partkey", "l_suppkey"])

    def prep(batch: pa.Table) -> pa.Table:
        k = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        hit = np.searchsorted(p15, k)
        ok = (
            (hit < p15.size) & (p15[np.minimum(hit, max(p15.size - 1, 0))] == k)
            if p15.size else np.zeros(k.shape[0], bool)
        )
        sub = batch.filter(pa.array(ok))
        return pa.table(
            {"l_partkey": sub["l_partkey"], "l_suppkey": sub["l_suppkey"]}
        )

    pairs = ops.dedup_exact(
        li.map_batches(
            prep, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["l_partkey", "l_suppkey"],
    )
    pairs = ops.broadcast_join(
        pairs, s_dim, on="l_suppkey", dim_on="s_suppkey"
    ).materialize()  # inner: drops non-EUROPE suppliers
    mins = ops.tree_reduce(
        pairs.select_columns(["l_partkey", "bal_q"]),
        "l_partkey", {"bal_q": "min_bal"}, ufunc=np.minimum,
    ).to_pandas()  # one row per size-15 part — dimension-bounded
    mk = mins["l_partkey"].to_numpy().astype(np.int64)
    mo = np.argsort(mk)
    mk, mv = mk[mo], mins["min_bal"].to_numpy().astype(np.int64)[mo]
    ref = exchange.broadcast((mk, mv))

    def keep_min(batch: pa.Table) -> pa.Table:
        mk, mv = ref.get()
        k = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["bal_q"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(mk, k)
        sub = batch.filter(pa.array(b == mv[pos]))
        return pa.table(
            {"p_partkey": sub["l_partkey"].cast(pa.int64()),
             "s_suppkey": sub["l_suppkey"].cast(pa.int64()),
             "s_name": sub["s_name"], "bal_q": sub["bal_q"]}
        )

    return pairs.map_batches(
        keep_min, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


SQL_TPCH_Q2 = """
WITH pairs AS (
  SELECT DISTINCT l_partkey, l_suppkey FROM lineitem
  WHERE l_partkey IN (SELECT p_partkey FROM part WHERE p_size = 15)
),
ps AS (
  SELECT l_partkey, l_suppkey, s_name,
         CAST(floor(s_acctbal * 100.0e0 + 0.5e0) AS BIGINT) AS bal_q
  FROM pairs, supplier, nation, region
  WHERE l_suppkey = s_suppkey AND s_nationkey = n_nationkey
    AND n_regionkey = r_regionkey AND r_name = 'EUROPE'
)
SELECT l_partkey AS p_partkey, l_suppkey AS s_suppkey, s_name, bal_q
FROM ps
WHERE bal_q = (SELECT MIN(bal_q) FROM ps p2 WHERE p2.l_partkey = ps.l_partkey)
"""


def q_ngram_jaccard(sf_dir: str):
    """Direct n-gram-Jaccard near-dup signal (the fourth member of the
    dedup family next to exact / MinHash+LSH / SimHash / embedding):
    word-trigram SET Jaccard for deterministic (2k, 2k+1) doc pairs,
    quantized to ``floor(|A∩B|·2^20 / |A∪B|)``. One bucket co-shuffle
    of (pair, side, hash) int rows — texts never shuffle."""
    from georay.stages.dedup import ngram_jaccard_pairs

    docs = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return ngram_jaccard_pairs(docs)


SQL_NGRAM_JACCARD = r"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS arr FROM documents
),
ng AS (
  SELECT DISTINCT doc_id, arr[i] || ' ' || arr[i+1] || ' ' || arr[i+2] AS g
  FROM toks, UNNEST(generate_series(1, GREATEST(len(arr) - 2, 0))) AS t(i)
),
cnt AS (SELECT doc_id, COUNT(*) AS c FROM ng GROUP BY doc_id),
pairs AS (
  SELECT a.doc_id AS da, b.doc_id AS db, a.doc_id // 2 AS pair_id
  FROM documents a JOIN documents b
    ON b.doc_id = a.doc_id + 1 AND a.doc_id % 2 = 0
),
inter AS (
  SELECT p.pair_id, COUNT(*) AS i
  FROM pairs p
  JOIN ng x ON x.doc_id = p.da
  JOIN ng y ON y.doc_id = p.db AND y.g = x.g
  GROUP BY p.pair_id
)
SELECT p.pair_id,
       CASE WHEN COALESCE(ca.c, 0) + COALESCE(cb.c, 0) - COALESCE(i.i, 0) = 0
            THEN 1048576
            ELSE (COALESCE(i.i, 0) * 1048576)
                 // (COALESCE(ca.c, 0) + COALESCE(cb.c, 0) - COALESCE(i.i, 0))
       END AS jaccard_q
FROM pairs p
LEFT JOIN cnt ca ON ca.doc_id = p.da
LEFT JOIN cnt cb ON cb.doc_id = p.db
LEFT JOIN inter i ON i.pair_id = p.pair_id
"""


# ------------------------------------------- round-4: BFS / metrics / CUSUM

_BFS_SEED_MOD = 97
_BFS_MAX_HOPS = 3


def q_bfs_hops(sf_dir: str):
    """Multi-source BFS over the co-purchase graph: every node ≡ 0
    (mod 97) seeds at hop 0; (node, min-hops) for reach ≤ 3. Local CSR
    fast path below 2M edges, else the partitioned frontier loop
    (analytics.bfs_hops)."""
    from georay import analytics

    return analytics.bfs_hops(
        _copurchase_edges(sf_dir),
        lambda n: n % _BFS_SEED_MOD == 0,
        max_hops=_BFS_MAX_HOPS,
    )


def q_bfs_partitioned(sf_dir: str):
    """Distributed twin of ``bfs_hops``: the (node, hops) label table
    stays sharded across hash buckets — one node-keyed co-shuffle per
    hop, driver sees one row count per hop (analytics.bfs_hops_partitioned,
    the unit-weight sssp program). Must be
    bit-equal to the broadcast plan, so it shares the recursive-CTE
    oracle."""
    from georay import analytics

    return analytics.bfs_hops_partitioned(
        _copurchase_edges(sf_dir),
        lambda n: n % _BFS_SEED_MOD == 0,
        max_hops=_BFS_MAX_HOPS,
    )


SQL_BFS_HOPS = f"""
WITH RECURSIVE
{SQL_COPURCHASE_EDGES.strip()},
sym AS (SELECT a AS s, b AS d FROM e UNION ALL SELECT b, a FROM e),
walk(node, hop) AS (
  SELECT DISTINCT s, 0 FROM sym WHERE s % {_BFS_SEED_MOD} = 0
  UNION
  SELECT s.d, w.hop + 1 FROM walk w JOIN sym s ON s.s = w.node
  WHERE w.hop < {_BFS_MAX_HOPS}
)
SELECT node, MIN(hop) AS hops FROM walk GROUP BY node
"""


def q_auc(sf_dir: str):
    """Exact ROC AUC of event value (cents) as a purchase-vs-rest
    ranking score — one rational row via the score-value histogram
    combine tree (ops.roc_auc; ties counted half, Mann–Whitney U)."""
    ev = rd.read_parquet(_t(sf_dir, "events"), columns=["event_type", "value"])

    def lab(batch: pa.Table) -> pa.Table:
        y = pc.equal(batch["event_type"], "purchase")
        return pa.table(
            {
                "label": pc.cast(y, pa.int64()),
                "score": batch["value"],
            }
        )

    ds = ev.map_batches(
        lab, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return ops.roc_auc(ds, "label", "score", quantize=100.0)


SQL_AUC = """
WITH x AS (
  SELECT CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END AS y,
         CAST(floor(value * 100.0e0 + 0.5e0) AS BIGINT) AS s
  FROM events
),
h AS (SELECT s, SUM(y) AS p, SUM(1 - y) AS n FROM x GROUP BY s),
r AS (
  SELECT p, n,
         COALESCE(SUM(n) OVER (ORDER BY s ROWS BETWEEN UNBOUNDED PRECEDING
                               AND 1 PRECEDING), 0) AS below
  FROM h
)
SELECT CAST(SUM(2 * p * below + p * n) AS BIGINT) AS auc_num,
       CAST(2 * (SELECT SUM(p) FROM h) * (SELECT SUM(n) FROM h) AS BIGINT)
         AS auc_den
FROM r
"""

_CUSUM_DRIFT = 15000
_CUSUM_THRESH = 50000


def q_cusum(sf_dir: str):
    """Per-user one-sided CUSUM drift alarms on event values (cents,
    drift 150.00, threshold 500.00): the sequential max(0, ·) recurrence
    vectorized as segmented-prefix-sum minus segmented-running-min —
    one key-bucket shuffle (ops.cusum_alarms); SQL twin is two window
    cumulatives."""
    ev = rd.read_parquet(
        _t(sf_dir, "events"), columns=["user_id", "ts", "event_id", "value"]
    )
    return ops.cusum_alarms(
        ev, "user_id", ["ts", "event_id"], "value",
        drift_q=_CUSUM_DRIFT, threshold_q=_CUSUM_THRESH, quantize=100.0,
    )


SQL_CUSUM = f"""
WITH x AS (
  SELECT user_id, ts, event_id,
         CAST(floor(value * 100.0e0 + 0.5e0) AS BIGINT) - {_CUSUM_DRIFT} AS d
  FROM events
),
p AS (
  SELECT user_id, ts, event_id,
         SUM(d) OVER (PARTITION BY user_id ORDER BY ts, event_id
                      ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS pp
  FROM x
),
m AS (
  SELECT user_id,
         pp - LEAST(0, MIN(pp) OVER (PARTITION BY user_id ORDER BY ts, event_id
                   ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)) AS s
  FROM p
)
SELECT user_id,
       CAST(COUNT(*) FILTER (s > {_CUSUM_THRESH}) AS BIGINT) AS n_alarms,
       CAST(MAX(s) AS BIGINT) AS max_stat
FROM m GROUP BY user_id
"""


def q_ols(sf_dir: str):
    """Per-returnflag OLS fit of extendedprice (whole dollars) on
    quantity — exact integer sufficient statistics through the combine
    tree, rational slope/intercept quantized to 2^20 with
    truncate-toward-zero division so the HUGEINT SQL twin is
    bit-identical (ops.grouped_ols)."""
    li = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_quantity", "l_extendedprice"],
    )

    def quant(batch: pa.Table) -> pa.Table:
        q = batch["l_quantity"].to_numpy(zero_copy_only=False)
        p = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "x": pa.array(np.floor(q + 0.5).astype(np.int64)),
                "y": pa.array(np.floor(p).astype(np.int64)),
            }
        )

    ds = li.map_batches(
        quant, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return ops.grouped_ols(ds, "l_returnflag", "x", "y", scale_bits=20)


SQL_OLS = """
WITH q AS (
  SELECT l_returnflag,
         CAST(floor(l_quantity + 0.5e0) AS BIGINT) AS x,
         CAST(floor(l_extendedprice) AS BIGINT) AS y
  FROM lineitem
),
s AS (
  SELECT l_returnflag, COUNT(*) AS n, SUM(x) AS sx, SUM(y) AS sy,
         SUM(x * y) AS sxy, SUM(x * x) AS sxx
  FROM q GROUP BY l_returnflag
),
f AS (
  SELECT l_returnflag, n, n * sxx - sx * sx AS dd, n * sxy - sx * sy AS nn,
         sx, sy
  FROM s WHERE n * sxx - sx * sx <> 0
)
SELECT l_returnflag, CAST(n AS BIGINT) AS n,
       CAST((nn * 1048576) // dd AS BIGINT) AS slope_q,
       CAST(((sy * dd - nn * sx) * 1048576) // (n * dd) AS BIGINT) AS icept_q
FROM f
"""

_MORAN_RES = 10.0


def q_morans(sf_dir: str):
    """Global Moran's I of the lineitem point density on a 10° grid —
    rook adjacency, exact rational quantized to 2^20 (ops.morans_i;
    driver fold bounded by the 648-cell grid, not the data)."""
    pts = lineitem_points(sf_dir)

    def to_gxy(batch: pa.Table) -> pa.Table:
        lon, lat = ops.point_lonlat(batch, "geotag")
        return pa.table(
            {
                "gx": pa.array(
                    np.floor((lon + 180.0) / _MORAN_RES).astype(np.int64)
                ),
                "gy": pa.array(
                    np.floor((lat + 90.0) / _MORAN_RES).astype(np.int64)
                ),
            }
        )

    ds = pts.map_batches(
        to_gxy, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return ops.morans_i(ds, "gx", "gy", scale_bits=20)


SQL_MORANS = f"""
WITH pts AS (
  SELECT CAST(FLOOR((lon + 180) / {_MORAN_RES}) AS BIGINT) AS gx,
         CAST(FLOOR((lat + 90) / {_MORAN_RES}) AS BIGINT) AS gy
  FROM ({_LI_POINT_SQL})
),
cells AS (SELECT gx, gy, COUNT(*) AS c FROM pts GROUP BY 1, 2),
tot AS (SELECT COUNT(*) AS n, SUM(c) AS s FROM cells),
z AS (SELECT gx, gy, tot.n * c - tot.s AS z FROM cells CROSS JOIN tot),
adj AS (
  SELECT a.z AS za, b.z AS zb
  FROM z a JOIN z b ON abs(a.gx - b.gx) + abs(a.gy - b.gy) = 1
),
agg AS (SELECT COUNT(*) AS w, SUM(za * zb) AS cr FROM adj),
v AS (SELECT SUM(z * z) AS var FROM z)
SELECT CAST(tot.n AS BIGINT) AS n_cells,
       CAST(agg.w AS BIGINT) AS w_pairs,
       CAST((tot.n * agg.cr * 1048576) // (agg.w * v.var) AS BIGINT)
         AS morans_q
FROM tot CROSS JOIN agg CROSS JOIN v
"""


def q_geary(sf_dir: str):
    """Global Geary's C of the lineitem point density on the same 10°
    grid as ``morans`` (ops.geary_c; rook adjacency, exact rational
    quantized to 2^20 — the squared-neighbor-difference complement of
    Moran's I, more sensitive to local boundaries in the field)."""
    pts = lineitem_points(sf_dir)

    def to_gxy(batch: pa.Table) -> pa.Table:
        lon, lat = ops.point_lonlat(batch, "geotag")
        return pa.table(
            {
                "gx": pa.array(
                    np.floor((lon + 180.0) / _MORAN_RES).astype(np.int64)
                ),
                "gy": pa.array(
                    np.floor((lat + 90.0) / _MORAN_RES).astype(np.int64)
                ),
            }
        )

    ds = pts.map_batches(
        to_gxy, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return ops.geary_c(ds, "gx", "gy", scale_bits=20)


SQL_GEARY = f"""
WITH pts AS (
  SELECT CAST(FLOOR((lon + 180) / {_MORAN_RES}) AS BIGINT) AS gx,
         CAST(FLOOR((lat + 90) / {_MORAN_RES}) AS BIGINT) AS gy
  FROM ({_LI_POINT_SQL})
),
cells AS (SELECT gx, gy, COUNT(*) AS c FROM pts GROUP BY 1, 2),
tot AS (SELECT COUNT(*) AS n, SUM(c) AS s FROM cells),
z AS (SELECT gx, gy, tot.n * c - tot.s AS z FROM cells CROSS JOIN tot),
adj AS (
  SELECT a.z AS za, b.z AS zb
  FROM z a JOIN z b ON abs(a.gx - b.gx) + abs(a.gy - b.gy) = 1
),
agg AS (SELECT COUNT(*) AS w, SUM((za - zb) * (za - zb)) AS sq FROM adj),
v AS (SELECT SUM(z * z) AS var FROM z)
SELECT CAST(tot.n AS BIGINT) AS n_cells,
       CAST(agg.w AS BIGINT) AS w_pairs,
       CAST(((tot.n - 1) * agg.sq * 1048576) // (2 * agg.w * v.var)
            AS BIGINT) AS geary_q
FROM tot CROSS JOIN agg CROSS JOIN v
"""


def q_line_density(sf_dir: str):
    """Per-10°-cell trajectory-leg density (the corridor heat map):
    analytics.line_density over the event fixes on the ×20 integer
    lattice (lon·20 and lat·20 are exact odd integers for the
    synthetic coordinates), closed-box ∩ closed-segment semantics via
    pure int64 bbox + separating-line corner tests."""
    from georay import analytics

    ev = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["user_id", "ts", "event_id"])

    def to_lattice(batch: pa.Table) -> pa.Table:
        u = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        e = batch["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "user_id": batch["user_id"],
                "ts": batch["ts"],
                "event_id": batch["event_id"],
                "ix": pa.array(2 * ((u * 37 + e * 13) % 3600) - 3599, pa.int64()),
                "iy": pa.array(2 * ((u * 53 + e * 29) % 1700) - 1699, pa.int64()),
            }
        )

    pts = ev.map_batches(
        to_lattice, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return analytics.line_density(
        pts, "user_id", "ts", "ix", "iy",
        x_origin=-3600, y_origin=-1800, cell_units=200, nx=36, ny=18,
        tiebreak_col="event_id",
    )


_LINE_DENSITY_CTES = """
pts AS (
  SELECT user_id, ts, event_id,
         2*((user_id*37 + event_id*13) % 3600) - 3599 AS ix,
         2*((user_id*53 + event_id*29) % 1700) - 1699 AS iy
  FROM events
),
seq AS (
  SELECT *, ROW_NUMBER() OVER w AS rn,
         LAG(ix) OVER w AS px, LAG(iy) OVER w AS py
  FROM pts WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
legs AS (SELECT px AS x1, py AS y1, ix AS x2, iy AS y2 FROM seq WHERE rn > 1),
cells AS (
  SELECT gxs.gx, gys.gy,
         -3600 + 200*gxs.gx AS cx0, -3600 + 200*(gxs.gx + 1) AS cx1,
         -1800 + 200*gys.gy AS cy0, -1800 + 200*(gys.gy + 1) AS cy1
  FROM (SELECT unnest(generate_series(0, 35)) AS gx) gxs
  CROSS JOIN (SELECT unnest(generate_series(0, 17)) AS gy) gys
),
hit AS (
  SELECT c.gx, c.gy
  FROM legs l JOIN cells c
    ON LEAST(l.x1, l.x2) <= c.cx1 AND GREATEST(l.x1, l.x2) >= c.cx0
   AND LEAST(l.y1, l.y2) <= c.cy1 AND GREATEST(l.y1, l.y2) >= c.cy0
   AND NOT (
     ( (l.x2-l.x1)*(c.cy0-l.y1) - (l.y2-l.y1)*(c.cx0-l.x1) > 0
   AND (l.x2-l.x1)*(c.cy0-l.y1) - (l.y2-l.y1)*(c.cx1-l.x1) > 0
   AND (l.x2-l.x1)*(c.cy1-l.y1) - (l.y2-l.y1)*(c.cx0-l.x1) > 0
   AND (l.x2-l.x1)*(c.cy1-l.y1) - (l.y2-l.y1)*(c.cx1-l.x1) > 0 )
    OR
     ( (l.x2-l.x1)*(c.cy0-l.y1) - (l.y2-l.y1)*(c.cx0-l.x1) < 0
   AND (l.x2-l.x1)*(c.cy0-l.y1) - (l.y2-l.y1)*(c.cx1-l.x1) < 0
   AND (l.x2-l.x1)*(c.cy1-l.y1) - (l.y2-l.y1)*(c.cx0-l.x1) < 0
   AND (l.x2-l.x1)*(c.cy1-l.y1) - (l.y2-l.y1)*(c.cx1-l.x1) < 0 )
   )
)
"""


SQL_LINE_DENSITY = (
    f"WITH {_LINE_DENSITY_CTES}"
    "SELECT gx, gy, COUNT(*) AS n_legs FROM hit GROUP BY 1, 2"
)


# fixed demo route on the ×20 lattice (5 vertices spanning the map)
_ROUTE_VERTS = [(-3000, -1200), (-1000, 800), (500, -500), (2000, 1200),
                (3400, -900)]
_ROUTE_R = 40  # lattice units = 2°


def q_route_exposure(sf_dir: str):
    """Route-corridor exposure: per segment of a fixed polyline, the
    number of event points within {_ROUTE_R} lattice units (2°) —
    point-to-SEGMENT distance decided EXACTLY in int64 (projection
    thirds: before A ⇒ |AP|²; past B ⇒ |BP|²; else the cross-multiplied
    ``|AP|²·|AB|² − dot² ≤ r²·|AB|²``), so the CASE-arithmetic SQL twin
    is bit-identical. The route broadcasts (5 segments); the predicate
    is one vectorized pass per batch and the per-segment counts fold
    through the combine tree — NO shuffle at all."""
    ev = rd.read_parquet(_t(sf_dir, "events"), columns=["user_id", "event_id"])
    vx = np.array([v[0] for v in _ROUTE_VERTS], np.int64)
    vy = np.array([v[1] for v in _ROUTE_VERTS], np.int64)
    ax, ay = vx[:-1], vy[:-1]
    bx, by = vx[1:], vy[1:]
    r2 = _ROUTE_R * _ROUTE_R

    def partial(batch: pa.Table) -> pa.Table:
        u = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        e = batch["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        px = 2 * ((u * 37 + e * 13) % 3600) - 3599
        py = 2 * ((u * 53 + e * 29) % 1700) - 1699
        segs, counts = [], []
        for s in range(ax.shape[0]):
            apx = px - ax[s]
            apy = py - ay[s]
            abx = int(bx[s] - ax[s])
            aby = int(by[s] - ay[s])
            ab2 = abx * abx + aby * aby
            dot = apx * abx + apy * aby
            ap2 = apx * apx + apy * apy
            bpx = px - bx[s]
            bpy = py - by[s]
            bp2 = bpx * bpx + bpy * bpy
            mid = ap2 * ab2 - dot * dot <= r2 * ab2
            hit = np.where(
                dot <= 0, ap2 <= r2, np.where(dot >= ab2, bp2 <= r2, mid)
            )
            segs.append(s)
            counts.append(int(hit.sum()))
        return pa.table(
            {
                "seg": pa.array(segs, pa.int64()),
                "partial_n": pa.array(counts, pa.int64()),
            }
        )

    return ops.tree_sum(
        ev.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=None),
        ["seg"], {"partial_n": "n_points"}, int_cols=("partial_n",),
    )


def _route_exposure_sql() -> str:
    cases = []
    for s in range(len(_ROUTE_VERTS) - 1):
        ax, ay = _ROUTE_VERTS[s]
        bx, by = _ROUTE_VERTS[s + 1]
        abx, aby = bx - ax, by - ay
        ab2 = abx * abx + aby * aby
        r2 = _ROUTE_R * _ROUTE_R
        cases.append(f"""
SELECT {s} AS seg, COUNT(*) AS n_points FROM pts
WHERE CASE
  WHEN (px - {ax})*{abx} + (py - {ay})*{aby} <= 0
    THEN (px - {ax})*(px - {ax}) + (py - {ay})*(py - {ay}) <= {r2}
  WHEN (px - {ax})*{abx} + (py - {ay})*{aby} >= {ab2}
    THEN (px - {bx})*(px - {bx}) + (py - {by})*(py - {by}) <= {r2}
  ELSE ((px - {ax})*(px - {ax}) + (py - {ay})*(py - {ay})) * {ab2}
       - ((px - {ax})*{abx} + (py - {ay})*{aby})
         * ((px - {ax})*{abx} + (py - {ay})*{aby})
       <= {r2 * ab2}
END""")
    return (
        "WITH pts AS (\n"
        "  SELECT 2*((user_id*37 + event_id*13) % 3600) - 3599 AS px,\n"
        "         2*((user_id*53 + event_id*29) % 1700) - 1699 AS py\n"
        "  FROM events\n)"
        + "\nUNION ALL".join(cases)
    )


SQL_ROUTE_EXPOSURE = _route_exposure_sql()


_ROUTE_ROUNDS = 8


def q_grid_route(sf_dir: str):
    """Congestion-aware grid routing — the raster→graph composition:
    the ``line_density`` corridor raster becomes edge weights
    (``1 + dens(a) + dens(b)``, symmetric) on the rook-adjacent cell
    graph, then {_ROUTE_ROUNDS} exact Bellman–Ford rounds from the
    (0,0) corner cell (analytics.sssp_rounds) give the cheapest
    ≤{_ROUTE_ROUNDS}-hop route cost to every reachable cell. The
    density table is grid-bounded (648 cells), so the weight closure
    is a broadcast-scale lookup; the cell graph itself is o(grid)."""
    from georay import analytics

    dens = q_line_density(sf_dir).to_pandas()
    node = (dens["gx"].to_numpy() * 100 + dens["gy"].to_numpy()).astype(np.int64)
    dval = dens["n_legs"].to_numpy().astype(np.int64)
    order = np.argsort(node)
    node, dval = node[order], dval[order]

    gx, gy = np.meshgrid(np.arange(36), np.arange(18), indexing="ij")
    gx, gy = gx.ravel(), gy.ravel()
    ids = gx * 100 + gy
    right = gx < 35
    up = gy < 17
    ea = np.concatenate([ids[right], ids[up]])
    eb = np.concatenate([ids[right] + 100, ids[up] + 1])
    edges = rd.from_arrow(
        pa.table({"a": pa.array(ea, pa.int64()), "b": pa.array(eb, pa.int64())})
    ).materialize()

    def weight(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        def look(x):
            pos = np.searchsorted(node, x)
            pos_c = np.clip(pos, 0, node.shape[0] - 1)
            hit = node.shape[0] > 0
            v = dval[pos_c] if hit else np.zeros(x.shape[0], np.int64)
            return np.where(
                hit & (pos < node.shape[0]) & (node[pos_c] == x), v, 0
            )

        return 1 + look(a) + look(b)

    return analytics.sssp_rounds(
        edges, lambda n: n == 0, weight, rounds=_ROUTE_ROUNDS
    )


SQL_GRID_ROUTE = (
    f"WITH {_LINE_DENSITY_CTES}"
    + """,
dens AS (SELECT gx, gy, COUNT(*) AS n_legs FROM hit GROUP BY 1, 2),
nodes AS (
  SELECT gxs.gx * 100 + gys.gy AS node,
         COALESCE(d.n_legs, 0) AS dens
  FROM (SELECT unnest(generate_series(0, 35)) AS gx) gxs
  CROSS JOIN (SELECT unnest(generate_series(0, 17)) AS gy) gys
  LEFT JOIN dens d ON d.gx = gxs.gx AND d.gy = gys.gy
),
ge AS (
  SELECT a.node AS a, b.node AS b, 1 + a.dens + b.dens AS w
  FROM nodes a JOIN nodes b
    ON (b.node = a.node + 100 AND a.node // 100 < 35)
    OR (b.node = a.node + 1 AND a.node % 100 < 17)
),
gsym AS (SELECT a AS s, b AS d, w FROM ge UNION ALL SELECT b, a, w FROM ge),
d0 AS (SELECT node, CASE WHEN node = 0 THEN CAST(0 AS BIGINT) END AS dist
       FROM nodes)"""
    + "".join(
        f""",
d{it} AS (
  SELECT d{it - 1}.node,
         CASE WHEN d{it - 1}.dist IS NULL THEN m.md
              WHEN m.md IS NULL THEN d{it - 1}.dist
              ELSE LEAST(d{it - 1}.dist, m.md) END AS dist
  FROM d{it - 1} LEFT JOIN (
    SELECT s.d AS node, MIN(p.dist + s.w) AS md
    FROM gsym s JOIN d{it - 1} p ON p.node = s.s WHERE p.dist IS NOT NULL
    GROUP BY s.d
  ) m ON m.node = d{it - 1}.node
)"""
        for it in range(1, _ROUTE_ROUNDS + 1)
    )
    + f"""
SELECT node, CAST(dist AS BIGINT) AS dist
FROM d{_ROUTE_ROUNDS} WHERE dist IS NOT NULL"""
)


def q_cell_trend(sf_dir: str):
    """Emerging-hotspot detection: per 10° grid cell, the exact OLS
    slope sufficient statistics of DAILY event counts vs epoch day —
    ``(gx, gy, n_days, slope_num, slope_den)`` with
    slope = slope_num/slope_den (n·Σxy − Σx·Σy over n·Σxx − Σx²), so a
    rising cell has slope_num·sign(slope_den) > 0. Only OBSERVED days
    enter the regression (no zero-fill — SQL twin identical). Two
    combine-tree passes, both integer-exact: (cell, day) counts, then
    per-cell Σ folds; the event stream never shuffles."""
    ev = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["user_id", "event_id", "ts"])

    def day_cell(batch: pa.Table) -> pa.Table:
        u = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        e = batch["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        lon = ((u * 37 + e * 13) % 3600) / 10.0 - 180.0 + 0.05
        lat = ((u * 53 + e * 29) % 1700) / 10.0 - 85.0 + 0.05
        day = (
            batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            // 86_400_000_000
        )
        gx = np.floor((lon + 180.0) / _MORAN_RES).astype(np.int64)
        gy = np.floor((lat + 90.0) / _MORAN_RES).astype(np.int64)
        ks, vs = ops._group_reduce(
            [gx, gy, day], {"partial_c": np.ones(gx.shape[0], np.int64)}
        )
        return pa.table(
            {
                "gx": pa.array(ks[0], pa.int64()),
                "gy": pa.array(ks[1], pa.int64()),
                "day": pa.array(ks[2], pa.int64()),
                "partial_c": pa.array(vs["partial_c"], pa.int64()),
            }
        )

    daily = ops.tree_sum(
        ev.map_batches(day_cell, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=None),
        ["gx", "gy", "day"], {"partial_c": "c"}, int_cols=("partial_c",),
    )

    def ols_partial(batch: pa.Table) -> pa.Table:
        gx = batch["gx"].to_numpy(zero_copy_only=False)
        gy = batch["gy"].to_numpy(zero_copy_only=False)
        x = batch["day"].to_numpy(zero_copy_only=False)
        y = batch["c"].to_numpy(zero_copy_only=False)
        ks, vs = ops._group_reduce(
            [gx, gy],
            {
                "pn": np.ones(gx.shape[0], np.int64),
                "psx": x, "psy": y, "psxy": x * y, "psxx": x * x,
            },
        )
        return pa.table(
            {
                "gx": pa.array(ks[0], pa.int64()),
                "gy": pa.array(ks[1], pa.int64()),
                "pn": pa.array(vs["pn"], pa.int64()),
                "psx": pa.array(vs["psx"], pa.int64()),
                "psy": pa.array(vs["psy"], pa.int64()),
                "psxy": pa.array(vs["psxy"], pa.int64()),
                "psxx": pa.array(vs["psxx"], pa.int64()),
            }
        )

    sums = ops.tree_sum(
        daily.map_batches(ols_partial, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None),
        ["gx", "gy"],
        {"pn": "n_days", "psx": "sx", "psy": "sy", "psxy": "sxy",
         "psxx": "sxx"},
        int_cols=("pn", "psx", "psy", "psxy", "psxx"),
    )

    def finish(batch: pa.Table) -> pa.Table:
        n = batch["n_days"].to_numpy(zero_copy_only=False)
        sx = batch["sx"].to_numpy(zero_copy_only=False)
        sy = batch["sy"].to_numpy(zero_copy_only=False)
        sxy = batch["sxy"].to_numpy(zero_copy_only=False)
        sxx = batch["sxx"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "gx": batch["gx"],
                "gy": batch["gy"],
                "n_days": batch["n_days"],
                "slope_num": pa.array(n * sxy - sx * sy, pa.int64()),
                "slope_den": pa.array(n * sxx - sx * sx, pa.int64()),
            }
        )

    return sums.map_batches(
        finish, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


SQL_CELL_TREND = f"""
WITH pts AS (
  SELECT CAST(FLOOR((({EV_LON}) + 180) / {_MORAN_RES}) AS BIGINT) AS gx,
         CAST(FLOOR((({EV_LAT}) + 90) / {_MORAN_RES}) AS BIGINT) AS gy,
         epoch_us(ts) // 86400000000 AS day
  FROM events
),
daily AS (SELECT gx, gy, day, COUNT(*) AS c FROM pts GROUP BY 1, 2, 3),
s AS (
  SELECT gx, gy, COUNT(*) AS n, SUM(day) AS sx, SUM(c) AS sy,
         SUM(day * c) AS sxy, SUM(day * day) AS sxx
  FROM daily GROUP BY 1, 2
)
SELECT gx, gy, CAST(n AS BIGINT) AS n_days,
       CAST(n * sxy - sx * sy AS BIGINT) AS slope_num,
       CAST(n * sxx - sx * sx AS BIGINT) AS slope_den
FROM s
"""


def q_grid_gradient(sf_dir: str):
    """Max rook-neighbor gradient of the lineitem density grid (same
    10° cells as ``morans``/``geary``; ops.grid_gradient — absent
    neighbors count 0, exact integer field)."""
    pts = lineitem_points(sf_dir)

    def to_gxy(batch: pa.Table) -> pa.Table:
        lon, lat = ops.point_lonlat(batch, "geotag")
        return pa.table(
            {
                "gx": pa.array(
                    np.floor((lon + 180.0) / _MORAN_RES).astype(np.int64)
                ),
                "gy": pa.array(
                    np.floor((lat + 90.0) / _MORAN_RES).astype(np.int64)
                ),
            }
        )

    ds = pts.map_batches(
        to_gxy, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return ops.grid_gradient(ds, "gx", "gy")


SQL_GRID_GRADIENT = f"""
WITH pts AS (
  SELECT CAST(FLOOR((lon + 180) / {_MORAN_RES}) AS BIGINT) AS gx,
         CAST(FLOOR((lat + 90) / {_MORAN_RES}) AS BIGINT) AS gy
  FROM ({_LI_POINT_SQL})
),
cells AS (SELECT gx, gy, COUNT(*) AS c FROM pts GROUP BY 1, 2)
SELECT a.gx, a.gy, CAST(MAX(ABS(a.c - COALESCE(b.c, 0))) AS BIGINT) AS grad
FROM cells a
CROSS JOIN (VALUES (1, 0), (-1, 0), (0, 1), (0, -1)) d(dx, dy)
LEFT JOIN cells b ON b.gx = a.gx + d.dx AND b.gy = a.gy + d.dy
GROUP BY a.gx, a.gy
"""


def q_autocorr(sf_dir: str):
    """Per-user lag-1 serial-correlation sufficient statistics of event
    values in cents (ops.grouped_autocorr: one bucket shuffle, shifted
    pair masks; cov_num / var_a / var_b exact ints — Pearson r is
    cov/sqrt(va·vb) downstream)."""
    ev = rd.read_parquet(
        _t(sf_dir, "events"), columns=["user_id", "ts", "event_id", "value"]
    )
    return ops.grouped_autocorr(
        ev, "user_id", ["ts", "event_id"], "value", quantize=100.0
    )


SQL_AUTOCORR = """
WITH x AS (
  SELECT user_id,
         CAST(floor(value * 100.0e0 + 0.5e0) AS BIGINT) AS v,
         LAG(CAST(floor(value * 100.0e0 + 0.5e0) AS BIGINT))
           OVER (PARTITION BY user_id ORDER BY ts, event_id) AS pv
  FROM events
),
p AS (SELECT user_id, pv AS a, v AS b FROM x WHERE pv IS NOT NULL),
s AS (
  SELECT user_id, COUNT(*) AS n, SUM(a) AS sa, SUM(b) AS sb,
         SUM(a * b) AS sab, SUM(a * a) AS saa, SUM(b * b) AS sbb
  FROM p GROUP BY user_id
)
SELECT user_id, CAST(n AS BIGINT) AS n_pairs,
       CAST(n * sab - sa * sb AS BIGINT) AS cov_num,
       CAST(n * saa - sa * sa AS BIGINT) AS var_a,
       CAST(n * sbb - sb * sb AS BIGINT) AS var_b
FROM s
"""


def q_freq_spectrum(sf_dir: str):
    """Good–Turing frequency-of-frequencies over the corpus vocabulary:
    (freq, n_types) — how many distinct tokens occur exactly c times.
    The smoothing table every LM/calibration pipeline starts from.
    Composition: distributed wordcount (token_histogram) → a second
    combine-tree reduce keyed by count; the corpus never shuffles and
    the spectrum is bounded by the max token frequency."""
    from georay.stages.text import token_histogram

    docs = rd.read_parquet(_t(sf_dir, "documents"), columns=["text"])
    hist = token_histogram(docs)

    def spec(batch: pa.Table) -> pa.Table:
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        ks, vs = ops._group_reduce(
            [n], {"partial_t": np.ones(n.shape[0], np.int64)}
        )
        return pa.table(
            {
                "freq": pa.array(ks[0], pa.int64()),
                "partial_t": pa.array(vs["partial_t"], pa.int64()),
            }
        )

    parts = hist.map_batches(
        spec, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return ops.tree_sum(parts, ["freq"], {"partial_t": "n_types"},
                        int_cols=("partial_t",))


SQL_FREQ_SPECTRUM = f"""
SELECT n AS freq, COUNT(*) AS n_types
FROM ({SQL_TOKEN_HISTOGRAM})
GROUP BY n
"""


def q_group_topk_ties(sf_dir: str):
    """Per-supplier top-2 by quantity WITH TIES (RANK() <= k — a tie
    straddling the kth place keeps all members): the map-side prune of
    group_top_k stays valid because a row's within-batch rank never
    exceeds its global rank (ops.group_top_k(ties=True))."""
    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_suppkey", "l_quantity", "l_orderkey", "l_linenumber"],
    )
    return ops.group_top_k(
        ds, "l_suppkey", ["l_quantity"], k=2, descending=True, ties=True,
    )


SQL_GROUP_TOPK_TIES = """
SELECT l_suppkey, l_quantity, l_orderkey, l_linenumber
FROM (
  SELECT l_suppkey, l_quantity, l_orderkey, l_linenumber,
         RANK() OVER (PARTITION BY l_suppkey ORDER BY l_quantity DESC) AS rk
  FROM lineitem
)
WHERE rk <= 2
"""

# two fence rectangles; ×20 quantization makes every edge endpoint an
# exact integer (event coords are odd multiples of 0.05)
_FENCES = [(-60.0, -30.0, 0.0, 30.0), (30.0, -10.0, 120.0, 40.0)]
_CROSS_Q = 20.0


def _fence_edges_q() -> np.ndarray:
    rows = []
    for x1, y1, x2, y2 in _FENCES:
        corners = [(x1, y1), (x2, y1), (x2, y2), (x1, y2)]
        for i in range(4):
            p, r = corners[i], corners[(i + 1) % 4]
            rows.append(
                (p[0] * _CROSS_Q, p[1] * _CROSS_Q,
                 r[0] * _CROSS_Q, r[1] * _CROSS_Q)
            )
    return np.asarray(rows, np.int64)


def q_crossings(sf_dir: str):
    """Per-user fence-boundary crossing counts: trajectory legs tested
    against 8 fence edges with EXACT integer orientation sign flips
    (analytics.leg_crossings — proper crossings only, no epsilon;
    one key-bucket shuffle, legs × edges vectorized)."""
    from georay import analytics

    return analytics.leg_crossings(
        _event_points(sf_dir), "user_id", ["ts", "event_id"],
        "lon", "lat", _fence_edges_q(), quantize=_CROSS_Q,
    )


def _crossings_sql() -> str:
    vals = ", ".join(
        f"({int(a)}, {int(b)}, {int(c)}, {int(d)})"
        for a, b, c, d in _fence_edges_q()
    )
    return f"""
WITH pts AS (
  SELECT user_id, ts, event_id,
         CAST(floor(({EV_LON}) * {_CROSS_Q}e0 + 0.5e0) AS BIGINT) AS qx,
         CAST(floor(({EV_LAT}) * {_CROSS_Q}e0 + 0.5e0) AS BIGINT) AS qy
  FROM events
),
seq AS (
  SELECT user_id, qx, qy, LAG(qx) OVER w AS px, LAG(qy) OVER w AS py
  FROM pts WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
legs AS (
  SELECT user_id, px AS ax, py AS ay, qx AS bxx, qy AS byy
  FROM seq WHERE px IS NOT NULL
),
edges(ex1, ey1, ex2, ey2) AS (VALUES {vals}),
t AS (
  SELECT l.user_id,
         (e.ex2 - e.ex1) * (l.ay - e.ey1)
           - (e.ey2 - e.ey1) * (l.ax - e.ex1) AS d1,
         (e.ex2 - e.ex1) * (l.byy - e.ey1)
           - (e.ey2 - e.ey1) * (l.bxx - e.ex1) AS d2,
         (l.bxx - l.ax) * (e.ey1 - l.ay)
           - (l.byy - l.ay) * (e.ex1 - l.ax) AS d3,
         (l.bxx - l.ax) * (e.ey2 - l.ay)
           - (l.byy - l.ay) * (e.ex2 - l.ax) AS d4
  FROM legs l CROSS JOIN edges e
)
SELECT user_id,
       CAST(COUNT(*) FILTER (d1 * d2 < 0 AND d3 * d4 < 0) AS BIGINT)
         AS n_crossings
FROM t GROUP BY user_id
"""


SQL_CROSSINGS = _crossings_sql()

_KCORE_K = 2  # k=3 peels the sf0.1 co-purchase graph to empty; k=2 keeps
_KCORE_ROUNDS = 3  # a real core at every scale (13 nodes at sf0.1)


def q_kcore(sf_dir: str):
    """Fixed-round k-core peeling of the co-purchase graph (k=3,
    3 rounds): iteratively drop degree<k nodes, return the surviving
    (node, degree) table — analytics.kcore_peel, broadcast survivor
    sets (vocabulary-sized node tables)."""
    from georay import analytics

    return analytics.kcore_peel(
        _copurchase_edges(sf_dir), k=_KCORE_K, n_rounds=_KCORE_ROUNDS,
    )


def q_kcore_partitioned(sf_dir: str):
    """Partitioned twin of ``kcore``: survival flags route through the
    _attach_lookup hash-bucket co-shuffles instead of a broadcast — the
    node table never lands anywhere central. Identical output, shared
    chained-CTE oracle."""
    from georay import analytics

    return analytics.kcore_peel(
        _copurchase_edges(sf_dir), k=_KCORE_K, n_rounds=_KCORE_ROUNDS,
        degree_strategy="partitioned",
    )


def _kcore_sql() -> str:
    # Each round is MATERIALIZED: DuckDB 1.0 inlines a plain CTE at every
    # reference, and round i+1 reads round i three times, so the inlined
    # chain grew 3^rounds deep (at sf0.1 it spilled ~19 GB to temp disk).
    parts = [f"WITH {SQL_COPURCHASE_EDGES.strip()},",
             "\ne0 AS MATERIALIZED (SELECT a, b FROM e)"]
    for i in range(_KCORE_ROUNDS):
        parts.append(f""",
n{i} AS MATERIALIZED (
  SELECT node FROM (SELECT a AS node FROM e{i} UNION ALL SELECT b FROM e{i})
  GROUP BY node HAVING COUNT(*) >= {_KCORE_K}),
e{i + 1} AS MATERIALIZED (
  SELECT a, b FROM e{i}
  WHERE a IN (SELECT node FROM n{i}) AND b IN (SELECT node FROM n{i}))""")
    r = _KCORE_ROUNDS
    parts.append(f"""
SELECT node, CAST(COUNT(*) AS BIGINT) AS degree
FROM (SELECT a AS node FROM e{r} UNION ALL SELECT b FROM e{r})
GROUP BY node""")
    return "".join(parts)


SQL_KCORE = _kcore_sql()


def q_assort(sf_dir: str):
    """Degree-assortativity moments of the co-purchase graph: exact
    integer (deg(src), deg(dst)) sufficient statistics over the
    symmetrized edge list (analytics.degree_assortativity — degree
    table broadcast once, edges never shuffle)."""
    from georay import analytics

    return analytics.degree_assortativity(_copurchase_edges(sf_dir))


SQL_ASSORT = f"""
WITH {SQL_COPURCHASE_EDGES.strip()},
sym AS (SELECT a AS s, b AS d FROM e UNION ALL SELECT b, a FROM e),
deg AS (SELECT s AS node, COUNT(*) AS deg FROM sym GROUP BY s),
pairs AS (
  SELECT da.deg AS x, db.deg AS y
  FROM sym JOIN deg da ON da.node = sym.s JOIN deg db ON db.node = sym.d
),
m AS (
  SELECT COUNT(*) AS n, SUM(x) AS sx, SUM(y) AS sy,
         SUM(x * y) AS sxy, SUM(x * x) AS sxx, SUM(y * y) AS syy
  FROM pairs
)
SELECT CAST(n AS BIGINT) AS n_pairs,
       CAST(n * sxy - sx * sy AS BIGINT) AS cov_num,
       CAST(n * sxx - sx * sx AS BIGINT) AS var_a,
       CAST(n * syy - sy * sy AS BIGINT) AS var_b
FROM m
"""


def q_hoover(sf_dir: str):
    """Exact Hoover (Robin Hood) index of customer balances in cents,
    as a rational (ops.hoover_exact — value-histogram combine tree, the
    mean needs no second pass because the histogram carries every
    value)."""
    ds = rd.read_parquet(_t(sf_dir, "customer"), columns=["c_acctbal"])
    return ops.hoover_exact(ds, "c_acctbal", quantize=100.0)


SQL_HOOVER = """
WITH vals AS (
  SELECT CAST(floor(c_acctbal * 100.0e0 + 0.5e0) AS BIGINT) AS v FROM customer
),
h AS (SELECT v, COUNT(*) AS c FROM vals GROUP BY v),
t AS (SELECT SUM(c) AS n, SUM(v * c) AS s FROM h),
agg AS (
  SELECT SUM(c * abs(t.n * v - t.s)) AS num, 2 * MAX(t.n) * MAX(t.s) AS den
  FROM h CROSS JOIN t
)
SELECT CAST(num AS BIGINT) AS hoover_num, CAST(den AS BIGINT) AS hoover_den
FROM agg
"""


def q_component_sizes(sf_dir: str):
    """Cluster-size histogram of the co-purchase connected components —
    the dedup-audit summary every near-dup pipeline reports (how many
    dup groups of each size). Components → per-label size → size
    histogram, both reduces over the SMALL label table (combine
    tree)."""
    from georay.stages.components import connected_components

    labels = connected_components(
        _copurchase_edges(sf_dir), id_a="a", id_b="b"
    )
    if isinstance(labels, pa.Table):  # small-edge-list local fast path
        labels = rd.from_arrow(labels)

    def per_label(batch: pa.Table) -> pa.Table:
        lab = batch["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        ks, vs = ops._group_reduce(
            [lab], {"partial_s": np.ones(lab.shape[0], np.int64)}
        )
        return pa.table(
            {
                "label": pa.array(ks[0], pa.int64()),
                "partial_s": pa.array(vs["partial_s"], pa.int64()),
            }
        )

    sizes = ops.tree_sum(
        labels.map_batches(
            per_label, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["label"], {"partial_s": "sz"}, int_cols=("partial_s",),
    )

    def hist(batch: pa.Table) -> pa.Table:
        sz = batch["sz"].to_numpy(zero_copy_only=False).astype(np.int64)
        ks, vs = ops._group_reduce(
            [sz], {"partial_c": np.ones(sz.shape[0], np.int64)}
        )
        return pa.table(
            {
                "csize": pa.array(ks[0], pa.int64()),
                "partial_c": pa.array(vs["partial_c"], pa.int64()),
            }
        )

    return ops.tree_sum(
        sizes.map_batches(
            hist, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["csize"], {"partial_c": "n_components"}, int_cols=("partial_c",),
    )


SQL_COMPONENT_SIZES = f"""
WITH RECURSIVE
{SQL_COPURCHASE_EDGES.strip()},
sym AS (SELECT a AS s, b AS d FROM e UNION ALL SELECT b, a FROM e),
reach(n, m) AS (
  SELECT s, d FROM sym
  UNION
  SELECT r.n, s.d FROM reach r JOIN sym s ON s.s = r.m
),
labels AS (SELECT n AS node, LEAST(n, MIN(m)) AS label FROM reach GROUP BY n),
sizes AS (SELECT label, COUNT(*) AS sz FROM labels GROUP BY label)
SELECT sz AS csize, CAST(COUNT(*) AS BIGINT) AS n_components
FROM sizes GROUP BY sz
"""

_IDW_GRID_RES = 30.0
_IDW_RADIUS = 25.0


def q_idw(sf_dir: str):
    """Inverse-distance-weighted quantity surface on a 30° grid with
    exact integer weights ``2^24 // (1 + d²)`` over quantized
    coordinates (ops.idw_grid — one streaming pass, per-batch (n × 72)
    distance matrix, combine-tree partials, no shuffle)."""
    li = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_partkey", "l_suppkey", "l_linenumber",
                 "l_quantity"],
    )

    def prep(batch: pa.Table) -> pa.Table:
        ok = batch["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        pk = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        sk = batch["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        ln = batch["l_linenumber"].to_numpy(zero_copy_only=False).astype(np.int64)
        lon, lat = _li_lonlat(ok, pk, sk, ln)
        return pa.table(
            {
                "lon": pa.array(lon),
                "lat": pa.array(lat),
                "qty": batch["l_quantity"].cast(pa.int64()),
            }
        )

    pts = li.map_batches(
        prep, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return ops.idw_grid(
        pts, "lon", "lat", "qty",
        grid_res_deg=_IDW_GRID_RES, radius_deg=_IDW_RADIUS, quantize=20.0,
    )


SQL_IDW = f"""
WITH pts AS (
  SELECT CAST(floor(({LI_LON}) * 20.0e0 + 0.5e0) AS BIGINT) AS px,
         CAST(floor(({LI_LAT}) * 20.0e0 + 0.5e0) AS BIGINT) AS py,
         CAST(l_quantity AS BIGINT) AS v
  FROM lineitem
),
grid AS (
  SELECT i.i AS qi, j.j AS qj,
         CAST(floor((-180.0 + (i.i + 0.5) * {_IDW_GRID_RES})
                    * 20.0e0 + 0.5e0) AS BIGINT) AS qx,
         CAST(floor((-90.0 + (j.j + 0.5) * {_IDW_GRID_RES})
                    * 20.0e0 + 0.5e0) AS BIGINT) AS qy
  FROM (SELECT unnest(generate_series(0, {int(360 / _IDW_GRID_RES) - 1})) AS i) i
  CROSS JOIN (SELECT unnest(generate_series(0, {int(180 / _IDW_GRID_RES) - 1})) AS j) j
),
cand AS (
  SELECT g.qi, g.qj, p.v,
         (p.px - g.qx) * (p.px - g.qx)
           + (p.py - g.qy) * (p.py - g.qy) AS d2
  FROM pts p CROSS JOIN grid g
  WHERE (p.px - g.qx) * (p.px - g.qx)
          + (p.py - g.qy) * (p.py - g.qy)
        <= {int(round(_IDW_RADIUS * 20.0)) ** 2}
)
SELECT qi, qj, CAST(COUNT(*) AS BIGINT) AS n_pts,
       CAST(SUM((16777216 // (1 + d2)) * v)
            // SUM(16777216 // (1 + d2)) AS BIGINT) AS idw_q
FROM cand GROUP BY qi, qj
"""


def q_impurity(sf_dir: str):
    """Per-user category diversity of event types as exact Gini-impurity
    sufficient statistics (ops.grouped_impurity — (key, cat) counts fold
    map-side, two tiny combine trees, the corpus never shuffles)."""
    ds = rd.read_parquet(_t(sf_dir, "events"), columns=["user_id", "event_type"])
    return ops.grouped_impurity(ds, "user_id", "event_type")


SQL_IMPURITY = """
WITH c AS (
  SELECT user_id, event_type, COUNT(*) AS c
  FROM events GROUP BY user_id, event_type
)
SELECT user_id, CAST(SUM(c) AS BIGINT) AS n,
       CAST(SUM(c * c) AS BIGINT) AS sum_c2
FROM c GROUP BY user_id
"""

_DECAY_W = 16


def q_decayed_sum(sf_dir: str):
    """Recency-weighted per-user engagement score: for every event, the
    exponential half-life sum of the last 16 event values in cents
    (ops.window_decayed_sum — w shifted adds per bucket, shift
    truncation keeps it order-independent and bit-exact vs the SQL
    ROW_NUMBER-band self-join)."""
    ds = rd.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "ts", "value"]
    )

    def cents(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        return batch.drop_columns(["value"]).append_column(
            "v", pa.array(np.floor(v * 100.0 + 0.5).astype(np.int64))
        )

    ds = ds.map_batches(
        cents, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    out = ops.window_decayed_sum(
        ds, key="user_id", order_cols=["ts", "event_id"], value_col="v",
        w=_DECAY_W,
    )
    return out.select_columns(["event_id", "decayed_q"])


SQL_DECAYED_SUM = f"""
WITH t AS (
  SELECT event_id, user_id,
         CAST(floor(value * 100.0e0 + 0.5e0) AS BIGINT) AS v,
         ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
  FROM events
)
SELECT a.event_id,
       CAST(SUM(b.v >> CAST(a.rn - b.rn AS INTEGER)) AS BIGINT) AS decayed_q
FROM t a JOIN t b
  ON a.user_id = b.user_id AND b.rn BETWEEN a.rn - {_DECAY_W - 1} AND a.rn
GROUP BY a.event_id
"""


def q_rect_overlap(sf_dir: str):
    """Coverage join: per supplier query rectangle, the TOTAL
    intersection area with the part box footprints in exact 0.05°
    quantized units (joins.rect_overlap_area — same index descent as
    intersect_join, batch-local integer clamp·clamp sums, no
    shuffle)."""
    from georay.joins import rect_overlap_area

    sx, sy, sk = supplier_points(sf_dir)
    rects = rd.from_arrow(
        pa.table(
            {
                "s_suppkey": pa.array(sk, pa.int64()),
                "xmin": pa.array(sx - 1.3),
                "ymin": pa.array(sy - 0.7),
                "xmax": pa.array(sx + 1.3),
                "ymax": pa.array(sy + 0.7),
            }
        )
    )
    polys = part_box_polygons(sf_dir)
    return rect_overlap_area(
        rects, polys, id_col="s_suppkey",
        geometry_col="geometry", poly_id_col="p_partkey", quantize=20.0,
    )


SQL_RECT_OVERLAP = f"""
WITH rects AS (
  SELECT s_suppkey,
         CAST(floor(({SUPP_SX} - 1.3) * 20.0e0 + 0.5e0) AS BIGINT) AS rxmin,
         CAST(floor(({SUPP_SY} - 0.7) * 20.0e0 + 0.5e0) AS BIGINT) AS rymin,
         CAST(floor(({SUPP_SX} + 1.3) * 20.0e0 + 0.5e0) AS BIGINT) AS rxmax,
         CAST(floor(({SUPP_SY} + 0.7) * 20.0e0 + 0.5e0) AS BIGINT) AS rymax
  FROM supplier
),
boxes AS (
  SELECT p_partkey,
         CAST(floor(({PART_CX} - ({PART_W})) * 20.0e0 + 0.5e0) AS BIGINT) AS bxmin,
         CAST(floor(({PART_CY} - ({PART_H})) * 20.0e0 + 0.5e0) AS BIGINT) AS bymin,
         CAST(floor(({PART_CX} + ({PART_W})) * 20.0e0 + 0.5e0) AS BIGINT) AS bxmax,
         CAST(floor(({PART_CY} + ({PART_H})) * 20.0e0 + 0.5e0) AS BIGINT) AS bymax
  FROM part
)
SELECT r.s_suppkey,
       CAST(SUM((LEAST(r.rxmax, b.bxmax) - GREATEST(r.rxmin, b.bxmin))
              * (LEAST(r.rymax, b.bymax) - GREATEST(r.rymin, b.bymin)))
            AS BIGINT) AS overlap_q
FROM rects r JOIN boxes b
  ON r.rxmin < b.bxmax AND b.bxmin < r.rxmax
 AND r.rymin < b.bymax AND b.bymin < r.rymax
GROUP BY r.s_suppkey
"""

_ROLL_W = 7


def q_rolling_active(sf_dir: str):
    """Trailing-7-day distinct active users per observed day (WAU
    curve; ops.rolling_active_count — distinct (day, user) pairs fold
    map-side, fan out to the ≤7 window days they keep alive against the
    broadcast observed-day set, dedup once more, fold — the event
    stream never shuffles)."""
    ds = rd.read_parquet(_t(sf_dir, "events"), columns=["user_id", "ts"])
    return ops.rolling_active_count(ds, "user_id", "ts", window=_ROLL_W)


SQL_ROLLING_ACTIVE = f"""
WITH a AS (
  SELECT DISTINCT CAST(floor(epoch_us(ts) / 86400000000.0) AS BIGINT) AS day,
                  user_id
  FROM events
),
d AS (SELECT DISTINCT day FROM a)
SELECT d.day, CAST(COUNT(DISTINCT a.user_id) AS BIGINT) AS n_active
FROM d JOIN a ON a.day BETWEEN d.day - {_ROLL_W - 1} AND d.day
GROUP BY d.day
"""


def q_scd2(sf_dir: str):
    """SCD-2 history build: each (user, event) becomes a validity
    interval [ts, next ts) — valid_to NULL on the current row
    (ops.window_lead composition; one bucket shuffle)."""
    ds = rd.read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "user_id", "ts", "value"]
    )
    out = ops.window_lead(
        ds, key="user_id", order_cols=["ts", "event_id"], value_col="ts",
        out_col="valid_to",
    )

    def fin(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": batch["event_id"],
                "user_id": batch["user_id"],
                "valid_from": batch["ts"],
                "valid_to": batch["valid_to"],
            }
        )

    return out.map_batches(
        fin, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


SQL_SCD2 = """
SELECT event_id, user_id, ts AS valid_from,
       LEAD(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS valid_to
FROM events
"""


def q_ks(sf_dir: str):
    """Exact two-sample KS drift statistic between click and purchase
    value distributions, as a rational (ops.ks_statistic — quantized
    value histogram through the combine tree, one-task integer
    sweep)."""
    ds = rd.read_parquet(_t(sf_dir, "events"), columns=["value", "event_type"])
    return ops.ks_statistic(ds, "value", "event_type", "click", "purchase")


SQL_KS = """
WITH s AS (
  SELECT CAST(floor(value * 100.0e0 + 0.5e0) AS BIGINT) AS v,
         CASE WHEN event_type = 'click' THEN 1 ELSE 0 END AS ia
  FROM events WHERE event_type IN ('click', 'purchase')
),
h AS (SELECT v, SUM(ia) AS ca, SUM(1 - ia) AS cb FROM s GROUP BY v),
t AS (SELECT SUM(ca) AS na, SUM(cb) AS nb FROM h),
c AS (
  SELECT SUM(ca) OVER (ORDER BY v) AS cum_a,
         SUM(cb) OVER (ORDER BY v) AS cum_b
  FROM h
)
SELECT CAST(MAX(ABS(c.cum_a * t.nb - c.cum_b * t.na)) AS BIGINT) AS d_num,
       CAST((SELECT SUM(ABS(h.ca * t2.nb - h.cb * t2.na))
             FROM h CROSS JOIN t t2) AS BIGINT) AS tv_num,
       CAST(MAX(t.na) AS BIGINT) AS n_a,
       CAST(MAX(t.nb) AS BIGINT) AS n_b
FROM c CROSS JOIN t
"""


def q_edge_jaccard(sf_dir: str):
    """Per-edge embeddedness of the co-purchase graph: common-neighbor
    count (triangle support) and neighborhood-union size per edge — the
    link-prediction feature pair (analytics.edge_jaccard; two bounded
    co-shuffles, standard triangle data volume, no driver state)."""
    from georay import analytics

    return analytics.edge_jaccard(_copurchase_edges(sf_dir))


SQL_EDGE_JACCARD = f"""
WITH {SQL_COPURCHASE_EDGES.strip()},
sym AS (SELECT a AS s, b AS d FROM e UNION ALL SELECT b, a FROM e),
deg AS (SELECT s AS node, COUNT(*) AS deg FROM sym GROUP BY s),
inter AS (
  SELECT e.a, e.b, COUNT(*) AS common
  FROM e
  JOIN sym x ON x.s = e.a
  JOIN sym y ON y.s = e.b AND y.d = x.d
  GROUP BY e.a, e.b
)
SELECT e.a, e.b,
       CAST(COALESCE(i.common, 0) AS BIGINT) AS common,
       CAST(da.deg + db.deg - COALESCE(i.common, 0) AS BIGINT) AS union_n
FROM e
LEFT JOIN inter i ON i.a = e.a AND i.b = e.b
JOIN deg da ON da.node = e.a
JOIN deg db ON db.node = e.b
"""


def q_edge_ra(sf_dir: str):
    """Resource-allocation link-prediction score per co-purchase edge:
    Σ floor(2^20/deg(z)) over common neighbors z (edge_jaccard with
    ra_bits=20 — same two co-shuffles, degree table broadcast once)."""
    from georay import analytics

    out = analytics.edge_jaccard(_copurchase_edges(sf_dir), ra_bits=20)
    return out.select_columns(["a", "b", "ra_q"])


SQL_EDGE_RA = f"""
WITH {SQL_COPURCHASE_EDGES.strip()},
sym AS (SELECT a AS s, b AS d FROM e UNION ALL SELECT b, a FROM e),
deg AS (SELECT s AS node, COUNT(*) AS deg FROM sym GROUP BY s),
ra AS (
  SELECT e.a, e.b, SUM(1048576 // dz.deg) AS ra_q
  FROM e
  JOIN sym x ON x.s = e.a
  JOIN sym y ON y.s = e.b AND y.d = x.d
  JOIN deg dz ON dz.node = x.d
  GROUP BY e.a, e.b
)
SELECT e.a, e.b, CAST(COALESCE(r.ra_q, 0) AS BIGINT) AS ra_q
FROM e LEFT JOIN ra r ON r.a = e.a AND r.b = e.b
"""


def q_locf(sf_dir: str):
    """Forward-fill gap repair: error events mask their value to NULL,
    then LOCF per user ordered by (ts, event_id) carries the last good
    reading forward (ops.window_locf — one bucket shuffle, running-max
    fill, stale cross-key carries masked)."""
    ds = rd.read_parquet(
        _t(sf_dir, "events"),
        columns=["event_id", "user_id", "ts", "event_type", "value"],
    )

    def mask(batch: pa.Table) -> pa.Table:
        bad = pc.equal(batch["event_type"], "error")
        v = pc.if_else(bad, pa.scalar(None, pa.float64()),
                       batch["value"].cast(pa.float64()))
        return pa.table(
            {
                "event_id": batch["event_id"],
                "user_id": batch["user_id"],
                "ts": batch["ts"],
                "v": v,
            }
        )

    out = ops.window_locf(
        ds.map_batches(
            mask, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        key="user_id", order_cols=["ts", "event_id"], value_col="v",
    )
    return out.select_columns(["event_id", "filled"])


SQL_LOCF = """
WITH m AS (
  SELECT event_id, user_id, ts,
         CASE WHEN event_type = 'error' THEN NULL ELSE value END AS v
  FROM events
)
SELECT event_id,
       LAST_VALUE(v IGNORE NULLS) OVER (
         PARTITION BY user_id ORDER BY ts, event_id
         ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
       ) AS filled
FROM m
"""


def q_weighted_median(sf_dir: str):
    """Quantity-weighted median extended price per return flag
    (ops.grouped_weighted_median — (key, value) weight histogram
    through the combine tree, one-task integer sweep)."""
    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_extendedprice", "l_quantity"],
    )
    return ops.grouped_weighted_median(
        ds, "l_returnflag", "l_extendedprice", "l_quantity", quantize=100.0,
    )


SQL_WEIGHTED_MEDIAN = """
WITH h AS (
  SELECT l_returnflag,
         CAST(floor(l_extendedprice * 100.0e0 + 0.5e0) AS BIGINT) AS v,
         SUM(CAST(l_quantity AS BIGINT)) AS w
  FROM lineitem GROUP BY 1, 2
),
c AS (
  SELECT l_returnflag, v,
         SUM(w) OVER (PARTITION BY l_returnflag ORDER BY v) AS cum,
         SUM(w) OVER (PARTITION BY l_returnflag) AS tot
  FROM h
)
SELECT l_returnflag, CAST(MIN(v) AS BIGINT) AS wmedian
FROM c WHERE 2 * cum >= tot GROUP BY l_returnflag
"""


def q_survival(sf_dir: str):
    """Kaplan–Meier risk table over ship-day index: per day, returned
    lines (events), kept lines (censored), and lines still at risk
    (ship day ≥ t) — the exact integer survival-curve sufficient
    statistics (ops.survival_risk_table)."""
    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_shipdate", "l_returnflag"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        us = batch["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "t": pa.array(us // 86_400_000_000, pa.int64()),
                "ev": pc.equal(batch["l_returnflag"], "R"),
            }
        )

    return ops.survival_risk_table(
        ds.map_batches(
            prep, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        "t", "ev",
    )


SQL_SURVIVAL = """
WITH s AS (
  SELECT CAST(floor(epoch_us(l_shipdate) / 86400000000.0) AS BIGINT) AS t,
         CASE WHEN l_returnflag = 'R' THEN 1 ELSE 0 END AS ev
  FROM lineitem
),
h AS (SELECT t, SUM(ev) AS d, SUM(1 - ev) AS c FROM s GROUP BY t)
SELECT t, CAST(d AS BIGINT) AS d, CAST(c AS BIGINT) AS c,
       CAST(SUM(d + c) OVER (ORDER BY t DESC) AS BIGINT) AS n_risk
FROM h
"""


_WDIST_W = 8


def q_window_distinct(sf_dir: str):
    """Behavioral diversity window: per event, the number of DISTINCT
    event types its user touched in the last 8 events
    (ops.window_distinct_count — broadcast ≤64-value vocabulary,
    bitmask OR window + popcount, one bucket shuffle)."""
    ds = rd.read_parquet(
        _t(sf_dir, "events"),
        columns=["event_id", "user_id", "ts", "event_type"],
    )
    out = ops.window_distinct_count(
        ds, key="user_id", order_cols=["ts", "event_id"],
        value_col="event_type", w=_WDIST_W,
    )
    return out.select_columns(["event_id", "n_distinct"])


SQL_WINDOW_DISTINCT = f"""
WITH t AS (
  SELECT event_id, user_id, event_type,
         ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
  FROM events
)
SELECT a.event_id, CAST(COUNT(DISTINCT b.event_type) AS BIGINT) AS n_distinct
FROM t a JOIN t b
  ON a.user_id = b.user_id AND b.rn BETWEEN a.rn - {_WDIST_W - 1} AND a.rn
GROUP BY a.event_id
"""


def q_negative_samples(sf_dir: str):
    """Link-prediction negative sampling over the co-purchase graph:
    one deterministic corrupted partner per edge, degenerate proposals
    dropped, candidates anti-joined against the edge set so only
    genuine non-edges survive (analytics.negative_edge_samples)."""
    from georay import analytics

    return analytics.negative_edge_samples(_copurchase_edges(sf_dir))


SQL_NEGATIVE_SAMPLES = f"""
WITH {SQL_COPURCHASE_EDGES.strip()},
nodes AS (
  SELECT node, ROW_NUMBER() OVER (ORDER BY node) - 1 AS idx
  FROM (SELECT DISTINCT node
        FROM (SELECT a AS node FROM e UNION ALL SELECT b FROM e))
),
cnt AS (SELECT COUNT(*) AS n FROM nodes),
s0 AS (SELECT a, b, CAST(a * 1000003 + b AS HUGEINT) AS rid FROM e),
s1 AS (SELECT *, xor(rid, rid // 8589934592) AS h1 FROM s0),
m1 AS (
  SELECT *, ( (h1 % 4294967296) * 18397679294719823053
            + ((h1 // 4294967296) * 18397679294719823053 % 4294967296)
              * 4294967296
            ) % 18446744073709551616 AS h2
  FROM s1
),
hashed AS (SELECT a, b, xor(h2, h2 // 8589934592) AS h FROM m1),
prop AS (
  SELECT h.a, h.b, o.node AS b_neg
  FROM hashed h CROSS JOIN cnt
  JOIN nodes o ON o.idx = CAST(h.h % cnt.n AS BIGINT)
  WHERE o.node != h.a AND o.node != h.b
)
SELECT p.a, p.b, p.b_neg
FROM prop p
ANTI JOIN e ON LEAST(p.a, p.b_neg) = e.a AND GREATEST(p.a, p.b_neg) = e.b
"""


def q_editdist_join(sf_dir: str):
    """Exact Levenshtein-distance-≤2 self-join over part names
    (1-in-7 subset so the oracle's pair enumeration stays bounded at
    every sf): stages.text.editdist_join_qgram — positional-multiset
    q-gram count filter, one gram-bucket co-shuffle for candidates,
    batch-vectorized DP verify."""
    from georay.stages.text import editdist_join_qgram

    sub = rd.read_parquet(
        _t(sf_dir, "part"), columns=["p_partkey", "p_name"]
    ).map_batches(
        lambda b: b.filter(
            pa.array(
                b["p_partkey"].to_numpy(zero_copy_only=False) % 7 == 0
            )
        ),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )
    return editdist_join_qgram(sub, "p_partkey", "p_name", k=2)


SQL_EDITDIST_JOIN = """
WITH sub AS (
  SELECT p_partkey, lower(p_name) AS s FROM part WHERE p_partkey % 7 = 0
)
SELECT a.p_partkey AS id_a, b.p_partkey AS id_b,
       levenshtein(a.s, b.s) AS dist
FROM sub a JOIN sub b ON a.p_partkey < b.p_partkey
WHERE abs(length(a.s) - length(b.s)) <= 2
  AND levenshtein(a.s, b.s) <= 2
"""


def q_editdist_clusters(sf_dir: str):
    """Fuzzy-string ENTITY CLUSTERS: connected components over the
    Levenshtein-≤2 pair graph of part names — the composition query of
    the string near-dup family (editdist_join_qgram candidates+verify
    → components min-label), the editdist sibling of the minhash
    cluster chain. Labels = component-min id; nodes without a near
    pair don't appear (edge-list semantics, same as q_components)."""
    from georay.stages.components import connected_components
    from georay.stages.text import editdist_join_qgram

    sub = rd.read_parquet(
        _t(sf_dir, "part"), columns=["p_partkey", "p_name"]
    ).map_batches(
        lambda b: b.filter(
            pa.array(
                b["p_partkey"].to_numpy(zero_copy_only=False) % 7 == 0
            )
        ),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )
    pairs = editdist_join_qgram(sub, "p_partkey", "p_name", k=2)
    return connected_components(pairs, id_a="id_a", id_b="id_b")


SQL_EDITDIST_CLUSTERS = """
WITH RECURSIVE
sub AS (
  SELECT p_partkey, lower(p_name) AS s FROM part WHERE p_partkey % 7 = 0
),
e AS (
  SELECT a.p_partkey AS a, b.p_partkey AS b
  FROM sub a JOIN sub b ON a.p_partkey < b.p_partkey
  WHERE abs(length(a.s) - length(b.s)) <= 2
    AND levenshtein(a.s, b.s) <= 2
),
sym AS (SELECT a AS s, b AS d FROM e UNION ALL SELECT b, a FROM e),
reach(n, m) AS (
  SELECT s, d FROM sym
  UNION
  SELECT r.n, s.d FROM reach r JOIN sym s ON s.s = r.m
)
SELECT n AS node, LEAST(n, MIN(m)) AS label FROM reach GROUP BY n
"""


def q_pmi(sf_dir: str):
    """Top-100 collocations (adjacent word pairs by quantized PMI,
    count ≥ 5, ties lexicographic) — stages.text.pmi_collocations:
    vocabulary-sized unigram/bigram combine trees, broadcast unigram
    probe, staged integer division replicated in SQL."""
    from georay.stages import text as text_stage

    docs = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return text_stage.pmi_collocations(docs, k=100, min_count=5)


SQL_PMI = r"""
WITH arrs AS (
  SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS arr FROM documents
),
toks AS (
  SELECT doc_id, arr[i] AS t, i
  FROM arrs, UNNEST(generate_series(1, len(arr))) AS g(i)
),
uni AS (SELECT t, COUNT(*) AS c FROM toks GROUP BY t),
tot AS (SELECT SUM(c) AS n FROM uni),
bg AS (
  SELECT a.t AS w1, b.t AS w2, COUNT(*) AS c_xy
  FROM toks a JOIN toks b ON a.doc_id = b.doc_id AND b.i = a.i + 1
  GROUP BY 1, 2 HAVING COUNT(*) >= 5
)
SELECT bg.w1, bg.w2, CAST(bg.c_xy AS BIGINT) AS c_xy,
       CAST((bg.c_xy * 1048576) // cx.c * tot.n // cy.c AS BIGINT) AS pmi_q
FROM bg
JOIN uni cx ON cx.t = bg.w1
JOIN uni cy ON cy.t = bg.w2
CROSS JOIN tot
ORDER BY pmi_q DESC, bg.w1, bg.w2
LIMIT 100
"""


def q_clustering(sf_dir: str):
    """Per-node local clustering coefficient sufficient statistics of
    the co-purchase graph: (node, 2·triangles, degree) — coefficient =
    tri2/(deg·(deg−1)) downstream (analytics.clustering_coeff riding
    edge_jaccard's co-shuffles + one node-table combine tree)."""
    from georay import analytics

    return analytics.clustering_coeff(_copurchase_edges(sf_dir))


SQL_CLUSTERING = f"""
WITH {SQL_COPURCHASE_EDGES.strip()},
sym AS (SELECT a AS s, b AS d FROM e UNION ALL SELECT b, a FROM e),
inter AS (
  SELECT e.a, e.b, COUNT(*) AS common
  FROM e
  JOIN sym x ON x.s = e.a
  JOIN sym y ON y.s = e.b AND y.d = x.d
  GROUP BY e.a, e.b
),
pere AS (
  SELECT e.a, e.b, COALESCE(i.common, 0) AS common
  FROM e LEFT JOIN inter i ON i.a = e.a AND i.b = e.b
),
node_rows AS (
  SELECT a AS node, common FROM pere
  UNION ALL SELECT b, common FROM pere
)
SELECT node, CAST(SUM(common) AS BIGINT) AS tri2,
       CAST(COUNT(*) AS BIGINT) AS degree
FROM node_rows GROUP BY node
"""


def q_event_paths(sf_dir: str):
    """Top-20 behavioral trigram paths (consecutive event-type
    sequences per user, e.g. view>click>purchase) —
    analytics.event_sequences: one user-bucket shuffle, vectorized
    window strings, combine-tree histogram, deterministic top-k."""
    from georay import analytics

    ds = rd.read_parquet(
        _t(sf_dir, "events"),
        columns=["event_id", "user_id", "ts", "event_type"],
    )
    return analytics.event_sequences(
        ds, key="user_id", order_cols=["ts", "event_id"],
        type_col="event_type", n=3, k=20,
    )


SQL_EVENT_PATHS = """
WITH t AS (
  SELECT user_id, event_type,
         ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
  FROM events
),
tri AS (
  SELECT a.event_type || '>' || b.event_type || '>' || c.event_type AS seq
  FROM t a
  JOIN t b ON b.user_id = a.user_id AND b.rn = a.rn + 1
  JOIN t c ON c.user_id = a.user_id AND c.rn = a.rn + 2
)
SELECT seq, CAST(COUNT(*) AS BIGINT) AS n
FROM tri GROUP BY seq
ORDER BY n DESC, seq
LIMIT 20
"""


def q_jsonl_source(sf_dir: str):
    """JSONL ingest round-trip: documents materialized once as
    newline-delimited JSON (cached per sf_dir), read back through
    ``sources.read_jsonl`` (Arrow NDJSON, zero-copy blocks), then a
    per-language doc-count/char-sum aggregate — the oracle reads the
    original parquet, so the whole source path is hash-gated."""
    import json as _json
    import os

    from georay import sources

    path = os.path.join(
        "/tmp", f"georay_docs_{abs(hash(os.path.abspath(sf_dir))) % (1 << 32)}.jsonl"
    )
    if not os.path.exists(path):
        import pyarrow.parquet as pq

        t = pq.read_table(
            _t(sf_dir, "documents"), columns=["doc_id", "lang", "n_chars"]
        )
        with open(path + ".tmp", "w") as f:
            for r in t.to_pylist():
                f.write(_json.dumps(r) + "\n")
        os.replace(path + ".tmp", path)

    ds = sources.read_jsonl(path, columns=["doc_id", "lang", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        lang = batch["lang"].to_numpy(zero_copy_only=False)
        nch = batch["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        ks, vs = ops._group_reduce(
            [lang],
            {"partial_n": np.ones(lang.shape[0], np.int64), "partial_ch": nch},
        )
        return pa.table(
            {
                "lang": pa.array(ks[0]),
                "partial_n": pa.array(vs["partial_n"], pa.int64()),
                "partial_ch": pa.array(vs["partial_ch"], pa.int64()),
            }
        )

    return ops.tree_sum(
        ds.map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["lang"], {"partial_n": "n_docs", "partial_ch": "sum_chars"},
        int_cols=("partial_n", "partial_ch"),
    )


SQL_JSONL_SOURCE = """
SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(n_chars) AS BIGINT) AS sum_chars
FROM documents GROUP BY lang
"""


def q_ks_by_source(sf_dir: str):
    """Which source drifted? Per-source exact KS of the document-length
    distribution vs the rest of the corpus (ops.grouped_ks_vs_rest —
    one grouped histogram tree, all-steps sweep per group)."""
    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["source", "n_chars"])
    return ops.grouped_ks_vs_rest(ds, "source", "n_chars", quantize=1.0)


SQL_KS_BY_SOURCE = """
WITH h AS (
  SELECT source AS g, CAST(n_chars AS BIGINT) AS v, COUNT(*) AS c
  FROM documents GROUP BY 1, 2
),
vals AS (SELECT DISTINCT v FROM h),
grps AS (SELECT g, SUM(c) AS ng FROM h GROUP BY g),
tot AS (SELECT SUM(c) AS n FROM h),
cum AS (
  SELECT g2.g, va.v,
         COALESCE((SELECT SUM(c) FROM h WHERE h.g = g2.g AND h.v <= va.v), 0)
           AS cumg,
         (SELECT SUM(c) FROM h WHERE h.v <= va.v) AS cumall
  FROM grps g2 CROSS JOIN vals va
)
SELECT c.g AS source,
       CAST(MAX(ABS(c.cumg * (t.n - g2.ng)
                    - (c.cumall - c.cumg) * g2.ng)) AS BIGINT) AS d_num,
       CAST(MAX(g2.ng) AS BIGINT) AS n_g,
       CAST(MAX(t.n - g2.ng) AS BIGINT) AS n_rest
FROM cum c JOIN grps g2 ON g2.g = c.g CROSS JOIN tot t
GROUP BY c.g
"""


# --------------------------------------------- round-4 batch 3: ML eval,
# association rules, HITS, weighted SSSP, gaps-and-islands, correlation


def q_market_basket(sf_dir: str):
    """Association rules over order baskets: top-50 part pairs by
    co-occurrence with the exact confidence/lift sufficient statistics
    (analytics.market_basket — one basket-bucket shuffle, pair counts +
    item marginals + basket total tagged through ONE combine tree)."""
    from georay import analytics

    li = rd.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_partkey"]
    )
    return analytics.market_basket(
        li, "l_orderkey", "l_partkey", top_k=50, min_support=2,
        max_group_size=64,
    )


def q_basket_triples(sf_dir: str):
    """Frequent 3-itemsets over order baskets (analytics.
    frequent_triples — pairs × suffix-extension ragged enumeration,
    size-capped baskets, combine-tree supports)."""
    from georay import analytics

    li = rd.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_partkey"]
    )
    return analytics.frequent_triples(
        li, "l_orderkey", "l_partkey", min_support=2, max_group_size=64
    )


SQL_BASKET_TRIPLES = """
WITH b0 AS (SELECT DISTINCT l_orderkey AS g, l_partkey AS i FROM lineitem),
kept AS (SELECT g FROM b0 GROUP BY g HAVING COUNT(*) <= 64),
bk AS (SELECT b0.g, b0.i FROM b0 JOIN kept USING (g))
SELECT x.i AS a, y.i AS b, z.i AS c, CAST(COUNT(*) AS BIGINT) AS support
FROM bk x
JOIN bk y ON y.g = x.g AND y.i > x.i
JOIN bk z ON z.g = y.g AND z.i > y.i
GROUP BY 1, 2, 3 HAVING COUNT(*) >= 2
"""


SQL_MARKET_BASKET = """
WITH b0 AS (SELECT DISTINCT l_orderkey AS g, l_partkey AS i FROM lineitem),
kept AS (SELECT g FROM b0 GROUP BY g HAVING COUNT(*) <= 64),
bk AS (SELECT b0.g, b0.i FROM b0 JOIN kept USING (g)),
nb AS (SELECT COUNT(DISTINCT g) AS n FROM bk),
it AS (SELECT i, CAST(COUNT(*) AS BIGINT) AS cnt FROM bk GROUP BY i),
pr AS (
  SELECT x.i AS a, y.i AS b, CAST(COUNT(*) AS BIGINT) AS support
  FROM bk x JOIN bk y ON x.g = y.g AND x.i < y.i
  GROUP BY 1, 2 HAVING COUNT(*) >= 2
)
SELECT pr.a, pr.b, pr.support, ia.cnt AS n_a, ib.cnt AS n_b,
       CAST(nb.n AS BIGINT) AS n_baskets,
       CAST(pr.support * nb.n AS BIGINT) AS lift_num,
       CAST(ia.cnt * ib.cnt AS BIGINT) AS lift_den
FROM pr JOIN it ia ON ia.i = pr.a JOIN it ib ON ib.i = pr.b CROSS JOIN nb
ORDER BY pr.support DESC, pr.a, pr.b LIMIT 50
"""


_HITS_ITERS = 2
_HITS_SCALE_BITS = 30


def _purchase_edges(sf_dir: str):
    """Distinct directed (customer → part) purchase edges: lineitem
    gets o_custkey via a broadcast dim join on orderkey (orders is the
    small side; swap for equi_join_partitioned when it is not), then
    the pair set dedupes through one combine tree."""
    import pyarrow.parquet as pq

    orders = pq.read_table(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_custkey"]
    )
    li = rd.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_orderkey", "l_partkey"]
    )
    ds = ops.broadcast_join(li, orders, on="l_orderkey", dim_on="o_orderkey")

    def pairs(batch: pa.Table) -> pa.Table:
        import numpy as _np

        s = batch["o_custkey"].to_numpy(zero_copy_only=False).astype(_np.int64)
        d = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(_np.int64)
        ks, vs = ops._group_reduce(
            [s, d], {"partial_one": _np.ones(s.shape[0], _np.int64)}
        )
        return pa.table(
            {
                "src": pa.array(ks[0], pa.int64()),
                "dst": pa.array(ks[1], pa.int64()),
                "partial_one": pa.array(vs["partial_one"], pa.int64()),
            }
        )

    return ops.tree_sum(
        ds.map_batches(
            pairs, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["src", "dst"], {"partial_one": "c"}, int_cols=("partial_one",),
    ).select_columns(["src", "dst"])


def q_hits(sf_dir: str):
    """Integer-exact HITS hubs & authorities over the bipartite
    customer→part purchase graph, 2 fixed iterations
    (analytics.hits_scores): fixed-point 2^-30 scores, L1-renormalized
    with exact big-int division each half-iteration — the SQL twin
    chains identical integer CTEs via HUGEINT, bit-for-bit."""
    from georay import analytics

    return analytics.hits_scores(
        _purchase_edges(sf_dir), n_iter=_HITS_ITERS,
        scale_bits=_HITS_SCALE_BITS,
    )


def _hits_sql() -> str:
    scale = 1 << _HITS_SCALE_BITS
    parts = [
        """WITH e AS (SELECT DISTINCT o_custkey AS s, l_partkey AS d
           FROM orders JOIN lineitem ON l_orderkey = o_orderkey),
na AS (SELECT COUNT(DISTINCT d) AS n FROM e),
auths AS (SELECT DISTINCT d AS node FROM e),""",
        f"\na0 AS (SELECT node, CAST({scale} // na.n AS BIGINT) AS q"
        " FROM auths CROSS JOIN na)",
    ]
    prev_a = "a0"
    for it in range(1, _HITS_ITERS + 1):
        parts.append(
            f""",
h{it}r AS (SELECT e.s AS node, SUM({prev_a}.q) AS raw
        FROM e JOIN {prev_a} ON {prev_a}.node = e.d GROUP BY e.s),
h{it}t AS (SELECT SUM(raw) AS t FROM h{it}r),
h{it} AS (SELECT node, CAST(CAST(raw AS HUGEINT) * {scale} // t AS BIGINT)
          AS q FROM h{it}r CROSS JOIN h{it}t),
a{it}r AS (SELECT e.d AS node, SUM(h{it}.q) AS raw
        FROM e JOIN h{it} ON h{it}.node = e.s GROUP BY e.d),
a{it}t AS (SELECT SUM(raw) AS t FROM a{it}r),
a{it} AS (SELECT node, CAST(CAST(raw AS HUGEINT) * {scale} // t AS BIGINT)
          AS q FROM a{it}r CROSS JOIN a{it}t)"""
        )
        prev_a = f"a{it}"
    parts.append(
        f"""
SELECT 'hub' AS side, node, q AS score_q FROM h{_HITS_ITERS}
UNION ALL
SELECT 'auth' AS side, node, q AS score_q FROM a{_HITS_ITERS}"""
    )
    return "".join(parts)


SQL_HITS = _hits_sql()


_SSSP_ROUNDS = 4
_SSSP_SEED_MOD = 97


def _sssp_weight(a, b):
    import numpy as _np

    return 1 + (_np.asarray(a, _np.int64) + _np.asarray(b, _np.int64)) % 7


def q_sssp(sf_dir: str):
    """Multi-source weighted shortest paths (4 fixed Bellman–Ford
    rounds) over the co-purchase graph, edge weight 1+(a+b)%7, seeds =
    nodes ≡ 0 (mod 97). Local CSR scatter-min below 2M edges, else the
    partitioned frontier loop (analytics.sssp_rounds)."""
    from georay import analytics

    return analytics.sssp_rounds(
        _copurchase_edges(sf_dir).materialize(),
        lambda n: n % _SSSP_SEED_MOD == 0,
        _sssp_weight,
        rounds=_SSSP_ROUNDS,
    )


def q_sssp_partitioned(sf_dir: str):
    """Distributed twin of ``sssp``: (node, dist) labels stay
    hash-sharded; only improved nodes send along their edges, one
    node-keyed co-shuffle per round; driver sees one row count per round
    (analytics.sssp_partitioned). Shares the chained-CTE oracle."""
    from georay import analytics

    return analytics.sssp_partitioned(
        _copurchase_edges(sf_dir).materialize(),
        lambda n: n % _SSSP_SEED_MOD == 0,
        _sssp_weight,
        rounds=_SSSP_ROUNDS,
    )


def _sssp_sql() -> str:
    parts = [
        f"WITH {SQL_COPURCHASE_EDGES.strip()}",
        """,
sym AS (SELECT a AS s, b AS d, 1 + (a + b) % 7 AS w FROM e
        UNION ALL SELECT b, a, 1 + (a + b) % 7 FROM e),
n0 AS (SELECT DISTINCT s AS node FROM sym),""",
        f"""
d0 AS (SELECT node, CASE WHEN node % {_SSSP_SEED_MOD} = 0
                         THEN CAST(0 AS BIGINT) END AS dist FROM n0)""",
    ]
    for it in range(1, _SSSP_ROUNDS + 1):
        prev = f"d{it - 1}"
        parts.append(
            f""",
d{it} AS (
  SELECT {prev}.node,
         CASE WHEN {prev}.dist IS NULL THEN m.md
              WHEN m.md IS NULL THEN {prev}.dist
              ELSE LEAST({prev}.dist, m.md) END AS dist
  FROM {prev} LEFT JOIN (
    SELECT s.d AS node, MIN(p.dist + s.w) AS md
    FROM sym s JOIN {prev} p ON p.node = s.s WHERE p.dist IS NOT NULL
    GROUP BY s.d
  ) m ON m.node = {prev}.node
)"""
        )
    parts.append(
        f"""
SELECT node, CAST(dist AS BIGINT) AS dist
FROM d{_SSSP_ROUNDS} WHERE dist IS NOT NULL"""
    )
    return "".join(parts)


SQL_SSSP = _sssp_sql()


def q_pr_curve(sf_dir: str):
    """Exact precision–recall curve of event value (cents) as a
    purchase-vs-rest score: one (s, tp, fp, fn) row per distinct
    threshold via the score-histogram combine tree + one sweep task
    (ops.pr_curve — the imbalanced-gate companion to roc_auc)."""
    ev = rd.read_parquet(_t(sf_dir, "events"), columns=["event_type", "value"])

    def lab(batch: pa.Table) -> pa.Table:
        y = pc.equal(batch["event_type"], "purchase")
        return pa.table(
            {"label": pc.cast(y, pa.int64()), "score": batch["value"]}
        )

    ds = ev.map_batches(
        lab, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return ops.pr_curve(ds, "label", "score", quantize=100.0)


SQL_PR_CURVE = """
WITH x AS (
  SELECT CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END AS y,
         CAST(floor(value * 100.0e0 + 0.5e0) AS BIGINT) AS s
  FROM events
),
h AS (SELECT s, SUM(y) AS p, SUM(1 - y) AS n FROM x GROUP BY s),
tot AS (SELECT SUM(p) AS tp_all FROM h)
SELECT s,
       CAST(SUM(p) OVER (ORDER BY s DESC) AS BIGINT) AS tp,
       CAST(SUM(n) OVER (ORDER BY s DESC) AS BIGINT) AS fp,
       CAST(tot.tp_all - SUM(p) OVER (ORDER BY s DESC) AS BIGINT) AS fn
FROM h CROSS JOIN tot
"""


_CALIB_BIN_Q = 1000


def q_calibration(sf_dir: str):
    """Reliability-diagram bins for the purchase-vs-rest score: per
    10.00-wide score bin the exact (n, n_pos, sum_score_q) sufficient
    statistics (ops.calibration_bins — one bin-bounded combine tree)."""
    ev = rd.read_parquet(_t(sf_dir, "events"), columns=["event_type", "value"])

    def lab(batch: pa.Table) -> pa.Table:
        y = pc.equal(batch["event_type"], "purchase")
        return pa.table(
            {"label": pc.cast(y, pa.int64()), "score": batch["value"]}
        )

    ds = ev.map_batches(
        lab, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return ops.calibration_bins(
        ds, "label", "score", quantize=100.0, bin_width_q=_CALIB_BIN_Q
    )


SQL_CALIBRATION = f"""
WITH x AS (
  SELECT CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END AS y,
         CAST(floor(value * 100.0e0 + 0.5e0) AS BIGINT) AS sq
  FROM events
)
SELECT sq // {_CALIB_BIN_Q} AS bin, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(y) AS BIGINT) AS n_pos, CAST(SUM(sq) AS BIGINT) AS sum_score_q
FROM x GROUP BY 1
"""


def q_contingency(sf_dir: str):
    """Independence profile of market segment × order priority: exact
    contingency cells with marginals and the scaled deviation
    ``obs·n − row_tot·col_tot`` attached (ops.contingency_profile —
    χ²/Cramér's V/MI are rationals of these five integers). Customer is
    the broadcast dim side."""
    import pyarrow.parquet as pq

    cust = pq.read_table(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"]
    )
    ds = rd.read_parquet(
        _t(sf_dir, "orders"), columns=["o_custkey", "o_orderpriority"]
    )
    ds = ops.broadcast_join(ds, cust, on="o_custkey", dim_on="c_custkey")
    return ops.contingency_profile(ds, "c_mktsegment", "o_orderpriority")


SQL_CONTINGENCY = """
WITH j AS (
  SELECT c_mktsegment AS r, o_orderpriority AS c2
  FROM orders JOIN customer ON c_custkey = o_custkey
),
cells AS (SELECT r, c2, CAST(COUNT(*) AS BIGINT) AS obs FROM j GROUP BY 1, 2),
rt AS (SELECT r, SUM(obs) AS row_tot FROM cells GROUP BY r),
ct AS (SELECT c2, SUM(obs) AS col_tot FROM cells GROUP BY c2),
nn AS (SELECT SUM(obs) AS n FROM cells)
SELECT cells.r AS c_mktsegment, cells.c2 AS o_orderpriority, obs,
       CAST(row_tot AS BIGINT) AS row_tot, CAST(col_tot AS BIGINT) AS col_tot,
       CAST(nn.n AS BIGINT) AS n,
       CAST(obs * nn.n - row_tot * col_tot AS BIGINT) AS dev
FROM cells JOIN rt USING (r) JOIN ct USING (c2) CROSS JOIN nn
"""


def q_islands(sf_dir: str):
    """Gaps-and-islands per user over the event stream: distinct active
    days grouped into consecutive streaks — (user_id, n_days,
    n_islands, max_streak), one key-bucket shuffle, fully vectorized
    (ops.activity_islands)."""
    ev = rd.read_parquet(_t(sf_dir, "events"), columns=["user_id", "ts"])
    return ops.activity_islands(ev, "user_id", "ts")


SQL_ISLANDS = """
WITH d AS (SELECT DISTINCT user_id, CAST(ts AS DATE) AS dd FROM events),
r AS (
  SELECT user_id, dd,
         CAST(datediff('day', DATE '1970-01-01', dd) AS BIGINT)
         - ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY dd) AS grp
  FROM d
),
isl AS (SELECT user_id, grp, CAST(COUNT(*) AS BIGINT) AS len
        FROM r GROUP BY 1, 2)
SELECT user_id, CAST(SUM(len) AS BIGINT) AS n_days,
       CAST(COUNT(*) AS BIGINT) AS n_islands,
       CAST(MAX(len) AS BIGINT) AS max_streak
FROM isl GROUP BY user_id
"""


_CORR_EXPRS = {
    "l_quantity": "CAST(floor(l_quantity * 1.0e0 + 0.5e0) AS BIGINT)",
    "l_extendedprice":
        "CAST(floor(l_extendedprice * 0.01e0 + 0.5e0) AS BIGINT)",
    "l_discount": "CAST(floor(l_discount * 100.0e0 + 0.5e0) AS BIGINT)",
    "l_tax": "CAST(floor(l_tax * 100.0e0 + 0.5e0) AS BIGINT)",
}


def q_corr_matrix(sf_dir: str):
    """Pairwise-Pearson sufficient statistics of the four lineitem
    numerics in ONE streaming pass (ops.corr_pairs): per pair the six
    exact integers (n, Σx, Σy, Σx², Σy², Σxy) in quantized units
    (quantity whole, price whole dollars, discount/tax percent)."""
    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_quantity", "l_extendedprice", "l_discount", "l_tax"],
    )
    return ops.corr_pairs(
        ds,
        {
            "l_quantity": 1.0,
            "l_extendedprice": 0.01,
            "l_discount": 100.0,
            "l_tax": 100.0,
        },
    )


def _corr_matrix_sql() -> str:
    names = sorted(_CORR_EXPRS)
    sel = ",\n  ".join(f"{_CORR_EXPRS[c]} AS {c}" for c in names)
    parts = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            x, y = names[i], names[j]
            parts.append(
                f"""SELECT '{x}' AS cx, '{y}' AS cy,
  CAST(COUNT(*) AS BIGINT) AS n,
  CAST(SUM({x}) AS BIGINT) AS sx, CAST(SUM({y}) AS BIGINT) AS sy,
  CAST(SUM({x} * {x}) AS BIGINT) AS sxx,
  CAST(SUM({y} * {y}) AS BIGINT) AS syy,
  CAST(SUM({x} * {y}) AS BIGINT) AS sxy
FROM qv"""
            )
    return (
        f"WITH qv AS (SELECT {sel} FROM lineitem)\n"
        + "\nUNION ALL\n".join(parts)
    )


SQL_CORR_MATRIX = _corr_matrix_sql()


_XCORR_MAX_LAG = 6


def q_cross_corr(sf_dir: str):
    """Does browsing predict buying? Lag-0..6 cross-correlation
    sufficient statistics between the view and purchase DAILY count
    series (ops.cross_corr_daily — one calendar-bounded combine tree +
    one vectorized shift sweep; exact integer dot products)."""
    ev = rd.read_parquet(_t(sf_dir, "events"), columns=["event_type", "ts"])
    return ops.cross_corr_daily(
        ev, "event_type", "ts", "view", "purchase", max_lag=_XCORR_MAX_LAG
    )


SQL_CROSS_CORR = f"""
WITH ad AS (
  SELECT CAST(datediff('day', DATE '1970-01-01', CAST(ts AS DATE)) AS BIGINT)
           AS d, CAST(COUNT(*) AS BIGINT) AS n
  FROM events WHERE event_type = 'view' GROUP BY 1
),
bd AS (
  SELECT CAST(datediff('day', DATE '1970-01-01', CAST(ts AS DATE)) AS BIGINT)
           AS d, CAST(COUNT(*) AS BIGINT) AS n
  FROM events WHERE event_type = 'purchase' GROUP BY 1
),
bounds AS (SELECT MIN(d) AS lo, MAX(d) AS hi
           FROM (SELECT d FROM ad UNION ALL SELECT d FROM bd)),
lags AS (SELECT CAST(range AS BIGINT) AS lag
         FROM range(0, {_XCORR_MAX_LAG + 1}))
SELECT l.lag,
  (SELECT CAST(COALESCE(SUM(a.n * b.n), 0) AS BIGINT)
   FROM ad a JOIN bd b ON b.d = a.d + l.lag) AS dot,
  (SELECT CAST(COALESCE(SUM(a.n), 0) AS BIGINT) FROM ad a
   WHERE a.d <= bounds.hi - l.lag) AS sa,
  (SELECT CAST(COALESCE(SUM(b.n), 0) AS BIGINT) FROM bd b
   WHERE b.d >= bounds.lo + l.lag) AS sb,
  CAST(bounds.hi - bounds.lo + 1 - l.lag AS BIGINT) AS n_days
FROM lags l CROSS JOIN bounds
"""


def q_seasonal_dow(sf_dir: str):
    """Weekday-seasonal anomaly numerators per event type: each
    (type, date) daily count next to its type's same-weekday total and
    the calendar count of that weekday — ``anom_num =
    daily_n·dow_days − dow_total`` flags days above/below their weekday
    baseline, all exact integers (ops.seasonal_dow_anomaly; weekday =
    (epoch_days+4)%7 so SQL replicates without library conventions)."""
    ev = rd.read_parquet(_t(sf_dir, "events"), columns=["event_type", "ts"])
    return ops.seasonal_dow_anomaly(ev, "event_type", "ts")


SQL_SEASONAL_DOW = """
WITH daily AS (
  SELECT event_type,
         CAST(datediff('day', DATE '1970-01-01', CAST(ts AS DATE)) AS BIGINT)
           AS d,
         CAST(COUNT(*) AS BIGINT) AS daily_n
  FROM events GROUP BY 1, 2
),
bounds AS (SELECT MIN(d) AS lo, MAX(d) AS hi FROM daily),
occ AS (
  SELECT CAST(range AS BIGINT) AS dow,
         CAST((hi - lo + 1) // 7
              + CASE WHEN ((range - (lo + 4) % 7) % 7 + 7) % 7
                     < (hi - lo + 1) % 7 THEN 1 ELSE 0 END AS BIGINT)
           AS dow_days
  FROM range(0, 7) CROSS JOIN bounds
),
dowt AS (
  SELECT event_type, (d + 4) % 7 AS dow, CAST(SUM(daily_n) AS BIGINT)
           AS dow_total
  FROM daily GROUP BY 1, 2
)
SELECT daily.event_type, daily.d, (daily.d + 4) % 7 AS dow, daily.daily_n,
       dowt.dow_total, occ.dow_days,
       CAST(daily.daily_n * occ.dow_days - dowt.dow_total AS BIGINT)
         AS anom_num
FROM daily
JOIN dowt ON dowt.event_type = daily.event_type
         AND dowt.dow = (daily.d + 4) % 7
JOIN occ ON occ.dow = (daily.d + 4) % 7
"""


def q_neighbor_degree(sf_dir: str):
    """Per-node average-neighbor-degree sufficient statistics over the
    co-purchase graph (analytics.avg_neighbor_degree — degree table
    broadcast once, one more streaming edge pass; exact (deg,
    sum_ndeg) pairs, the local view of assortativity)."""
    from georay import analytics

    return analytics.avg_neighbor_degree(_copurchase_edges(sf_dir))


SQL_NEIGHBOR_DEGREE = f"""
WITH {SQL_COPURCHASE_EDGES.strip()},
sym AS (SELECT a AS s, b AS d FROM e UNION ALL SELECT b, a FROM e),
deg AS (SELECT s AS node, CAST(COUNT(*) AS BIGINT) AS degree
        FROM sym GROUP BY 1)
SELECT s.s AS node, CAST(MAX(dg0.degree) AS BIGINT) AS deg,
       CAST(SUM(dgn.degree) AS BIGINT) AS sum_ndeg
FROM sym s JOIN deg dg0 ON dg0.node = s.s JOIN deg dgn ON dgn.node = s.d
GROUP BY s.s
"""


def q_interarrival(sf_dir: str):
    """Per-user inter-arrival statistics over the event stream, exact
    int64 microseconds: (n_events, span_us, min/max gap) — single-event
    users carry NULL gaps; Σgaps telescopes to span so mean gap needs
    no extra column (ops.interarrival_stats, one key-bucket shuffle)."""
    ev = rd.read_parquet(_t(sf_dir, "events"), columns=["user_id", "ts"])
    return ops.interarrival_stats(ev, "user_id", "ts")


SQL_INTERARRIVAL = """
WITH x AS (SELECT user_id, CAST(epoch_us(ts) AS BIGINT) AS t FROM events),
g AS (
  SELECT user_id, t,
         t - LAG(t) OVER (PARTITION BY user_id ORDER BY t) AS gap
  FROM x
)
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(MAX(t) - MIN(t) AS BIGINT) AS span_us,
       CAST(MIN(gap) AS BIGINT) AS min_gap_us,
       CAST(MAX(gap) AS BIGINT) AS max_gap_us
FROM g GROUP BY user_id
"""


_TREND_W = 5


def q_window_trend(sf_dir: str):
    """Per-event rolling trend: exact OLS slope rational of value
    (cents) against within-user row position over the trailing 5 rows
    (ops.window_trend — five segmented-cumsum differences in one
    key-bucket shuffle; SQL twin is five ROWS-frame window sums)."""
    ev = rd.read_parquet(
        _t(sf_dir, "events"), columns=["user_id", "ts", "event_id", "value"]
    )
    return ops.window_trend(
        ev, "user_id", ["ts", "event_id"], "value", w=_TREND_W, quantize=100.0
    )


SQL_WINDOW_TREND = f"""
WITH x AS (
  SELECT user_id, ts, event_id,
         CAST(floor(value * 100.0e0 + 0.5e0) AS BIGINT) AS v,
         CAST(ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts, event_id)
              - 1 AS BIGINT) AS j
  FROM events
)
SELECT user_id, ts, event_id,
  CAST(cnt * sxy - sx * sy AS BIGINT) AS slope_num,
  CAST(cnt * sxx - sx * sx AS BIGINT) AS slope_den
FROM (
  SELECT user_id, ts, event_id,
    COUNT(*) OVER win AS cnt, SUM(j) OVER win AS sx, SUM(v) OVER win AS sy,
    SUM(j * j) OVER win AS sxx, SUM(j * v) OVER win AS sxy
  FROM x
  WINDOW win AS (PARTITION BY user_id ORDER BY j
                 ROWS BETWEEN {_TREND_W - 1} PRECEDING AND CURRENT ROW)
)
"""


_BURST_WINDOW_US = 3_600_000_000  # 1 hour


def q_window_burst(sf_dir: str):
    """Per-user burst detection: the max number of events in any
    trailing 1-hour window (ops.window_burst — two packed searchsorted
    sweeps per bucket; RANGE-frame peer semantics so the SQL twin is
    bit-identical)."""
    ev = rd.read_parquet(_t(sf_dir, "events"), columns=["user_id", "ts"])
    return ops.window_burst(ev, "user_id", "ts", window_us=_BURST_WINDOW_US)


SQL_WINDOW_BURST = f"""
WITH x AS (SELECT user_id, CAST(epoch_us(ts) AS BIGINT) AS t FROM events),
c AS (
  SELECT user_id,
         COUNT(*) OVER (PARTITION BY user_id ORDER BY t
                        RANGE BETWEEN {_BURST_WINDOW_US - 1} PRECEDING
                        AND CURRENT ROW) AS cnt
  FROM x
)
SELECT user_id, CAST(MAX(cnt) AS BIGINT) AS peak_count,
       CAST(COUNT(*) AS BIGINT) AS n_events
FROM c GROUP BY user_id
"""


def q_image_channel_stats(sf_dir: str):
    """Corpus per-channel normalization constants (the mean/std every
    vision-pretraining run computes) over the deterministic 1000-image
    table, as EXACT integer sufficient statistics (channel, s, s2, n):
    actor-pool decode partials + combine tree
    (stages.multimodal.corpus_channel_stats raw form). Deterministic
    input ⇒ constant oracle."""
    import tempfile

    from georay import generate
    from georay.stages import multimodal

    cache = os.path.join(tempfile.gettempdir(), "georay_q_images_1000")
    marker = os.path.join(cache, "_DONE")
    if not os.path.exists(marker):
        generate.write_images_dataset(cache, 1000, seed=77, rows_per_file=500)
        open(marker, "w").write("ok")
    return multimodal.corpus_channel_stats(
        rd.read_parquet(cache, columns=["bytes", "fmt", "w", "h"]),
        concurrency=2, raw=True,
    )


def q_image_exact_dedup(sf_dir: str):
    """Exact byte-level image dedup — the first rung of the image dedup
    ladder (exact → phash banding ``image_neardup`` → DCT
    ``dct_image_neardup``): md5-of-(fmt, bytes) fingerprint per row
    (hash cost dominates the per-blob loop), then the standard
    hash-partitioned first-seen dedup (ops.dedup_exact, keep lowest
    id). The generator plants ~1% byte-identical duplicates (shared
    content key + w/h/fmt), so the survivor count is a fixed constant.
    Output one row: (n_rows, n_unique, n_dup_rows)."""
    import hashlib
    import tempfile

    from georay import generate

    cache = os.path.join(tempfile.gettempdir(), "georay_q_images_1000")
    marker = os.path.join(cache, "_DONE")
    if not os.path.exists(marker):
        generate.write_images_dataset(cache, 1000, seed=77, rows_per_file=500)
        open(marker, "w").write("ok")
    ds = rd.read_parquet(cache, columns=["image_id", "bytes", "fmt"])

    def fp(batch: pa.Table) -> pa.Table:
        ids = np.asarray(
            [int(s[3:]) for s in batch["image_id"].to_pylist()], dtype=np.int64
        )
        fps = np.fromiter(
            (
                int.from_bytes(
                    hashlib.md5(f.encode() + b"\x00" + d).digest()[:8],
                    "little", signed=True,
                )
                for f, d in zip(
                    batch["fmt"].to_pylist(), batch["bytes"].to_pylist()
                )
            ),
            np.int64, count=ids.shape[0],
        )
        return pa.table(
            {"rid": pa.array(ids), "fingerprint": pa.array(fps)}
        )

    fds = ds.map_batches(
        fp, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    n_rows = 1000
    n_unique = ops.dedup_exact(fds, "fingerprint", keep_col="rid").count()
    return pa.table(
        {
            "n_rows": pa.array([n_rows], pa.int64()),
            "n_unique": pa.array([n_unique], pa.int64()),
            "n_dup_rows": pa.array([n_rows - n_unique], pa.int64()),
        }
    )


# constant oracles: the image generator is fixed-seed deterministic
# (same convention as SQL_IMAGE_PIPELINE / SQL_IMAGE_PATCHES)
SQL_IMAGE_CHANNEL_STATS = """
SELECT 0 AS channel, 163837562 AS s, 27862625610 AS s2, 1288448 AS n
UNION ALL SELECT 1, 163842454, 27861631920, 1288448
UNION ALL SELECT 2, 163706262, 27828850264, 1288448
"""

SQL_IMAGE_EXACT_DEDUP = (
    "SELECT 1000 AS n_rows, 992 AS n_unique, 8 AS n_dup_rows"
)

# derived OUTSIDE the engine: DuckDB bit_count(xor(...)) over the
# parquet shards, ROW_NUMBER() OVER (PARTITION BY probe ORDER BY dist,
# rid) <= 5, probes = rids 0..4
SQL_PHASH_KNN = """
SELECT * FROM (VALUES
  (0, 344, 20), (0, 984, 20), (0, 188, 21), (0, 312, 21), (0, 359, 21),
  (1, 604, 21), (1, 898, 21), (1,   5, 22), (1,  43, 22), (1, 168, 22),
  (2, 921, 19), (2, 166, 20), (2, 379, 20), (2, 606, 21), (2, 760, 21),
  (3, 184, 19), (3, 671, 19), (3, 716, 19), (3,  78, 21), (3, 145, 21),
  (4, 832, 18), (4, 710, 19), (4, 750, 19), (4, 718, 21), (4, 218, 22)
) AS t(probe_id, rid, dist)
"""

# derived OUTSIDE the engine: DuckDB string_split of the normalized
# captions joined to the _s2_parent_sql codec replica
SQL_CAPTION_TERMS_BY_CELL = """
SELECT * FROM (VALUES
  (6607062128329228288, 'of', 61),
  (6607062128329228288, 'a', 32),
  (6607062128329228288, 'near', 32),
  (6607062128329228288, 'photo', 32),
  (6607062128329228288, 'straße', 31),
  (6607062128329228288, 'überblick', 31),
  (6607062128329228288, 'satellite', 29),
  (6607062128329228288, 'tile', 29),
  (6607062128329228288, 'view', 29),
  (6607062128329228288, '—', 29)
) AS t(cell, token, n)
"""

# derived OUTSIDE the engine: DuckDB octet_length/w·h sums joined to
# the _s2_parent_sql codec replica, ORDER BY sum_bytes DESC, cell
SQL_CELL_IMAGE_STATS = """
SELECT * FROM (VALUES
  (6607062128329228288, 146, 565422, 187648),
  (5035868808330346496,  58, 223363,  74112),
  (-6679682672320577536, 41, 148556,  49280),
  (6005831578075267072,  33, 122696,  40704),
  (5037557658190610432,  25, 103082,  34176),
  (-8835780993924202496, 18,  96709,  32128),
  (-4874302171698429952, 17,  89504,  29696),
  (3488882336328581120,  16,  69341,  23040),
  (1526438798701887488,  11,  61194,  20352),
  (7121035435802886144,   8,  61170,  20352)
) AS t(cell, n_images, sum_bytes, sum_pixels)
"""

# derived OUTSIDE the engine: DuckDB read of the parquet shards +
# the _s2_parent_sql codec replica + COUNT(DISTINCT (phash>>56)&255)
# per cell (999 tagged rows; 1 untagged excluded)
SQL_CELL_PHASH_DIVERSITY = """
SELECT * FROM (VALUES
  (6607062128329228288, 146, 119),
  (5035868808330346496,  58,  51),
  (-6679682672320577536, 41,  37),
  (6005831578075267072,  33,  30),
  (5037557658190610432,  25,  25),
  (-8835780993924202496, 18,  17),
  (-4874302171698429952, 17,  17),
  (3488882336328581120,  16,  16),
  (6006957477982109696,  16,  15),
  (1550645646699003904,  14,  13)
) AS t(cell, n_images, n_bands)
"""


def q_conversion_lag(sf_dir: str):
    """Funnel latency: per user, exact µs from the FIRST view to the
    first purchase strictly after it (ops.conversion_lag — one
    key-bucket shuffle, two vectorized first-reduces)."""
    ev = rd.read_parquet(
        _t(sf_dir, "events"), columns=["user_id", "ts", "event_type"]
    )
    return ops.conversion_lag(
        ev, "user_id", "ts", "event_type", "view", "purchase"
    )


SQL_CONVERSION_LAG = """
WITH a AS (
  SELECT user_id, MIN(CAST(epoch_us(ts) AS BIGINT)) AS t FROM events
  WHERE event_type = 'view' GROUP BY 1
),
b AS (
  SELECT e.user_id, MIN(CAST(epoch_us(e.ts) AS BIGINT)) AS t
  FROM events e JOIN a ON a.user_id = e.user_id
   AND CAST(epoch_us(e.ts) AS BIGINT) > a.t
  WHERE e.event_type = 'purchase' GROUP BY 1
)
SELECT a.user_id, CAST(b.t - a.t AS BIGINT) AS lag_us
FROM a JOIN b USING (user_id)
"""


_DEBOUNCE_US = 600_000_000  # 10 minutes


def q_debounce(sf_dir: str):
    """Debounce survivorship per user: events kept when >10 min after
    the previous one (ops.debounce_count — gap-based, tie-safe; SQL
    twin is one LAG window)."""
    ev = rd.read_parquet(_t(sf_dir, "events"), columns=["user_id", "ts"])
    return ops.debounce_count(ev, "user_id", "ts", window_us=_DEBOUNCE_US)


SQL_DEBOUNCE = f"""
WITH x AS (SELECT user_id, CAST(epoch_us(ts) AS BIGINT) AS t FROM events),
g AS (
  SELECT user_id,
         t - LAG(t) OVER (PARTITION BY user_id ORDER BY t) AS gap
  FROM x
)
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(COUNT(*) FILTER (gap IS NULL OR gap > {_DEBOUNCE_US}) AS BIGINT)
         AS n_kept
FROM g GROUP BY user_id
"""


def q_rfm(sf_dir: str):
    """RFM customer profile, exact: per customer the recency (days
    since their last order vs the corpus max date), order frequency and
    monetary total in cents — one combine tree with per-column add/max
    reducers, recency attached in the final one-task sweep."""
    ds = rd.read_parquet(
        _t(sf_dir, "orders"), columns=["o_custkey", "o_orderdate", "o_totalprice"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        c = batch["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = (
            batch["o_orderdate"].to_numpy(zero_copy_only=False)
            .astype("datetime64[D]").astype(np.int64)
        )
        cents = np.floor(
            batch["o_totalprice"].to_numpy(zero_copy_only=False)
            .astype(np.float64) * 100.0 + 0.5
        ).astype(np.int64)
        ks, vs = ops._group_reduce(
            [c],
            {"partial_f": np.ones(c.shape[0], np.int64),
             "partial_m": cents, "partial_d": d},
            ufunc={"partial_f": np.add, "partial_m": np.add,
                   "partial_d": np.maximum},
        )
        return pa.table(
            {
                "o_custkey": pa.array(ks[0], pa.int64()),
                "partial_f": pa.array(vs["partial_f"], pa.int64()),
                "partial_m": pa.array(vs["partial_m"], pa.int64()),
                "partial_d": pa.array(vs["partial_d"], pa.int64()),
            }
        )

    merged = ops.tree_reduce(
        ds.map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["o_custkey"],
        {"partial_f": "frequency", "partial_m": "monetary_cents",
         "partial_d": "last_day"},
        ufunc={"partial_f": np.add, "partial_m": np.add,
               "partial_d": np.maximum},
    )

    def finish(batch: pa.Table) -> pa.Table:
        last = batch["last_day"].to_numpy(zero_copy_only=False).astype(np.int64)
        mx = int(last.max()) if last.shape[0] else 0
        return pa.table(
            {
                "o_custkey": batch["o_custkey"],
                "recency_days": pa.array(mx - last, pa.int64()),
                "frequency": batch["frequency"],
                "monetary_cents": batch["monetary_cents"],
            }
        )

    return exchange.gather(merged, finish)


SQL_RFM = """
WITH mx AS (SELECT MAX(CAST(o_orderdate AS DATE)) AS m FROM orders)
SELECT o_custkey,
       CAST(datediff('day', MAX(CAST(o_orderdate AS DATE)), mx.m) AS BIGINT)
         AS recency_days,
       CAST(COUNT(*) AS BIGINT) AS frequency,
       CAST(SUM(CAST(floor(o_totalprice * 100.0e0 + 0.5e0) AS BIGINT))
            AS BIGINT) AS monetary_cents
FROM orders CROSS JOIN mx
GROUP BY o_custkey, mx.m
"""


_SKEW_TOP = 20


def q_skew_profile(sf_dir: str):
    """Shuffle-safety diagnostic for a join/groupby key: the top-20
    hottest l_partkey values with their row counts, each row carrying
    the corpus totals (n_total, n_distinct) — hot/total is the skew
    ratio that decides between a plain co-shuffle and a salted or
    broadcast plan. One combine tree + one sweep over the (bounded)
    key histogram; deterministic selection (count DESC, key)."""
    ds = rd.read_parquet(_t(sf_dir, "lineitem"), columns=["l_partkey"])

    def partial(batch: pa.Table) -> pa.Table:
        k = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        ks, vs = ops._group_reduce(
            [k], {"partial_n": np.ones(k.shape[0], np.int64)}
        )
        return pa.table(
            {
                "l_partkey": pa.array(ks[0], pa.int64()),
                "partial_n": pa.array(vs["partial_n"], pa.int64()),
            }
        )

    hist = ops.tree_sum(
        ds.map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["l_partkey"], {"partial_n": "n"}, int_cols=("partial_n",),
    )

    def sweep(batch: pa.Table) -> pa.Table:
        k = batch["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        tot = int(n.sum())
        dis = int(k.shape[0])
        o = np.lexsort((k, -n))[:_SKEW_TOP]
        return pa.table(
            {
                "l_partkey": pa.array(k[o], pa.int64()),
                "n": pa.array(n[o], pa.int64()),
                "n_total": pa.array(np.full(o.shape[0], tot), pa.int64()),
                "n_distinct": pa.array(np.full(o.shape[0], dis), pa.int64()),
            }
        )

    return exchange.gather(hist, sweep)


SQL_SKEW_PROFILE = f"""
WITH h AS (SELECT l_partkey, CAST(COUNT(*) AS BIGINT) AS n
           FROM lineitem GROUP BY 1),
tot AS (SELECT CAST(SUM(n) AS BIGINT) AS n_total,
               CAST(COUNT(*) AS BIGINT) AS n_distinct FROM h)
SELECT l_partkey, n, tot.n_total, tot.n_distinct
FROM h CROSS JOIN tot
ORDER BY n DESC, l_partkey LIMIT {_SKEW_TOP}
"""


_INCR_CUTOFF = "1995-01-01"


def q_incremental_join(sf_dir: str):
    """Incremental JOIN maintenance — the IVM sibling of
    ``incremental_agg``: the pre-cutoff lineitem⋈orders result is
    'persisted'; arriving post-cutoff rows join ONLY the static orders
    side (ΔL ⋈ O) and union onto the base result — base lineitem rows
    are never rescanned. Equality join is distributive over union, so
    the maintained result must equal the full recompute (the oracle).
    Both joins are the engine's partitioned equality join; the delta
    read is pruned to the delta predicate."""
    cutoff_us = int(np.datetime64(_INCR_CUTOFF, "us").astype(np.int64))

    def li_side(older: bool):
        li = rd.read_parquet(
            _t(sf_dir, "lineitem"),
            columns=["l_orderkey", "l_linenumber", "l_shipdate"],
        )

        def keep(batch: pa.Table) -> pa.Table:
            t = batch["l_shipdate"].cast(pa.int64()).to_numpy(
                zero_copy_only=False
            )
            m = t < cutoff_us if older else t >= cutoff_us
            return batch.filter(pa.array(m)).drop_columns(["l_shipdate"])

        return li.map_batches(keep, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)

    def joined(older: bool):
        od = rd.read_parquet(_t(sf_dir, "orders"),
                             columns=["o_orderkey", "o_orderdate"])
        out = ops.equi_join_partitioned(
            li_side(older), od, on="l_orderkey", right_on="o_orderkey",
            how="inner",
        )
        return out.select_columns(
            ["l_orderkey", "l_linenumber", "o_orderdate"]
        )

    base = joined(True).materialize()  # the persisted result
    delta = joined(False)              # ΔL ⋈ O only
    return base.union(delta)


SQL_INCREMENTAL_JOIN = """
SELECT l_orderkey, l_linenumber, o_orderdate
FROM lineitem JOIN orders ON o_orderkey = l_orderkey
"""


def q_incremental_agg(sf_dir: str):
    """Incremental aggregate maintenance — the avoid-rescanning-the-
    base pattern: a per-returnflag (count, quantity-sum) aggregate
    'persisted' from the pre-cutoff base is UPDATED by merging the
    post-cutoff delta's partials through the same combine tree, never
    rescanning base rows (aggregate states union, then one tree_sum —
    exactly how a 100 TB nightly feed maintains its rollups). Must
    equal the full recompute, which is the oracle."""
    cutoff_us = int(np.datetime64(_INCR_CUTOFF, "us").astype(np.int64))
    li = lambda: rd.read_parquet(  # noqa: E731
        _t(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_quantity", "l_shipdate"],
    )

    def partial_side(older: bool):
        def partial(batch: pa.Table) -> pa.Table:
            t = batch["l_shipdate"].cast(pa.int64()).to_numpy(
                zero_copy_only=False
            )
            m = t < cutoff_us if older else t >= cutoff_us
            f = batch["l_returnflag"].to_numpy(zero_copy_only=False)[m]
            q = np.floor(
                batch["l_quantity"].to_numpy(zero_copy_only=False)
                .astype(np.float64)[m] + 0.5
            ).astype(np.int64)
            ks, vs = ops._group_reduce(
                [f],
                {"partial_n": np.ones(q.shape[0], np.int64), "partial_q": q},
            )
            return pa.table(
                {
                    "l_returnflag": pa.array(ks[0]),
                    "partial_n": pa.array(vs["partial_n"], pa.int64()),
                    "partial_q": pa.array(vs["partial_q"], pa.int64()),
                }
            )

        return partial

    def agg_states(older: bool):
        return li().map_batches(
            partial_side(older), batch_format="pyarrow",
            zero_copy_batch=True, batch_size=None,
        )

    # the persisted base aggregate (small — materialized once, the
    # stand-in for a stored rollup table)
    base_state = ops.tree_sum(
        agg_states(older=True), ["l_returnflag"],
        {"partial_n": "partial_n", "partial_q": "partial_q"},
        int_cols=("partial_n", "partial_q"),
    ).materialize()
    # incremental update: base STATE rows union the delta's partials —
    # base data is never re-read
    return ops.tree_sum(
        base_state.union(agg_states(older=False)),
        ["l_returnflag"],
        {"partial_n": "n", "partial_q": "sum_qty"},
        int_cols=("partial_n", "partial_q"),
    )


SQL_INCREMENTAL_AGG = """
SELECT l_returnflag, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(floor(l_quantity + 0.5e0) AS BIGINT)) AS BIGINT)
         AS sum_qty
FROM lineitem GROUP BY 1
"""


def q_sorted_range_scan(sf_dir: str):
    """Zone-map pruned range scan: lineitem is written ONCE into the
    range-clustered layout (pipeline.write_sorted on shipdate, 16
    ranges + a min/max manifest), then the 1996 scan opens ONLY the
    overlapping partitions (pipeline.read_range — I/O scales with the
    selected range, not the table; prune asserted in pytest) with a
    residual exact filter, and aggregates per returnflag. Must equal
    the plain full-scan SQL."""
    import tempfile

    from georay import pipeline

    cache = os.path.join(
        tempfile.gettempdir(),
        f"georay_sorted_lineitem_{os.path.basename(os.path.normpath(sf_dir))}",
    )
    marker = os.path.join(cache, "_zonemap.json")
    if not os.path.exists(marker):
        pipeline.write_sorted(
            rd.read_parquet(
                _t(sf_dir, "lineitem"),
                columns=["l_returnflag", "l_quantity", "l_shipdate"],
            ),
            cache, "l_shipdate", n_ranges=16,
        )
    ds, n_opened, n_total = pipeline.read_range(
        cache, _Y96_LO_US, _Y97_LO_US,
        columns=["l_returnflag", "l_quantity", "l_shipdate"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        t = batch["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        m = (t >= _Y96_LO_US) & (t < _Y97_LO_US)  # residual exact filter
        f = batch["l_returnflag"].to_numpy(zero_copy_only=False)[m]
        q = np.floor(
            batch["l_quantity"].to_numpy(zero_copy_only=False)
            .astype(np.float64)[m] + 0.5
        ).astype(np.int64)
        ks, vs = ops._group_reduce(
            [f], {"partial_n": np.ones(q.shape[0], np.int64), "partial_q": q}
        )
        return pa.table(
            {
                "l_returnflag": pa.array(ks[0]),
                "partial_n": pa.array(vs["partial_n"], pa.int64()),
                "partial_q": pa.array(vs["partial_q"], pa.int64()),
            }
        )

    return ops.tree_sum(
        ds.map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["l_returnflag"], {"partial_n": "n", "partial_q": "sum_qty"},
        int_cols=("partial_n", "partial_q"),
    )


SQL_SORTED_RANGE_SCAN = f"""
SELECT l_returnflag, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(floor(l_quantity + 0.5e0) AS BIGINT)) AS BIGINT)
         AS sum_qty
FROM lineitem
WHERE epoch_us(l_shipdate) >= {_Y96_LO_US}
  AND epoch_us(l_shipdate) < {_Y97_LO_US}
GROUP BY 1
"""


def q_merge_sorted(sf_dir: str):
    """LSM compaction of range-clustered runs: lineitem is split into
    two halves (odd/even orderkey), each written as its own
    ``write_sorted`` run with ALIGNED bounds, then
    ``pipeline.merge_sorted_layouts`` unions them into one layout with
    no range recompute (rows keep their krange partition; zone
    manifests fold elementwise). The same 1996 pruned range scan as
    ``sorted_range_scan`` then runs over the MERGED layout and must
    equal the plain full-scan SQL."""
    import tempfile

    from georay import pipeline

    import shutil

    tag = os.path.basename(os.path.normpath(sf_dir))
    root = os.path.join(tempfile.gettempdir(), f"georay_msorted_{tag}")
    merged = os.path.join(root, "merged")
    if not os.path.exists(os.path.join(merged, "_zonemap.json")):
        # a crashed earlier build leaves half-layouts whose dirs a
        # re-run would APPEND into (double-counting rows) — clear first
        shutil.rmtree(root, ignore_errors=True)
        bounds = (694_224_000_000_000, 915_148_800_000_000)  # 1992..1999
        halves = []
        for h in (0, 1):
            ds = rd.read_parquet(
                _t(sf_dir, "lineitem"),
                columns=["l_orderkey", "l_returnflag", "l_quantity",
                         "l_shipdate"],
            )

            def keep(batch: pa.Table, hh=h) -> pa.Table:
                k = batch["l_orderkey"].to_numpy(zero_copy_only=False)
                return batch.filter(pa.array((k % 2) == hh)).drop_columns(
                    ["l_orderkey"]
                )

            d = os.path.join(root, f"half{h}")
            pipeline.write_sorted(
                ds.map_batches(keep, batch_format="pyarrow",
                               zero_copy_batch=True, batch_size=None),
                d, "l_shipdate", n_ranges=16, bounds=bounds,
            )
            halves.append(d)
        pipeline.merge_sorted_layouts(halves, merged)
    ds, n_opened, n_total = pipeline.read_range(
        merged, _Y96_LO_US, _Y97_LO_US,
        columns=["l_returnflag", "l_quantity", "l_shipdate"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        t = batch["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        m = (t >= _Y96_LO_US) & (t < _Y97_LO_US)
        f = batch["l_returnflag"].to_numpy(zero_copy_only=False)[m]
        q = np.floor(
            batch["l_quantity"].to_numpy(zero_copy_only=False)
            .astype(np.float64)[m] + 0.5
        ).astype(np.int64)
        ks, vs = ops._group_reduce(
            [f], {"partial_n": np.ones(q.shape[0], np.int64), "partial_q": q}
        )
        return pa.table(
            {
                "l_returnflag": pa.array(ks[0]),
                "partial_n": pa.array(vs["partial_n"], pa.int64()),
                "partial_q": pa.array(vs["partial_q"], pa.int64()),
            }
        )

    return ops.tree_sum(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["l_returnflag"], {"partial_n": "n", "partial_q": "sum_qty"},
        int_cols=("partial_n", "partial_q"),
    )


def q_analyze(sf_dir: str):
    """ANALYZE lineitem: per-column (n, n_null, exact n_distinct,
    min, max) — the planner statistics every prune decision feeds on
    (ops.analyze_table: pruned single-column passes, combine-tree
    count/min/max partials, per-column distinct dedup trees; only the
    scalar summary reaches the driver)."""
    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_partkey", "l_suppkey",
                 "l_returnflag", "l_linestatus"],
    )
    return ops.analyze_table(
        ds,
        int_cols=("l_orderkey", "l_partkey", "l_suppkey"),
        str_cols=("l_returnflag", "l_linestatus"),
    )


def _analyze_sql_one(col: str) -> str:
    return f"""
SELECT '{col}' AS col, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(COUNT(*) - COUNT({col}) AS BIGINT) AS n_null,
       CAST(COUNT(DISTINCT {col}) AS BIGINT) AS n_distinct,
       CAST(MIN({col}) AS VARCHAR) AS min_v,
       CAST(MAX({col}) AS VARCHAR) AS max_v
FROM lineitem"""


SQL_ANALYZE = " UNION ALL ".join(
    _analyze_sql_one(c)
    for c in ("l_orderkey", "l_partkey", "l_suppkey",
              "l_returnflag", "l_linestatus")
)


def q_merge_join_layout(sf_dir: str):
    """Shuffle-free co-clustered join: orders and lineitem are each
    written ONCE into range-clustered layouts sharing the same orderkey
    splits (write_sorted(bounds=...)), then the join zips aligned
    partition pairs — one pruned read per side + one local Arrow hash
    join per pair, ZERO exchange at query time
    (pipeline.sorted_merge_join — the range complement to
    bucketed_join). Aggregated per (o_orderpriority, l_returnflag)."""
    import tempfile

    from georay import pipeline

    base = os.path.basename(os.path.normpath(sf_dir))
    dir_o = os.path.join(tempfile.gettempdir(), f"georay_srt_orders_{base}")
    dir_l = os.path.join(tempfile.gettempdir(), f"georay_srt_lineitem_{base}")
    if not os.path.exists(os.path.join(dir_o, "_zonemap.json")):
        pipeline.write_sorted(
            rd.read_parquet(_t(sf_dir, "orders"),
                            columns=["o_orderkey", "o_orderpriority"]),
            dir_o, "o_orderkey", n_ranges=16,
        )
    if not os.path.exists(os.path.join(dir_l, "_zonemap.json")):
        import json as _json

        with open(os.path.join(dir_o, "_zonemap.json")) as f:
            mo = _json.load(f)

        def add_key(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                "o_orderkey", batch["l_orderkey"].cast(pa.int64())
            )

        pipeline.write_sorted(
            rd.read_parquet(
                _t(sf_dir, "lineitem"),
                columns=["l_orderkey", "l_returnflag", "l_quantity"],
            ).map_batches(
                add_key, batch_format="pyarrow", zero_copy_batch=True,
                batch_size=None,
            ),
            dir_l, "o_orderkey", n_ranges=16,
            bounds=(mo["lo"], mo["hi"]),
        )
    joined = pipeline.sorted_merge_join(
        dir_o, dir_l, on="o_orderkey",
        columns_a=["o_orderpriority"],
        columns_b=["l_returnflag", "l_quantity"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        p = batch["o_orderpriority"].to_numpy(zero_copy_only=False)
        f = batch["l_returnflag"].to_numpy(zero_copy_only=False)
        q = np.floor(
            batch["l_quantity"].to_numpy(zero_copy_only=False)
            .astype(np.float64) + 0.5
        ).astype(np.int64)
        ks, vs = ops._group_reduce(
            [p, f], {"partial_n": np.ones(q.shape[0], np.int64),
                     "partial_q": q}
        )
        return pa.table(
            {
                "o_orderpriority": pa.array(ks[0], pa.string()),
                "l_returnflag": pa.array(ks[1], pa.string()),
                "partial_n": pa.array(vs["partial_n"], pa.int64()),
                "partial_q": pa.array(vs["partial_q"], pa.int64()),
            }
        )

    return ops.tree_sum(
        joined.map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["o_orderpriority", "l_returnflag"],
        {"partial_n": "n", "partial_q": "sum_qty"},
        int_cols=("partial_n", "partial_q"),
    )


SQL_MERGE_JOIN_LAYOUT = """
SELECT o_orderpriority, l_returnflag, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CAST(floor(l_quantity + 0.5e0) AS BIGINT)) AS BIGINT)
         AS sum_qty
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY 1, 2
"""


def q_time_travel(sf_dir: str):
    """Versioned-table time travel (merge-on-read upserts +
    tombstones): events written as version 1, then a deterministic
    delta (event_id % 11 == 0 → tombstone; else % 7 == 0 → value
    + 1000 upsert) appended as version 2 — reading AS OF v2
    reconstructs the snapshot with ONE key-bucket latest-version-wins
    pass; v1 stays immutable on disk (pipeline.write_versioned /
    append_version / read_version; read_version(1) == base pinned in
    pytest). Must equal the CASE/WHERE SQL over the base table."""
    import tempfile

    from georay import pipeline

    cache = os.path.join(
        tempfile.gettempdir(),
        f"georay_versioned_events_{os.path.basename(os.path.normpath(sf_dir))}",
    )
    marker = os.path.join(cache, "_versions.json")
    if not os.path.exists(marker):
        base = rd.read_parquet(
            _t(sf_dir, "events"),
            columns=["event_id", "user_id", "value"],
        )
        pipeline.write_versioned(cache, base, key="event_id")

        def make_delta(batch: pa.Table) -> pa.Table:
            eid = batch["event_id"].to_numpy(zero_copy_only=False)
            v = batch["value"].to_numpy(zero_copy_only=False)
            tomb = eid % 11 == 0
            upd = (eid % 7 == 0) & ~tomb
            m = tomb | upd
            return pa.table(
                {
                    "event_id": pa.array(eid[m], pa.int64()),
                    "user_id": batch["user_id"].filter(pa.array(m)),
                    "value": pa.array(np.where(tomb[m], v[m], v[m] + 1000.0)),
                    "_deleted": pa.array(tomb[m].astype(np.int64)),
                }
            )

        delta = rd.read_parquet(
            _t(sf_dir, "events"),
            columns=["event_id", "user_id", "value"],
        ).map_batches(
            make_delta, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        )
        pipeline.append_version(cache, delta)
    return pipeline.read_version(
        cache, 2, columns=["event_id", "user_id", "value"]
    )


SQL_TIME_TRAVEL = """
SELECT event_id, user_id,
       CASE WHEN event_id % 7 = 0 THEN value + 1000e0 ELSE value END AS value
FROM events WHERE event_id % 11 <> 0
"""


_ZRECT = (-30.0, 30.0, 0.0, 45.0)  # lon_lo, lon_hi, lat_lo, lat_hi


def q_zorder_rect(sf_dir: str):
    """Z-order-clustered 2D rect scan: event points written ONCE into
    the Morton-curve layout (pipeline.write_zorder — one sort key
    serving both range dimensions), then a lon/lat rectangle scan opens
    ONLY the partitions the rect's curve cover maps to
    (pipeline.read_rect_zorder; prune asserted in pytest) with the
    exact [lo, hi) residual on both axes. Must equal the plain
    full-scan SQL rect filter."""
    import tempfile

    from georay import pipeline

    cache = os.path.join(
        tempfile.gettempdir(),
        f"georay_zorder_events_{os.path.basename(os.path.normpath(sf_dir))}",
    )
    marker = os.path.join(cache, "_zonemap.json")
    if not os.path.exists(marker):
        pipeline.write_zorder(
            _event_points(sf_dir), cache, "lon", "lat", bits=8, n_ranges=16,
        )
    lon_lo, lon_hi, lat_lo, lat_hi = _ZRECT
    ds, n_opened, n_total = pipeline.read_rect_zorder(
        cache, lon_lo, lon_hi, lat_lo, lat_hi,
        columns=["event_id", "user_id"],
    )
    return ds


SQL_ZORDER_RECT = f"""
WITH pts AS (
  SELECT event_id, user_id, {EV_LON} AS lon, {EV_LAT} AS lat FROM events
)
SELECT event_id, user_id FROM pts
WHERE lon >= {_ZRECT[0]} AND lon < {_ZRECT[1]}
  AND lat >= {_ZRECT[2]} AND lat < {_ZRECT[3]}
"""


_BLOOM_PROBE_IDS = (3, 97, 205, 388, 414, 555, 640, 777, 801, 930)


def q_bloom_lookup(sf_dir: str):
    """Bloom-sidecar point lookup: events written ONCE into the
    ts-range-clustered layout with a per-partition bloom filter over
    event_id (pipeline.write_sorted(bloom_col=...)), then a 10-id probe
    opens ONLY the partitions whose bloom says maybe
    (pipeline.read_bloom_lookup — prune asserted in pytest; range zones
    cannot prune an unordered id, the bloom can) with an exact is_in
    residual. Must equal the plain full-scan IN (...) SQL."""
    import tempfile

    from georay import pipeline

    cache = os.path.join(
        tempfile.gettempdir(),
        f"georay_bloom_events_{os.path.basename(os.path.normpath(sf_dir))}",
    )
    marker = os.path.join(cache, "_zonemap.json")
    if not os.path.exists(marker):
        pipeline.write_sorted(
            rd.read_parquet(
                _t(sf_dir, "events"),
                columns=["event_id", "ts", "user_id", "event_type"],
            ),
            cache, "ts", n_ranges=16, bloom_col="event_id",
        )
    ds, n_opened, n_total = pipeline.read_bloom_lookup(
        cache, _BLOOM_PROBE_IDS,
        columns=["event_id", "user_id", "event_type"],
    )
    return ds.select_columns(["event_id", "user_id", "event_type"])


_ZONE_RANGE = (500, 799)


def q_zonemap_range(sf_dir: str):
    """Secondary-zone-map range scan: events written once into the
    ts-range-clustered layout with a per-partition (min, max) sidecar
    over event_id (pipeline.write_sorted(zone_col=...)); the id-range
    query opens only partitions whose secondary zone overlaps — ids
    are assigned in ts order here, so the correlated prune is near-
    perfect (pipeline.read_range_secondary; prune asserted in pytest).
    Must equal the plain BETWEEN full scan."""
    import tempfile

    from georay import pipeline

    cache = os.path.join(
        tempfile.gettempdir(),
        f"georay_zone_events_{os.path.basename(os.path.normpath(sf_dir))}",
    )
    if not os.path.exists(os.path.join(cache, "_zonemap.json")):
        pipeline.write_sorted(
            rd.read_parquet(
                _t(sf_dir, "events"),
                columns=["event_id", "ts", "user_id"],
            ),
            cache, "ts", n_ranges=16, zone_col="event_id",
        )
    ds, _n_opened, _n_total = pipeline.read_range_secondary(
        cache, _ZONE_RANGE[0], _ZONE_RANGE[1],
        columns=["event_id", "user_id"],
    )
    return ds.select_columns(["event_id", "user_id"])


SQL_ZONEMAP_RANGE = f"""
SELECT event_id, user_id FROM events
WHERE event_id BETWEEN {_ZONE_RANGE[0]} AND {_ZONE_RANGE[1]}
"""


SQL_BLOOM_LOOKUP = f"""
SELECT event_id, user_id, event_type FROM events
WHERE event_id IN {_BLOOM_PROBE_IDS}
"""


def q_tile_mosaic(sf_dir: str):
    """Mosaic/coverage planning on the image×geo axes: for the top-10
    level-6 cells by image count, the REPRESENTATIVE image a map tile
    would render — the argmax by (pixels DESC, image_id ASC) among the
    cell's geotagged images. One cell-bucket co-shuffle of per-batch
    (count, best) partials computes count and argmax together (a batch
    ships ≤ 1 row per cell — map-side prune; bytes never read). Top-10
    by (n_images DESC, cell). Constant oracle derived INDEPENDENTLY in
    DuckDB over the parquet shards via the _s2_parent_sql codec replica
    + ROW_NUMBER argmax (untagged row excluded; 999 tagged)."""
    cache = _images_cache()
    ds = rd.read_parquet(cache, columns=["geotag", "image_id", "w", "h"])
    ds = ops.add_cell_column(ds, geom_col="geotag", level=12, parent_level=6)

    def partial(batch: pa.Table) -> pa.Table:
        cell = batch["cell_parent"].to_numpy(zero_copy_only=False)
        full = batch["cell"].to_numpy(zero_copy_only=False)
        w = batch["w"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = batch["h"].to_numpy(zero_copy_only=False).astype(np.int64)
        iid = batch["image_id"].to_numpy(zero_copy_only=False)
        keep = full != 0
        cell, px, iid = cell[keep], (w * h)[keep], iid[keep]
        # per-cell count + argmax(best pixels, tie min id) in one lexsort
        order = np.lexsort((iid, -px, cell))
        cs, ps, ids = cell[order], px[order], iid[order]
        first = np.ones(cs.shape[0], dtype=bool)
        first[1:] = cs[1:] != cs[:-1]
        starts = np.nonzero(first)[0]
        n = np.diff(np.append(starts, cs.shape[0]))
        return pa.table(
            {
                "cell": pa.array(cs[starts], pa.int64()),
                "n_partial": pa.array(n, pa.int64()),
                "best_px": pa.array(ps[starts], pa.int64()),
                "best_id": pa.array(ids[starts], pa.string()),
            }
        )

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    )

    def merge(group: pa.Table) -> pa.Table:
        cell = group["cell"].to_numpy(zero_copy_only=False)
        n = group["n_partial"].to_numpy(zero_copy_only=False)
        px = group["best_px"].to_numpy(zero_copy_only=False)
        iid = group["best_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((iid, -px, cell))
        cs, ns, ps, ids = cell[order], n[order], px[order], iid[order]
        first = np.ones(cs.shape[0], dtype=bool)
        first[1:] = cs[1:] != cs[:-1]
        starts = np.nonzero(first)[0]
        tot = np.add.reduceat(ns, starts)
        return pa.table(
            {
                "cell": pa.array(cs[starts], pa.int64()),
                "n_images": pa.array(tot, pa.int64()),
                "rep_image": pa.array(ids[starts], pa.string()),
                "rep_pixels": pa.array(ps[starts], pa.int64()),
            }
        )

    merged = exchange.co_shuffle(parts, "cell", merge, n_buckets=64, coalesce=True)
    return ops.top_k(merged, ["n_images", "cell"], 10,
                     descending=[True, False])


# derived OUTSIDE the engine: DuckDB read of the parquet shards +
# the _s2_parent_sql codec replica + ROW_NUMBER argmax per cell
SQL_TILE_MOSAIC = """
SELECT * FROM (VALUES
  (6607062128329228288, 146, 'img000000000026', 4096),
  (5035868808330346496, 58, 'img000000000028', 4096),
  (-6679682672320577536, 41, 'img000000000616', 4096),
  (6005831578075267072, 33, 'img000000000107', 4096),
  (5037557658190610432, 25, 'img000000000017', 4096),
  (-8835780993924202496, 18, 'img000000000215', 4096),
  (-4874302171698429952, 17, 'img000000000062', 4096),
  (3488882336328581120, 16, 'img000000000449', 4096),
  (6006957477982109696, 16, 'img000000000589', 4096),
  (1550645646699003904, 14, 'img000000000850', 4096)
) AS t(cell, n_images, rep_image, rep_pixels)
"""


def q_cell_phash_diversity(sf_dir: str):
    """Spatial × image fusion (the graft's two axes in one query):
    per spatial cell of the image table's geotags, how many images
    land there and how many DISTINCT perceptual-hash bands (the top
    8 bits of phash64 — the first LSH band ``image_neardup`` buckets
    on) — the near-dup-density-by-location map a dedup campaign uses
    to pick which regions to sweep first (cells where bands << images
    are dup-heavy). Top-10 cells by (n_images DESC, cell): cell
    encode → one (cell, band)-dedup combine tree → one (cell) count
    tree → sweep. Untagged images (null/NaN geotag → cell id 0, the
    never-valid sentinel) are excluded. Deterministic input ⇒
    constant oracle, independently derived in DuckDB from the parquet
    shards via the ``_s2_parent_sql`` codec replica."""
    import tempfile

    from georay import generate

    cache = os.path.join(tempfile.gettempdir(), "georay_q_images_1000")
    marker = os.path.join(cache, "_DONE")
    if not os.path.exists(marker):
        generate.write_images_dataset(cache, 1000, seed=77, rows_per_file=500)
        open(marker, "w").write("ok")
    ds = rd.read_parquet(cache, columns=["geotag", "phash"])
    ds = ops.add_cell_column(ds, geom_col="geotag", level=12, parent_level=6)

    def pair_partial(batch: pa.Table) -> pa.Table:
        c = batch["cell_parent"].to_numpy(zero_copy_only=False).astype(np.int64)
        full = batch["cell"].to_numpy(zero_copy_only=False).astype(np.int64)
        p = batch["phash"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = full != 0  # drop untagged (null/NaN geotag)
        c, band = c[keep], (p[keep] >> 56) & 0xFF
        ks, vs = ops._group_reduce(
            [c, band], {"partial_one": np.ones(c.shape[0], np.int64)}
        )
        return pa.table(
            {
                "cell": pa.array(ks[0], pa.int64()),
                "band": pa.array(ks[1], pa.int64()),
                "partial_one": pa.array(vs["partial_one"], pa.int64()),
            }
        )

    pairs = ops.tree_sum(
        ds.map_batches(
            pair_partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["cell", "band"], {"partial_one": "n"}, int_cols=("partial_one",),
    )

    def sweep(batch: pa.Table) -> pa.Table:
        c = batch["cell"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        uc, ic = np.unique(c, return_inverse=True)
        n_img = np.bincount(ic, weights=n).astype(np.int64)
        n_bd = np.bincount(ic).astype(np.int64)  # rows = distinct bands
        o = np.lexsort((uc, -n_img))[:10]
        return pa.table(
            {
                "cell": pa.array(uc[o], pa.int64()),
                "n_images": pa.array(n_img[o], pa.int64()),
                "n_bands": pa.array(n_bd[o], pa.int64()),
            }
        )

    return exchange.gather(pairs, sweep)


def _images_cache() -> str:
    """The deterministic 1000-image table every image query shares
    (seed 77, 2 shards); created once per host under /tmp."""
    import tempfile

    from georay import generate

    cache = os.path.join(tempfile.gettempdir(), "georay_q_images_1000")
    marker = os.path.join(cache, "_DONE")
    if not os.path.exists(marker):
        generate.write_images_dataset(cache, 1000, seed=77, rows_per_file=500)
        open(marker, "w").write("ok")
    return cache


def q_phash_knn(sf_dir: str, k: int = 5, n_probes: int = 5):
    """Bitwise approximate-nearest-neighbor on the image axis: for each
    of ``n_probes`` probe images (the first image_ids — a fixed query
    set, the ANN pattern), the ``k`` nearest OTHER images by phash64
    Hamming distance (popcount of XOR — the metric ``image_neardup``
    bands on). Brute-force exact baseline: the tiny probe phash matrix
    broadcasts; each batch computes its popcount distance block
    vectorized and ``group_top_k``'s map-side prune ships ≤ k rows per
    (probe, batch) — the corpus never concentrates. Ties break on
    (dist, rid). Deterministic input ⇒ constant oracle, derived in
    DuckDB via bit_count(xor(...)) over the parquet shards."""
    import pyarrow.parquet as _pq

    from georay.stages.dedup import _popcount64

    cache = _images_cache()
    head = _pq.read_table(
        os.path.join(cache, "images-00000.parquet"),
        columns=["image_id", "phash"],
    ).slice(0, n_probes)
    probe_rid = np.array(
        [int(s[3:]) for s in head["image_id"].to_pylist()], np.int64
    )
    probe_ph = head["phash"].to_numpy(zero_copy_only=False).astype(np.int64)

    ds = rd.read_parquet(cache, columns=["image_id", "phash"])

    def pairs(batch: pa.Table) -> pa.Table:
        rid = np.asarray(
            [int(s[3:]) for s in batch["image_id"].to_pylist()], np.int64
        )
        ph = batch["phash"].to_numpy(zero_copy_only=False).astype(np.int64)
        # (n, n_probes) popcount block
        d = _popcount64(ph[:, None] ^ probe_ph[None, :])
        pr = np.broadcast_to(probe_rid[None, :], d.shape).ravel()
        rr = np.repeat(rid, probe_ph.shape[0])
        dd = d.ravel()
        keep = rr != pr  # a probe is not its own neighbour
        return pa.table(
            {
                "probe_id": pa.array(pr[keep], pa.int64()),
                "rid": pa.array(rr[keep], pa.int64()),
                "dist": pa.array(dd[keep], pa.int64()),
            }
        )

    cand = ds.map_batches(
        pairs, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return ops.group_top_k(
        cand, "probe_id", ["dist", "rid"], k, descending=False
    )


def q_caption_terms_by_cell(sf_dir: str):
    """Text × geo fusion: the dominant caption vocabulary per spatial
    cell — top-10 (cell, token) pairs by count (ties → smaller cell,
    token) over level-6 cells of the image geotags, tokens in the
    engine's canonical normalization (georay.stages.text._tokenize_flat
    — the token_count oracle's regex). The what-do-people-photograph-
    where signal a caption-conditioned curation pass keys on. One
    (cell, token) combine tree; untagged images (cell id 0) excluded.
    Constant oracle derived in DuckDB from the parquet shards via the
    _s2_parent_sql codec replica + regexp token split."""
    from georay.stages.text import _tokenize_flat

    cache = _images_cache()
    ds = rd.read_parquet(cache, columns=["geotag", "caption"])
    ds = ops.add_cell_column(ds, geom_col="geotag", level=12, parent_level=6)

    def pair_partial(batch: pa.Table) -> pa.Table:
        cap = batch["caption"]
        if isinstance(cap, pa.ChunkedArray):
            cap = cap.combine_chunks()
        toks, counts = _tokenize_flat(cap)
        cell = batch["cell_parent"].to_numpy(zero_copy_only=False)
        full = batch["cell"].to_numpy(zero_copy_only=False)
        owner = np.repeat(np.arange(len(batch), dtype=np.int64), counts)
        t = toks.to_numpy(zero_copy_only=False)  # object array
        c = cell[owner]
        keep = (full[owner] != 0) & (np.char.str_len(t.astype(str)) > 0)
        ks, vs = ops._group_reduce(
            [c[keep], t[keep]],
            {"partial_one": np.ones(int(keep.sum()), np.int64)},
        )
        return pa.table(
            {
                "cell": pa.array(ks[0], pa.int64()),
                "token": pa.array(ks[1].astype(str)),
                "partial_one": pa.array(vs["partial_one"], pa.int64()),
            }
        )

    pairs = ops.tree_sum(
        ds.map_batches(
            pair_partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["cell", "token"], {"partial_one": "n"}, int_cols=("partial_one",),
    )

    def sweep(batch: pa.Table) -> pa.Table:
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = batch["cell"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = batch["token"].to_numpy(zero_copy_only=False)
        codes, uniq = _str_codes(t)
        o = np.lexsort((codes, c, -n))[:10]
        return pa.table(
            {
                "cell": pa.array(c[o], pa.int64()),
                "token": pa.array(t[o].astype(str)),
                "n": pa.array(n[o], pa.int64()),
            }
        )

    return exchange.gather(pairs, sweep)


def _str_codes(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lexicographic integer codes for an object string array (sort
    key for numpy lexsort without Python compares per pair)."""
    uniq, codes = np.unique(t.astype(str), return_inverse=True)
    return codes.astype(np.int64), uniq


def q_cell_image_stats(sf_dir: str):
    """Binary-payload × geo fusion: the per-cell storage/size profile a
    tiling run capacity-plans with — per level-6 cell of the geotags:
    image count, total ENCODED bytes (pc.binary_length on the opaque
    blob — never decoded, the wide column never shuffles: only the
    per-batch (cell, n, bytes, pixels) partials move) and total pixels
    (w·h). Top-10 cells by (sum_bytes DESC, cell). Untagged images
    excluded. Constant oracle derived in DuckDB (octet_length) via the
    _s2_parent_sql codec replica."""
    cache = _images_cache()
    ds = rd.read_parquet(cache, columns=["geotag", "bytes", "w", "h"])
    ds = ops.add_cell_column(ds, geom_col="geotag", level=12, parent_level=6)

    def partial(batch: pa.Table) -> pa.Table:
        cell = batch["cell_parent"].to_numpy(zero_copy_only=False)
        full = batch["cell"].to_numpy(zero_copy_only=False)
        nb = pc.binary_length(batch["bytes"]).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        w = batch["w"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = batch["h"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = full != 0
        ks, vs = ops._group_reduce(
            [cell[keep]],
            {
                "partial_n": np.ones(int(keep.sum()), np.int64),
                "partial_b": nb[keep],
                "partial_p": (w * h)[keep],
            },
        )
        return pa.table(
            {
                "cell": pa.array(ks[0], pa.int64()),
                "partial_n": pa.array(vs["partial_n"], pa.int64()),
                "partial_b": pa.array(vs["partial_b"], pa.int64()),
                "partial_p": pa.array(vs["partial_p"], pa.int64()),
            }
        )

    tot = ops.tree_sum(
        ds.map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["cell"],
        {"partial_n": "n_images", "partial_b": "sum_bytes",
         "partial_p": "sum_pixels"},
        int_cols=("partial_n", "partial_b", "partial_p"),
    )
    return ops.top_k(tot, ["sum_bytes", "cell"], 10,
                     descending=[True, False])


def q_postings_and(sf_dir: str):
    """Conjunctive term search over the INVERTED-INDEX persistent
    layout (pipeline.write_postings / postings_search): documents whose
    text contains BOTH 'merge' AND 'window' (canonical tokenization).
    The index is built once per sf dir (the pay-shuffle-once story for
    text: the corpus is tokenized and bucketed by TOKEN hash at write
    time); the search reads ONLY the ≤2 buckets the query terms hash
    to — per-term scan cost, not per-corpus. Result: sorted doc_ids."""
    idx = _postings_cache(sf_dir)
    from georay import pipeline

    return pipeline.postings_search(idx, ["merge", "window"], mode="and")


PHRASE_TERMS = ["stream", "column"]


def q_phrase_search(sf_dir: str):
    """Exact PHRASE search over the POSITIONAL inverted-index layout
    (pipeline.write_postings_positional / postings_phrase): documents
    containing "{' '.join(PHRASE_TERMS)}" as consecutive tokens, with
    per-document occurrence counts. The search reads only the phrase
    terms' buckets and re-keys occurrences to candidate starts
    (pos − i) — an all-positions-matched start is one occurrence."""
    from georay import pipeline

    return pipeline.postings_phrase(
        _postings_pos_cache(sf_dir), PHRASE_TERMS
    )


def _postings_pos_cache(sf_dir: str) -> str:
    """Shared per-sf-dir POSITIONAL postings index under /tmp."""
    import tempfile

    from georay import pipeline

    tag = os.path.basename(os.path.normpath(sf_dir))
    idx = os.path.join(tempfile.gettempdir(), f"georay_postings_pos_{tag}")
    if not os.path.exists(os.path.join(idx, "_POSTINGS.json")):
        docs = rd.read_parquet(_t(sf_dir, "documents"),
                               columns=["doc_id", "text"])
        pipeline.write_postings_positional(docs, idx, n_buckets=16)
    return idx


SQL_PHRASE_SEARCH = r"""
WITH d AS (
  SELECT doc_id,
         string_split(trim(regexp_replace(lower(text), '\s+', ' ', 'g')),
                      ' ') AS arr
  FROM documents
),
toks AS (
  SELECT doc_id, unnest(arr) AS token,
         generate_subscripts(arr, 1) - 1 AS pos
  FROM d
),
m AS (
  SELECT doc_id, pos - 0 AS start FROM toks WHERE token = 'stream'
  UNION ALL
  SELECT doc_id, pos - 1 FROM toks WHERE token = 'column'
),
hit AS (
  SELECT doc_id, start FROM m GROUP BY doc_id, start HAVING COUNT(*) = 2
)
SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_occ FROM hit GROUP BY doc_id
"""


NEAR_WINDOW = 5


def q_near_search(sf_dir: str):
    """Proximity search over the positional index: documents where
    'merge' and 'window' occur within {NEAR_WINDOW} tokens, with the
    exact minimum gap (pipeline.postings_near — bucket-pruned scan, one
    doc-hash co-shuffle of the query-sized occurrence rows, vectorized
    adjacent-pair min)."""
    from georay import pipeline

    return pipeline.postings_near(
        _postings_pos_cache(sf_dir), "merge", "window", NEAR_WINDOW
    )


SQL_NEAR_SEARCH = rf"""
WITH d AS (
  SELECT doc_id,
         string_split(trim(regexp_replace(lower(text), '\s+', ' ', 'g')),
                      ' ') AS arr
  FROM documents
),
toks AS (
  SELECT doc_id, unnest(arr) AS token,
         generate_subscripts(arr, 1) - 1 AS pos
  FROM d
),
a AS (SELECT doc_id, pos FROM toks WHERE token = 'merge'),
b AS (SELECT doc_id, pos FROM toks WHERE token = 'window')
SELECT a.doc_id, CAST(MIN(ABS(a.pos - b.pos)) AS BIGINT) AS min_gap
FROM a JOIN b USING (doc_id)
GROUP BY a.doc_id HAVING MIN(ABS(a.pos - b.pos)) <= {NEAR_WINDOW}
"""


def _postings_cache(sf_dir: str) -> str:
    """Shared per-sf-dir postings index under /tmp; rebuilt when the
    manifest predates the current layout (missing corpus scalars)."""
    import json
    import shutil
    import tempfile

    from georay import pipeline

    tag = os.path.basename(os.path.normpath(sf_dir))
    idx = os.path.join(tempfile.gettempdir(), f"georay_postings_{tag}")
    marker = os.path.join(idx, "_POSTINGS.json")
    ok = False
    if os.path.exists(marker):
        with open(marker) as f:
            ok = "n_docs" in json.load(f)
    if not ok:
        shutil.rmtree(idx, ignore_errors=True)
        docs = rd.read_parquet(_t(sf_dir, "documents"),
                               columns=["doc_id", "text"])
        pipeline.write_postings(docs, idx, n_buckets=16)
    return idx


def q_bm25_indexed(sf_dir: str):
    """BM25 through the INVERTED INDEX (pipeline.postings_bm25): the
    same query, k, idf convention and float operation order as q_bm25's
    full scan — the two paths share ONE oracle and must hash-match it
    bit-for-bit. The scale difference: this path reads only the query
    terms' postings buckets (df = bucket posting counts, corpus scalars
    from the manifest) and co-shuffles only the candidate rows to pick
    up their doc lengths — cost is per-term, never per-corpus."""
    from georay import pipeline

    return pipeline.postings_bm25(_postings_cache(sf_dir), BM25_TERMS,
                                  k=BM25_K)


def q_bm25_incremental(sf_dir: str):
    """bm25_indexed over an INCREMENTALLY MAINTAINED tf index: base
    build covers doc_id % 5 != 0, the remaining fifth arrives via
    ``pipeline.postings_append`` (delta postings + doclen rows into the
    existing buckets; the manifest's corpus scalars FOLD with the
    delta, so idf and avgdl equal the full build's). Scores must
    hash-match the same full-scan oracle as bm25 / bm25_indexed —
    bit-identical floats, three plans, one oracle."""
    import tempfile

    from georay import pipeline

    import shutil

    tag = os.path.basename(os.path.normpath(sf_dir))
    idx = os.path.join(tempfile.gettempdir(), f"georay_postings_inc_{tag}")
    if not os.path.exists(os.path.join(idx, "_POSTINGS.json")):
        # build base+append in a STAGING dir and publish with one
        # rename — write_postings writes its own manifest after step 1,
        # so a crash mid-append would otherwise leave a valid-looking
        # but delta-less cache that every later run silently serves
        stage = idx + ".build"
        shutil.rmtree(stage, ignore_errors=True)
        shutil.rmtree(idx, ignore_errors=True)
        docs = rd.read_parquet(_t(sf_dir, "documents"),
                               columns=["doc_id", "text"])

        def _part(batch: pa.Table, keep_delta: bool) -> pa.Table:
            d = batch["doc_id"].to_numpy(zero_copy_only=False)
            m = (d % 5) == 0
            return batch.filter(pa.array(m if keep_delta else ~m))

        pipeline.write_postings(
            docs.map_batches(lambda b: _part(b, False),
                             batch_format="pyarrow", zero_copy_batch=True,
                             batch_size=None),
            stage, n_buckets=16,
        )
        pipeline.postings_append(
            stage,
            docs.map_batches(lambda b: _part(b, True),
                             batch_format="pyarrow", zero_copy_batch=True,
                             batch_size=None),
        )
        os.rename(stage, idx)
    return pipeline.postings_bm25(idx, BM25_TERMS, k=BM25_K)


def q_areal_interp(sf_dir: str):
    """AREAL INTERPOLATION (spatial disaggregation — the GIS transfer
    of a value from source footprints to a target zoning): each
    supplier's account balance (exact cents) spreads over the 30°
    lat/lon grid proportionally to the overlap area of the supplier's
    query rect (the rect_overlap footprints, 0.05° quantized units)
    with each grid cell; per-cell totals are Σ trunc_div(bal_cents ·
    overlap_q, rect_area_q) — truncate-toward-zero division per
    (rect, cell) pair, matching DuckDB ``//`` so the oracle is
    bit-exact. One narrow vectorized pass (the 72-cell target grid is
    a compile-time constant — rects never shuffle) + one combine tree.
    Output: non-zero cells (gi, gj, alloc_cents)."""
    q = 20.0
    gx = (np.arange(12, dtype=np.int64) * 600) - 3600  # 30°·20 units
    gy = (np.arange(6, dtype=np.int64) * 600) - 1800

    def partial(batch: pa.Table) -> pa.Table:
        sk = batch["s_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        bal = np.floor(
            batch["s_acctbal"].to_numpy(zero_copy_only=False) * 100.0 + 0.5
        ).astype(np.int64)
        sx = ((sk * 41) % 3600) / 10.0 - 180.0 + 0.05
        sy = ((sk * 59) % 1700) / 10.0 - 85.0 + 0.05
        rxmin = np.floor((sx - 1.3) * q + 0.5).astype(np.int64)
        rymin = np.floor((sy - 0.7) * q + 0.5).astype(np.int64)
        rxmax = np.floor((sx + 1.3) * q + 0.5).astype(np.int64)
        rymax = np.floor((sy + 0.7) * q + 0.5).astype(np.int64)
        area = (rxmax - rxmin) * (rymax - rymin)
        # (n, 12) × (n, 6) clamp widths; outer-combine to (n, 72)
        ow = np.maximum(
            0,
            np.minimum(rxmax[:, None], (gx + 600)[None, :])
            - np.maximum(rxmin[:, None], gx[None, :]),
        )
        oh = np.maximum(
            0,
            np.minimum(rymax[:, None], (gy + 600)[None, :])
            - np.maximum(rymin[:, None], gy[None, :]),
        )
        ovl = ow[:, :, None] * oh[:, None, :]  # (n, 12, 6)
        num = bal[:, None, None] * ovl
        den = area[:, None, None]
        # truncate-toward-zero (DuckDB //): sign-aware floor division
        mag = np.abs(num) // den
        alloc = np.where(num < 0, -mag, mag)
        cell_i = np.broadcast_to(
            np.arange(12, dtype=np.int64)[None, :, None], alloc.shape
        )
        cell_j = np.broadcast_to(
            np.arange(6, dtype=np.int64)[None, None, :], alloc.shape
        )
        nz = ovl > 0
        ks, vs = ops._group_reduce(
            [cell_i[nz], cell_j[nz]], {"partial_a": alloc[nz]}
        )
        return pa.table(
            {
                "gi": pa.array(ks[0], pa.int64()),
                "gj": pa.array(ks[1], pa.int64()),
                "partial_a": pa.array(vs["partial_a"], pa.int64()),
            }
        )

    ds = rd.read_parquet(_t(sf_dir, "supplier"),
                         columns=["s_suppkey", "s_acctbal"])
    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return ops.tree_sum(
        parts, ["gi", "gj"], {"partial_a": "alloc_cents"},
        int_cols=("partial_a",),
    )


SQL_AREAL_INTERP = f"""
WITH rects AS (
  SELECT CAST(floor(s_acctbal * 100.0e0 + 0.5e0) AS BIGINT) AS bal,
         CAST(floor(({SUPP_SX} - 1.3) * 20.0e0 + 0.5e0) AS BIGINT) AS rxmin,
         CAST(floor(({SUPP_SY} - 0.7) * 20.0e0 + 0.5e0) AS BIGINT) AS rymin,
         CAST(floor(({SUPP_SX} + 1.3) * 20.0e0 + 0.5e0) AS BIGINT) AS rxmax,
         CAST(floor(({SUPP_SY} + 0.7) * 20.0e0 + 0.5e0) AS BIGINT) AS rymax
  FROM supplier
),
grid AS (
  SELECT gi, gj, gi * 600 - 3600 AS gxmin, gj * 600 - 1800 AS gymin
  FROM (SELECT UNNEST(generate_series(0, 11)) AS gi),
       (SELECT UNNEST(generate_series(0, 5)) AS gj)
),
pairs AS (
  SELECT g.gi, g.gj,
         (LEAST(r.rxmax, g.gxmin + 600) - GREATEST(r.rxmin, g.gxmin))
       * (LEAST(r.rymax, g.gymin + 600) - GREATEST(r.rymin, g.gymin)) AS ovl,
         r.bal,
         (r.rxmax - r.rxmin) * (r.rymax - r.rymin) AS area
  FROM rects r JOIN grid g
    ON r.rxmin < g.gxmin + 600 AND g.gxmin < r.rxmax
   AND r.rymin < g.gymin + 600 AND g.gymin < r.rymax
)
SELECT gi, gj, CAST(SUM((bal * ovl) // area) AS BIGINT) AS alloc_cents
FROM pairs GROUP BY gi, gj
"""


def q_asof_interp(sf_dir: str):
    """Linearly interpolated purchase value at each view time
    (ops.asof_interpolate — the sensor-alignment primitive): per user,
    a view event's interp is the lerp between the bracketing purchase
    samples; views outside the purchase envelope drop (inner). The
    purchase series broadcasts once; the view stream never shuffles."""
    ev = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["event_id", "ts", "user_id",
                                  "event_type", "value"])

    def views(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pc.equal(batch["event_type"], "view"))
        return pa.table(
            {"event_id": sub["event_id"], "user_id": sub["user_id"],
             "ts": sub["ts"]}
        )

    q = ev.map_batches(views, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=None)
    import pyarrow.parquet as _pq

    series = _pq.read_table(
        _t(sf_dir, "events"), columns=["ts", "user_id", "event_type", "value"]
    )
    series = series.filter(pc.equal(series["event_type"], "purchase"))
    out = ops.asof_interpolate(
        q, series, left_key="user_id", left_ts="ts",
        right_key="user_id", right_ts="ts", right_val="value",
        out_col="interp",
    )
    return out.select_columns(["event_id", "interp"])


SQL_ASOF_INTERP = """
WITH series AS (
  SELECT user_id, epoch_us(ts) AS ts, MIN(value) AS v
  FROM events WHERE event_type = 'purchase' GROUP BY user_id, epoch_us(ts)
),
q AS (
  SELECT event_id, user_id, epoch_us(ts) AS qt
  FROM events WHERE event_type = 'view'
),
b AS (
  SELECT q.event_id, q.user_id, q.qt, MAX(s.ts) AS bts
  FROM q JOIN series s ON s.user_id = q.user_id AND s.ts <= q.qt
  GROUP BY q.event_id, q.user_id, q.qt
),
f AS (
  SELECT q.event_id, MIN(s.ts) AS fts
  FROM q JOIN series s ON s.user_id = q.user_id AND s.ts >= q.qt
  GROUP BY q.event_id
)
SELECT b.event_id,
       CASE WHEN f.fts = b.bts THEN sb.v
            ELSE sb.v + (sf.v - sb.v)
               * (CAST(b.qt - b.bts AS DOUBLE) / CAST(f.fts - b.bts AS DOUBLE))
       END AS interp
FROM b
JOIN f USING (event_id)
JOIN series sb ON sb.user_id = b.user_id AND sb.ts = b.bts
JOIN series sf ON sf.user_id = b.user_id AND sf.ts = f.fts
"""


def q_late_events(sf_dir: str):
    """Watermark/late-data accounting (ops.late_event_stats): events
    fall into 1-hour EVENT-TIME tumbling windows; with a deterministic
    synthetic arrival time (ts + (event_id·37 mod 600) seconds — the
    events table carries no ingest timestamp) and 120 s allowed
    lateness, per window: total, late count (what a streaming executor
    would side-output after sealing the pane) and max arrival delay."""
    ev = rd.read_parquet(_t(sf_dir, "events"), columns=["event_id", "ts"])

    def arrive(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.int64())
        eid = batch["event_id"].to_numpy(zero_copy_only=False)
        delay = ((eid * 37) % 600) * 1_000_000
        return pa.table(
            {
                "ts": ts,
                "arrival": pa.array(
                    ts.to_numpy(zero_copy_only=False) + delay, pa.int64()
                ),
            }
        )

    keyed = ev.map_batches(arrive, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None)
    return ops.late_event_stats(
        keyed, "ts", "arrival", window_us=3_600_000_000,
        lateness_us=120_000_000,
    )


def q_window_median(sf_dir: str):
    """Rolling 7-row median of event values per user (ops.window_median
    — the robust sibling of the moving sum; one sentinel-padded
    vectorized sort per bucket). NULL values SQL-skipped."""
    ev = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["event_id", "ts", "user_id", "value"])
    out = ops.window_median(ev, "user_id", ["ts", "event_id"], "value",
                            window_rows=7)
    return out.select_columns(["event_id", "moving_median"])


def q_spearman(sf_dir: str):
    """Per-user Spearman rank correlation of event value against time
    (ops.grouped_spearman — exact monotonic-drift sufficient stats;
    doubled average ranks keep ties integer)."""
    ev = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["user_id", "ts", "value"])

    def epoch(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch["user_id"],
                "value": batch["value"],
                "t_us": batch["ts"].cast(pa.int64()).cast(pa.float64()),
            }
        )

    keyed = ev.map_batches(epoch, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None)
    return ops.grouped_spearman(keyed, "user_id", "value", "t_us",
                                quantize_x=100.0, quantize_y=1.0)


def q_day_overlap(sf_dir: str):
    """Day-over-day retention overlap: for each consecutive day pair
    (d, d+1) sharing ≥1 user, the EXACT intersection and union sizes of
    the two days' active-user sets (Jaccard = n_inter / n_union — the
    stickiness curve). Plan: distinct (day, user) pairs fold map-side
    and merge once (bounded by users × days, not events); the distinct
    table then (1) key-bucket co-shuffles by USER so each user's day
    list is consecutive-scanned for gap-1 pairs (one lexsort per
    bucket), and (2) folds daily totals through a second tree; the
    final one-task sweep joins inter with the two daily totals. The
    event stream itself never shuffles."""
    ev = rd.read_parquet(_t(sf_dir, "events"), columns=["ts", "user_id"])

    def du_partial(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        u = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        day = ts // 86_400_000_000
        ks, vs = ops._group_reduce(
            [day, u], {"partial_one": np.ones(day.shape[0], np.int64)}
        )
        return pa.table(
            {"day": pa.array(ks[0], pa.int64()),
             "user_id": pa.array(ks[1], pa.int64()),
             "partial_one": pa.array(vs["partial_one"], pa.int64())}
        )

    du = ops.tree_sum(
        ev.map_batches(du_partial, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["day", "user_id"], {"partial_one": "_c"}, int_cols=("partial_one",),
    ).select_columns(["day", "user_id"]).materialize()

    # (1) per-user consecutive-day pairs -> intersection counts
    def inter_bucket(group: pa.Table) -> pa.Table:
        u = group["user_id"].to_numpy(zero_copy_only=False)
        d = group["day"].to_numpy(zero_copy_only=False)
        o = np.lexsort((d, u))
        us, ds_ = u[o], d[o]
        run = (us[1:] == us[:-1]) & (ds_[1:] == ds_[:-1] + 1)
        ks, vs = ops._group_reduce(
            [ds_[:-1][run]], {"partial_i": np.ones(int(run.sum()), np.int64)}
        )
        return pa.table(
            {"day": pa.array(ks[0], pa.int64()),
             "partial_i": pa.array(vs["partial_i"], pa.int64())}
        )

    inter = ops.tree_sum(
        exchange.co_shuffle(du, "user_id", inter_bucket, n_buckets=64, coalesce=True),
        ["day"], {"partial_i": "n_inter"}, int_cols=("partial_i",),
    )

    # (2) daily active totals
    def day_partial(batch: pa.Table) -> pa.Table:
        d = batch["day"].to_numpy(zero_copy_only=False)
        ks, vs = ops._group_reduce(
            [d], {"partial_n": np.ones(d.shape[0], np.int64)}
        )
        return pa.table(
            {"day": pa.array(ks[0], pa.int64()),
             "partial_n": pa.array(vs["partial_n"], pa.int64())}
        )

    totals = ops.tree_sum(
        du.map_batches(day_partial, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["day"], {"partial_n": "n_day"}, int_cols=("partial_n",),
    )

    tot_tbl = pa.Table.from_pandas(totals.to_pandas(), preserve_index=False)
    nd = {int(r["day"]): int(r["n_day"]) for r in tot_tbl.to_pylist()}
    nd_ref = exchange.broadcast(nd)

    def finish(batch: pa.Table) -> pa.Table:
        m = nd_ref.get()
        d = batch["day"].to_numpy(zero_copy_only=False)
        i = batch["n_inter"].to_numpy(zero_copy_only=False)
        uni = np.array(
            [m[int(x)] + m.get(int(x) + 1, 0) for x in d], np.int64
        ) - i
        return pa.table(
            {"day": pa.array(d, pa.int64()),
             "n_inter": pa.array(i, pa.int64()),
             "n_union": pa.array(uni, pa.int64())}
        )

    return inter.map_batches(finish, batch_format="pyarrow",
                             zero_copy_batch=True, batch_size=None)


def q_kendall(sf_dir: str):
    """Per-user Kendall concordance counts of event value vs time
    (ops.grouped_kendall — exact pairwise C/D/tie sufficient stats,
    vectorized in-segment pair enumeration)."""
    ev = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["user_id", "ts", "value"])

    def epoch(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch["user_id"],
                "value": batch["value"],
                "t_us": batch["ts"].cast(pa.int64()).cast(pa.float64()),
            }
        )

    keyed = ev.map_batches(epoch, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None)
    return ops.grouped_kendall(keyed, "user_id", "value", "t_us",
                               quantize_x=100.0, quantize_y=1.0)


def q_theil_sen(sf_dir: str):
    """Per-user Theil–Sen robust slope of event value vs time
    (ops.grouped_theil_sen — median of pairwise slopes; OLS-dragging
    outliers can't move it)."""
    ev = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["user_id", "ts", "value"])

    def epoch(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch["user_id"],
                "value": batch["value"],
                "t_us": batch["ts"].cast(pa.int64()).cast(pa.float64()),
            }
        )

    keyed = ev.map_batches(epoch, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None)
    return ops.grouped_theil_sen(keyed, "user_id", "t_us", "value",
                                 quantize_x=1.0, quantize_y=100.0)


def q_colocation(sf_dir: str):
    """Multi-source spatial CO-AGGREGATION: per level-6 cell, how many
    lineitem points and supplier points land together (cells where both
    are present, n_colocated = n_li · n_supp exact pair count) — the
    are-these-two-layers-correlated-in-space primitive behind supply
    colocation scoring. Each source folds to its own cell histogram
    through a combine tree (neither corpus shuffles); the two SMALL
    histograms meet in one final task."""
    li = lineitem_points(sf_dir)
    li = ops.add_cell_column(li, level=12, parent_level=6)
    h_li = ops.salted_count(li, "cell_parent", count_alias="n_li")

    sx, sy, sk = supplier_points(sf_dir)
    supp = rd.from_arrow(
        pa.table({"s_suppkey": pa.array(sk, pa.int64())}).append_column(
            GeoType.point(crs="OGC:CRS84").field("geotag"),
            native.build_points(
                np.column_stack([sx, sy]), GeoType.point(crs="OGC:CRS84")
            ),
        )
    )
    supp = ops.add_cell_column(supp, level=12, parent_level=6)
    h_su = ops.salted_count(supp, "cell_parent", count_alias="n_supp")

    t_li = pa.Table.from_pandas(h_li.to_pandas(), preserve_index=False)
    t_su = pa.Table.from_pandas(h_su.to_pandas(), preserve_index=False)
    j = t_li.join(t_su, keys=["cell_parent"], join_type="inner")
    n_li = j["n_li"].to_numpy(zero_copy_only=False).astype(np.int64)
    n_su = j["n_supp"].to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table(
        {
            "cell_parent": j["cell_parent"],
            "n_li": pa.array(n_li, pa.int64()),
            "n_supp": pa.array(n_su, pa.int64()),
            "n_colocated": pa.array(n_li * n_su, pa.int64()),
        }
    )


def q_local_moran(sf_dir: str):
    """LOCAL Moran (LISA) hotspot numerators per occupied grid cell —
    the per-cell companion of the global ``morans`` statistic: with
    times-N centering (``z_i = C·n_i − S`` over the C occupied cells,
    division-free), each cell reports its own ``z_num`` and the exact
    sum ``lag_num = Σ z_j`` over its rook neighbors (id ± 1, ± 100000 —
    the grid key is gx·100000+gy) plus the neighbor count; the LISA
    product z·lag is left to the consumer because it can exceed int64
    (the two factors are each exact). Histogram folds through the
    combine tree; the LISA sweep runs once on the SMALL cell table."""
    li = lineitem_points(sf_dir)
    ds = ops.add_grid_column(li, res=1.0)
    hist = ops.salted_count(ds, "grid_cell", count_alias="n")

    def sweep(batch: pa.Table) -> pa.Table:
        g = batch["grid_cell"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.argsort(g)
        g, n = g[o], n[o]
        C = np.int64(g.shape[0])
        S = np.int64(n.sum())
        z = C * n - S
        lag = np.zeros(g.shape[0], np.int64)
        cnt = np.zeros(g.shape[0], np.int64)
        for d in (1, -1, 100000, -100000):
            probe = g + np.int64(d)
            pos = np.searchsorted(g, probe)
            ok = (pos < g.shape[0]) & (g[np.minimum(pos, g.shape[0] - 1)]
                                       == probe)
            lag[ok] += z[pos[ok]]
            cnt[ok] += 1
        return pa.table(
            {
                "grid_cell": pa.array(g, pa.int64()),
                "z_num": pa.array(z, pa.int64()),
                "lag_num": pa.array(lag, pa.int64()),
                "n_neighbors": pa.array(cnt, pa.int64()),
            }
        )

    return exchange.gather(hist, sweep)


SQL_LOCAL_MORAN = f"""
WITH h AS ({{GRID_HIST}}),
st AS (SELECT COUNT(*) AS c, SUM(n) AS s FROM h),
z AS (SELECT h.grid_cell, st.c * h.n - st.s AS z FROM h, st)
SELECT a.grid_cell, CAST(a.z AS BIGINT) AS z_num,
       CAST(COALESCE(SUM(b.z), 0) AS BIGINT) AS lag_num,
       CAST(COUNT(b.grid_cell) AS BIGINT) AS n_neighbors
FROM z a LEFT JOIN z b
  ON b.grid_cell IN (a.grid_cell + 1, a.grid_cell - 1,
                     a.grid_cell + 100000, a.grid_cell - 100000)
GROUP BY a.grid_cell, a.z
""".replace("{GRID_HIST}", SQL_GRID_CELL_COUNT)


SQL_COLOCATION = f"""
WITH li AS (
  SELECT cell_parent, COUNT(*) AS n_li
  FROM ({_s2_parent_sql(6, _LI_POINT_SQL)}) GROUP BY cell_parent
),
su AS (
  SELECT cell_parent, COUNT(*) AS n_supp
  FROM ({_s2_parent_sql(6, f"SELECT {SUPP_SX} AS lon, {SUPP_SY} AS lat FROM supplier")})
  GROUP BY cell_parent
)
SELECT li.cell_parent, CAST(li.n_li AS BIGINT) AS n_li,
       CAST(su.n_supp AS BIGINT) AS n_supp,
       CAST(li.n_li * su.n_supp AS BIGINT) AS n_colocated
FROM li JOIN su USING (cell_parent)
"""


SQL_THEIL_SEN = """
WITH q AS (
  SELECT user_id,
         ROW_NUMBER() OVER () AS rid,
         CAST(floor(CAST(epoch_us(ts) AS DOUBLE) * 1.0e0 + 0.5e0)
              AS BIGINT) AS xq,
         CAST(floor(value * 100.0e0 + 0.5e0) AS BIGINT) AS yq
  FROM events WHERE value IS NOT NULL AND ts IS NOT NULL
),
slopes AS (
  SELECT a.user_id,
         CAST(b.yq - a.yq AS DOUBLE) / CAST(b.xq - a.xq AS DOUBLE) AS s
  FROM q a JOIN q b
    ON b.user_id = a.user_id AND b.rid > a.rid AND b.xq <> a.xq
)
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_slopes,
       MEDIAN(s) AS slope
FROM slopes GROUP BY user_id
"""


SQL_KENDALL = """
WITH q AS (
  SELECT user_id,
         ROW_NUMBER() OVER () AS rid,
         CAST(floor(value * 100.0e0 + 0.5e0) AS BIGINT) AS xq,
         CAST(floor(CAST(epoch_us(ts) AS DOUBLE) * 1.0e0 + 0.5e0)
              AS BIGINT) AS yq
  FROM events WHERE value IS NOT NULL AND ts IS NOT NULL
)
SELECT a.user_id,
  CAST(COUNT(*) AS BIGINT) AS n_pairs,
  CAST(SUM(CASE WHEN sign(b.xq - a.xq) * sign(b.yq - a.yq) > 0
       THEN 1 ELSE 0 END) AS BIGINT) AS conc,
  CAST(SUM(CASE WHEN sign(b.xq - a.xq) * sign(b.yq - a.yq) < 0
       THEN 1 ELSE 0 END) AS BIGINT) AS disc,
  CAST(SUM(CASE WHEN b.xq = a.xq AND b.yq <> a.yq
       THEN 1 ELSE 0 END) AS BIGINT) AS tie_x,
  CAST(SUM(CASE WHEN b.yq = a.yq AND b.xq <> a.xq
       THEN 1 ELSE 0 END) AS BIGINT) AS tie_y,
  CAST(SUM(CASE WHEN b.xq = a.xq AND b.yq = a.yq
       THEN 1 ELSE 0 END) AS BIGINT) AS tie_xy
FROM q a JOIN q b ON b.user_id = a.user_id AND b.rid > a.rid
GROUP BY a.user_id
"""


SQL_DAY_OVERLAP = """
WITH du AS (
  SELECT DISTINCT epoch_us(ts) // 86400000000 AS day, user_id FROM events
),
i AS (
  SELECT a.day, CAST(COUNT(*) AS BIGINT) AS n_inter
  FROM du a JOIN du b ON b.user_id = a.user_id AND b.day = a.day + 1
  GROUP BY a.day
),
n AS (SELECT day, COUNT(*) AS c FROM du GROUP BY day)
SELECT i.day, i.n_inter,
       CAST(na.c + nb.c - i.n_inter AS BIGINT) AS n_union
FROM i JOIN n na ON na.day = i.day JOIN n nb ON nb.day = i.day + 1
"""


SQL_SPEARMAN = """
WITH q AS (
  SELECT user_id,
         CAST(floor(value * 100.0e0 + 0.5e0) AS BIGINT) AS xq,
         CAST(floor(CAST(epoch_us(ts) AS DOUBLE) * 1.0e0 + 0.5e0)
              AS BIGINT) AS yq
  FROM events WHERE value IS NOT NULL AND ts IS NOT NULL
),
r AS (
  SELECT user_id,
    2*RANK() OVER (PARTITION BY user_id ORDER BY xq)
      + COUNT(*) OVER (PARTITION BY user_id, xq) - 1 AS rx,
    2*RANK() OVER (PARTITION BY user_id ORDER BY yq)
      + COUNT(*) OVER (PARTITION BY user_id, yq) - 1 AS ry
  FROM q
)
SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_pairs,
  CAST(COUNT(*)*SUM(rx*ry) - SUM(rx)*SUM(ry) AS BIGINT) AS cov_num,
  CAST(COUNT(*)*SUM(rx*rx) - SUM(rx)*SUM(rx) AS BIGINT) AS var_x,
  CAST(COUNT(*)*SUM(ry*ry) - SUM(ry)*SUM(ry) AS BIGINT) AS var_y
FROM r GROUP BY user_id
"""


SQL_WINDOW_MEDIAN = """
SELECT event_id,
       MEDIAN(value) OVER (
         PARTITION BY user_id ORDER BY ts, event_id
         ROWS BETWEEN 6 PRECEDING AND CURRENT ROW
       ) AS moving_median
FROM events
"""


SQL_LATE_EVENTS = """
WITH e AS (
  SELECT epoch_us(ts) AS ts,
         epoch_us(ts) + ((event_id * 37) % 600) * 1000000 AS arrival
  FROM events
),
w AS (
  SELECT (ts // 3600000000) * 3600000000 AS window_start, ts, arrival FROM e
)
SELECT window_start,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       CAST(SUM(CASE WHEN arrival > window_start + 3600000000 + 120000000
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_late,
       CAST(MAX(arrival - ts) AS BIGINT) AS max_delay_us
FROM w GROUP BY window_start
"""


SQL_POSTINGS_AND = r"""
SELECT doc_id FROM (
  SELECT doc_id,
         string_split(trim(regexp_replace(lower(text), '\s+', ' ', 'g'), ' '),
                      ' ') AS toks
  FROM documents
)
WHERE list_contains(toks, 'merge') AND list_contains(toks, 'window')
"""


def q_stock_level(sf_dir: str):
    """Floored running ledger balance per user: purchases credit their
    cents, every other event debits a third of its cents, and the
    balance CANNOT go negative (insufficient funds burn). The
    distributed clamped prefix scan ``ops.window_clamped_cumsum`` —
    closed form ``S - min(0, running min S)``, one user-hash shuffle,
    exact int64."""
    ds = rd.read_parquet(
        _t(sf_dir, "events"),
        columns=["event_id", "user_id", "ts", "event_type", "value"],
    )

    def add_delta(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        varr = batch["value"]
        if isinstance(varr, pa.ChunkedArray):
            varr = varr.combine_chunks()
        v = varr.to_numpy(zero_copy_only=False)
        isnull = np.asarray(pc.is_null(varr)) if varr.null_count else (
            np.zeros(v.shape[0], bool)
        )
        if not np.isfinite(np.where(isnull, 0.0, v)).all():
            raise ValueError("stock_level: non-finite event value")
        cents = np.where(isnull, 0.0, np.floor(v * 100.0 + 0.5)).astype(
            np.int64
        )
        # debit = -(cents // 3) with DuckDB's TRUNCATE-toward-zero //
        # (numpy // floors — differs on negative cents, so truncate
        # explicitly: -(sign · (|cents| // 3)))
        debit = -np.sign(cents) * (np.abs(cents) // 3)
        d = np.where(et == "purchase", cents, debit)
        return pa.table(
            {
                "event_id": batch["event_id"],
                "user_id": batch["user_id"],
                "ts": batch["ts"],
                "delta": pa.array(d, pa.int64()),
            }
        )

    out = ops.window_clamped_cumsum(
        ds.map_batches(add_delta, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        key="user_id", ts="ts", value_col="delta",
        out_col="level", order_tiebreak="event_id",
    )
    return out.select_columns(["event_id", "user_id", "level"])


SQL_STOCK_LEVEL = """
WITH d AS (
  SELECT event_id, user_id, ts,
         CASE WHEN event_type = 'purchase'
              THEN CAST(floor(value * 100.0e0 + 0.5e0) AS BIGINT)
              ELSE -(CAST(floor(value * 100.0e0 + 0.5e0) AS BIGINT) // 3)
         END AS delta
  FROM events
),
s AS (
  SELECT event_id, user_id, ts,
         SUM(COALESCE(delta, 0)) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
           ROWS UNBOUNDED PRECEDING) AS rs
  FROM d
)
SELECT event_id, user_id,
       CAST(rs - LEAST(0, MIN(rs) OVER (
         PARTITION BY user_id ORDER BY ts, event_id
         ROWS UNBOUNDED PRECEDING)) AS BIGINT) AS level
FROM s
"""


def q_kruskal(sf_dir: str):
    """Kruskal–Wallis (rank-based one-way ANOVA) sufficient statistics
    for l_quantity across return flags — per group: n and the tied-rank
    sum DOUBLED (mid-ranks step by ½, so 2·R is exact int64). The
    global ranking needs NO sort: quantity has a bounded integer domain
    (1..50), so one (flag, value) combine-tree histogram + a driver
    fold over ≤ |domain| rows yields exact global mid-ranks — the
    bounded-domain ranking pattern (same budget as the grid ops)."""
    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_returnflag", "l_quantity"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        f = batch["l_returnflag"].to_numpy(zero_copy_only=False)
        v = batch["l_quantity"].to_numpy(zero_copy_only=False)
        if not np.all(v == np.floor(v)):
            raise ValueError("kruskal: non-integral quantity")
        q = v.astype(np.int64)
        (fk, qk), outs = ops._group_reduce(
            [f, q], {"c": np.ones(q.shape[0], np.int64)}
        )
        return pa.table(
            {
                "l_returnflag": pa.array(fk),
                "q": pa.array(qk, pa.int64()),
                "c": pa.array(outs["c"].astype(np.int64), pa.int64()),
            }
        )

    hist = ops.tree_sum(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        ["l_returnflag", "q"], {"c": "c"}, int_cols=("c",),
    ).to_pandas()
    f = hist["l_returnflag"].to_numpy()
    q = hist["q"].to_numpy().astype(np.int64)
    c = hist["c"].to_numpy().astype(np.int64)
    # global mid-ranks over the bounded value domain, ×2 to stay integer
    vals, inv = np.unique(q, return_inverse=True)
    tc = np.zeros(vals.shape[0], np.int64)
    np.add.at(tc, inv, c)
    cum_before = np.cumsum(tc) - tc
    mr2 = 2 * cum_before + tc + 1
    flags = np.unique(f)
    n_g = np.zeros(flags.shape[0], np.int64)
    rs2 = np.zeros(flags.shape[0], np.int64)
    fidx = np.searchsorted(flags, f)
    np.add.at(n_g, fidx, c)
    np.add.at(rs2, fidx, c * mr2[inv])
    return pa.table(
        {
            "l_returnflag": pa.array(flags.astype(object)),
            "n_g": pa.array(n_g, pa.int64()),
            "rank_sum2": pa.array(rs2, pa.int64()),
        }
    )


SQL_KRUSKAL = """
WITH h AS (
  SELECT l_returnflag AS f, CAST(l_quantity AS BIGINT) AS q,
         COUNT(*) AS c
  FROM lineitem GROUP BY 1, 2
),
g AS (SELECT q, SUM(c) AS tc FROM h GROUP BY q),
r AS (
  SELECT q,
         2 * (SUM(tc) OVER (ORDER BY q ROWS UNBOUNDED PRECEDING) - tc)
           + tc + 1 AS mr2
  FROM g
)
SELECT h.f AS l_returnflag,
       CAST(SUM(h.c) AS BIGINT) AS n_g,
       CAST(SUM(h.c * r.mr2) AS BIGINT) AS rank_sum2
FROM h JOIN r USING (q)
GROUP BY 1
"""


def q_subtree_rollup(sf_dir: str):
    """Hierarchy rollup by POINTER DOUBLING: parts form a random
    recursive forest (parent(k) = 1 + mix64(k) mod (k-1) for k ≥ 2;
    0 and 1 are roots — the splitmix/murmur finalizer already
    SQL-replicated by ``mixture_sample``), and each node rolls up the
    COUNT and retail-price cents of its whole subtree. The ancestor
    closure runs in O(log depth) co-shuffled join rounds
    (``analytics.ancestor_closure`` — pairs and jump pointers both stay
    Datasets), then one partitioned join attaches descendant cents and
    a combine tree folds per-ancestor totals. SQL twin: the HUGEINT
    mix64 replica + a recursive CTE."""
    from georay import analytics as an

    ds = rd.read_parquet(
        _t(sf_dir, "part"), columns=["p_partkey", "p_retailprice"]
    )

    def base_tbl(batch: pa.Table) -> pa.Table:
        k = batch["p_partkey"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        p = batch["p_retailprice"].to_numpy(zero_copy_only=False)
        cents = np.floor(p * 100.0 + 0.5).astype(np.int64)
        return pa.table(
            {"k": pa.array(k, pa.int64()), "cents": pa.array(cents, pa.int64())}
        )

    base = ds.map_batches(
        base_tbl, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    ).materialize()

    def edge_tbl(batch: pa.Table) -> pa.Table:
        k = batch["k"].to_numpy(zero_copy_only=False)
        m = k >= 2
        kk = k[m]
        h = ops._mix64(kk.view(np.uint64).copy())
        parent = (np.uint64(1) + h % (kk - 1).view(np.uint64)).view(np.int64)
        return pa.table(
            {
                "node": pa.array(kk, pa.int64()),
                "parent": pa.array(parent, pa.int64()),
            }
        )

    edges = base.map_batches(
        edge_tbl, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    )
    proper = an.ancestor_closure(edges, "node", "parent")
    selfp = base.map_batches(
        lambda b: pa.table({"an": b["k"], "aa": b["k"]}),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )
    pairs = proper.union(selfp)
    # attach each DESCENDANT's cents (both sides large → partitioned)
    withc = ops.equi_join_partitioned(pairs, base, on="an", right_on="k")

    def partial(batch: pa.Table) -> pa.Table:
        aa = batch["aa"].to_numpy(zero_copy_only=False)
        cents = batch["cents"].to_numpy(zero_copy_only=False)
        (ks,), outs = ops._group_reduce(
            [aa], {"sc": cents, "n": np.ones(aa.shape[0], np.int64)}
        )
        return pa.table(
            {
                "p_partkey": pa.array(ks, pa.int64()),
                "sc": pa.array(outs["sc"].astype(np.int64), pa.int64()),
                "n": pa.array(outs["n"].astype(np.int64), pa.int64()),
            }
        )

    return ops.tree_sum(
        withc.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None),
        "p_partkey", {"sc": "subtree_cents", "n": "subtree_n"},
        int_cols=("sc", "n"),
    )


SQL_SUBTREE_ROLLUP = """
WITH RECURSIVE
base AS (
  SELECT p_partkey AS k,
         CAST(floor(p_retailprice * 100.0e0 + 0.5e0) AS BIGINT) AS cents
  FROM part
),
m1 AS (
  SELECT k, xor(CAST(k AS HUGEINT), CAST(k AS HUGEINT) // 8589934592) AS h1
  FROM base WHERE k >= 2
),
m2 AS (
  SELECT k,
         ( (h1 % 4294967296) * 18397679294719823053
         + ((h1 // 4294967296) * 18397679294719823053 % 4294967296)
           * 4294967296
         ) % 18446744073709551616 AS h2
  FROM m1
),
par AS (
  SELECT k, CAST(1 + xor(h2, h2 // 8589934592) % (k - 1) AS BIGINT)
           AS parent
  FROM m2
),
anc AS (
  SELECT k AS node, k AS anc FROM base
  UNION ALL
  SELECT a.node, p.parent FROM anc a JOIN par p ON a.anc = p.k
)
SELECT a.anc AS p_partkey,
       CAST(SUM(b.cents) AS BIGINT) AS subtree_cents,
       CAST(COUNT(*) AS BIGINT) AS subtree_n
FROM anc a JOIN base b ON a.node = b.k
GROUP BY 1
"""


def q_phrase_search_incremental(sf_dir: str):
    """The phrase_search twin over an INCREMENTALLY MAINTAINED index:
    the base index covers only doc_id % 5 != 0; the remaining fifth is
    added later via ``pipeline.postings_append`` (delta parquet files
    into the existing token buckets — base never rewritten, readers
    unchanged). Results must equal the full-corpus build, so the oracle
    is the same corpus-wide SQL as phrase_search."""
    import tempfile

    from georay import pipeline

    import shutil

    tag = os.path.basename(os.path.normpath(sf_dir))
    idx = os.path.join(tempfile.gettempdir(), f"georay_postings_posinc_{tag}")
    if not os.path.exists(os.path.join(idx, "_POSTINGS.json")):
        # staging + rename: the base build writes its own manifest, so
        # a crash before the append would leave a falsely-complete cache
        stage = idx + ".build"
        shutil.rmtree(stage, ignore_errors=True)
        shutil.rmtree(idx, ignore_errors=True)
        docs = rd.read_parquet(_t(sf_dir, "documents"),
                               columns=["doc_id", "text"])

        def _part(batch: pa.Table, keep_delta: bool) -> pa.Table:
            d = batch["doc_id"].to_numpy(zero_copy_only=False)
            m = (d % 5) == 0
            return batch.filter(pa.array(m if keep_delta else ~m))

        pipeline.write_postings_positional(
            docs.map_batches(lambda b: _part(b, False),
                             batch_format="pyarrow", zero_copy_batch=True,
                             batch_size=None),
            stage, n_buckets=16,
        )
        pipeline.postings_append(
            stage,
            docs.map_batches(lambda b: _part(b, True),
                             batch_format="pyarrow", zero_copy_batch=True,
                             batch_size=None),
        )
        os.rename(stage, idx)
    return pipeline.postings_phrase(idx, PHRASE_TERMS)


def q_variogram(sf_dir: str):
    """Empirical semivariogram of part retail price (geostats —
    the spatial-correlation-structure profile kriging starts from):
    ordered part-point pairs within planar distance 10.0, binned by 0.5°
    distance lags; per bin the pair count, the exact int64
    Σ(z_i−z_j)² (cents), and γ(h) = ssd / (2·n). Pair generation rides
    ``radius_join_pairs`` (cell-disk candidates, broadcast refs carry
    their cents as payload, probes stream); both directions of each
    pair are counted — γ is invariant to that. sqrt is correctly
    rounded on this host (trajectory_stats convention), so the lag
    binning is SQL-bit-exact."""
    import pyarrow.parquet as pq

    from georay.joins import radius_join_pairs

    t = pq.read_table(_t(sf_dir, "part"),
                      columns=["p_partkey", "p_retailprice"])
    sk = t["p_partkey"].to_numpy().astype(np.int64)
    sx = ((sk * 17) % 3600) / 10.0 - 180.0 + 0.05
    sy = ((sk * 23) % 1700) / 10.0 - 85.0 + 0.05
    ab = t["p_retailprice"].to_numpy(zero_copy_only=False)
    zc = np.floor(ab * 100.0 + 0.5).astype(np.int64)
    geo = GeoType.point(crs="OGC:CRS84")
    probes = rd.from_arrow(
        pa.table(
            {"p_partkey": pa.array(sk)},
            schema=pa.schema([pa.field("p_partkey", pa.int64())]),
        ).append_column(
            geo.field("geotag"),
            native.build_points(np.column_stack([sx, sy]), geo),
        )
    )
    pairs = radius_join_pairs(
        probes, sx, sy, sk, radius=10.0, probe_id_col="p_partkey",
        neighbor_out="nbr", ref_payload={"zr": zc}, dist_out="d2",
    )
    o = np.argsort(sk)
    zref = exchange.broadcast((sk[o], zc[o]))

    def partial(batch: pa.Table) -> pa.Table:
        ks, zs = zref.get()
        pid = batch["p_partkey"].to_numpy(zero_copy_only=False)
        nbr = batch["nbr"].to_numpy(zero_copy_only=False)
        m = pid != nbr
        pid, nbr = pid[m], nbr[m]
        d2 = batch["d2"].to_numpy(zero_copy_only=False)[m]
        zr = batch["zr"].to_numpy(zero_copy_only=False)[m]
        zp = zs[np.searchsorted(ks, pid)]
        dz = zp - zr
        bins = np.floor(np.sqrt(d2) / 0.5).astype(np.int64)
        (bk,), outs = ops._group_reduce(
            [bins], {"n": np.ones(bins.shape[0], np.int64), "ssd": dz * dz}
        )
        return pa.table(
            {
                "bin": pa.array(bk, pa.int64()),
                "n": pa.array(outs["n"].astype(np.int64), pa.int64()),
                "ssd": pa.array(outs["ssd"].astype(np.int64), pa.int64()),
            }
        )

    agg = ops.tree_sum(
        pairs.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None),
        "bin", {"n": "n_pairs", "ssd": "ssd"}, int_cols=("n", "ssd"),
    )

    def fin(batch: pa.Table) -> pa.Table:
        n = batch["n_pairs"].to_numpy(zero_copy_only=False)
        ssd = batch["ssd"].to_numpy(zero_copy_only=False)
        g = ssd.astype(np.float64) / (2.0 * n)
        return batch.append_column("gamma", pa.array(g, pa.float64()))

    return agg.map_batches(fin, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None)


SQL_VARIOGRAM = """
WITH s AS (
  SELECT p_partkey AS k,
         ((p_partkey * 17) % 3600) / 10.0 - 180.0 + 0.05 AS x,
         ((p_partkey * 23) % 1700) / 10.0 - 85.0 + 0.05 AS y,
         CAST(floor(p_retailprice * 100.0e0 + 0.5e0) AS BIGINT) AS z
  FROM part
),
p AS (
  SELECT (b.x - a.x)*(b.x - a.x) + (b.y - a.y)*(b.y - a.y) AS d2,
         a.z - b.z AS dz
  FROM s a JOIN s b
    ON a.k <> b.k
   AND (b.x - a.x)*(b.x - a.x) + (b.y - a.y)*(b.y - a.y) <= 100.0e0
)
SELECT CAST(floor(sqrt(d2) / 0.5e0) AS BIGINT) AS bin,
       CAST(COUNT(*) AS BIGINT) AS n_pairs,
       CAST(SUM(dz * dz) AS BIGINT) AS ssd,
       CAST(SUM(dz * dz) AS DOUBLE) / (2.0e0 * COUNT(*)) AS gamma
FROM p GROUP BY bin
"""


def q_radix_quantile(sf_dir: str):
    """Exact median + p99 of l_extendedprice — an UNBOUNDED double
    domain, where the histogram path (``exact_quantiles``) does not
    apply: distributed radix select (``ops.exact_quantiles_radix``),
    4 histogram passes total for BOTH quantiles, no sort, no shuffle,
    driver holds only the nonzero bins."""
    ds = rd.read_parquet(_t(sf_dir, "lineitem"), columns=["l_extendedprice"])
    return ops.exact_quantiles_radix(ds, "l_extendedprice", [0.5, 0.99])


def q_radix_quantile_grouped(sf_dir: str):
    """Per-returnflag exact median + p99 of l_extendedprice — the
    GROUPED radix select (``ops.grouped_quantiles_radix``): every
    (flag, q) narrows its own digit prefix, all six selections riding
    the same 4 column passes."""
    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_returnflag", "l_extendedprice"]
    )
    return ops.grouped_quantiles_radix(
        ds, "l_returnflag", "l_extendedprice", [0.5, 0.99]
    )


SQL_RADIX_QUANTILE_GROUPED = """
WITH v AS (
  SELECT l_returnflag, l_extendedprice AS x,
         ROW_NUMBER() OVER (PARTITION BY l_returnflag
                            ORDER BY l_extendedprice) AS rn,
         COUNT(*) OVER (PARTITION BY l_returnflag) AS c
  FROM lineitem WHERE l_extendedprice IS NOT NULL
)
SELECT l_returnflag, q, x AS v
FROM v, (VALUES (0.5e0), (0.99e0)) t(q)
WHERE rn = greatest(CAST(ceil(q * c) AS BIGINT), 1)
"""


def q_radix_quantile_weighted(sf_dir: str):
    """Exact QUANTITY-WEIGHTED median + p99 of l_extendedprice — the
    weighted radix select (``weight_col=``): per-digit histograms sum
    integer weights instead of row counts, same 4 passes; result is the
    smallest price whose cumulative quantity reaches ceil(q·W)."""
    ds = rd.read_parquet(
        _t(sf_dir, "lineitem"), columns=["l_extendedprice", "l_quantity"]
    )

    def wcast(batch: pa.Table) -> pa.Table:
        w = batch["l_quantity"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_extendedprice": batch["l_extendedprice"],
                "w": pa.array(w.astype(np.int64), pa.int64()),
            }
        )

    return ops.exact_quantiles_radix(
        ds.map_batches(wcast, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=None),
        "l_extendedprice", [0.5, 0.99], weight_col="w",
    )


SQL_RADIX_QUANTILE_WEIGHTED = """
WITH w AS (
  SELECT l_extendedprice AS x, CAST(l_quantity AS BIGINT) AS wt
  FROM lineitem WHERE l_extendedprice IS NOT NULL
),
c AS (
  SELECT x,
         SUM(wt) OVER (ORDER BY x) AS cw,
         SUM(wt) OVER () AS tw
  FROM w
)
SELECT q, MIN(x) AS v
FROM c, (VALUES (0.5e0), (0.99e0)) t(q)
WHERE cw >= greatest(CAST(ceil(q * tw) AS BIGINT), 1)
GROUP BY q
"""


def q_radix_quantile_cont(sf_dir: str):
    """Interpolated (quantile_cont) median + p99 of l_extendedprice —
    both bracketing ranks of every quantile selected exactly on the
    same 4 radix passes, then the explicit IEEE interpolation
    vlo + frac·(vhi − vlo) replicated verbatim in SQL."""
    ds = rd.read_parquet(_t(sf_dir, "lineitem"), columns=["l_extendedprice"])
    return ops.exact_quantiles_radix_cont(
        ds, "l_extendedprice", [0.5, 0.99]
    )


SQL_RADIX_QUANTILE_CONT = """
WITH v AS (
  SELECT x, ROW_NUMBER() OVER (ORDER BY x) - 1 AS r,
         COUNT(*) OVER () AS n
  FROM (SELECT l_extendedprice AS x FROM lineitem
        WHERE l_extendedprice IS NOT NULL)
),
t(q) AS (VALUES (0.5e0), (0.99e0)),
sel AS (
  SELECT q,
         MIN(CASE WHEN r = CAST(floor(q * (n - 1)) AS BIGINT)
                  THEN x END) AS vlo,
         MIN(CASE WHEN r = CAST(ceil(q * (n - 1)) AS BIGINT)
                  THEN x END) AS vhi,
         ANY_VALUE(n) AS n
  FROM v, t GROUP BY q
)
SELECT q,
       vlo + (q * (n - 1) - floor(q * (n - 1))) * (vhi - vlo) AS v
FROM sel
"""


def q_epoch_shuffle(sf_dir: str):
    """Epoch-1 training shuffle of the document corpus: every doc gets
    its exact position in the deterministic mix64(id + φ) permutation —
    ``ops.hash_shuffle_rank``'s histogram-offset global ranking (one
    1024-bin combine-tree histogram + one bucket co-shuffle; NO global
    sort). SQL twin: the HUGEINT mix replica + ROW_NUMBER."""
    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])
    out = ops.hash_shuffle_rank(ds, "doc_id", epoch=1)
    return out.select_columns(["doc_id", "pos"])


SQL_EPOCH_SHUFFLE = """
WITH s1 AS (
  SELECT doc_id,
         (CAST(doc_id AS HUGEINT) + 11400714819323198485)
           % 18446744073709551616 AS rid
  FROM documents
),
m1 AS (SELECT doc_id, xor(rid, rid // 8589934592) AS h1 FROM s1),
m2 AS (
  SELECT doc_id,
         ( (h1 % 4294967296) * 18397679294719823053
         + ((h1 // 4294967296) * 18397679294719823053 % 4294967296)
           * 4294967296
         ) % 18446744073709551616 AS h2
  FROM m1
),
hashed AS (SELECT doc_id, xor(h2, h2 // 8589934592) AS h FROM m2)
SELECT doc_id,
       CAST(ROW_NUMBER() OVER (ORDER BY h, doc_id) - 1 AS BIGINT) AS pos
FROM hashed
"""


def q_radix_quantile_int(sf_dir: str):
    """Exact median + p99 of the int64 l_orderkey — the INTEGER-native
    radix path (sign-bit-flip transform, no float64 round-trip): ids
    and counters beyond 2^53 stay exact, and the output v is int64."""
    ds = rd.read_parquet(_t(sf_dir, "lineitem"), columns=["l_orderkey"])
    return ops.exact_quantiles_radix(ds, "l_orderkey", [0.5, 0.99])


SQL_RADIX_QUANTILE_INT = """
WITH v AS (
  SELECT l_orderkey AS x,
         ROW_NUMBER() OVER (ORDER BY l_orderkey) AS rn,
         COUNT(*) OVER () AS c
  FROM lineitem WHERE l_orderkey IS NOT NULL
)
SELECT q, CAST(x AS BIGINT) AS v
FROM v, (VALUES (0.5e0), (0.99e0)) t(q)
WHERE rn = greatest(CAST(ceil(q * c) AS BIGINT), 1)
"""


SQL_RADIX_QUANTILE = """
WITH v AS (
  SELECT l_extendedprice AS x,
         ROW_NUMBER() OVER (ORDER BY l_extendedprice) AS rn,
         COUNT(*) OVER () AS c
  FROM lineitem WHERE l_extendedprice IS NOT NULL
)
SELECT q, x AS v
FROM v, (VALUES (0.5e0), (0.99e0)) t(q)
WHERE rn = greatest(CAST(ceil(q * c) AS BIGINT), 1)
"""


QUERIES = {
    "poly_measures": q_poly_measures,
    "spherical_area": q_spherical_area,
    "geojson_roundtrip": q_geojson_roundtrip,
    "poly_centroid": q_poly_centroid,
    "poly_bbox": q_poly_bbox,
    "infer_schema": q_infer_schema,
    "validate_wkt": q_validate_wkt,
    "image_pipeline": q_image_pipeline,
    "tile_assign": q_tile_assign,
    "asof_join": q_asof_join,
    "asof_tolerance": q_asof_tolerance,
    "interval_join": q_interval_join,
    "interval_partitioned": q_interval_partitioned,
    "asof_partitioned": q_asof_partitioned,
    "sessionize": q_sessionize,
    "peak_concurrency": q_peak_concurrency,
    "session_overlap": q_session_overlap,
    "funnel": q_funnel,
    "cohort": q_cohort,
    "cohort_ltv": q_cohort_ltv,
    "audience_overlap": q_audience_overlap,
    "trajectory": q_trajectory,
    "hausdorff": q_hausdorff,
    "path_selfintersect": q_path_selfintersect,
    "clip_rect": q_clip_rect,
    "zone_dwell": q_zone_dwell,
    "speeding": q_speeding,
    "movement_rose": q_movement_rose,
    "rasterize": q_rasterize,
    "polyfill": q_polyfill,
    "movement_report": q_movement_report,
    "out_of_order": q_out_of_order,
    "grouped_moments": q_grouped_moments,
    "split": q_split,
    "snapshot_diff": q_snapshot_diff,
    "snapshot_changes": q_snapshot_changes,
    "mad_outliers": q_mad_outliers,
    "winsorize": q_winsorize,
    "except_all": q_except_all,
    "intersect_all": q_intersect_all,
    "gini": q_gini,
    "k_anonymity": q_k_anonymity,
    "benford": q_benford,
    "bfs_hops": q_bfs_hops,
    "bfs_partitioned": q_bfs_partitioned,
    "auc": q_auc,
    "cusum": q_cusum,
    "ols": q_ols,
    "morans": q_morans,
    "geary": q_geary,
    "grid_gradient": q_grid_gradient,
    "cell_trend": q_cell_trend,
    "line_density": q_line_density,
    "grid_route": q_grid_route,
    "route_exposure": q_route_exposure,
    "autocorr": q_autocorr,
    "freq_spectrum": q_freq_spectrum,
    "group_topk_ties": q_group_topk_ties,
    "crossings": q_crossings,
    "kcore": q_kcore,
    "kcore_partitioned": q_kcore_partitioned,
    "assort": q_assort,
    "hoover": q_hoover,
    "component_sizes": q_component_sizes,
    "idw": q_idw,
    "impurity": q_impurity,
    "decayed_sum": q_decayed_sum,
    "rect_overlap": q_rect_overlap,
    "rolling_active": q_rolling_active,
    "scd2": q_scd2,
    "edge_jaccard": q_edge_jaccard,
    "edge_ra": q_edge_ra,
    "ks_drift": q_ks,
    "locf": q_locf,
    "weighted_median": q_weighted_median,
    "survival": q_survival,
    "window_distinct": q_window_distinct,
    "negative_samples": q_negative_samples,
    "pmi": q_pmi,
    "clustering": q_clustering,
    "event_paths": q_event_paths,
    "jsonl_source": q_jsonl_source,
    "ks_by_source": q_ks_by_source,
    "market_basket": q_market_basket,
    "basket_triples": q_basket_triples,
    "hits": q_hits,
    "sssp": q_sssp,
    "sssp_partitioned": q_sssp_partitioned,
    "pr_curve": q_pr_curve,
    "calibration": q_calibration,
    "contingency": q_contingency,
    "islands": q_islands,
    "corr_matrix": q_corr_matrix,
    "cross_corr": q_cross_corr,
    "seasonal_dow": q_seasonal_dow,
    "neighbor_degree": q_neighbor_degree,
    "interarrival": q_interarrival,
    "window_trend": q_window_trend,
    "window_burst": q_window_burst,
    "image_channel_stats": q_image_channel_stats,
    "image_exact_dedup": q_image_exact_dedup,
    "cell_phash_diversity": q_cell_phash_diversity,
    "phash_knn": q_phash_knn,
    "caption_terms_by_cell": q_caption_terms_by_cell,
    "cell_image_stats": q_cell_image_stats,
    "tile_mosaic": q_tile_mosaic,
    "postings_and": q_postings_and,
    "phrase_search": q_phrase_search,
    "near_search": q_near_search,
    "bm25_indexed": q_bm25_indexed,
    "areal_interp": q_areal_interp,
    "asof_interp": q_asof_interp,
    "late_events": q_late_events,
    "window_median": q_window_median,
    "spearman": q_spearman,
    "day_overlap": q_day_overlap,
    "kendall": q_kendall,
    "theil_sen": q_theil_sen,
    "colocation": q_colocation,
    "local_moran": q_local_moran,
    "conversion_lag": q_conversion_lag,
    "debounce": q_debounce,
    "rfm": q_rfm,
    "skew_profile": q_skew_profile,
    "incremental_agg": q_incremental_agg,
    "incremental_join": q_incremental_join,
    "stock_level": q_stock_level,
    "kruskal": q_kruskal,
    "subtree_rollup": q_subtree_rollup,
    "radix_quantile": q_radix_quantile,
    "phrase_search_incremental": q_phrase_search_incremental,
    "variogram": q_variogram,
    "radix_quantile_grouped": q_radix_quantile_grouped,
    "radix_quantile_weighted": q_radix_quantile_weighted,
    "entity_resolution": q_entity_resolution,
    "radix_quantile_cont": q_radix_quantile_cont,
    "merge_sorted": q_merge_sorted,
    "bm25_incremental": q_bm25_incremental,
    "ivf_incremental": q_ivf_incremental,
    "epoch_shuffle": q_epoch_shuffle,
    "anova": q_anova,
    "shuffled_layout": q_shuffled_layout,
    "radix_quantile_int": q_radix_quantile_int,
    "sorted_range_scan": q_sorted_range_scan,
    "bloom_lookup": q_bloom_lookup,
    "zonemap_range": q_zonemap_range,
    "zorder_rect": q_zorder_rect,
    "analyze": q_analyze,
    "merge_join_layout": q_merge_join_layout,
    "time_travel": q_time_travel,
    "snap_join": q_snap_join,
    "nearest_geodesic": q_nearest_geodesic,
    "knn_geodesic": q_knn_geodesic,
    "knn_geodesic_partitioned": q_knn_geodesic_partitioned,
    "markov_transitions": q_markov_transitions,
    "editdist_join": q_editdist_join,
    "editdist_clusters": q_editdist_clusters,
    "nearest_geodesic_partitioned": q_nearest_geodesic_partitioned,
    "snap_partitioned": q_snap_partitioned,
    "path_midpoint": q_path_midpoint,
    "od_matrix": q_od_matrix,
    "event_flow": q_event_flow,
    "convex_hulls": q_convex_hulls,
    "geo_curate": q_geo_curate,
    "asof_forward": q_asof_forward,
    "asof_nearest": q_asof_nearest,
    "interval_cover": q_interval_cover,
    "dissolve_area": q_dissolve_area,
    "hex_cell_count": q_hex_cell_count,
    "hex_smoothing": q_hex_smoothing,
    "twa": q_twa,
    "window_first_last": q_window_first_last,
    "range_sum": q_range_sum,
    "range_min": q_range_min,
    "skyline": q_skyline,
    "ohlc": q_ohlc,
    "spatial_clusters": q_spatial_clusters,
    "dbscan": q_dbscan,
    "nn_stats": q_nn_stats,
    "attribution": q_attribution,
    "fuzzy_pairs": q_fuzzy_pairs,
    "grouped_quantiles_cont": q_grouped_quantiles_cont,
    "focal_max": q_focal_max,
    "target_encode": q_target_encode,
    "ridge": q_ridge,
    "geofence": q_geofence,
    "radius_partitioned": q_radius_partitioned,
    "weighted_sample": q_weighted_sample,
    "weighted_grouped": q_weighted_grouped,
    "merge_upsert": q_merge_upsert,
    "degree_hist": q_degree_hist,
    "triangles": q_triangles,
    "link_predict": q_link_predict,
    "item_sim": q_item_sim,
    "dag_layers": q_dag_layers,
    "label_prop": q_label_prop,
    "label_prop_distributed": q_label_prop_distributed,
    "label_prop_partitioned": q_label_prop_partitioned,
    "modularity": q_modularity,
    "rectangles": q_rectangles,
    "rectangles_partitioned": q_rectangles_partitioned,
    "triangles_partitioned": q_triangles_partitioned,
    "bm25": q_bm25,
    "lm_score": q_lm_score,
    "gram_matrix": q_gram_matrix,
    "bpe_tokens": q_bpe_tokens,
    "bpe_base": q_bpe_base,
    "components": q_components,
    "graph_report": q_graph_report,
    "components_partitioned": q_components_partitioned,
    "pagerank": q_pagerank,
    "ppr": q_ppr,
    "pagerank_weighted": q_pagerank_weighted,
    "ktruss": q_ktruss,
    "pagerank_partitioned": q_pagerank_partitioned,
    "tile_pyramid": q_tile_pyramid,
    "tpch_q1": q_tpch_q1,
    "tpch_q3": q_tpch_q3,
    "tpch_q5": q_tpch_q5,
    "tpch_q6": q_tpch_q6,
    "tpch_q4": q_tpch_q4,
    "tpch_q14": q_tpch_q14,
    "tpch_q10": q_tpch_q10,
    "tpch_q18": q_tpch_q18,
    "tpch_q12": q_tpch_q12,
    "ngram_jaccard": q_ngram_jaccard,
    "tpch_q2": q_tpch_q2,
    "tpch_q7": q_tpch_q7,
    "tpch_q8": q_tpch_q8,
    "tpch_q9": q_tpch_q9,
    "tpch_q11": q_tpch_q11,
    "tpch_q13": q_tpch_q13,
    "tpch_q20": q_tpch_q20,
    "tpch_q15": q_tpch_q15,
    "tpch_q17": q_tpch_q17,
    "tpch_q21": q_tpch_q21,
    "tpch_q22": q_tpch_q22,
    "tpch_q19": q_tpch_q19,
    "tpch_q16": q_tpch_q16,
    "sliding_window": q_sliding_window,
    "semi_join": q_semi_join,
    "semi_bloom": q_semi_bloom,
    "distinct_parts": q_distinct_parts,
    "grouped_distinct": q_grouped_distinct,
    "sample": q_sample,
    "union_grid": q_union_grid,
    "cast_roundtrip_grid": q_cast_roundtrip_grid,
    "token_count": q_token_count,
    "chunk_docs": q_chunk_docs,
    "pack_sequences": q_pack_sequences,
    "rare_bigrams": q_rare_bigrams,
    "token_chi2": q_token_chi2,
    "source_overlap": q_source_overlap,
    "decontaminate": q_decontaminate,
    "mixture_sample": q_mixture_sample,
    "dup_spans": q_dup_spans,
    "composite_join": q_composite_join,
    "pq_ann": q_pq_ann,
    "pretrain_prep": q_pretrain_prep,
    "doc_fingerprint": q_doc_fingerprint,
    "dedup_text_exact": q_dedup_text_exact,
    "doc_stats": q_doc_stats,
    "repetition": q_repetition,
    "redact": q_redact,
    "lang_quality": q_lang_quality,
    "lang_confusion": q_lang_confusion,
    "geohash_smoothing": q_geohash_smoothing,
    "minhash_planted": q_minhash_planted,
    "simhash_planted": q_simhash_planted,
    "ann_topk": q_ann_topk,
    "knn_classify": q_knn_classify,
    "ann_filtered": q_ann_filtered,
    "ivf_ann": q_ivf_ann,
    "ivf_pruned": q_ivf_pruned,
    "embed_planted": q_embed_planted,
    "image_neardup": q_image_neardup,
    "image_patches": q_image_patches,
    "dct_image_neardup": q_dct_image_neardup,
    "av_pipeline": q_av_pipeline,
    "augment": q_augment,
    "blur_detect": q_blur_detect,
    "grid_cell_count": q_grid_cell_count,
    "compact": q_compact,
    "uncompact": q_uncompact,
    "geohash_count": q_geohash_count,
    "bounds": q_bounds,
    "centroid_by_flag": q_centroid_by_flag,
    "pip_box_join": q_pip_box_join,
    "pip_partitioned": q_pip_partitioned,
    "pip_str": q_pip_str,
    "zonal_stats": q_zonal_stats,
    "zonal_partitioned": q_zonal_partitioned,
    "group_topk": q_group_topk,
    "stratified_sample": q_stratified_sample,
    "curate": q_curate,
    "dim_join": q_dim_join,
    "token_histogram": q_token_histogram,
    "vocab_profile": q_vocab_profile,
    "quality_classifier": q_quality_classifier,
    "tfidf_top": q_tfidf_top,
    "heavy_hitters": q_heavy_hitters,
    "streaming_dedup": q_streaming_dedup,
    "quantiles": q_quantiles,
    "quantiles_cont": q_quantiles_cont,
    "equi_join": q_equi_join,
    "grouped_quantiles": q_grouped_quantiles,
    "kmeans_assign": q_kmeans_assign,
    "explode": q_explode,
    "decision_stump": q_decision_stump,
    "profile": q_profile,
    "dq_audit": q_dq_audit,
    "focal_sum": q_focal_sum,
    "window_lag": q_window_lag,
    "gap_histogram": q_gap_histogram,
    "checksum": q_checksum,
    "dedup_latest": q_dedup_latest,
    "window_cumsum": q_window_cumsum,
    "window_rank": q_window_rank,
    "window_dense_rank": q_window_dense_rank,
    "window_percent_rank": q_window_percent_rank,
    "window_cume_dist": q_window_cume_dist,
    "window_row_number": q_window_row_number,
    "window_lead": q_window_lead,
    "unpivot": q_unpivot,
    "json_extract": q_json_extract,
    "window_ntile": q_window_ntile,
    "window_share": q_window_share,
    "cms": q_cms,
    "hll": q_hll,
    "extract_props": q_extract_props,
    "window_moving": q_window_moving,
    "knn_part_supplier": q_knn_part_supplier,
    "knn_partitioned": q_knn_partitioned,
    "knn_str": q_knn_str,
    "radius_join": q_radius_join,
    "radius_pairs": q_radius_pairs,
    "radius_geodesic": q_radius_geodesic,
    "radius_geodesic_partitioned": q_radius_geodesic_partitioned,
    "radius_payload": q_radius_payload,
    "intersect_join": q_intersect_join,
    "intersect_str": q_intersect_str,
    "wkt_csv_source": q_wkt_csv_source,
    "geojsonl_source": q_geojsonl_source,
    "grouped_bounds": q_grouped_bounds,
    "geodesic_stats": q_geodesic_stats,
    "rollup": q_rollup,
    "cube": q_cube,
    "grouping_sets": q_grouping_sets,
    "grouped_corr": q_grouped_corr,
    "grouped_mode": q_grouped_mode,
    "except_distinct": q_except_distinct,
    "anti_join": q_anti_join,
    "string_agg": q_string_agg,
    "gap_fill": q_gap_fill,
    "value_histogram": q_value_histogram,
    "pivot": q_pivot,
    "tile_counts": q_tile_counts,
    "top_cells": q_top_cells,
    "dedup_docs": q_dedup_docs,
    "events_window": q_events_window,
    "wkt_roundtrip": q_wkt_roundtrip,
    "wkb_endianness": q_wkb_endianness,
    "s2_cell_count": q_s2_cell_count,
}

ORACLE = {
    "poly_measures": SQL_POLY_MEASURES,
    "spherical_area": SQL_SPHERICAL_AREA,
    "geojson_roundtrip": SQL_GEOJSON_ROUNDTRIP,
    "poly_centroid": SQL_POLY_CENTROID,
    "poly_bbox": SQL_POLY_BBOX,
    "infer_schema": SQL_INFER_SCHEMA,
    "validate_wkt": SQL_VALIDATE_WKT,
    "wkt_roundtrip": SQL_WKT_ROUNDTRIP,
    "wkb_endianness": SQL_WKB_ENDIANNESS,
    "image_pipeline": SQL_IMAGE_PIPELINE,
    "tile_assign": SQL_TILE_ASSIGN,
    "asof_join": SQL_ASOF_JOIN,
    "asof_tolerance": SQL_ASOF_TOLERANCE,
    "interval_join": SQL_INTERVAL_JOIN,
    "interval_partitioned": SQL_INTERVAL_PARTITIONED,
    "asof_partitioned": SQL_ASOF_JOIN,
    "sessionize": SQL_SESSIONIZE,
    "peak_concurrency": SQL_PEAK_CONCURRENCY,
    "session_overlap": SQL_SESSION_OVERLAP,
    "funnel": SQL_FUNNEL,
    "cohort": SQL_COHORT,
    "cohort_ltv": SQL_COHORT_LTV,
    "audience_overlap": SQL_AUDIENCE_OVERLAP,
    "trajectory": SQL_TRAJECTORY,
    "hausdorff": SQL_HAUSDORFF,
    "path_selfintersect": SQL_PATH_SELFINTERSECT,
    "clip_rect": SQL_CLIP_RECT,
    "zone_dwell": SQL_ZONE_DWELL,
    "speeding": SQL_SPEEDING,
    "movement_rose": SQL_MOVEMENT_ROSE,
    "rasterize": SQL_RASTERIZE,
    "polyfill": SQL_POLYFILL,
    "movement_report": SQL_MOVEMENT_REPORT,
    "out_of_order": SQL_OUT_OF_ORDER,
    "grouped_moments": SQL_GROUPED_MOMENTS,
    "split": SQL_SPLIT,
    "snapshot_diff": SQL_SNAPSHOT_DIFF,
    "snapshot_changes": SQL_SNAPSHOT_CHANGES,
    "mad_outliers": SQL_MAD_OUTLIERS,
    "winsorize": SQL_WINSORIZE,
    "except_all": SQL_EXCEPT_ALL,
    "intersect_all": SQL_INTERSECT_ALL,
    "gini": SQL_GINI,
    "k_anonymity": SQL_K_ANONYMITY,
    "benford": SQL_BENFORD,
    "bfs_hops": SQL_BFS_HOPS,
    "bfs_partitioned": SQL_BFS_HOPS,
    "auc": SQL_AUC,
    "cusum": SQL_CUSUM,
    "ols": SQL_OLS,
    "morans": SQL_MORANS,
    "geary": SQL_GEARY,
    "grid_gradient": SQL_GRID_GRADIENT,
    "cell_trend": SQL_CELL_TREND,
    "line_density": SQL_LINE_DENSITY,
    "grid_route": SQL_GRID_ROUTE,
    "route_exposure": SQL_ROUTE_EXPOSURE,
    "autocorr": SQL_AUTOCORR,
    "freq_spectrum": SQL_FREQ_SPECTRUM,
    "group_topk_ties": SQL_GROUP_TOPK_TIES,
    "crossings": SQL_CROSSINGS,
    "kcore": SQL_KCORE,
    "kcore_partitioned": SQL_KCORE,
    "assort": SQL_ASSORT,
    "hoover": SQL_HOOVER,
    "component_sizes": SQL_COMPONENT_SIZES,
    "idw": SQL_IDW,
    "impurity": SQL_IMPURITY,
    "decayed_sum": SQL_DECAYED_SUM,
    "rect_overlap": SQL_RECT_OVERLAP,
    "rolling_active": SQL_ROLLING_ACTIVE,
    "scd2": SQL_SCD2,
    "edge_jaccard": SQL_EDGE_JACCARD,
    "edge_ra": SQL_EDGE_RA,
    "ks_drift": SQL_KS,
    "locf": SQL_LOCF,
    "weighted_median": SQL_WEIGHTED_MEDIAN,
    "survival": SQL_SURVIVAL,
    "window_distinct": SQL_WINDOW_DISTINCT,
    "negative_samples": SQL_NEGATIVE_SAMPLES,
    "pmi": SQL_PMI,
    "clustering": SQL_CLUSTERING,
    "event_paths": SQL_EVENT_PATHS,
    "jsonl_source": SQL_JSONL_SOURCE,
    "ks_by_source": SQL_KS_BY_SOURCE,
    "market_basket": SQL_MARKET_BASKET,
    "basket_triples": SQL_BASKET_TRIPLES,
    "hits": SQL_HITS,
    "sssp": SQL_SSSP,
    "sssp_partitioned": SQL_SSSP,
    "pr_curve": SQL_PR_CURVE,
    "calibration": SQL_CALIBRATION,
    "contingency": SQL_CONTINGENCY,
    "islands": SQL_ISLANDS,
    "corr_matrix": SQL_CORR_MATRIX,
    "cross_corr": SQL_CROSS_CORR,
    "seasonal_dow": SQL_SEASONAL_DOW,
    "neighbor_degree": SQL_NEIGHBOR_DEGREE,
    "interarrival": SQL_INTERARRIVAL,
    "window_trend": SQL_WINDOW_TREND,
    "window_burst": SQL_WINDOW_BURST,
    "image_channel_stats": SQL_IMAGE_CHANNEL_STATS,
    "cell_phash_diversity": SQL_CELL_PHASH_DIVERSITY,
    "phash_knn": SQL_PHASH_KNN,
    "caption_terms_by_cell": SQL_CAPTION_TERMS_BY_CELL,
    "cell_image_stats": SQL_CELL_IMAGE_STATS,
    "tile_mosaic": SQL_TILE_MOSAIC,
    "postings_and": SQL_POSTINGS_AND,
    "phrase_search": SQL_PHRASE_SEARCH,
    "near_search": SQL_NEAR_SEARCH,
    "bm25_indexed": SQL_BM25,
    "areal_interp": SQL_AREAL_INTERP,
    "asof_interp": SQL_ASOF_INTERP,
    "late_events": SQL_LATE_EVENTS,
    "window_median": SQL_WINDOW_MEDIAN,
    "spearman": SQL_SPEARMAN,
    "day_overlap": SQL_DAY_OVERLAP,
    "kendall": SQL_KENDALL,
    "theil_sen": SQL_THEIL_SEN,
    "colocation": SQL_COLOCATION,
    "local_moran": SQL_LOCAL_MORAN,
    "image_exact_dedup": SQL_IMAGE_EXACT_DEDUP,
    "conversion_lag": SQL_CONVERSION_LAG,
    "debounce": SQL_DEBOUNCE,
    "rfm": SQL_RFM,
    "skew_profile": SQL_SKEW_PROFILE,
    "incremental_agg": SQL_INCREMENTAL_AGG,
    "incremental_join": SQL_INCREMENTAL_JOIN,
    "stock_level": SQL_STOCK_LEVEL,
    "kruskal": SQL_KRUSKAL,
    "subtree_rollup": SQL_SUBTREE_ROLLUP,
    "radix_quantile": SQL_RADIX_QUANTILE,
    "phrase_search_incremental": SQL_PHRASE_SEARCH,
    "variogram": SQL_VARIOGRAM,
    "radix_quantile_grouped": SQL_RADIX_QUANTILE_GROUPED,
    "radix_quantile_weighted": SQL_RADIX_QUANTILE_WEIGHTED,
    "entity_resolution": SQL_ENTITY_RESOLUTION,
    "radix_quantile_cont": SQL_RADIX_QUANTILE_CONT,
    "merge_sorted": SQL_SORTED_RANGE_SCAN,
    "bm25_incremental": SQL_BM25,
    "ivf_incremental": SQL_IVF_PRUNED,
    "epoch_shuffle": SQL_EPOCH_SHUFFLE,
    "anova": SQL_ANOVA,
    "shuffled_layout": SQL_SHUFFLED_LAYOUT,
    "radix_quantile_int": SQL_RADIX_QUANTILE_INT,
    "sorted_range_scan": SQL_SORTED_RANGE_SCAN,
    "bloom_lookup": SQL_BLOOM_LOOKUP,
    "zonemap_range": SQL_ZONEMAP_RANGE,
    "zorder_rect": SQL_ZORDER_RECT,
    "analyze": SQL_ANALYZE,
    "merge_join_layout": SQL_MERGE_JOIN_LAYOUT,
    "time_travel": SQL_TIME_TRAVEL,
    "snap_join": SQL_SNAP_JOIN,
    "nearest_geodesic": SQL_NEAREST_GEODESIC,
    "knn_geodesic": SQL_KNN_GEODESIC,
    "knn_geodesic_partitioned": SQL_KNN_GEODESIC_PART,
    "markov_transitions": SQL_MARKOV,
    "editdist_join": SQL_EDITDIST_JOIN,
    "editdist_clusters": SQL_EDITDIST_CLUSTERS,
    "nearest_geodesic_partitioned": SQL_NEAREST_GEODESIC_PART,
    "snap_partitioned": SQL_SNAP_PARTITIONED,
    "path_midpoint": SQL_PATH_MIDPOINT,
    "od_matrix": SQL_OD_MATRIX,
    "event_flow": SQL_EVENT_FLOW,
    "geo_curate": SQL_GEO_CURATE,
    "asof_forward": SQL_ASOF_FORWARD,
    "asof_nearest": SQL_ASOF_NEAREST,
    "interval_cover": SQL_INTERVAL_COVER,
    "dissolve_area": SQL_DISSOLVE_AREA,
    "hex_cell_count": SQL_HEX_CELL_COUNT,
    "hex_smoothing": SQL_HEX_SMOOTHING,
    "twa": SQL_TWA,
    "window_first_last": SQL_WINDOW_FIRST_LAST,
    "range_sum": SQL_RANGE_SUM,
    "range_min": SQL_RANGE_MIN,
    "skyline": SQL_SKYLINE,
    "ohlc": SQL_OHLC,
    "spatial_clusters": SQL_SPATIAL_CLUSTERS,
    "dbscan": SQL_DBSCAN,
    "nn_stats": SQL_NN_STATS,
    "attribution": SQL_ATTRIBUTION,
    "fuzzy_pairs": SQL_FUZZY_PAIRS,
    "grouped_quantiles_cont": SQL_GROUPED_QUANTILES_CONT,
    "focal_max": SQL_FOCAL_MAX,
    "target_encode": SQL_TARGET_ENCODE,
    "ridge": SQL_RIDGE,
    "geofence": SQL_GEOFENCE,
    "radius_partitioned": SQL_RADIUS_JOIN,
    "weighted_sample": SQL_WEIGHTED_SAMPLE,
    "weighted_grouped": SQL_WEIGHTED_GROUPED,
    "merge_upsert": SQL_MERGE_UPSERT,
    "degree_hist": SQL_DEGREE_HIST,
    "triangles": SQL_TRIANGLES,
    "link_predict": SQL_LINK_PREDICT,
    "item_sim": SQL_ITEM_SIM,
    "dag_layers": SQL_DAG_LAYERS,
    "label_prop": SQL_LABEL_PROP,
    "label_prop_distributed": SQL_LABEL_PROP,
    "label_prop_partitioned": SQL_LABEL_PROP,
    "modularity": SQL_MODULARITY,
    "rectangles": SQL_RECTANGLES,
    "rectangles_partitioned": SQL_RECTANGLES,
    "triangles_partitioned": SQL_TRIANGLES,
    "bm25": SQL_BM25,
    "lm_score": SQL_LM_SCORE,
    "gram_matrix": SQL_GRAM_MATRIX,
    "bpe_base": SQL_BPE_BASE,
    "components": SQL_COMPONENTS,
    "graph_report": SQL_GRAPH_REPORT,
    "components_partitioned": SQL_COMPONENTS,
    "pagerank": SQL_PAGERANK,
    "ppr": SQL_PPR,
    "pagerank_weighted": SQL_PAGERANK_WEIGHTED,
    "ktruss": SQL_KTRUSS,
    "pagerank_partitioned": SQL_PAGERANK,
    "tile_pyramid": SQL_TILE_PYRAMID,
    "tpch_q1": SQL_TPCH_Q1,
    "tpch_q3": SQL_TPCH_Q3,
    "tpch_q5": SQL_TPCH_Q5,
    "tpch_q6": SQL_TPCH_Q6,
    "tpch_q4": SQL_TPCH_Q4,
    "tpch_q14": SQL_TPCH_Q14,
    "tpch_q10": SQL_TPCH_Q10,
    "tpch_q18": SQL_TPCH_Q18,
    "tpch_q12": SQL_TPCH_Q12,
    "ngram_jaccard": SQL_NGRAM_JACCARD,
    "tpch_q2": SQL_TPCH_Q2,
    "tpch_q7": SQL_TPCH_Q7,
    "tpch_q8": SQL_TPCH_Q8,
    "tpch_q9": SQL_TPCH_Q9,
    "tpch_q11": SQL_TPCH_Q11,
    "tpch_q13": SQL_TPCH_Q13,
    "tpch_q20": SQL_TPCH_Q20,
    "tpch_q15": SQL_TPCH_Q15,
    "tpch_q17": SQL_TPCH_Q17,
    "tpch_q21": SQL_TPCH_Q21,
    "tpch_q22": SQL_TPCH_Q22,
    "tpch_q19": SQL_TPCH_Q19,
    "tpch_q16": SQL_TPCH_Q16,
    "sliding_window": SQL_SLIDING_WINDOW,
    "semi_join": SQL_SEMI_JOIN,
    "semi_bloom": SQL_SEMI_JOIN,
    "distinct_parts": SQL_DISTINCT_PARTS,
    "grouped_distinct": SQL_GROUPED_DISTINCT,
    "sample": SQL_SAMPLE,
    "union_grid": SQL_UNION_GRID,
    "cast_roundtrip_grid": SQL_GRID_CELL_COUNT,
    "token_count": SQL_TOKEN_COUNT,
    "chunk_docs": SQL_CHUNK_DOCS,
    "pack_sequences": SQL_PACK_SEQUENCES,
    "rare_bigrams": SQL_RARE_BIGRAMS,
    "token_chi2": SQL_TOKEN_CHI2,
    "source_overlap": SQL_SOURCE_OVERLAP,
    "decontaminate": SQL_DECONTAMINATE,
    "mixture_sample": SQL_MIXTURE_SAMPLE,
    "dup_spans": SQL_DUP_SPANS,
    "composite_join": SQL_COMPOSITE_JOIN,
    "pq_ann": SQL_PQ_ANN,
    "pretrain_prep": SQL_PRETRAIN_PREP,
    "doc_fingerprint": SQL_DOC_FINGERPRINT,
    "dedup_text_exact": SQL_DEDUP_TEXT_EXACT,
    "doc_stats": SQL_DOC_STATS,
    "repetition": SQL_REPETITION,
    "redact": SQL_REDACT,
    "minhash_planted": SQL_MINHASH_PLANTED,
    "simhash_planted": SQL_SIMHASH_PLANTED,
    "convex_hulls": SQL_CONVEX_HULLS,
    "bpe_tokens": SQL_BPE_TOKENS,
    "ann_topk": SQL_ANN_TOPK,
    "knn_classify": SQL_KNN_CLASSIFY,
    "ann_filtered": SQL_ANN_FILTERED,
    "ivf_ann": SQL_IVF_ANN,
    "ivf_pruned": SQL_IVF_PRUNED,
    "grid_cell_count": SQL_GRID_CELL_COUNT,
    "compact": SQL_COMPACT,
    "uncompact": SQL_UNCOMPACT,
    "geohash_count": SQL_GEOHASH_COUNT,
    "bounds": SQL_BOUNDS,
    "centroid_by_flag": SQL_CENTROID_BY_FLAG,
    "pip_box_join": SQL_PIP_BOX_JOIN,
    "pip_str": SQL_PIP_BOX_JOIN,
    "pip_partitioned": SQL_PIP_PARTITIONED,
    "zonal_stats": SQL_ZONAL_STATS,
    "zonal_partitioned": SQL_ZONAL_STATS,
    "group_topk": SQL_GROUP_TOPK,
    "stratified_sample": SQL_STRATIFIED_SAMPLE,
    "curate": SQL_CURATE,
    "dim_join": SQL_DIM_JOIN,
    "token_histogram": SQL_TOKEN_HISTOGRAM,
    "vocab_profile": SQL_VOCAB_PROFILE,
    "quality_classifier": SQL_QUALITY_CLASSIFIER,
    "tfidf_top": SQL_TFIDF_TOP,
    "heavy_hitters": SQL_HEAVY_HITTERS,
    "streaming_dedup": SQL_STREAMING_DEDUP,
    "quantiles": SQL_QUANTILES,
    "quantiles_cont": SQL_QUANTILES_CONT,
    "equi_join": SQL_EQUI_JOIN,
    "grouped_quantiles": SQL_GROUPED_QUANTILES,
    "kmeans_assign": SQL_KMEANS_ASSIGN,
    "explode": SQL_EXPLODE,
    "decision_stump": SQL_DECISION_STUMP,
    "profile": SQL_PROFILE,
    "dq_audit": SQL_DQ_AUDIT,
    "focal_sum": SQL_FOCAL_SUM,
    "window_lag": SQL_WINDOW_LAG,
    "gap_histogram": SQL_GAP_HISTOGRAM,
    "checksum": SQL_CHECKSUM,
    "dedup_latest": SQL_DEDUP_LATEST,
    "window_cumsum": SQL_WINDOW_CUMSUM,
    "window_rank": SQL_WINDOW_RANK,
    "window_dense_rank": SQL_WINDOW_DENSE_RANK,
    "window_percent_rank": SQL_WINDOW_PERCENT_RANK,
    "window_cume_dist": SQL_WINDOW_CUME_DIST,
    "window_row_number": SQL_WINDOW_ROW_NUMBER,
    "window_lead": SQL_WINDOW_LEAD,
    "unpivot": SQL_UNPIVOT,
    "json_extract": SQL_JSON_EXTRACT,
    "window_ntile": SQL_WINDOW_NTILE,
    "window_share": SQL_WINDOW_SHARE,
    "cms": SQL_CMS,
    "hll": SQL_HLL,
    "extract_props": SQL_EXTRACT_PROPS,
    "window_moving": SQL_WINDOW_MOVING,
    "knn_part_supplier": SQL_KNN_PART_SUPPLIER,
    "knn_str": SQL_KNN_PART_SUPPLIER,
    "knn_partitioned": SQL_KNN_PART_SUPPLIER,
    "radius_join": SQL_RADIUS_JOIN,
    "radius_pairs": SQL_RADIUS_PAIRS,
    "radius_geodesic": SQL_RADIUS_GEODESIC,
    "radius_geodesic_partitioned": SQL_RADIUS_GEODESIC,
    "radius_payload": SQL_RADIUS_PAYLOAD,
    "intersect_join": SQL_INTERSECT_JOIN,
    "intersect_str": SQL_INTERSECT_JOIN,
    "wkt_csv_source": SQL_WKT_CSV_SOURCE,
    "geojsonl_source": SQL_GEOJSONL_SOURCE,
    "grouped_bounds": SQL_GROUPED_BOUNDS,
    "geodesic_stats": SQL_GEODESIC_STATS,
    "rollup": SQL_ROLLUP,
    "cube": SQL_CUBE,
    "grouping_sets": SQL_GROUPING_SETS,
    "grouped_corr": SQL_GROUPED_CORR,
    "grouped_mode": SQL_GROUPED_MODE,
    "except_distinct": SQL_EXCEPT_DISTINCT,
    "anti_join": SQL_ANTI_JOIN,
    "string_agg": SQL_STRING_AGG,
    "gap_fill": SQL_GAP_FILL,
    "value_histogram": SQL_VALUE_HISTOGRAM,
    "pivot": SQL_PIVOT,
    "tile_counts": SQL_TILE_COUNTS,
    "top_cells": SQL_TOP_CELLS,
    "dedup_docs": SQL_DEDUP_DOCS,
    "events_window": SQL_EVENTS_WINDOW,
    "s2_cell_count": SQL_S2_CELL_COUNT,
    "flagship": SQL_FLAGSHIP,
    "lang_quality": SQL_LANG_QUALITY,
    "lang_confusion": _sql_lang_confusion(),
    "geohash_smoothing": SQL_GEOHASH_SMOOTHING,
    "embed_planted": SQL_EMBED_PLANTED,
    "image_neardup": SQL_IMAGE_NEARDUP,
    "image_patches": SQL_IMAGE_PATCHES,
    "dct_image_neardup": SQL_DCT_IMAGE_NEARDUP,
    "av_pipeline": SQL_AV_PIPELINE,
    "augment": SQL_AUGMENT,
    "blur_detect": SQL_BLUR_DETECT,
}
