"""Deterministic synthetic data generator (FIXTURES.md F1/F2).

Everything is seeded: the same (seed, n) always produces byte-identical
tables, which is what makes the per-row invariants (decoded-pixel
allclose / PSNR≥40dB, caption equality) checkable without storing ground
truth — the checker re-derives expected pixels from ``image_id``.

Schemas follow BASELINE.json input_hint + a ``geotag`` GeoArrow point
column; polygons use the reference polygon storage layout
(/root/reference/src/geoarrow.c:74-112).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from georay import images as im
from georay.types import GeoType

NUM_CITIES = 40
_CITY_SEED = 20260817

SIZES_W = (16, 32, 64)
SIZES_H = (16, 24, 64)
FMTS = ("ppm", "bmp", "rawrgb", "qoil")

_CAPTION_TEMPLATES = (
    "a photo of {} near {}",
    "satellite view of {} — tile {}",
    "straße {} überblick {}",  # unicode exercise
    "夜景 {} in sector {}",
    "",
)
_NOUNS = ("river", "harbor", "market", "forest", "plaza", "bridge", "café", "möbel")


def city_centers(seed: int = _CITY_SEED) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lon, lat, zipf_weight) for the fixed synthetic city set."""
    rng = np.random.default_rng(seed)
    lon = rng.uniform(-179.0, 179.0, NUM_CITIES)
    lat = np.degrees(np.arcsin(rng.uniform(-0.95, 0.95, NUM_CITIES)))
    w = 1.0 / np.arange(1, NUM_CITIES + 1)  # Zipf(1)
    return lon, lat, w / w.sum()


def _pixels_for(content_key: int, w: int, h: int) -> np.ndarray:
    rng = np.random.default_rng(np.uint64(content_key))
    return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)


def make_images_table(
    n: int,
    seed: int = 42,
    dup_frac: float = 0.01,
    null_geo_frac: float = 0.005,
    nan_geo_frac: float = 0.001,
    id_offset: int = 0,
) -> pa.Table:
    rng = np.random.default_rng(seed)
    clon, clat, cw = city_centers()

    idx = np.arange(n)
    w = np.array([SIZES_W[i % 3] for i in idx], dtype=np.int32)
    h = np.array([SIZES_H[(i // 3) % 3] for i in idx], dtype=np.int32)
    fmt = np.array([FMTS[i % 4] for i in idx])

    # content keys: ~dup_frac of rows reuse an earlier row's pixel content
    content_key = (np.int64(seed) * 1_000_003 + idx).astype(np.int64)
    is_dup = rng.random(n) < dup_frac
    is_dup[0] = False
    dup_src = rng.integers(0, np.maximum(idx, 1), size=n)
    content_key = np.where(is_dup, content_key[dup_src], content_key)
    # a duplicate must share w/h/fmt so pixels are byte-identical
    w = np.where(is_dup, w[dup_src], w).astype(np.int32)
    h = np.where(is_dup, h[dup_src], h).astype(np.int32)
    fmt = np.where(is_dup, fmt[dup_src], fmt)

    byts = []
    phashes = np.empty(n, dtype=np.int64)
    for i in range(n):
        pix = _pixels_for(int(content_key[i]), int(w[i]), int(h[i]))
        byts.append(im.encode_image(pix, str(fmt[i])))
        phashes[i] = im.phash64(pix)

    captions = [
        _CAPTION_TEMPLATES[i % len(_CAPTION_TEMPLATES)].format(
            _NOUNS[i % len(_NOUNS)], i % 997
        )
        for i in range(n)
    ]

    # geotags: 70% Zipf-city clusters (skew!), 30% uniform sphere
    city = rng.choice(NUM_CITIES, size=n, p=cw)
    clustered = rng.random(n) < 0.7
    lon = np.where(
        clustered,
        clon[city] + rng.normal(0, 0.3, n),
        rng.uniform(-180.0, 180.0, n),
    )
    lat = np.where(
        clustered,
        np.clip(clat[city] + rng.normal(0, 0.3, n), -89.9, 89.9),
        np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, n))),
    )
    lon = np.clip(lon, -180.0, 179.999999)

    u = rng.random(n)
    is_null = u < null_geo_frac
    is_nan = (u >= null_geo_frac) & (u < null_geo_frac + nan_geo_frac)
    lon = np.where(is_nan, np.nan, lon)
    lat = np.where(is_nan, np.nan, lat)

    geo_t = GeoType.point(crs="OGC:CRS84")
    storage = geo_t.storage_type()
    geotag = pa.StructArray.from_arrays(
        [pa.array(lon, pa.float64()), pa.array(lat, pa.float64())],
        fields=[storage.field(0), storage.field(1)],
        mask=pa.array(is_null),
    )

    schema = pa.schema(
        [
            pa.field("image_id", pa.string()),
            pa.field("bytes", pa.binary()),
            pa.field("w", pa.int32()),
            pa.field("h", pa.int32()),
            pa.field("fmt", pa.string()),
            pa.field("caption", pa.string()),
            pa.field("phash", pa.int64()),
            pa.field("content_key", pa.int64()),
            geo_t.field("geotag"),
        ]
    )
    return pa.Table.from_arrays(
        [
            pa.array([f"img{i + id_offset:012d}" for i in idx]),
            pa.array(byts, pa.binary()),
            pa.array(w),
            pa.array(h),
            pa.array(fmt),
            pa.array(captions),
            pa.array(phashes),
            pa.array(content_key),
            geotag,
        ],
        schema=schema,
    )


def make_polygons_table(
    n: int = 1000, seed: int = 43, empty_frac: float = 0.005, null_frac: float = 0.005
) -> pa.Table:
    """Star polygons around the city centers; a few EMPTY and null rows."""
    rng = np.random.default_rng(seed)
    clon, clat, cw = city_centers()
    city = rng.choice(NUM_CITIES, size=n, p=cw)

    all_x: list[np.ndarray] = []
    all_y: list[np.ndarray] = []
    ring_offsets = [0]
    poly_offsets = [0]
    validity = np.ones(n, dtype=bool)
    u = rng.random(n)

    for i in range(n):
        if u[i] < null_frac:
            validity[i] = False
            poly_offsets.append(poly_offsets[-1])
            continue
        if u[i] < null_frac + empty_frac:
            poly_offsets.append(poly_offsets[-1])  # POLYGON EMPTY: zero rings
            continue
        cx = clon[city[i]] + rng.normal(0, 0.5)
        cy = float(np.clip(clat[city[i]] + rng.normal(0, 0.5), -85.0, 85.0))
        n_rings = 1 + int(rng.random() < 0.25) + int(rng.random() < 0.1)
        base_r = rng.uniform(0.2, 1.5)
        for ring in range(n_rings):
            nv = int(rng.integers(4, 65))
            r = base_r if ring == 0 else base_r * rng.uniform(0.1, 0.4)
            ang = np.sort(rng.uniform(0, 2 * np.pi, nv))
            rad = r * rng.uniform(0.5, 1.0, nv)
            vx = cx + rad * np.cos(ang)
            vy = cy + rad * np.sin(ang) * (1 if ring == 0 else -1)
            # close the ring (first vertex repeated)
            vx = np.append(vx, vx[0])
            vy = np.append(vy, vy[0])
            all_x.append(vx)
            all_y.append(vy)
            ring_offsets.append(ring_offsets[-1] + len(vx))
        poly_offsets.append(poly_offsets[-1] + n_rings)

    xs = np.concatenate(all_x) if all_x else np.array([], dtype=np.float64)
    ys = np.concatenate(all_y) if all_y else np.array([], dtype=np.float64)

    geo_t = GeoType.polygon(crs="OGC:CRS84")
    storage = geo_t.storage_type()
    coord_type = storage.value_type.value_type
    coords = pa.StructArray.from_arrays(
        [pa.array(xs, pa.float64()), pa.array(ys, pa.float64())],
        fields=[coord_type.field(0), coord_type.field(1)],
    )
    rings = pa.ListArray.from_arrays(
        pa.array(ring_offsets, pa.int32()), coords, type=storage.value_type
    )
    geometry = pa.ListArray.from_arrays(
        pa.array(poly_offsets, pa.int32()),
        rings,
        type=storage,
        mask=pa.array(~validity),
    )

    # bbox per polygon (empty → +Inf/-Inf per the box kernel convention,
    # /root/reference/src/geoarrow.c:1735-1930)
    ro = np.asarray(ring_offsets)
    po = np.asarray(poly_offsets)
    nvert = ro[po[1:]] - ro[po[:-1]]
    xmin = np.full(n, np.inf)
    ymin = np.full(n, np.inf)
    xmax = np.full(n, -np.inf)
    ymax = np.full(n, -np.inf)
    has = nvert > 0
    seg_id = np.repeat(np.arange(n), nvert)
    if xs.size:
        np.minimum.at(xmin, seg_id, xs)
        np.minimum.at(ymin, seg_id, ys)
        np.maximum.at(xmax, seg_id, xs)
        np.maximum.at(ymax, seg_id, ys)
    box_t = GeoType.box(crs="OGC:CRS84")
    box_storage = box_t.storage_type()
    bbox = pa.StructArray.from_arrays(
        [pa.array(a, pa.float64()) for a in (xmin, ymin, xmax, ymax)],
        fields=[box_storage.field(i) for i in range(4)],
        mask=pa.array(~validity),
    )

    schema = pa.schema(
        [
            pa.field("polygon_id", pa.string()),
            pa.field("name", pa.string()),
            geo_t.field("geometry"),
            box_t.field("bbox"),
        ]
    )
    return pa.Table.from_arrays(
        [
            pa.array([f"poly{i:06d}" for i in range(n)]),
            pa.array([f"zone-{city[i]}-{i}" for i in range(n)]),
            geometry,
            bbox,
        ],
        schema=schema,
    )


def write_images_dataset(
    out_dir: str, n: int, seed: int = 42, rows_per_file: int = 10_000
) -> list[str]:
    """Sharded parquet layout: one file per shard so reads parallelize and
    a resumable run can skip finished shards."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    shard = 0
    for start in range(0, n, rows_per_file):
        cnt = min(rows_per_file, n - start)
        # per-shard determinism: content keys derive from the global index
        t = make_images_table(cnt, seed=seed + shard, id_offset=start)
        path = os.path.join(out_dir, f"images-{shard:05d}.parquet")
        pq.write_table(t, path, row_group_size=4096)
        paths.append(path)
        shard += 1
    return paths
