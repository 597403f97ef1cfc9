"""Seeded input generator for the benchmark, written with NumPy and PyArrow
only: it never imports ``georay``, so a library change cannot change the
inputs.  The same seed always yields the same files.

``ensure_inputs(cache_root, seed)`` writes, once per seed, under
``cache_root/seed-<n>-<digest>/``:

- ``images/images-0000N.parquet``: the image+caption table in the schema
  ``pipeline.run_flagship`` reads (``image_id``, an opaque ``bytes``
  payload so that read pruning matters, ``caption``, ``phash`` and a
  ``geotag`` geoarrow.point column with 0.5% null and 0.1% NaN rows).
  About 70% of geotags are Zipf-clustered on 40 cities.
- ``polygons.parquet``: star polygons (some with one hole, a few EMPTY)
  around the same cities, as a geoarrow.polygon column.
- ``refs.parquet``: the second point set for the kNN join.
- ``wkt_blocks.parquet``: the codec block mix, one geometry kind per
  block (see ``WKT_KINDS``), with the coordinates each string was
  written from so the oracle can recompute box and centroid.

Caption duplicates are planted: 2% of captions are exact copies of an
earlier row, whose index ``dup_of`` names (-1 if none), and 2% are
one-character edits of an earlier row.

The cache directory name carries a digest of this file, so editing the
generator never reuses inputs it made before.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

N_SHARDS = 4
ROWS_PER_SHARD = 1000
N_POLYGONS = 2000
N_REFS = 2000
N_CITIES = 40
NULL_GEO_FRAC = 0.005
NAN_GEO_FRAC = 0.001
CLUSTERED_FRAC = 0.7
CAPTION_COPY_FRAC = 0.02
CAPTION_EDIT_FRAC = 0.02
# (kind, rows) of the codec blocks; each block holds one kind only
WKT_KINDS = (
    ("polygon_xy", 2000),
    ("polygon_holes", 300),
    ("polygon_xyz", 500),
    ("linestring", 1000),
)

_CRS = b'{"crs":"OGC:CRS84"}'
_XY = pa.struct([pa.field("x", pa.float64(), False), pa.field("y", pa.float64(), False)])
_SYLLABLES = np.array(
    [a + b for a in "bdfgklmnprstvz" for b in ("a", "e", "i", "o", "u", "ai", "ou")]
)


def _geo_field(name: str, storage: pa.DataType, ext: str) -> pa.Field:
    return pa.field(
        name,
        storage,
        metadata={b"ARROW:extension:name": ext, b"ARROW:extension:metadata": _CRS},
    )


def _cities(rng: np.random.Generator):
    lon = rng.uniform(-170.0, 170.0, N_CITIES)
    lat = np.degrees(np.arcsin(rng.uniform(-0.9, 0.9, N_CITIES)))
    w = 1.0 / np.arange(1, N_CITIES + 1)
    return lon, lat, w / w.sum()


def _points(rng, n, clon, clat, cw, spread=0.3):
    """Zipf-clustered points on the cities plus a uniform background."""
    city = rng.choice(N_CITIES, size=n, p=cw)
    clustered = rng.random(n) < CLUSTERED_FRAC
    lon = np.where(clustered, clon[city] + rng.normal(0, spread, n), rng.uniform(-180, 180, n))
    lat = np.where(
        clustered,
        clat[city] + rng.normal(0, spread, n),
        np.degrees(np.arcsin(rng.uniform(-1, 1, n))),
    )
    return np.clip(lon, -179.999, 179.999), np.clip(lat, -89.9, 89.9)


def _caption_words(rng, n_words):
    idx = rng.integers(0, len(_SYLLABLES), size=(n_words, 3))
    n_syl = rng.integers(1, 4, size=n_words)
    return [
        "".join(_SYLLABLES[idx[i, : n_syl[i]]]) for i in range(n_words)
    ]


def _captions(rng, n):
    """Unrelated syllable captions, then planted exact copies and
    one-character edits of earlier rows."""
    lens = rng.integers(8, 15, size=n)
    words = _caption_words(rng, int(lens.sum()))
    ends = np.cumsum(lens)
    caps = [" ".join(words[e - l : e]) for e, l in zip(ends, lens)]
    dup_of = np.full(n, -1, np.int64)
    u = rng.random(n)
    for i in range(1, n):
        src = int(rng.integers(0, i))
        if u[i] < CAPTION_COPY_FRAC:
            caps[i] = caps[src]
            dup_of[i] = src
        elif u[i] < CAPTION_COPY_FRAC + CAPTION_EDIT_FRAC:
            s = caps[src]
            pos = int(rng.integers(0, len(s)))
            ch = "xq"[int(s[pos] == "x")]
            caps[i] = s[:pos] + ch + s[pos + 1 :]
    return caps, dup_of


def _images_shard(rng, start, n, clon, clat, cw):
    lon, lat = _points(rng, n, clon, clat, cw)
    u = rng.random(n)
    is_null = u < NULL_GEO_FRAC
    is_nan = (u >= NULL_GEO_FRAC) & (u < NULL_GEO_FRAC + NAN_GEO_FRAC)
    lon = np.where(is_nan, np.nan, lon)
    lat = np.where(is_nan, np.nan, lat)
    geotag = pa.StructArray.from_arrays(
        [pa.array(lon), pa.array(lat)], fields=list(_XY), mask=pa.array(is_null)
    )
    sizes = rng.integers(512, 2048, size=n)
    blob = rng.integers(0, 256, size=int(sizes.sum()), dtype=np.uint8).tobytes()
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int32)
    payload = pa.Array.from_buffers(
        pa.binary(), n, [None, pa.py_buffer(offsets.tobytes()), pa.py_buffer(blob)]
    )
    ids = pa.array([f"img{start + i:09d}" for i in range(n)])
    phash = rng.integers(-(2**63), 2**63 - 1, size=n, dtype=np.int64)
    return ids, payload, pa.array(phash), geotag


def _star_polygons(rng, clon, clat, cw):
    """Star polygons around the cities: 25% carry one inner ring (hole),
    0.5% are EMPTY.  Returns the geoarrow.polygon array."""
    n = N_POLYGONS
    city = rng.choice(N_CITIES, size=n, p=cw)
    xs, ys, ring_off, poly_off = [], [], [0], [0]
    for i in range(n):
        if rng.random() < 0.005:
            poly_off.append(poly_off[-1])
            continue
        cx = clon[city[i]] + rng.normal(0, 0.5)
        cy = float(np.clip(clat[city[i]] + rng.normal(0, 0.5), -80, 80))
        r = rng.uniform(0.1, 1.0)
        n_rings = 1 + int(rng.random() < 0.25)
        for ring in range(n_rings):
            nv = int(rng.integers(6, 25))
            ang = np.sort(rng.uniform(0, 2 * np.pi, nv))
            rad = (r if ring == 0 else r * 0.2) * rng.uniform(0.4, 1.0, nv)
            if ring:
                ang = ang[::-1]
            vx = cx + rad * np.cos(ang)
            vy = cy + rad * np.sin(ang)
            xs.append(np.append(vx, vx[0]))
            ys.append(np.append(vy, vy[0]))
            ring_off.append(ring_off[-1] + nv + 1)
        poly_off.append(poly_off[-1] + n_rings)
    coords = pa.StructArray.from_arrays(
        [pa.array(np.concatenate(xs)), pa.array(np.concatenate(ys))], fields=list(_XY)
    )
    ring_t = pa.list_(pa.field("vertices", _XY, False))
    rings = pa.ListArray.from_arrays(pa.array(ring_off, pa.int32()), coords, type=ring_t)
    poly_t = pa.list_(pa.field("rings", ring_t, False))
    return pa.ListArray.from_arrays(pa.array(poly_off, pa.int32()), rings, type=poly_t)


def _fmt(micro: np.ndarray) -> list[str]:
    """Decimal text of integer micro-degrees (shortest form, no trailing
    zeros): the canonical WKT spelling of ``micro / 1e6``."""
    out = []
    for m in micro.tolist():
        sign = "-" if m < 0 else ""
        q, r = divmod(abs(m), 1_000_000)
        out.append(f"{sign}{q}.{r:06d}".rstrip("0").rstrip(".") if r else f"{sign}{q}")
    return out


def _ring(rng, cx, cy, r, nv, dims, reverse=False):
    """Closed ring of ``nv`` distinct vertices in integer micro-degrees."""
    ang = np.sort(rng.uniform(0, 2 * np.pi, nv))
    if reverse:
        ang = ang[::-1]
    rad = r * rng.uniform(0.5, 1.0, nv)
    pts = [np.rint((cx + rad * np.cos(ang)) * 1e6), np.rint((cy + rad * np.sin(ang)) * 1e6)]
    if dims == 3:
        pts.append(np.rint(rng.uniform(0, 500, nv) * 1e6))
    c = np.stack(pts, axis=1).astype(np.int64)
    return np.vstack([c, c[:1]])


def _wkt_rows(rng, kind: str, n: int):
    """(wkt strings, per-row vertex list in micro-degrees or None)."""
    wkts, verts = [], []
    for _ in range(n):
        cx, cy = rng.uniform(-170, 170), rng.uniform(-80, 80)
        u = rng.random()
        if kind == "polygon_holes" and u < 0.05:
            wkts.append(None)
            verts.append(None)
            continue
        if kind == "polygon_holes" and u < 0.10:
            wkts.append("POLYGON EMPTY")
            verts.append(np.empty((0, 2), np.int64))
            continue
        if kind == "linestring":
            nv = int(rng.integers(2, 20))
            c = np.rint(
                np.stack([cx + np.cumsum(rng.normal(0, 0.05, nv)), cy + np.cumsum(rng.normal(0, 0.05, nv))], 1)
                * 1e6
            ).astype(np.int64)
            rings = [c]
        else:
            dims = 3 if kind == "polygon_xyz" else 2
            r = rng.uniform(0.01, 1.0)
            rings = [_ring(rng, cx, cy, r, int(rng.integers(4, 16)), dims)]
            if kind == "polygon_holes":
                for _h in range(int(rng.integers(1, 3))):
                    rings.append(_ring(rng, cx, cy, r * 0.2, int(rng.integers(3, 8)), 2, True))
        texts = [
            ", ".join(" ".join(t) for t in zip(*(_fmt(c[:, d]) for d in range(c.shape[1]))))
            for c in rings
        ]
        if kind == "linestring":
            wkts.append(f"LINESTRING ({texts[0]})")
        else:
            tag = "POLYGON Z" if kind == "polygon_xyz" else "POLYGON"
            wkts.append(f"{tag} (" + ", ".join(f"({t})" for t in texts) + ")")
        verts.append(np.vstack([c[:, :2] for c in rings]))
    return wkts, verts


def _wkt_blocks(rng) -> pa.Table:
    kinds, wkts, xs, ys = [], [], [], []
    for kind, n in WKT_KINDS:
        w, v = _wkt_rows(rng, kind, n)
        kinds += [kind] * n
        wkts += w
        xs += [None if c is None else (c[:, 0] / 1e6).tolist() for c in v]
        ys += [None if c is None else (c[:, 1] / 1e6).tolist() for c in v]
    return pa.table(
        {
            "kind": pa.array(kinds),
            "wkt": pa.array(wkts, pa.string()),
            "xs": pa.array(xs, pa.list_(pa.float64())),
            "ys": pa.array(ys, pa.list_(pa.float64())),
        }
    )


def _write(seed: int, out: str) -> None:
    rng = np.random.default_rng(seed)
    clon, clat, cw = _cities(rng)
    os.makedirs(os.path.join(out, "images"))
    n = N_SHARDS * ROWS_PER_SHARD
    caps, dup_of = _captions(rng, n)
    for s in range(N_SHARDS):
        start = s * ROWS_PER_SHARD
        ids, payload, phash, geotag = _images_shard(rng, start, ROWS_PER_SHARD, clon, clat, cw)
        sl = slice(start, start + ROWS_PER_SHARD)
        t = pa.Table.from_arrays(
            [ids, payload, pa.array(caps[sl]), phash, geotag, pa.array(dup_of[sl])],
            schema=pa.schema(
                [
                    pa.field("image_id", pa.string()),
                    pa.field("bytes", pa.binary()),
                    pa.field("caption", pa.string()),
                    pa.field("phash", pa.int64()),
                    _geo_field("geotag", _XY, b"geoarrow.point"),
                    pa.field("dup_of", pa.int64()),
                ]
            ),
        )
        pq.write_table(t, os.path.join(out, "images", f"images-{s:05d}.parquet"), row_group_size=256)

    geom = _star_polygons(rng, clon, clat, cw)
    polys = pa.Table.from_arrays(
        [pa.array([f"poly{i:05d}" for i in range(len(geom))]), geom],
        schema=pa.schema(
            [pa.field("polygon_id", pa.string()), _geo_field("geometry", geom.type, b"geoarrow.polygon")]
        ),
    )
    pq.write_table(polys, os.path.join(out, "polygons.parquet"))

    rlon, rlat = _points(rng, N_REFS, clon, clat, cw, spread=1.0)
    refs = pa.table({"rid": pa.array(np.arange(N_REFS, dtype=np.int64)), "lon": rlon, "lat": rlat})
    pq.write_table(refs, os.path.join(out, "refs.parquet"))
    pq.write_table(_wkt_blocks(rng), os.path.join(out, "wkt_blocks.parquet"))


def ensure_inputs(cache_root: str, seed: int) -> str:
    """Directory holding the inputs of ``seed``, generated on first use
    by this version of the generator.
    Generation writes to a temporary directory and renames it, so a run
    killed half way leaves no partial cache behind."""
    with open(__file__, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()[:12]
    out = os.path.join(cache_root, f"seed-{seed}-{digest}")
    if os.path.isdir(out):
        return out
    tmp = f"{out}.tmp-{os.getpid()}"
    _write(seed, tmp)
    with open(os.path.join(tmp, "inputs.json"), "w") as f:
        json.dump({"seed": seed, "rows": N_SHARDS * ROWS_PER_SHARD}, f)
    os.replace(tmp, out)
    return out
