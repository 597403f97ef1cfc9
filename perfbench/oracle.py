"""Per-workload reference answers, computed with NumPy and PyArrow only
(never through ``georay``) once per seed and cached beside the inputs.

- ``enrich_images``: the polygons containing each of a fixed sample of
  image points, by brute-force even-odd crossing over every polygon edge.
- ``knn_geodesic``: the k nearest refs of a fixed probe sample by
  brute-force haversine, ordered by (distance rounded to whole metres,
  ref id).
- ``codec_roundtrip``: box and coordinate-mean centroid of every row,
  from the coordinates the generator wrote each WKT string from.
- ``caption_dedup``: the ids of planted exact caption copies.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

EARTH_RADIUS_KM = 6371.0088
K = 5
N_SAMPLE = 200


def _lonlat(geotag: pa.ChunkedArray):
    arr = geotag.combine_chunks()
    lon = arr.field("x").to_numpy(zero_copy_only=False).copy()
    lat = arr.field("y").to_numpy(zero_copy_only=False).copy()
    if arr.null_count:
        null = arr.is_null().to_numpy(zero_copy_only=False)
        lon[null] = np.nan
        lat[null] = np.nan
    return lon, lat


def images_table(inputs: str, columns=None) -> pa.Table:
    return pq.read_table(os.path.join(inputs, "images"), columns=columns)


def probe_table(inputs: str) -> pa.Table:
    """kNN probes: the valid geotags, with their row index as ``pid``."""
    lon, lat = _lonlat(images_table(inputs, ["geotag"])["geotag"])
    ok = np.isfinite(lon) & np.isfinite(lat)
    return pa.table({"pid": np.flatnonzero(ok).astype(np.int64), "lon": lon[ok], "lat": lat[ok]})


def _polygon_edges(inputs: str):
    polys = pq.read_table(os.path.join(inputs, "polygons.parquet"))
    geom = polys["geometry"].combine_chunks()
    rings = geom.flatten()
    verts = rings.flatten()
    x = verts.field("x").to_numpy(zero_copy_only=False)
    y = verts.field("y").to_numpy(zero_copy_only=False)
    ring_off = rings.offsets.to_numpy() - rings.offsets[0].as_py()
    poly_off = geom.offsets.to_numpy() - geom.offsets[0].as_py()
    ring_poly = np.repeat(np.arange(len(geom)), np.diff(poly_off))
    # edge i joins vertex i and i+1 inside one ring
    start = np.ones(len(x), bool)
    start[ring_off[1:] - 1] = False
    idx = np.flatnonzero(start)
    vert_ring = np.repeat(np.arange(len(rings)), np.diff(ring_off))
    edge_poly = ring_poly[vert_ring[idx]]
    return polys["polygon_id"].to_numpy(zero_copy_only=False), x[idx], y[idx], x[idx + 1], y[idx + 1], edge_poly


def _containing(lon, lat, edges) -> list[list[str]]:
    ids, x1, y1, x2, y2, edge_poly = edges
    out = []
    for px, py in zip(lon, lat):
        if not (np.isfinite(px) and np.isfinite(py)):
            out.append([])
            continue
        spans = (y1 > py) != (y2 > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
        cross = spans & (px < xi)
        odd = np.bincount(edge_poly[cross], minlength=len(ids)) % 2 == 1
        out.append(sorted(ids[odd].tolist()))
    return out


def haversine_km(lon1, lat1, lon2, lat2):
    rl1, rp1, rl2, rp2 = (np.radians(np.asarray(v, np.float64)) for v in (lon1, lat1, lon2, lat2))
    a = np.sin((rp2 - rp1) / 2.0) ** 2 + np.cos(rp1) * np.cos(rp2) * np.sin((rl2 - rl1) / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.minimum(a, 1.0)))


def _knn(probes: pa.Table, refs: pa.Table, sample: np.ndarray):
    rlon = refs["lon"].to_numpy()
    rlat = refs["lat"].to_numpy()
    rid = refs["rid"].to_numpy()
    plon = probes["lon"].to_numpy()[sample]
    plat = probes["lat"].to_numpy()[sample]
    km = haversine_km(plon[:, None], plat[:, None], rlon[None, :], rlat[None, :])
    mkm = np.floor(km * 1000.0 + 0.5)
    rids, dists = [], []
    for i in range(len(sample)):
        order = np.lexsort((rid, mkm[i]))[:K]
        rids.append(rid[order].tolist())
        dists.append(mkm[i][order].astype(np.int64).tolist())
    return rids, dists


def _box_centroid(blocks: pa.Table) -> dict:
    out = {k: [] for k in ("xmin", "ymin", "xmax", "ymax", "cx", "cy")}
    for xs, ys in zip(blocks["xs"].to_pylist(), blocks["ys"].to_pylist()):
        if not xs:
            for v in out.values():
                v.append(None)
            continue
        x, y = np.asarray(xs), np.asarray(ys)
        for k, v in zip(out, (x.min(), y.min(), x.max(), y.max(), x.mean(), y.mean())):
            out[k].append(float(v))
    return out


def _compute(inputs: str) -> dict:
    rng = np.random.default_rng(12345)
    imgs = images_table(inputs, ["image_id", "geotag", "dup_of"])
    lon, lat = _lonlat(imgs["geotag"])
    sample = np.sort(rng.choice(len(imgs), N_SAMPLE, replace=False))
    probes = probe_table(inputs)
    refs = pq.read_table(os.path.join(inputs, "refs.parquet"))
    psample = np.sort(rng.choice(len(probes), N_SAMPLE, replace=False))
    rids, dists = _knn(probes, refs, psample)
    dup_of = imgs["dup_of"].to_numpy()
    return {
        "rows": len(imgs),
        "enrich": {
            "image_id": imgs["image_id"].to_numpy(zero_copy_only=False)[sample].tolist(),
            "polygons": _containing(lon[sample], lat[sample], _polygon_edges(inputs)),
        },
        "knn": {
            "pid": probes["pid"].to_numpy()[psample].tolist(),
            "rid": rids,
            "d_mkm": dists,
            "n_probes": len(probes),
        },
        "codec": _box_centroid(pq.read_table(os.path.join(inputs, "wkt_blocks.parquet"))),
        "dedup": {"copies": np.flatnonzero(dup_of >= 0).tolist()},
    }


def load(inputs: str) -> dict:
    path = os.path.join(inputs, "oracle.json")
    if not os.path.exists(path):
        tmp = f"{path}.tmp-{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump(_compute(inputs), f)
        os.replace(tmp, path)
    with open(path) as f:
        return json.load(f)


def polygon_of(assign: pa.Table, ids: list[str]) -> list:
    """polygon_id per sampled image id from an output assignment table."""
    got = assign.filter(pc.is_in(assign["image_id"], pa.array(ids)))
    m = dict(zip(got["image_id"].to_pylist(), got["polygon_id"].to_pylist()))
    return [m.get(i, "<missing>") for i in ids]
