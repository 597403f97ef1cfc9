"""End-to-end Dataset operator tests (the SURVEY.md §7.1 minimum slice
and the join/tiling layers) on the deterministic synthetic tables."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from georay import cells, generate, ops
from georay.codecs import native
from georay.types import GeoType


@pytest.fixture(scope="module")
def images_dir(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("images")
    generate.write_images_dataset(str(d), 3000, seed=42, rows_per_file=1000)
    return str(d)


@pytest.fixture(scope="module")
def polygons_table():
    return generate.make_polygons_table(300, seed=43)


def test_minimum_slice_read_cells_write(images_dir, ray_session, tmp_path):
    import ray.data as rd

    ds = rd.read_parquet(images_dir)
    ds = ops.add_cell_column(ds, level=12, parent_level=4)
    out_dir = str(tmp_path / "out")
    ds.write_parquet(out_dir)
    back = pq.read_table(out_dir)
    assert back.num_rows == 3000
    assert "cell" in back.column_names and "cell_parent" in back.column_names

    # numpy oracle over the same input
    src = pq.read_table(images_dir)
    v = native.view(src["geotag"].combine_chunks())
    lon = v.coords[:, 0].copy()
    lat = v.coords[:, 1].copy()
    if v.valid is not None:
        lon[~v.valid] = np.nan
        lat[~v.valid] = np.nan
    exp = cells.to_i64(cells.cell_from_lonlat(lon, lat, 12))
    got_tbl = back.sort_by("image_id")
    src_ids = np.asarray(src["image_id"].to_pylist())
    order = np.argsort(src_ids, kind="stable")
    got = got_tbl["cell"].to_numpy()
    assert np.array_equal(got, exp[order])
    # parent prefix property holds on the output
    par = got_tbl["cell_parent"].to_numpy()
    nz = got != 0
    assert np.array_equal(
        par[nz], cells.to_i64(cells.cell_parent(cells.to_u64(got[nz]), 4))
    )


def test_pip_join_modes(images_dir, polygons_table, ray_session):
    import ray.data as rd

    from georay.index import PolygonIndex
    from georay.joins import pip_join

    ds = rd.read_parquet(images_dir)
    inner = pip_join(ds, polygons_table, mode="inner").take_all()
    semi = pip_join(ds, polygons_table, mode="semi").count()
    anti = pip_join(ds, polygons_table, mode="anti").count()
    assert semi + anti == 3000

    # oracle: single-process index probe
    src = pq.read_table(images_dir)
    idx = PolygonIndex.build(polygons_table)
    v = native.view(src["geotag"].combine_chunks())
    lon = v.coords[:, 0].copy()
    lat = v.coords[:, 1].copy()
    if v.valid is not None:
        lon[~v.valid] = np.nan
        lat[~v.valid] = np.nan
    bad = ~(np.isfinite(lon) & np.isfinite(lat))
    pidx, poly = idx.contains(np.where(bad, 1e9, lon), np.where(bad, 1e9, lat))
    exp_pairs = set(
        zip(
            np.asarray(src["image_id"].to_pylist())[pidx].tolist(),
            idx.id_array.take(pa.array(poly)).to_pylist(),
        )
    )
    got_pairs = {(r["image_id"], r["polygon_id"]) for r in inner}
    assert got_pairs == exp_pairs
    assert semi == len({p for p, _ in exp_pairs})


def test_knn_join_matches_bruteforce(images_dir, ray_session):
    import ray.data as rd

    from georay.joins import knn_join

    rng = np.random.default_rng(5)
    ref_lon = rng.uniform(-180, 180, 500)
    ref_lat = rng.uniform(-85, 85, 500)
    ref_ids = np.array([f"ref{i:04d}" for i in range(500)])

    ds = rd.read_parquet(images_dir)
    got = knn_join(ds, ref_lon, ref_lat, ref_ids, k=2).take_all()

    src = pq.read_table(images_dir)
    v = native.view(src["geotag"].combine_chunks())
    lon = v.coords[:, 0].copy()
    lat = v.coords[:, 1].copy()
    if v.valid is not None:
        lon[~v.valid] = np.nan
        lat[~v.valid] = np.nan
    ids = np.asarray(src["image_id"].to_pylist())
    exp = {}
    for i in range(len(ids)):
        if not np.isfinite(lon[i]):
            continue
        d2 = (ref_lon - lon[i]) ** 2 + (ref_lat - lat[i]) ** 2
        order = np.lexsort((ref_ids, d2))[:2]
        exp[ids[i]] = [(ref_ids[j], round(float(d2[j]), 9)) for j in order]
    got_by_img = {}
    for r in got:
        got_by_img.setdefault(r["image_id"], []).append(
            (r["knn_rank"], r["neighbor_id"], round(r["knn_dist2"], 9))
        )
    assert len(got_by_img) == len(exp)
    for img, pairs in exp.items():
        g = sorted(got_by_img[img])
        assert [(x[1], x[2]) for x in g] == pairs, img


def test_pip_join_partitioned_matches_broadcast(images_dir, polygons_table, ray_session):
    import ray.data as rd

    from georay.joins import pip_join, pip_join_partitioned

    ids = pa.array(np.arange(polygons_table.num_rows), pa.int64())
    polys = polygons_table.set_column(0, pa.field("polygon_id", pa.int64()), ids)
    pts = rd.read_parquet(images_dir)
    part = pip_join_partitioned(pts, rd.from_arrow(polys), res=2.0).take_all()
    bc = pip_join(pts, polys, mode="inner").take_all()
    a = sorted((r["pt_id"], r["polygon_id"]) for r in part)
    b = sorted((r["image_id"], r["polygon_id"]) for r in bc)
    assert a == b and len(a) > 0


def test_dedup_exact(images_dir, ray_session):
    import ray.data as rd

    ds = rd.read_parquet(images_dir, columns=["image_id", "phash"])
    out = ops.dedup_exact(ds, "phash", keep_col="image_id").take_all()
    src = pq.read_table(images_dir)
    import collections

    by_hash = collections.defaultdict(list)
    for i, p in zip(src["image_id"].to_pylist(), src["phash"].to_pylist()):
        by_hash[p].append(i)
    exp = {min(v) for v in by_hash.values()}
    assert {r["image_id"] for r in out} == exp


def test_salted_count(images_dir, ray_session):
    import ray.data as rd

    ds = rd.read_parquet(images_dir)
    ds = ops.add_grid_column(ds, res=5.0)
    out = ops.salted_count(ds, "grid_cell").take_all()
    src = pq.read_table(images_dir)
    v = native.view(src["geotag"].combine_chunks())
    lon = v.coords[:, 0].copy()
    lat = v.coords[:, 1].copy()
    if v.valid is not None:
        lon[~v.valid] = np.nan
        lat[~v.valid] = np.nan
    import collections

    exp = collections.Counter(cells.grid_cell(lon, lat, 5.0).tolist())
    got = {r["grid_cell"]: r["count"] for r in out}
    assert got == dict(exp)


def test_salted_count_extreme_zipf_skew(ray_session):
    """SURVEY §7.4 hard part 4: one key owning 90% of rows must aggregate
    exactly."""
    import ray.data as rd

    n = 50_000
    rng = np.random.default_rng(17)
    keys = np.where(rng.random(n) < 0.9, 7, rng.integers(0, 1000, n))
    ds = rd.from_arrow(pa.table({"k": pa.array(keys, pa.int64())}))
    import collections

    exp = collections.Counter(keys.tolist())
    out = ops.salted_count(ds, "k").take_all()
    got = {r["k"]: r["count"] for r in out}
    assert got == dict(exp)


def test_box_agg_and_unique_types_distributed(images_dir, ray_session):
    import ray.data as rd

    ds = rd.read_parquet(images_dir)
    xmin, ymin, xmax, ymax = ops.box_agg(ds, "geotag")
    src = pq.read_table(images_dir)
    v = native.view(src["geotag"].combine_chunks())
    lon = v.coords[:, 0].copy()
    lat = v.coords[:, 1].copy()
    if v.valid is not None:
        lon[~v.valid] = np.nan
        lat[~v.valid] = np.nan
    ok = np.isfinite(lon)
    assert np.isclose(xmin, lon[ok].min()) and np.isclose(xmax, lon[ok].max())
    assert np.isclose(ymin, lat[ok].min()) and np.isclose(ymax, lat[ok].max())

    codes = ops.unique_geometry_types(ds, "geotag")
    assert codes == [1]
    inferred = ops.infer_geo_schema(ds, "geotag")
    assert inferred.geometry_type.name == "POINT"


def test_semi_join_filter_and_hll(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(23)
    keys = rng.integers(0, 5000, 40_000)
    ds = rd.from_arrow(pa.table({"k": pa.array(keys, pa.int64())}))
    keep = np.arange(0, 5000, 7)
    semi = ops.semi_join_filter(ds, "k", keep).take_all()
    anti = ops.semi_join_filter(ds, "k", keep, anti=True).count()
    keep_set = set(keep.tolist())
    exp_semi = int(np.isin(keys, keep).sum())
    assert len(semi) == exp_semi
    assert all(r["k"] in keep_set for r in semi[:200])
    assert anti == 40_000 - exp_semi

    exact = len(np.unique(keys))
    est = ops.approx_distinct(ds, "k")
    assert abs(est - exact) / exact < 0.05, (est, exact)


def test_tile_columns(images_dir, ray_session):
    import ray.data as rd

    ds = rd.read_parquet(images_dir)
    out = ops.add_tile_columns(ds, zoom=4).take_all()
    for r in out[:100]:
        assert 0 <= r["tile_x"] < 16 and 0 <= r["tile_y"] < 16


def test_pip_join_partitioned_multipolygon(ray_session):
    # ADVICE regression: the co-partitioned plan must accept MULTIPOLYGON
    # inputs (the broadcast plan always did) and agree with it
    import ray.data as rd

    from georay.codecs import native as nat
    from georay.codecs import wkt as wkt_codec
    from georay.joins import pip_join, pip_join_partitioned
    from georay.types import GeoType

    mp = [
        "MULTIPOLYGON (((0 0, 5 0, 5 5, 0 5, 0 0)), ((10 10, 15 10, 15 15, 10 15, 10 10)))",
        "MULTIPOLYGON (((-6 -6, -1 -6, -1 -1, -6 -1, -6 -6)))",
    ]
    geom, t = wkt_codec.decode(pa.array(mp, pa.string()), GeoType.multipolygon())
    polys = pa.table(
        {"polygon_id": pa.array([7, 9], pa.int64())},
        schema=pa.schema([pa.field("polygon_id", pa.int64())]),
    ).append_column(GeoType.multipolygon().field("geometry"), geom)

    lon = np.array([1.0, 12.0, -3.0, 50.0, 14.9])
    lat = np.array([1.0, 12.0, -3.0, 50.0, 10.1])
    geo = GeoType.point()
    pts_tbl = pa.table(
        {"image_id": pa.array([f"i{k}" for k in range(5)], pa.string())},
        schema=pa.schema([pa.field("image_id", pa.string())]),
    ).append_column(geo.field("geotag"), nat.build_points(np.column_stack([lon, lat]), geo))
    pts = rd.from_arrow(pts_tbl)

    part = pip_join_partitioned(pts, rd.from_arrow(polys), res=4.0).take_all()
    bc = pip_join(pts, polys, mode="inner").take_all()
    a = sorted((r["pt_id"], r["polygon_id"]) for r in part)
    b = sorted((r["image_id"], r["polygon_id"]) for r in bc)
    assert a == b
    assert len(a) == 4  # i0, i1, i2, i4 inside; i3 matches nothing


def test_knn_join_partitioned_matches_broadcast(ray_session):
    import ray.data as rd

    from georay.codecs import native as nat
    from georay.joins import knn_join, knn_join_partitioned
    from georay.types import GeoType

    rng = np.random.default_rng(17)
    # clustered probes + refs incl. a sparse far-away probe (forces ring
    # growth past round 0) and a longitude-wrap case
    plon = np.concatenate([rng.uniform(-10, 10, 120), [179.9, -65.0]])
    plat = np.concatenate([rng.uniform(-10, 10, 120), [0.0, 70.0]])
    rlon = np.concatenate([rng.uniform(-12, 12, 300), [-179.8, 100.0]])
    rlat = np.concatenate([rng.uniform(-12, 12, 300), [0.1, -70.0]])
    rids = np.arange(300 + 2, dtype=np.int64)
    geo = GeoType.point()
    probes_tbl = pa.table(
        {"p_partkey": pa.array(np.arange(plon.shape[0]), pa.int64())},
        schema=pa.schema([pa.field("p_partkey", pa.int64())]),
    ).append_column(geo.field("geotag"), nat.build_points(np.column_stack([plon, plat]), geo))
    refs_tbl = pa.table(
        {"s_suppkey": pa.array(rids, pa.int64())},
        schema=pa.schema([pa.field("s_suppkey", pa.int64())]),
    ).append_column(geo.field("geotag"), nat.build_points(np.column_stack([rlon, rlat]), geo))

    part = knn_join_partitioned(
        rd.from_arrow(probes_tbl),
        rd.from_arrow(refs_tbl),
        k=3,
        res=4.0,
        max_ring=40,
    )
    bc = knn_join(
        rd.from_arrow(probes_tbl), rlon, rlat, rids, k=3, res=4.0, id_out="s_suppkey"
    ).take_all()
    pdf = part.to_pandas()
    a = sorted(
        zip(
            pdf["p_partkey"].tolist(),
            pdf["knn_rank"].tolist(),
            pdf["s_suppkey"].tolist(),
        )
    )
    b = sorted((r["p_partkey"], r["knn_rank"], r["s_suppkey"]) for r in bc)
    assert len(a) == plon.shape[0] * 3
    assert a == b


def test_tree_reduce_min_max_matches_pandas(ray_session):
    import ray.data as rd

    import numpy as np
    import pandas as pd

    from georay import ops

    rng = np.random.default_rng(13)
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 50, 5000),
            "v": rng.integers(-1000, 1000, 5000),
        }
    )
    ds = rd.from_pandas(df).repartition(17)
    got_min = (
        ops.tree_reduce(ds, "k", {"v": "mn"}, ufunc=np.minimum)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    got_max = (
        ops.tree_reduce(ds, "k", {"v": "mx"}, ufunc=np.maximum)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    exp = df.groupby("k")["v"].agg(["min", "max"]).reset_index()
    assert (got_min["mn"].to_numpy() == exp["min"].to_numpy()).all()
    assert (got_max["mx"].to_numpy() == exp["max"].to_numpy()).all()


def test_top_k_tree_matches_sort_plan(ray_session):
    import ray.data as rd

    import numpy as np
    import pyarrow as pa

    from georay import ops

    rng = np.random.default_rng(21)
    n = 10000
    vals = rng.integers(0, 25, n)  # heavy ties force tie-break coverage
    cells = rng.integers(-3, 3, n).astype(np.int64)
    cells[vals == 0] = np.iinfo(np.int64).min  # sentinel keys: ~x, not -x
    ds = rd.from_arrow(pa.table({"n": vals, "cell": cells})).repartition(23)
    tree = ops.top_k(ds, ["n", "cell"], 77, descending=[True, False]).to_pandas()
    sortp = ops.top_k(
        ds, ["n", "cell"], 77, descending=[True, False], final="sort"
    ).to_pandas()
    assert tree.reset_index(drop=True).equals(sortp.reset_index(drop=True))
    # k larger than the dataset
    small = rd.from_arrow(pa.table({"n": [3, 1, 2], "cell": [7, 7, 7]}))
    out = ops.top_k(small, ["n", "cell"], 100, descending=[True, False]).to_pandas()
    assert out["n"].tolist() == [3, 2, 1]


def test_hash64_band_candidates_hamming_semantics(ray_session):
    import ray.data as rd

    import numpy as np

    from georay.stages import dedup

    base = np.int64(0x0123456789ABCDEF)
    rows = [
        {"img": 1, "phash": int(base)},
        {"img": 2, "phash": int(base)},  # exact dup → hamming 0
        # 2 flipped bits in different 16-bit bands → pigeonhole candidate
        {"img": 3, "phash": int(base ^ np.int64((1 << 3) | (1 << 35)))},
        # far hash → must be excluded by max_hamming
        {"img": 4, "phash": int(base ^ np.int64(0x00FF00FF00FF00FF))},
    ]
    pairs = dedup.hash64_band_candidates(
        rd.from_items(rows), "phash", id_col="img", max_hamming=6
    ).to_pandas()
    got = {(a, b): h for a, b, h in zip(pairs.id_a, pairs.id_b, pairs.hamming)}
    assert got[(1, 2)] == 0
    assert got[(1, 3)] == 2 and got[(2, 3)] == 2
    assert not any(4 in p for p in got)


def test_knn_partitioned_tie_break_by_ref_id(ray_session):
    """Two refs EXACTLY equidistant from a probe, both inside one grid
    bucket with > k closer-or-equal candidates: the kth slot must go to
    the smaller ref id (the broadcast/_topk_reduce total order). An
    argpartition-based bucket selection drops an arbitrary tie member —
    the one-row sf0.1 divergence this pins."""
    import ray.data as rd

    import numpy as np
    import pyarrow as pa

    from georay import joins
    from georay.codecs import native
    from georay.types import GeoType

    def pts_table(ids, lon, lat, idc):
        geo = GeoType.point(crs="OGC:CRS84")
        pt = native.build_points(
            np.column_stack([np.asarray(lon, float), np.asarray(lat, float)]), geo
        )
        return pa.table({idc: pa.array(ids, pa.int64())}).append_column(
            geo.field("geotag"), pt
        )

    # probe at origin; refs 10 and 20 both at distance 5 (3,4)/(−3,4),
    # refs 30..34 nearer fillers so k=3 straddles the tie
    probes = rd.from_arrow(pts_table([1], [0.0], [0.0], "p_partkey"))
    rid = [30, 31, 10, 20]
    rlon = [0.1, -0.1, 3.0, -3.0]
    rlat = [0.1, -0.1, 4.0, 4.0]
    refs = rd.from_arrow(pts_table(rid, rlon, rlat, "s_suppkey"))
    out = joins.knn_join_partitioned(
        probes, refs, k=3, res=30.0
    ).to_pandas().sort_values("knn_rank")
    assert out["s_suppkey"].tolist() == [30, 31, 10]  # 10 < 20 wins the tie


def test_pip_zonal_stats_matches_join_aggregate(images_dir, polygons_table, ray_session):
    import pandas as pd
    import ray.data as rd

    from georay.joins import pip_join, pip_zonal_stats

    ids = pa.array(np.arange(polygons_table.num_rows), pa.int64())
    polys = polygons_table.set_column(0, pa.field("polygon_id", pa.int64()), ids)
    pts = rd.read_parquet(images_dir)

    got = (
        pip_zonal_stats(pts, polys, value_col="w")
        .to_pandas()
        .sort_values("polygon_id")
        .reset_index(drop=True)
    )

    # oracle: materialized inner join + pandas aggregate
    pairs = pip_join(pts, polys, mode="inner").to_pandas()[["image_id", "polygon_id"]]
    src = pq.read_table(images_dir, columns=["image_id", "w"]).to_pandas()
    j = pairs.merge(src, on="image_id")
    want = (
        j.groupby("polygon_id")["w"]
        .agg(n="size", v_sum="sum", v_min="min", v_max="max")
        .reset_index()
    )
    want["v_avg"] = want["v_sum"] / want["n"]
    want = want.sort_values("polygon_id").reset_index(drop=True)

    assert len(got) == len(want) > 0
    assert np.array_equal(got["polygon_id"].to_numpy(), want["polygon_id"].to_numpy())
    assert np.array_equal(got["n"].to_numpy(), want["n"].to_numpy())
    assert np.allclose(got["v_sum"].to_numpy(), want["v_sum"].to_numpy(), rtol=0, atol=0)
    assert np.array_equal(got["v_min"].to_numpy(), want["v_min"].astype(np.float64).to_numpy())
    assert np.array_equal(got["v_max"].to_numpy(), want["v_max"].astype(np.float64).to_numpy())
    assert np.allclose(got["v_avg"].to_numpy(), want["v_avg"].to_numpy(), rtol=0, atol=0)


def test_group_top_k_matches_pandas(images_dir, ray_session):
    import pandas as pd
    import ray.data as rd

    ds = rd.read_parquet(images_dir, columns=["image_id", "w", "h"])
    got = (
        ops.group_top_k(ds, "w", ["h", "image_id"], 2, descending=[True, False], n_buckets=16)
        .to_pandas()
        .sort_values(["w", "h", "image_id"], ascending=[True, False, True])
        .reset_index(drop=True)
    )
    df = pq.read_table(images_dir, columns=["image_id", "w", "h"]).to_pandas()
    want = (
        df.sort_values(["w", "h", "image_id"], ascending=[True, False, True])
        .groupby("w")
        .head(2)
        .sort_values(["w", "h", "image_id"], ascending=[True, False, True])
        .reset_index(drop=True)
    )
    assert len(got) == len(want) > 0
    assert got[["image_id", "w", "h"]].equals(want[["image_id", "w", "h"]])


def test_broadcast_join_inner_left(ray_session):
    import ray.data as rd

    dim = pa.table({"k": pa.array([1, 2, 3], pa.int64()),
                    "name": pa.array(["one", "two", "three"])})
    t = pa.table({"k": pa.array([3, 1, 9, 2, 1, None], pa.int64()),
                  "rid": pa.array(list(range(6)), pa.int64())})
    ds = rd.from_arrow(t).repartition(3)

    inner = ops.broadcast_join(ds, dim, on="k").to_pandas().sort_values("rid")
    assert inner["rid"].tolist() == [0, 1, 3, 4]
    assert inner["name"].tolist() == ["three", "one", "two", "one"]

    left = ops.broadcast_join(ds, dim, on="k", how="left").to_pandas().sort_values("rid")
    assert left["rid"].tolist() == [0, 1, 2, 3, 4, 5]
    assert left["name"].tolist()[2] is None or left["name"].isna().tolist()[2]
    assert left["name"].isna().tolist() == [False, False, True, False, False, True]

    # duplicate dim keys keep the first occurrence
    dup = pa.table({"k": pa.array([1, 1], pa.int64()), "name": pa.array(["a", "b"])})
    out = ops.broadcast_join(ds, dup, on="k").to_pandas()
    assert set(out["name"]) == {"a"}


def test_exact_quantiles_matches_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    rng = np.random.default_rng(21)
    vals = np.concatenate([
        rng.integers(1, 51, 5000).astype(np.float64),
        np.full(2000, 7.0),  # heavy duplicate mass
    ])
    t = pa.table({"x": pa.array(vals)})
    ds = rd.from_arrow(t).repartition(6)
    qs = [0.0, 0.01, 0.25, 0.5, 0.9, 0.999, 1.0]
    got = {r["q"]: r["v"] for r in ops.exact_quantiles(ds, "x", qs).take_all()}
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    for q in qs:
        want = con.execute(f"SELECT quantile_disc(x, {q}) FROM t").fetchone()[0]
        assert got[q] == want, (q, got[q], want)


def test_equi_join_partitioned_matches_pandas(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(33)
    lt = pa.table({"k": pa.array(rng.integers(0, 60, 900), pa.int64()),
                   "lval": pa.array(np.arange(900), pa.int64())})
    rt = pa.table({"rk": pa.array(rng.integers(0, 60, 200), pa.int64()),
                   "rval": pa.array([f"r{i}" for i in range(200)])})
    L, R = rd.from_arrow(lt).repartition(5), rd.from_arrow(rt).repartition(3)
    got = ops.equi_join_partitioned(L, R, on="k", right_on="rk", n_buckets=7).to_pandas()
    want = lt.to_pandas().merge(rt.to_pandas(), left_on="k", right_on="rk").drop(columns="rk")
    assert sorted(map(tuple, got[["k", "lval", "rval"]].values.tolist())) == \
        sorted(map(tuple, want[["k", "lval", "rval"]].values.tolist()))

    gotl = ops.equi_join_partitioned(L, R, on="k", right_on="rk", how="left").to_pandas()
    wantl = lt.to_pandas().merge(rt.to_pandas(), left_on="k", right_on="rk", how="left")
    assert len(gotl) == len(wantl)
    assert int(gotl["rval"].isna().sum()) == int(wantl["rval"].isna().sum())


def test_grouped_quantiles_matches_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    rng = np.random.default_rng(41)
    t = pa.table({
        "g": pa.array([int(x) for x in rng.integers(0, 5, 4000)], pa.int64()),
        "x": pa.array(rng.integers(1, 30, 4000).astype(np.float64)),
    })
    ds = rd.from_arrow(t).repartition(5)
    qs = [0.0, 0.5, 0.95, 1.0]
    got = {(r["g"], r["q"]): r["v"]
           for r in ops.grouped_quantiles(ds, "g", "x", qs).take_all()}
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    for (g,) in con.execute("SELECT DISTINCT g FROM t").fetchall():
        for q in qs:
            want = con.execute(
                f"SELECT quantile_disc(x, {q}) FROM t WHERE g={g}"
            ).fetchone()[0]
            assert got[(g, q)] == want, (g, q)


def test_profile_columns(ray_session):
    import ray.data as rd

    t = pa.table({
        "a": pa.array([1, 5, None, 3, 2], pa.int64()),
        "b": pa.array([2.5, None, 1.0, 9.0, 3.5]),
        "s": pa.array(["kiwi", "apple", None, "zebra", "mango"]),
    })
    ds = rd.from_arrow(t).repartition(3)
    out = {r["column"]: r for r in ops.profile_columns(ds, ["a", "b", "s"]).take_all()}
    assert out["a"]["n"] == 5 and out["a"]["n_null"] == 1
    assert out["a"]["min"] == "1.0" and out["a"]["max"] == "5.0" and out["a"]["sum"] == 11.0
    assert out["b"]["min"] == "1.0" and out["b"]["max"] == "9.0" and out["b"]["sum"] == 16.0
    assert out["s"]["min"] == "apple" and out["s"]["max"] == "zebra"
    assert np.isnan(out["s"]["sum"])


def test_focal_sum_matches_brute(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(19)
    # sparse raster incl. antimeridian wrap column 0 and 359
    gx = np.concatenate([rng.integers(0, 360, 300), [0, 359, 359]])
    gy = np.concatenate([rng.integers(0, 180, 300), [90, 90, 91]])
    keys, counts = np.unique(gx.astype(np.int64) * 100000 + gy, return_counts=True)
    t = pa.table({"grid_cell": pa.array(keys), "n": pa.array(counts.astype(np.int64))})
    ds = rd.from_arrow(t).repartition(4)
    got = {r["grid_cell"]: r["focal_n"] for r in ops.focal_sum(ds, k=1, nx=360).take_all()}
    lut = dict(zip(keys.tolist(), counts.tolist()))
    for cell in keys.tolist():
        cx, cy = cell // 100000, cell % 100000
        want = sum(
            lut.get(((cx + dx) % 360) * 100000 + (cy + dy), 0)
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
        )
        assert got[cell] == want, cell


def test_radius_join_count_matches_brute(images_dir, ray_session):
    import ray.data as rd

    from georay.joins import radius_join_count

    rng = np.random.default_rng(51)
    rl = rng.uniform(-180, 180, 300)
    rt = rng.uniform(-85, 85, 300)
    rid = np.arange(300)
    ds = rd.read_parquet(images_dir)
    got = {
        r["image_id"]: r["n"]
        for r in radius_join_count(
            ds, rl, rt, rid, radius=4.0, probe_id_col="image_id"
        ).take_all()
    }

    src = pq.read_table(images_dir)
    v = native.view(src["geotag"].combine_chunks())
    lon = v.coords[:, 0].copy()
    lat = v.coords[:, 1].copy()
    if v.valid is not None:
        lon[~v.valid] = np.nan
        lat[~v.valid] = np.nan
    ids = np.asarray(src["image_id"].to_pylist())
    exp = {}
    for i in range(len(ids)):
        if not np.isfinite(lon[i]):
            continue
        n = int(((rl - lon[i]) ** 2 + (rt - lat[i]) ** 2 <= 16.0).sum())
        if n:
            exp[ids[i]] = n
    assert got == exp and len(exp) > 0


def test_grouped_box_agg_matches_pandas(images_dir, ray_session):
    import ray.data as rd

    ds = rd.read_parquet(images_dir)
    got = (
        ops.grouped_box_agg(ds, "fmt", "geotag")
        .to_pandas().set_index("fmt").sort_index()
    )
    src = pq.read_table(images_dir)
    v = native.view(src["geotag"].combine_chunks())
    lon = v.coords[:, 0].copy()
    lat = v.coords[:, 1].copy()
    if v.valid is not None:
        lon[~v.valid] = np.nan
        lat[~v.valid] = np.nan
    import pandas as pd

    df = pd.DataFrame({"fmt": src["fmt"].to_pylist(), "lon": lon, "lat": lat})
    ok = np.isfinite(df["lon"])
    want = df[ok].groupby("fmt").agg(
        xmin=("lon", "min"), ymin=("lat", "min"),
        xmax=("lon", "max"), ymax=("lat", "max"),
    ).sort_index()
    assert list(got.index) == list(want.index)
    for c in ("xmin", "ymin", "xmax", "ymax"):
        assert np.array_equal(got[c].to_numpy(), want[c].to_numpy()), c


def test_pivot_count_matches_pandas(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(61)
    t = pa.table({
        "k": pa.array([f"k{int(x)}" for x in rng.integers(0, 6, 2000)]),
        "c": pa.array([["a", "b", "c", "zz"][i] for i in rng.integers(0, 4, 2000)]),
    })
    ds = rd.from_arrow(t).repartition(5)
    got = (
        ops.pivot_count(ds, "k", "c", ["a", "b", "c"])
        .to_pandas().set_index("k").sort_index()
    )
    df = t.to_pandas()
    want = df.pivot_table(index="k", columns="c", aggfunc="size", fill_value=0)
    for cat in ("a", "b", "c"):
        assert np.array_equal(got[f"n_{cat}"].to_numpy(), want[cat].to_numpy()), cat
    # out-of-set category 'zz' ignored
    assert "n_zz" not in got.columns


def test_heavy_hitters_exact(ray_session):
    import collections

    import ray.data as rd

    rng = np.random.default_rng(71)
    vals = np.concatenate([
        np.repeat([7, 42, 99], [3000, 2500, 1200]),
        rng.integers(1000, 40000, 12000),
    ])
    rng.shuffle(vals)
    t = pa.table({"v": pa.array(vals.astype(np.int64))})
    ds = rd.from_arrow(t).repartition(9)
    c = collections.Counter(vals.tolist())
    for phi in (0.05, 0.1):
        got = {r["v"]: r["n"] for r in ops.heavy_hitters(ds, "v", phi).take_all()}
        want = {k: n for k, n in c.items() if n > phi * len(vals)}
        assert got == want, phi


def test_equi_join_partitioned_full_outer(ray_session):
    import ray.data as rd

    lt = pa.table({"k": pa.array([1, 2, 3], pa.int64()),
                   "lval": pa.array([10, 20, 30], pa.int64())})
    rt = pa.table({"rk": pa.array([2, 3, 4], pa.int64()),
                   "rval": pa.array(["b", "c", "d"])})
    got = (
        ops.equi_join_partitioned(
            rd.from_arrow(lt).repartition(2), rd.from_arrow(rt).repartition(2),
            on="k", right_on="rk", how="outer", n_buckets=3,
        )
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    assert got["k"].tolist() == [1, 2, 3, 4]
    assert got["lval"].fillna(-1).tolist() == [10, 20, 30, -1]
    assert got["rval"].fillna("~").tolist() == ["~", "b", "c", "d"]


def test_rect_intersect_count_matches_brute(polygons_table, ray_session):
    import ray.data as rd

    from georay.codecs import native as nat
    from georay.joins import rect_intersect_count
    from georay.index import PolygonIndex

    ids = pa.array(np.arange(polygons_table.num_rows), pa.int64())
    polys = polygons_table.set_column(0, pa.field("polygon_id", pa.int64()), ids)
    rng = np.random.default_rng(91)
    n = 400
    cx = rng.uniform(-175, 175, n)
    cy = rng.uniform(-80, 80, n)
    rects = pa.table({
        "rect_id": pa.array(np.arange(n), pa.int64()),
        "xmin": pa.array(cx - 2.0), "ymin": pa.array(cy - 1.0),
        "xmax": pa.array(cx + 2.0), "ymax": pa.array(cy + 1.0),
    })
    got = {
        r["rect_id"]: r["n"]
        for r in rect_intersect_count(
            rd.from_arrow(rects).repartition(4), polys
        ).take_all()
    }
    # oracle: single-process index over the full rect set at once
    idx = PolygonIndex.build(polys)
    ridx, _ = idx.intersects_rect(cx - 2.0, cy - 1.0, cx + 2.0, cy + 1.0)
    import collections

    exp = collections.Counter(ridx.tolist())
    assert got == dict(exp) and len(got) > 0


def test_explode_list_matches_manual(ray_session):
    import ray.data as rd

    t = pa.table({
        "rid": pa.array([1, 2, 3, 4], pa.int64()),
        "xs": pa.array([[10, 11], [], None, [12]], pa.list_(pa.int64())),
    })
    got = (
        ops.explode_list(rd.from_arrow(t).repartition(2), "xs", value_out="x")
        .to_pandas().sort_values(["rid", "pos"]).reset_index(drop=True)
    )
    assert got["rid"].tolist() == [1, 1, 4]
    assert got["x"].tolist() == [10, 11, 12]
    assert got["pos"].tolist() == [0, 1, 0]


def test_stratified_sample_deterministic(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(101)
    t = pa.table({
        "cls": pa.array([f"c{int(x)}" for x in rng.integers(0, 4, 3000)]),
        "rid": pa.array(rng.permutation(3000).astype(np.int64)),
    })
    ds = rd.from_arrow(t).repartition(5)
    h = ops.add_splitmix_column(ds, "rid", out="h")
    a = ops.group_top_k(h, "cls", ["h", "rid"], 10, descending=False).to_pandas()
    # re-run with different partitioning: identical sample
    ds2 = rd.from_arrow(t).repartition(11)
    b = ops.group_top_k(
        ops.add_splitmix_column(ds2, "rid", out="h"), "cls", ["h", "rid"], 10,
        descending=False,
    ).to_pandas()
    key = lambda df: sorted(map(tuple, df[["cls", "rid"]].values.tolist()))
    assert key(a) == key(b)
    assert len(a) == 40  # 10 per class
    # every class holds a hash-order prefix: spot-check against numpy
    from georay.ops import _mix64

    df = t.to_pandas()
    hh = _mix64(df["rid"].to_numpy().view(np.uint64).copy())
    df["h"] = (hh ^ np.uint64(1 << 63)).view(np.int64)
    want = df.sort_values(["h", "rid"]).groupby("cls").head(10)
    assert key(a) == sorted(map(tuple, want[["cls", "rid"]].values.tolist()))


def test_pair_join_variants_consistent_with_counts(images_dir, polygons_table, ray_session):
    import collections

    import ray.data as rd

    from georay.joins import (
        radius_join_count, radius_join_pairs,
        rect_intersect_count, rect_intersect_pairs,
    )

    rng = np.random.default_rng(77)
    rl, rt = rng.uniform(-180, 180, 200), rng.uniform(-85, 85, 200)
    rid = np.arange(200)
    ds = rd.read_parquet(images_dir)
    counts = {r["image_id"]: r["n"] for r in radius_join_count(
        ds, rl, rt, rid, radius=5.0, probe_id_col="image_id").take_all()}
    pairs = radius_join_pairs(
        ds, rl, rt, rid, radius=5.0, probe_id_col="image_id").take_all()
    agg = collections.Counter(r["image_id"] for r in pairs)
    assert dict(agg) == counts

    ids = pa.array(np.arange(polygons_table.num_rows), pa.int64())
    polys = polygons_table.set_column(0, pa.field("polygon_id", pa.int64()), ids)
    rects = pa.table({
        "rect_id": pa.array(np.arange(100), pa.int64()),
        "xmin": pa.array(rng.uniform(-175, 170, 100)),
        "ymin": pa.array(rng.uniform(-80, 75, 100)),
    })
    rects = rects.append_column("xmax", pa.array(rects["xmin"].to_numpy() + 25))
    rects = rects.append_column("ymax", pa.array(rects["ymin"].to_numpy() + 15))
    rds = rd.from_arrow(rects).repartition(3)
    c2 = {r["rect_id"]: r["n"] for r in rect_intersect_count(rds, polys).take_all()}
    p2 = collections.Counter(
        r["rect_id"] for r in rect_intersect_pairs(rds, polys).take_all()
    )
    assert dict(p2) == c2 and len(c2) > 0


def test_bloom_semi_join_superset_and_fpr(ray_session):
    import ray.data as rd

    from georay.ops import bloom_build, bloom_probe

    rng = np.random.default_rng(111)
    keep = rng.choice(10_000_000, 5000, replace=False).astype(np.int64)
    probe = rng.choice(10_000_000, 50_000, replace=False).astype(np.int64)
    words, m = bloom_build(keep, bits_per_key=10)
    hit = bloom_probe(words, m, probe)
    true = np.isin(probe, keep)
    # NO false negatives
    assert np.all(hit[true])
    # FPR within ~3x theory (k=4, 10 bits/key → <1%)
    fpr = (hit & ~true).sum() / max((~true).sum(), 1)
    assert fpr < 0.03, fpr

    t = pa.table({"k": pa.array(probe)})
    ds = rd.from_arrow(t).repartition(4)
    out = ops.semi_join_filter(ds, "k", keep, bloom_bits_per_key=10).to_pandas()
    exact = ops.semi_join_filter(ds, "k", keep).to_pandas()
    assert set(exact["k"]) <= set(out["k"])
    assert len(out) <= len(exact) + int(0.03 * len(probe))

    import pytest as _pytest

    with _pytest.raises(ValueError):
        ops.semi_join_filter(ds, "k", keep, anti=True, bloom_bits_per_key=10)


def test_equi_join_hot_key_skew(ray_session):
    """80% of the left side on ONE key: the bucket concentrates but the
    join must stay exact (the documented skew contract)."""
    import ray.data as rd

    rng = np.random.default_rng(121)
    n = 20_000
    keys = np.where(rng.random(n) < 0.8, 7, rng.integers(0, 500, n)).astype(np.int64)
    lt = pa.table({"k": pa.array(keys), "lv": pa.array(np.arange(n, dtype=np.int64))})
    rt = pa.table({"rk": pa.array(np.arange(0, 500, 1, dtype=np.int64)),
                   "rv": pa.array(np.arange(500, dtype=np.int64) * 10)})
    got = ops.equi_join_partitioned(
        rd.from_arrow(lt).repartition(8), rd.from_arrow(rt).repartition(3),
        on="k", right_on="rk", n_buckets=16,
    )
    assert got.count() == n  # unique right keys: one match per left row
    s = got.to_pandas()
    assert (s["rv"].to_numpy() == s["k"].to_numpy() * 10).all()


def test_equi_join_salted_matches_unsalted(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(131)
    n = 8000
    keys = np.where(rng.random(n) < 0.7, 3, rng.integers(0, 100, n)).astype(np.int64)
    lt = pa.table({"k": pa.array(keys), "lv": pa.array(np.arange(n, dtype=np.int64))})
    rt = pa.table({"rk": pa.array(rng.integers(0, 100, 300).astype(np.int64)),
                   "rv": pa.array(np.arange(300, dtype=np.int64))})
    L, R = rd.from_arrow(lt).repartition(6), rd.from_arrow(rt).repartition(3)
    plain = ops.equi_join_partitioned(L, R, on="k", right_on="rk").to_pandas()
    for how in ("inner", "left"):
        salted = ops.equi_join_partitioned(
            L, R, on="k", right_on="rk", how=how, n_salt=4
        ).to_pandas()
        if how == "inner":
            a = sorted(map(tuple, plain[["k", "lv", "rv"]].values.tolist()))
            b = sorted(map(tuple, salted[["k", "lv", "rv"]].values.tolist()))
            assert a == b
        else:
            assert len(salted) >= len(plain)

    import pytest as _pytest

    with _pytest.raises(ValueError):
        ops.equi_join_partitioned(L, R, on="k", right_on="rk", how="outer", n_salt=2)


def test_grouped_approx_distinct_accuracy(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(141)
    n = 30_000
    t = pa.table({
        "g": pa.array([f"g{int(x)}" for x in rng.integers(0, 4, n)]),
        "u": pa.array(rng.integers(0, 3000, n).astype(np.int64)),
    })
    ds = rd.from_arrow(t).repartition(6)
    approx = ops.grouped_approx_distinct(ds, "g", "u")
    df = t.to_pandas()
    exact = df.groupby("g")["u"].nunique().to_dict()
    assert set(approx) == set(exact)
    for k in exact:
        assert abs(approx[k] - exact[k]) / exact[k] < 0.05, (k, approx[k], exact[k])


def test_approx_quantiles_error_bound(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(151)
    n = 200_000
    vals = rng.lognormal(0, 1.0, n)  # continuous, unbounded domain
    ds = rd.from_arrow(pa.table({"x": pa.array(vals)})).repartition(8)
    got = ops.approx_quantiles(ds, "x", [0.1, 0.5, 0.9], sample_rate=50)
    for q in (0.1, 0.5, 0.9):
        true_v = np.quantile(vals, q)
        # rank error within a few std errs → value within the local band
        rank = (vals <= got[q]).mean()
        assert abs(rank - q) < 0.02, (q, rank)
        assert got[q] > 0 and np.isfinite(true_v)


def test_radius_geodesic_matches_brute_including_polar(ray_session):
    """within_geodesic vs brute-force haversine, with probes pushed to
    lat 89 so the per-probe wide-disk (pole-adjacent) path is exercised
    alongside the equatorial narrow-disk path."""
    import ray.data as rd

    from georay import kernels
    from georay.joins import radius_join_count

    rng = np.random.default_rng(93)
    rl = rng.uniform(-180, 180, 400)
    rt = rng.uniform(-89.5, 89.5, 400)
    rid = np.arange(400)
    plon = rng.uniform(-180, 180, 120)
    plat = np.concatenate([
        rng.uniform(-85, 85, 100),
        rng.uniform(88.0, 89.0, 10),    # pole-adjacent probes
        rng.uniform(-89.0, -88.0, 10),
    ])
    geo = GeoType.point()
    probes = rd.from_arrow(
        pa.table({"pid": pa.array(np.arange(120), pa.int64())}).append_column(
            geo.field("geotag"),
            native.build_points(np.column_stack([plon, plat]), geo),
        )
    )
    got = {
        r["pid"]: r["n"]
        for r in radius_join_count(
            probes, rl, rt, rid, radius=500.0,
            probe_id_col="pid", metric="haversine",
        ).take_all()
    }
    exp = {}
    for i in range(120):
        d = kernels.haversine_km(plon[i], plat[i], rl, rt)
        n = int((d <= 500.0).sum())
        if n:
            exp[i] = n
    assert got == exp and len(exp) > 5


def test_radius_pairs_payload_and_distance(ray_session):
    import collections

    import ray.data as rd

    from georay.joins import radius_join_pairs

    rng = np.random.default_rng(94)
    rl = rng.uniform(-30, 30, 150)
    rt = rng.uniform(-30, 30, 150)
    # plant a non-finite ref: payload must stay aligned after build() drops it
    rl[7] = np.nan
    rid = np.arange(150)
    tag = rid * 10 + 3
    geo = GeoType.point()
    plon = rng.uniform(-30, 30, 80)
    plat = rng.uniform(-30, 30, 80)
    probes = rd.from_arrow(
        pa.table({"pid": pa.array(np.arange(80), pa.int64())}).append_column(
            geo.field("geotag"),
            native.build_points(np.column_stack([plon, plat]), geo),
        )
    )
    rows = radius_join_pairs(
        probes, rl, rt, rid, radius=3.0,
        probe_id_col="pid", neighbor_out="rid",
        ref_payload={"tag": tag}, dist_out="d2",
    ).take_all()
    assert len(rows) > 0
    for r in rows:
        assert r["tag"] == r["rid"] * 10 + 3
        i, j = r["pid"], r["rid"]
        d2 = (rl[j] - plon[i]) ** 2 + (rt[j] - plat[i]) ** 2
        assert d2 == r["d2"] and d2 <= 9.0
    # completeness vs brute force
    agg = collections.Counter(r["pid"] for r in rows)
    for i in range(80):
        d2 = (rl - plon[i]) ** 2 + (rt - plat[i]) ** 2
        n = int(np.nansum(d2 <= 9.0))
        assert agg.get(i, 0) == n


def test_window_dense_rank_and_ntile_vs_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    rng = np.random.default_rng(17)
    n = 2000
    t = pa.table(
        {
            "rid": pa.array(np.arange(n, dtype=np.int64)),
            "k": pa.array(rng.integers(0, 37, n).astype(np.int64)),
            "v": pa.array(rng.integers(0, 25, n).astype(np.int64)),  # many ties
        }
    )
    ds = rd.from_arrow(t).repartition(5)
    got_d = ops.window_dense_rank(ds, key="k", order_cols=["v"]).to_pandas()
    got_n = ops.window_ntile(ds, key="k", order_cols=["v", "rid"], n_tiles=5).to_pandas()
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    exp_d = con.execute(
        "SELECT rid, DENSE_RANK() OVER (PARTITION BY k ORDER BY v) AS dense_rank FROM t"
    ).fetchdf()
    exp_n = con.execute(
        "SELECT rid, NTILE(5) OVER (PARTITION BY k ORDER BY v, rid) AS tile FROM t"
    ).fetchdf()
    gd = got_d.set_index("rid")["dense_rank"].to_dict()
    ed = exp_d.set_index("rid")["dense_rank"].to_dict()
    assert gd == ed
    gn = got_n.set_index("rid")["tile"].to_dict()
    en = exp_n.set_index("rid")["tile"].to_dict()
    assert gn == en
    # degenerate: one key with fewer rows than tiles
    small = rd.from_arrow(pa.table({
        "rid": pa.array([0, 1], pa.int64()),
        "k": pa.array([9, 9], pa.int64()),
        "v": pa.array([5, 3], pa.int64()),
    }))
    out = ops.window_ntile(small, key="k", order_cols=["v", "rid"], n_tiles=4).to_pandas()
    assert sorted(out["tile"].tolist()) == [1, 2]


def test_rollup_sum_vs_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    rng = np.random.default_rng(23)
    n = 3000
    t = pa.table(
        {
            "a": pa.array(rng.choice(["x", "y", "z"], n)),
            "b": pa.array(rng.integers(0, 4, n).astype(np.int64)),
            "v": pa.array(rng.integers(-50, 100, n).astype(np.int64)),
        }
    )
    out = ops.rollup_sum(
        rd.from_arrow(t).repartition(6), keys=["a", "b"], value_col="v"
    ).to_pandas()
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    exp = con.execute(
        "SELECT a, b, CAST(SUM(v) AS BIGINT) AS total FROM t GROUP BY ROLLUP(a, b)"
    ).fetchdf()
    key = lambda df: sorted(
        (str(r["a"]), str(r["b"]), int(r["total"]))
        for _, r in df.astype({"total": "int64"}).iterrows()
    )
    # normalize NULL markers: engine emits pa nulls → pandas None/NaN
    assert key(out.fillna("NULL").replace({"nan": "NULL"})) == \
        key(exp.fillna("NULL"))
    assert len(out) == len(exp)


def test_window_percent_rank_cume_dist_vs_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    rng = np.random.default_rng(29)
    n = 2500
    t = pa.table(
        {
            "rid": pa.array(np.arange(n, dtype=np.int64)),
            "k": pa.array(rng.integers(0, 31, n).astype(np.int64)),
            "v": pa.array(rng.integers(0, 20, n).astype(np.int64)),  # heavy ties
        }
    )
    ds = rd.from_arrow(t).repartition(5)
    got_p = ops.window_percent_rank(ds, key="k", order_cols=["v"]).to_pandas()
    got_c = ops.window_cume_dist(ds, key="k", order_cols=["v"]).to_pandas()
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    exp_p = con.execute(
        "SELECT rid, PERCENT_RANK() OVER (PARTITION BY k ORDER BY v) AS pct_rank FROM t"
    ).fetchdf()
    exp_c = con.execute(
        "SELECT rid, CUME_DIST() OVER (PARTITION BY k ORDER BY v) AS cume_dist FROM t"
    ).fetchdf()
    gp = got_p.set_index("rid")["pct_rank"].to_dict()
    ep = exp_p.set_index("rid")["pct_rank"].to_dict()
    assert all(gp[r] == ep[r] for r in ep)
    gc = got_c.set_index("rid")["cume_dist"].to_dict()
    ec = exp_c.set_index("rid")["cume_dist"].to_dict()
    assert all(gc[r] == ec[r] for r in ec)
    # single-row key: PERCENT_RANK is 0, CUME_DIST is 1
    one = rd.from_arrow(pa.table({
        "rid": pa.array([0], pa.int64()),
        "k": pa.array([99], pa.int64()),
        "v": pa.array([7], pa.int64()),
    }))
    assert ops.window_percent_rank(one, key="k", order_cols=["v"]).to_pandas()[
        "pct_rank"
    ].tolist() == [0.0]
    assert ops.window_cume_dist(one, key="k", order_cols=["v"]).to_pandas()[
        "cume_dist"
    ].tolist() == [1.0]


def test_grouped_corr_mode_vs_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    rng = np.random.default_rng(31)
    n = 4000
    x = rng.integers(0, 100, n).astype(np.int64)
    t = pa.table(
        {
            "k": pa.array(rng.integers(0, 7, n).astype(np.int64)),
            "x": pa.array(x),
            # correlated-with-noise so corr is non-degenerate
            "y": pa.array(x * 2 + rng.integers(-30, 30, n).astype(np.int64)),
        }
    )
    ds = rd.from_arrow(t).repartition(6)
    got_r = ops.grouped_corr(ds, key="k", x_col="x", y_col="y").to_pandas()
    got_m = ops.grouped_mode(ds, key="k", value_col="x").to_pandas()
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    exp_r = con.execute(
        "SELECT k, corr(x, y) AS corr FROM t GROUP BY k"
    ).fetchdf()
    exp_m = con.execute(
        """SELECT k, mode, n FROM (
             SELECT k, x AS mode, COUNT(*) AS n,
                    ROW_NUMBER() OVER (PARTITION BY k ORDER BY COUNT(*) DESC, x) rn
             FROM t GROUP BY k, x) WHERE rn = 1"""
    ).fetchdf()
    gr = got_r.set_index("k")["corr"].to_dict()
    er = exp_r.set_index("k")["corr"].to_dict()
    assert set(gr) == set(er)
    for k in er:
        assert abs(gr[k] - er[k]) < 1e-12
    gm = got_m.set_index("k")[["mode", "n"]].astype("int64")
    em = exp_m.set_index("k")[["mode", "n"]].astype("int64")
    assert gm.sort_index().values.tolist() == em.sort_index().values.tolist()
    # constant column: corr undefined -> NaN on both sides
    cst = rd.from_arrow(pa.table({
        "k": pa.array([1, 1, 1], pa.int64()),
        "x": pa.array([5, 5, 5], pa.int64()),
        "y": pa.array([1, 2, 3], pa.int64()),
    }))
    r = ops.grouped_corr(cst, key="k", x_col="x", y_col="y").to_pandas()
    assert np.isnan(r["corr"].iloc[0])


def test_set_op_distinct_except_intersect(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(37)
    a_keys = rng.integers(0, 500, 3000).astype(np.int64)
    b_keys = rng.integers(250, 750, 3000).astype(np.int64)
    da = rd.from_arrow(pa.table({"k": pa.array(a_keys)})).repartition(4)
    db = rd.from_arrow(pa.table({"k": pa.array(b_keys)})).repartition(4)
    got_e = sorted(ops.set_op_distinct(da, db, keys="k", op="except").to_pandas()["k"])
    got_i = sorted(
        ops.set_op_distinct(da, db, keys="k", op="intersect").to_pandas()["k"]
    )
    sa, sb = set(a_keys.tolist()), set(b_keys.tolist())
    assert got_e == sorted(sa - sb)
    assert got_i == sorted(sa & sb)
    # composite string+int keys
    da2 = rd.from_arrow(pa.table({
        "s": pa.array(["a", "a", "b", "c"]),
        "i": pa.array([1, 1, 2, 3], pa.int64()),
    }))
    db2 = rd.from_arrow(pa.table({
        "s": pa.array(["a", "c"]),
        "i": pa.array([1, 9], pa.int64()),
    }))
    out = ops.set_op_distinct(da2, db2, keys=["s", "i"], op="except").to_pandas()
    assert sorted(map(tuple, out[["s", "i"]].values.tolist())) == [("b", 2), ("c", 3)]


def test_equi_join_partitioned_semi_anti(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(41)
    lk = rng.integers(0, 300, 2000).astype(np.int64)
    rk = rng.integers(150, 450, 1500).astype(np.int64)
    left = rd.from_arrow(pa.table({
        "k": pa.array(lk),
        "lv": pa.array(np.arange(2000, dtype=np.int64)),
    })).repartition(4)
    right = rd.from_arrow(pa.table({
        "k2": pa.array(rk),
        "rv": pa.array(np.arange(1500, dtype=np.int64)),
    })).repartition(3)
    got_s = ops.equi_join_partitioned(
        left, right, on="k", right_on="k2", how="semi"
    ).to_pandas()
    got_a = ops.equi_join_partitioned(
        left, right, on="k", right_on="k2", how="anti"
    ).to_pandas()
    rset = set(rk.tolist())
    exp_s = sorted(int(v) for k, v in zip(lk, range(2000)) if int(k) in rset)
    exp_a = sorted(int(v) for k, v in zip(lk, range(2000)) if int(k) not in rset)
    assert sorted(got_s["lv"].tolist()) == exp_s
    assert sorted(got_a["lv"].tolist()) == exp_a
    # left rows emitted at most once regardless of right key multiplicity
    assert len(got_s) + len(got_a) == 2000
    # output schema is the left schema only
    assert sorted(got_s.columns) == ["k", "lv"]
    # salted semi/anti must match unsalted
    got_s2 = ops.equi_join_partitioned(
        left, right, on="k", right_on="k2", how="semi", n_salt=4
    ).to_pandas()
    assert sorted(got_s2["lv"].tolist()) == exp_s


def test_grouped_string_agg_vs_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    rng = np.random.default_rng(43)
    n = 3000
    vals = np.array(["alpha", "bee", "ce", "dl", "e5"])[rng.integers(0, 5, n)]
    # plant nulls: SQL STRING_AGG skips them
    vals = vals.astype(object)
    vals[rng.random(n) < 0.05] = None
    t = pa.table(
        {
            "k": pa.array([f"key{int(i)}" for i in rng.integers(0, 97, n)]),
            "v": pa.array(vals, pa.string()),
            "o": pa.array(rng.permutation(n).astype(np.int64)),
        }
    )
    out = ops.grouped_string_agg(
        rd.from_arrow(t).repartition(5), key="k", value_col="v",
        order_cols=["o"], sep="|", out_col="s",
    ).to_pandas()
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    exp = con.execute(
        "SELECT k, STRING_AGG(v, '|' ORDER BY o) AS s FROM t "
        "WHERE v IS NOT NULL GROUP BY k"
    ).fetchdf()
    assert out.set_index("k")["s"].to_dict() == exp.set_index("k")["s"].to_dict()


def test_time_gap_fill_dense_ranges(ray_session):
    import ray.data as rd

    t = pa.table(
        {
            "k": pa.array([1, 1, 1, 2, 2, 3], pa.int64()),
            "b": pa.array([10, 10, 14, -3, -1, 7], pa.int64()),
        }
    )
    out = (
        ops.time_gap_fill(rd.from_arrow(t).repartition(3), key="k",
                          bucket_col="b")
        .to_pandas()
        .sort_values(["k", "b"])
        .reset_index(drop=True)
    )
    rows = list(map(tuple, out[["k", "b", "n"]].values.tolist()))
    assert rows == [
        (1, 10, 2), (1, 11, 0), (1, 12, 0), (1, 13, 0), (1, 14, 1),
        (2, -3, 1), (2, -2, 0), (2, -1, 1),
        (3, 7, 1),
    ]
    # totals preserved: filled zeros add nothing
    assert out["n"].sum() == 6


def test_window_row_number_lead_unpivot_vs_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    rng = np.random.default_rng(47)
    n = 2000
    t = pa.table(
        {
            "rid": pa.array(np.arange(n, dtype=np.int64)),
            "k": pa.array(rng.integers(0, 29, n).astype(np.int64)),
            "v": pa.array(rng.normal(size=n)),
            "o": pa.array(rng.permutation(n).astype(np.int64)),
        }
    )
    ds = rd.from_arrow(t).repartition(5)
    got_rn = ops.window_row_number(ds, key="k", order_cols=["o"]).to_pandas()
    got_ld = ops.window_lead(ds, key="k", order_cols=["o"], value_col="v").to_pandas()
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    exp_rn = con.execute(
        "SELECT rid, ROW_NUMBER() OVER (PARTITION BY k ORDER BY o) AS rn FROM t"
    ).fetchdf()
    exp_ld = con.execute(
        "SELECT rid, LEAD(v) OVER (PARTITION BY k ORDER BY o) AS ld FROM t"
    ).fetchdf()
    assert got_rn.set_index("rid")["row_number"].to_dict() == \
        exp_rn.set_index("rid")["rn"].to_dict()
    gl = got_ld.set_index("rid")["lead_value"]
    el = exp_ld.set_index("rid")["ld"]
    for r in el.index:
        a, b = gl[r], el[r]
        assert (pd_isna(a) and pd_isna(b)) or a == b
    # unpivot: wide -> long, ints cast to double
    t2 = pa.table({
        "id": pa.array([1, 2], pa.int64()),
        "a": pa.array([10, 20], pa.int32()),
        "b": pa.array([1.5, 2.5]),
    })
    out = ops.unpivot(
        rd.from_arrow(t2), id_cols=["id"], value_cols=["a", "b"]
    ).to_pandas()
    rows = sorted(map(tuple, out[["id", "variable", "value"]].values.tolist()))
    assert rows == [
        (1, "a", 10.0), (1, "b", 1.5), (2, "a", 20.0), (2, "b", 2.5)
    ]


def pd_isna(x):
    import pandas as _pd

    return _pd.isna(x)


def test_pack_sequences_tiles_the_stream(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(53)
    n = 3000
    lens = rng.integers(1, 900, n).astype(np.int64)
    t = pa.table(
        {"doc_id": pa.array(np.arange(n, dtype=np.int64)),
         "n_tok": pa.array(lens)}
    )
    out = ops.pack_sequences(
        rd.from_arrow(t).repartition(7), id_col="doc_id", len_col="n_tok",
        budget=4096,
    ).to_pandas()
    assert len(out) == n
    # reconstruct global offsets: docs must tile [0, sum(lens)) exactly
    goff = (out["pack_id"] * 4096 + out["pack_offset"]).to_numpy()
    order = np.argsort(goff)
    goff_s = goff[order]
    lens_s = out["n_tok"].to_numpy()[order]
    assert goff_s[0] == 0
    assert (np.diff(goff_s) == lens_s[:-1]).all()
    assert goff_s[-1] + lens_s[-1] == lens.sum()
    # deterministic across runs
    out2 = ops.pack_sequences(
        rd.from_arrow(t).repartition(3), id_col="doc_id", len_col="n_tok",
        budget=4096,
    ).to_pandas()
    a = out.sort_values("doc_id").reset_index(drop=True)
    b = out2.sort_values("doc_id").reset_index(drop=True)
    assert (a["pack_id"] == b["pack_id"]).all()
    assert (a["pack_offset"] == b["pack_offset"]).all()


def test_json_extract_scalar_types_and_nulls(ray_session):
    import ray.data as rd

    t = pa.table({
        "id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "j": pa.array([
            '{"k": 87, "s": "ab", "f": 1.5}',
            '{"k": -5}',
            '{"other": 1}',
            None,
            '{ "k" : 12 , "s" : "c d" }',
        ]),
    })
    ds = rd.from_arrow(t)
    got_i = ops.json_extract_scalar(ds, "j", "k", as_type="int").to_pandas()
    got_s = ops.json_extract_scalar(ds, "j", "s", as_type="string").to_pandas()
    got_f = ops.json_extract_scalar(ds, "j", "f", as_type="double").to_pandas()
    ki = got_i.set_index("id")["k"]
    assert ki[1] == 87 and ki[2] == -5 and ki[5] == 12
    assert pd_isna(ki[3]) and pd_isna(ki[4])
    ks = got_s.set_index("id")["s"]
    assert ks[1] == "ab" and ks[5] == "c d" and pd_isna(ks[2])
    kf = got_f.set_index("id")["f"]
    assert kf[1] == 1.5 and pd_isna(kf[2])


def test_exact_quantiles_cont_matches_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    rng = np.random.default_rng(59)
    vals = rng.integers(0, 200, 5000).astype(np.int64)
    t = pa.table({"v": pa.array(vals)})
    qs = [0.0, 0.1, 0.5, 0.777, 0.99, 1.0]
    out = ops.exact_quantiles_cont(
        rd.from_arrow(t).repartition(6), "v", qs
    ).to_pandas().set_index("q")["v"]
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    for q in qs:
        exp = con.execute(
            f"SELECT quantile_cont(CAST(v AS DOUBLE), {q}) FROM t"
        ).fetchone()[0]
        assert out[q] == exp, (q, out[q], exp)


def test_null_key_semantics_semi_anti_setop_stringagg(ray_session):
    import duckdb
    import ray.data as rd

    # semi/anti: SQL equality never matches NULL = NULL
    left = rd.from_arrow(pa.table({
        "k": pa.array([1, None, 3, None], pa.int64()),
        "lv": pa.array([10, 20, 30, 40], pa.int64()),
    }))
    right = rd.from_arrow(pa.table({
        "k2": pa.array([1, None], pa.int64()),
    }))
    semi = ops.equi_join_partitioned(
        left, right, on="k", right_on="k2", how="semi"
    ).to_pandas()
    anti = ops.equi_join_partitioned(
        left, right, on="k", right_on="k2", how="anti"
    ).to_pandas()
    assert sorted(semi["lv"].tolist()) == [10]
    assert sorted(anti["lv"].tolist()) == [20, 30, 40]
    # set ops: NULL keys are ONE distinct key (SQL EXCEPT/INTERSECT),
    # and key dtype survives (no numpy float promotion)
    a = rd.from_arrow(pa.table({"k": pa.array([1, None, None, 2], pa.int64())}))
    b = rd.from_arrow(pa.table({"k": pa.array([2, None], pa.int64())}))
    ex = ops.set_op_distinct(a, b, keys="k", op="except").to_pandas()
    ix = ops.set_op_distinct(a, b, keys="k", op="intersect").to_pandas()
    assert ex["k"].tolist() == [1]
    assert str(ex["k"].dtype) in ("int64", "Int64")
    got_ix = {("N" if pd_isna(v) else int(v)) for v in ix["k"]}
    assert got_ix == {2, "N"}
    # string_agg: NULL keys form their own group, not merged into the prior key
    t = pa.table({
        "k": pa.array([1, None, None], pa.int64()),
        "v": pa.array(["a", "b", "c"]),
        "o": pa.array([0, 1, 2], pa.int64()),
    })
    out = ops.grouped_string_agg(
        rd.from_arrow(t), key="k", value_col="v", order_cols=["o"]
    ).to_pandas()
    by = {("N" if pd_isna(r["k"]) else int(r["k"])): r["agg"]
          for _, r in out.iterrows()}
    assert by == {1: "a", "N": "b,c"}


def test_quantiles_ignore_nulls_and_json_int_rounding(ray_session):
    import duckdb
    import ray.data as rd

    t = pa.table({"v": pa.array([1.0, 2.0, None, None])})
    ds = rd.from_arrow(t)
    disc = ops.exact_quantiles(ds, "v", [0.5]).to_pandas()
    cont = ops.exact_quantiles_cont(ds, "v", [0.5]).to_pandas()
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    assert disc["v"].iloc[0] == con.execute(
        "SELECT quantile_disc(v, 0.5) FROM t"
    ).fetchone()[0]
    assert cont["v"].iloc[0] == con.execute(
        "SELECT quantile_cont(v, 0.5) FROM t"
    ).fetchone()[0]
    # empty input -> empty or null result, never a crash
    empty = rd.from_arrow(pa.table({"v": pa.array([], pa.float64())}))
    res = ops.exact_quantiles_cont(empty, "v", [0.5]).to_pandas()
    assert len(res) == 0 or pd_isna(res["v"].iloc[0])
    # json int: fractional value rounds half-away like CAST(x AS BIGINT)
    j = rd.from_arrow(pa.table({
        "id": pa.array([1, 2, 3], pa.int64()),
        "p": pa.array(['{"k": 1.5}', '{"k": -2.5}', '{"k": 7}']),
    }))
    got = ops.json_extract_scalar(j, "p", "k", as_type="int").to_pandas()
    assert got.set_index("id")["k"].tolist() == [2, -3, 7]


def test_mixture_sample_rates_and_nesting(ray_session):
    import ray.data as rd

    n = 4000
    rows = [
        {"k": i, "grp": ["web", "books", "code", "junk"][i % 4]}
        for i in range(n)
    ]
    ds = rd.from_items(rows)
    lo = ops.mixture_sample(
        ds, "k", "grp", {"web": 0.25, "books": 1.0, "junk": 0.0},
        default_rate=0.5,
    ).to_pandas()
    # exact domains: books all kept, junk all dropped
    assert (lo["grp"] == "books").sum() == n // 4
    assert (lo["grp"] == "junk").sum() == 0
    # fractional domains land near their rate (hash-uniform, n/4=1000)
    web = (lo["grp"] == "web").sum()
    code = (lo["grp"] == "code").sum()  # unlisted -> default 0.5
    assert 180 < web < 320 and 400 < code < 600, (web, code)
    # nested property: raising web's rate only ADDS rows
    hi = ops.mixture_sample(
        ds, "k", "grp", {"web": 0.75, "books": 1.0, "junk": 0.0},
        default_rate=0.5,
    ).to_pandas()
    assert set(lo["k"]) <= set(hi["k"])


def test_equi_join_partitioned_composite_keys(ray_session):
    import ray.data as rd

    left = rd.from_items(
        [
            {"a": 1, "b": 10, "lv": "x"},
            {"a": 1, "b": 11, "lv": "y"},
            {"a": 2, "b": 10, "lv": "z"},
            {"a": None, "b": 10, "lv": "n"},  # NULL key never matches
        ]
    )
    right = rd.from_items(
        [
            {"ra": 1, "rb": 10, "rv": "R1"},
            {"ra": 1, "rb": 10, "rv": "R2"},  # duplicate key -> fan-out
            {"ra": 2, "rb": 99, "rv": "R3"},
            {"ra": None, "rb": 10, "rv": "RN"},
        ]
    )
    kw = dict(on=["a", "b"], right_on=["ra", "rb"], n_buckets=4)
    inner = ops.equi_join_partitioned(left, right, how="inner", **kw).to_pandas()
    assert sorted(inner["rv"]) == ["R1", "R2"]
    assert (inner["lv"] == "x").all()
    semi = ops.equi_join_partitioned(left, right, how="semi", **kw).to_pandas()
    assert sorted(semi["lv"]) == ["x"]  # emitted ONCE despite 2 matches
    anti = ops.equi_join_partitioned(left, right, how="anti", **kw).to_pandas()
    assert sorted(anti["lv"]) == ["n", "y", "z"]  # NULL-key row kept
    outer = ops.equi_join_partitioned(left, right, how="outer", **kw).to_pandas()
    # 2 matches for x + 3 unmatched left + 2 unmatched right
    assert len(outer) == 7
    assert outer["rv"].notna().sum() == 4  # R1 R2 R3 RN all present


def test_pip_zonal_stats_skips_null_values(ray_session):
    """SQL aggregates skip NULLs: a null value row inside a polygon must
    not poison sum/min/max/avg (astype would have made it NaN)."""
    import ray.data as rd

    from georay import joins
    from georay.codecs import native
    from georay.types import GeoType

    geo = GeoType.point(crs="OGC:CRS84")
    pt = native.build_points(
        np.array([[0.5, 0.5], [0.6, 0.6], [0.7, 0.7]]), geo
    )
    pts = pa.table(
        {"image_id": pa.array([1, 2, 3], pa.int64()),
         "val": pa.array([10.0, None, 30.0], pa.float64())}
    ).append_column(geo.field("geotag"), pt)
    # one unit-square polygon containing all three points
    ring = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], float)
    pg = GeoType.polygon(crs="OGC:CRS84")
    poly = native.build_nested(
        ring, [np.array([0, 1]), np.array([0, 5])], pg
    )
    polys = pa.table({"polygon_id": pa.array([7], pa.int64())}).append_column(
        pg.field("geometry"), poly
    )
    out = joins.pip_zonal_stats(
        rd.from_arrow(pts), polys, value_col="val"
    ).to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    assert r["n"] == 2 and r["v_sum"] == 40.0
    assert r["v_min"] == 10.0 and r["v_max"] == 30.0 and r["v_avg"] == 20.0


def test_nearest_segment_join_hand(ray_session):
    """Interior projection, endpoint clamp, exact tie (lower seg_id
    wins), and a probe far past both chunk boundaries."""
    import ray.data as rd

    from georay import joins

    segs = pa.table(
        {
            # seg 1: x-axis from (0,0) to (10,0); seg 2: vertical x=20
            "seg_id": pa.array([1, 2], pa.int64()),
            "ax": pa.array([0.0, 20.0]),
            "ay": pa.array([0.0, -5.0]),
            "bx": pa.array([10.0, 20.0]),
            "by": pa.array([0.0, 5.0]),
        }
    )
    pts = pa.table(
        {
            "pid": pa.array([0, 1, 2, 3], pa.int64()),
            # interior proj onto seg 1 (d=3); clamp to seg-1 endpoint
            # (10,0) from (13,4) (d=5); equidistant from both (tie ->
            # seg 1); nearest to seg 2 interior (d=1)
            "lon": pa.array([4.0, 13.0, 15.0, 21.0]),
            "lat": pa.array([3.0, 4.0, 0.0, 0.0]),
        }
    )
    out = (
        joins.nearest_segment_join(
            rd.from_arrow(pts), segs, x_col="lon", y_col="lat",
            point_chunk=2, seg_chunk=1,
        )
        .to_pandas().sort_values("pid").reset_index(drop=True)
    )
    s = 1 << 20
    assert out["seg_id"].tolist() == [1, 1, 1, 2]
    assert out["d2_q"].tolist() == [9 * s, 25 * s, 25 * s, 1 * s]

    # zero-length segments are rejected
    bad = pa.table(
        {
            "seg_id": pa.array([9], pa.int64()),
            "ax": pa.array([1.0]), "ay": pa.array([1.0]),
            "bx": pa.array([1.0]), "by": pa.array([1.0]),
        }
    )
    with pytest.raises(ValueError):
        joins.nearest_segment_join(rd.from_arrow(pts), bad)


def test_nearest_segment_partitioned_matches_broadcast(ray_session):
    """Partitioned twin == broadcast twin (seg id, quantized d2) for
    every point whose nearest segment is within max_radius; points
    beyond the radius are dropped."""
    import ray.data as rd

    from georay import joins

    rng = np.random.default_rng(7)
    ns, npts = 60, 500
    ax = rng.uniform(-170, 160, ns)
    ay = rng.uniform(-80, 70, ns)
    segs = pa.table(
        {
            "seg_id": pa.array(np.arange(ns, dtype=np.int64)),
            "ax": pa.array(ax),
            "ay": pa.array(ay),
            "bx": pa.array(ax + rng.uniform(0.1, 3.0, ns)),
            "by": pa.array(ay + rng.uniform(-3.0, 3.0, ns)),
        }
    )
    pts = pa.table(
        {
            "pid": pa.array(np.arange(npts, dtype=np.int64)),
            "lon": pa.array(rng.uniform(-175, 170, npts)),
            "lat": pa.array(rng.uniform(-85, 80, npts)),
        }
    )
    radius = 25.0
    brd = (
        joins.nearest_segment_join(rd.from_arrow(pts), segs)
        .to_pandas().sort_values("pid").reset_index(drop=True)
    )
    part = (
        joins.nearest_segment_join_partitioned(
            rd.from_arrow(pts), rd.from_arrow(segs), radius,
            point_id_col="pid", res=10.0,
        )
        .to_pandas().sort_values("pid").reset_index(drop=True)
    )
    s = 1 << 20
    within = brd[brd["d2_q"] <= int(radius * radius * s)]
    assert len(part) == len(within) > 0.3 * npts
    assert part["pid"].tolist() == within["pid"].tolist()
    assert part["seg_id"].tolist() == within["seg_id"].tolist()
    assert part["d2_q"].tolist() == within["d2_q"].tolist()


def test_count_min_sketch_overestimate_and_exact(ray_session):
    """CMS estimates are one-sided (>= exact count) and exact for every
    key when width far exceeds the key domain (no collisions); width
    must be a power of two. The narrow sketch's counters and estimates
    equal a pure-Python reference of the row hash
    ``mix64(k + r·inc) & (width-1)``, and estimating raises no
    overflow warning."""
    import warnings

    import ray.data as rd

    from georay import ops

    rng = np.random.default_rng(3)
    keys = rng.integers(0, 40, 5000).astype(np.int64)
    tbl = pa.table({"k": pa.array(keys)})
    ds = rd.from_arrow(tbl).repartition(4)
    sk = pa.Table.from_pandas(
        ops.count_min_sketch(ds, "k", width=4096, depth=3).to_pandas(),
        preserve_index=False,
    )
    probe = np.arange(40, dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        est = ops.cms_estimate(sk, probe, width=4096, depth=3)
    exact = np.bincount(keys, minlength=40)
    assert np.all(est >= exact)
    assert np.array_equal(est, exact)  # 40 keys into 4096 slots x3 rows

    # narrow sketch: still an overestimate, never an underestimate
    sk2 = pa.Table.from_pandas(
        ops.count_min_sketch(ds, "k", width=16, depth=2).to_pandas(),
        preserve_index=False,
    )
    est2 = ops.cms_estimate(sk2, probe, width=16, depth=2)
    assert np.all(est2 >= exact)
    assert est2.sum() > exact.sum()  # collisions must exist at width 16

    def ref_slot(k, r, width):
        h = (k + r * 0x9E3779B97F4A7C15) % 2**64
        h ^= h >> 33
        h = h * 0xFF51AFD7ED558CCD % 2**64
        return (h ^ (h >> 33)) & (width - 1)

    dense = np.zeros((2, 16), np.int64)
    for r in range(2):
        for k in keys.tolist():
            dense[r, ref_slot(k, r, 16)] += 1
    got = np.zeros((2, 16), np.int64)
    got[sk2["r"].to_numpy(), sk2["slot"].to_numpy()] = sk2["n"].to_numpy()
    assert np.array_equal(got, dense)
    want = [min(dense[r, ref_slot(k, r, 16)] for r in range(2)) for k in range(40)]
    assert est2.tolist() == want

    with pytest.raises(ValueError):
        ops.count_min_sketch(ds, "k", width=1000)


def test_add_regex_extract_typed_and_null(ray_session):
    import ray.data as rd

    from georay import ops

    tbl = pa.table(
        {
            "s": pa.array(['{"k": 42}', '{"k": -7}', "no match", None]),
        }
    )
    out = (
        ops.add_regex_extract(
            rd.from_arrow(tbl), "s", r'"k":\s*(?P<v>-?\d+)', "v",
            cast=pa.int64(),
        )
        .to_pandas()
    )
    assert out["v"].tolist()[:2] == [42, -7]
    assert out["v"].isna().tolist() == [False, False, True, True]


def test_rasterize_boxes_exact_areas(ray_session):
    """A box spanning 4 cells splits its area exactly; a cell-interior
    box lands whole in one cell; a box whose edge sits ON a grid line
    contributes no zero-width cell."""
    import ray.data as rd

    from georay import ops

    tbl = pa.table(
        {
            # box A: [-5,5]x[-5,5] on a 10-deg grid -> 4 corner cells, 25 each
            # box B: [1,3]x[2,4] -> one cell, area 4
            # box C: [0,10]x[0,10] -> exactly cell (18,9), area 100
            "xmin": pa.array([-5.0, 1.0, 0.0]),
            "ymin": pa.array([-5.0, 2.0, 0.0]),
            "xmax": pa.array([5.0, 3.0, 10.0]),
            "ymax": pa.array([5.0, 4.0, 10.0]),
        }
    )
    out = (
        ops.rasterize_boxes(rd.from_arrow(tbl), "xmin", "ymin", "xmax", "ymax", 10.0)
        .to_pandas().sort_values(["gx", "gy"]).reset_index(drop=True)
    )
    s = 1 << 20
    rows = {(r.gx, r.gy): (r.n_boxes, r.area_q) for r in out.itertuples()}
    assert rows[(17, 8)] == (1, 25 * s)
    assert rows[(17, 9)] == (1, 25 * s)
    assert rows[(18, 8)] == (1, 25 * s)
    # cell (18,9) gets A's quarter + B (area 4) + C (area 100)
    assert rows[(18, 9)] == (3, (25 + 4 + 100) * s)
    assert len(rows) == 4  # no zero-width edge cells from box C


def test_k_anonymity_and_digit_histogram(ray_session):
    import ray.data as rd

    from georay import ops

    tbl = pa.table(
        {
            "a": pa.array([1, 1, 1, 2, 2, 3], pa.int64()),
            "b": pa.array(["x", "x", "x", "y", "y", "z"]),
        }
    )
    out = ops.k_anonymity_stats(rd.from_arrow(tbl), ["a", "b"], k=3).to_pandas()
    # classes: (1,x)=3 safe; (2,y)=2 and (3,z)=1 below k=3
    assert out["n_small_groups"].tolist() == [2]
    assert out["n_rows_at_risk"].tolist() == [3]

    vals = pa.table({"v": pa.array([1, 19, 150, 2, 25, 9, 900], pa.int64())})
    dh = (
        ops.digit_histogram(rd.from_arrow(vals), "v")
        .to_pandas().sort_values("digit").reset_index(drop=True)
    )
    assert dh.values.tolist() == [[1, 3], [2, 2], [9, 2]]


def test_gini_exact_known_values(ray_session):
    import ray.data as rd

    from georay import ops

    # perfectly equal distribution -> G = 0
    eq = rd.from_arrow(pa.table({"x": pa.array([5.0] * 10)}))
    out = ops.gini_exact(eq, "x").to_pandas()
    assert out["gini_num"].iloc[0] == 0

    # [0,0,0,10]: G = (2*(4*1000) - 5*1000) / (4*1000) = 3/4
    skew = rd.from_arrow(pa.table({"x": pa.array([0.0, 0.0, 0.0, 10.0])}))
    out2 = ops.gini_exact(skew, "x").to_pandas()
    assert out2["gini_num"].iloc[0] * 4 == out2["gini_den"].iloc[0] * 3

    # empty input -> 0/0 sentinel row
    empty = rd.from_arrow(pa.table({"x": pa.array([], pa.float64())}))
    out3 = ops.gini_exact(empty, "x").to_pandas()
    assert out3.values.tolist() == [[0, 0]]


def test_except_all_multiplicities(ray_session):
    import ray.data as rd

    from georay import ops

    left = pa.table({"k": pa.array([1, 1, 1, 2, 3], pa.int64())})
    right = pa.table({"k": pa.array([1, 2, 2, 4], pa.int64())})
    out = (
        ops.except_all(rd.from_arrow(left), rd.from_arrow(right), ["k"])
        .to_pandas()["k"].sort_values().tolist()
    )
    # 1: 3-1=2 copies; 2: 1-2 -> 0; 3: 1-0=1; 4 only right -> absent
    assert out == [1, 1, 3]

    inter = (
        ops.intersect_all(rd.from_arrow(left), rd.from_arrow(right), ["k"])
        .to_pandas()["k"].sort_values().tolist()
    )
    # 1: min(3,1)=1; 2: min(1,2)=1; 3 and 4: one side only -> absent
    assert inter == [1, 2]


def test_winsorize_clamps_to_group_quantiles(ray_session):
    import ray.data as rd

    from georay import ops

    # key 1: values 1..10 -> disc q[0.1]=1? use q 0.2/0.8 -> lo=2, hi=8
    tbl = pa.table(
        {
            "k": pa.array([1] * 10 + [2] * 3, pa.int64()),
            "v": pa.array([float(i) for i in range(1, 11)] + [5.0, 6.0, 7.0]),
        }
    )
    out = (
        ops.winsorize(rd.from_arrow(tbl), "k", "v", q_lo=0.2, q_hi=0.8)
        .to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
    )
    g1 = out[out["k"] == 1]["v_w"].tolist()
    assert min(g1) == 2.0 and max(g1) == 8.0
    assert g1[2:8] == [3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    # group 2 untouched inside its own bounds
    assert out[out["k"] == 2]["v_w"].tolist() == [5.0, 6.0, 7.0]


def test_mad_outliers_robust_to_single_wild_value(ray_session):
    import ray.data as rd

    from georay import ops

    # 9 values near 10 plus one wild 1000: median 10, MAD small,
    # only the wild value flags. A z-score threshold would have been
    # inflated by the outlier itself.
    tbl = pa.table(
        {
            "k": pa.array([1] * 10, pa.int64()),
            "v": pa.array([9.0, 9.5, 10.0, 10.0, 10.0, 10.5, 10.5, 11.0, 9.5, 1000.0]),
        }
    )
    out = ops.mad_outliers(rd.from_arrow(tbl), "k", "v", k=3.0).to_pandas()
    assert out["n"].tolist() == [10]
    assert out["n_outliers"].tolist() == [1]


def test_snapshot_diff_classification(ray_session):
    import ray.data as rd

    from georay import ops

    old = pa.table(
        {
            "k": pa.array([1, 2, 3, 4], pa.int64()),
            "v": pa.array([1.0, 2.0, 3.0, 4.0]),
        }
    )
    # 1 unchanged, 2 changed, 3 removed, 5 added
    new = pa.table(
        {
            "k": pa.array([1, 2, 4, 5], pa.int64()),
            "v": pa.array([1.0, 2.5, 4.0, 9.0]),
        }
    )
    out = ops.snapshot_diff(
        rd.from_arrow(old), rd.from_arrow(new), "k", "v", n_buckets=4
    ).to_pandas()
    assert out[["n_added", "n_removed", "n_changed", "n_unchanged"]].values.tolist() == [
        [1, 1, 1, 2]
    ]

    dup = pa.table({"k": pa.array([7, 7], pa.int64()), "v": pa.array([1.0, 2.0])})
    with pytest.raises(Exception):
        ops.snapshot_diff(
            rd.from_arrow(dup), rd.from_arrow(new), "k", "v", n_buckets=2
        ).to_pandas()


def test_split_dataset_stability_and_proportions(ray_session):
    import ray.data as rd

    from georay import ops

    ids = pa.table({"rid": pa.array(np.arange(1, 20001, dtype=np.int64))})
    fr = {"train": 0.8, "val": 0.1, "test": 0.1}
    out = ops.split_dataset(rd.from_arrow(ids), "rid", fr).to_pandas()
    frac = out["split"].value_counts(normalize=True)
    assert abs(frac["train"] - 0.8) < 0.02
    assert abs(frac["val"] - 0.1) < 0.01
    # stability: a subset keeps its assignments (new data never moves old rows)
    sub = ops.split_dataset(
        rd.from_arrow(ids.slice(0, 5000)), "rid", fr
    ).to_pandas()
    full = out.set_index("rid").loc[sub["rid"]]["split"].tolist()
    assert full == sub["split"].tolist()

    with pytest.raises(ValueError):
        ops.split_dataset(rd.from_arrow(ids), "rid", {"a": 0.5, "b": 0.4})


def test_snapshot_changes_rows(ray_session):
    import ray.data as rd

    from georay import ops

    old = pa.table(
        {"k": pa.array([1, 2, 3], pa.int64()), "v": pa.array([1.0, 2.0, 3.0])}
    )
    new = pa.table(
        {"k": pa.array([1, 2, 9], pa.int64()), "v": pa.array([1.0, 9.9, 5.0])}
    )
    out = (
        ops.snapshot_changes(rd.from_arrow(old), rd.from_arrow(new), "k", "v",
                             n_buckets=4)
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    assert out.values.tolist() == [[2, "changed"], [3, "removed"], [9, "added"]]


def test_grouped_moments_exact(ray_session):
    import ray.data as rd

    from georay import ops

    tbl = pa.table(
        {
            "k": pa.array(["a", "a", "b"], ),
            "v": pa.array([1.5, 2.5, -3.0]),
        }
    )
    out = (
        ops.grouped_moments(rd.from_arrow(tbl), "k", "v", quantize=10.0)
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    # a: vq 15, 25 -> n 2, sum 40, sumsq 850; b: vq -30 -> sum -30, sumsq 900
    assert out.values.tolist() == [["a", 2, 40, 850], ["b", 1, -30, 900]]


def test_str_rtree_matches_grid_index(images_dir, ray_session):
    """STR-packed R-tree returns the IDENTICAL PIP match set as the
    grid index (shared exact kernel, different candidate generation),
    through both the raw index API and pip_join end-to-end."""
    import ray.data as rd

    from georay import generate
    from georay.index import PolygonIndex, STRPolygonIndex
    from georay.joins import pip_join

    polys = generate.make_polygons_table(300, seed=7)
    grid = PolygonIndex.build(polys)
    st = STRPolygonIndex.build(polys)
    rng = np.random.default_rng(2)
    lon = rng.uniform(-180, 180, 4000)
    lat = rng.uniform(-85, 85, 4000)
    gp, gy = grid.contains(lon, lat)
    sp, sy = st.contains(lon, lat)
    assert sorted(zip(gp.tolist(), gy.tolist())) == sorted(
        zip(sp.tolist(), sy.tolist())
    )
    # multi-level descent actually exercised (300 polys, fanout 8)
    assert len(st.levels) >= 3

    ds = rd.read_parquet(images_dir)
    a = (
        pip_join(ds, polys, mode="inner")
        .to_pandas().sort_values(["image_id", "polygon_id"]).reset_index(drop=True)
    )
    ds2 = rd.read_parquet(images_dir)
    b = (
        pip_join(ds2, polys, mode="inner", index="str")
        .to_pandas().sort_values(["image_id", "polygon_id"]).reset_index(drop=True)
    )
    assert a["image_id"].tolist() == b["image_id"].tolist()
    assert a["polygon_id"].tolist() == b["polygon_id"].tolist()


def test_str_rtree_rect_intersect_matches_grid(ray_session):
    from georay import generate
    from georay.index import PolygonIndex, STRPolygonIndex

    polys = generate.make_polygons_table(250, seed=17)
    grid = PolygonIndex.build(polys)
    st = STRPolygonIndex.build(polys)
    rng = np.random.default_rng(4)
    cx = rng.uniform(-170, 170, 800)
    cy = rng.uniform(-80, 80, 800)
    w = rng.uniform(0.5, 8.0, 800)
    h = rng.uniform(0.5, 8.0, 800)
    args = (cx - w, cy - h, cx + w, cy + h)
    gr, gp = grid.intersects_rect(*args)
    sr, sp = st.intersects_rect(*args)
    assert sorted(zip(gr.tolist(), gp.tolist())) == sorted(
        zip(sr.tolist(), sp.tolist())
    )
    assert len(gr) > 0


def test_nearest_geodesic_join_wraparound(ray_session):
    """Great-circle semantics: near the antimeridian the geodesic
    nearest differs from the planar nearest (±180 wrap), and poles pick
    by true arc length."""
    import ray.data as rd

    from georay import joins

    # probe near lon=179.9: planar-far (lon=-179.9) is geodesically
    # ~22 km away; planar-near (lon=170) is ~1100 km away
    pts = pa.table(
        {
            "pid": pa.array([1], pa.int64()),
            "lon": pa.array([179.9]),
            "lat": pa.array([0.0]),
        }
    )
    out = joins.nearest_geodesic_join(
        rd.from_arrow(pts),
        np.array([-179.9, 170.0]), np.array([0.0, 0.0]),
        np.array([7, 8], np.int64),
    ).to_pandas()
    assert out["ref_id"].tolist() == [7]
    assert out["d_mkm"].iloc[0] < 30_000  # ~22 km in milli-km


def test_knn_geodesic_ranks_and_k1_consistency(ray_session):
    import ray.data as rd

    from georay import joins

    rng = np.random.default_rng(12)
    pts = pa.table(
        {
            "pid": pa.array(np.arange(50, dtype=np.int64)),
            "lon": pa.array(rng.uniform(-170, 170, 50)),
            "lat": pa.array(rng.uniform(-80, 80, 50)),
        }
    )
    rl = rng.uniform(-170, 170, 30)
    rp = rng.uniform(-80, 80, 30)
    rid = np.arange(100, 130, dtype=np.int64)
    k3 = (
        joins.knn_geodesic_join(rd.from_arrow(pts), rl, rp, rid, k=3)
        .to_pandas().sort_values(["pid", "rank"]).reset_index(drop=True)
    )
    assert len(k3) == 150
    # ranks are 1..3 with nondecreasing distances per pid
    for _, g in k3.groupby("pid"):
        assert g["rank"].tolist() == [1, 2, 3]
        assert g["d_mkm"].is_monotonic_increasing
    # rank-1 equals the dedicated nearest join
    k1 = (
        joins.nearest_geodesic_join(rd.from_arrow(pts), rl, rp, rid)
        .to_pandas().sort_values("pid").reset_index(drop=True)
    )
    top = k3[k3["rank"] == 1].sort_values("pid").reset_index(drop=True)
    assert top["ref_id"].tolist() == k1["ref_id"].tolist()
    assert top["d_mkm"].tolist() == k1["d_mkm"].tolist()


def test_add_regex_extract_multi_group(ray_session):
    import ray.data as rd

    from georay import ops

    logs = pa.table(
        {
            "line": pa.array(
                [
                    "GET /a 200 12ms",
                    "POST /b 503 840ms",
                    "garbage",
                ]
            )
        }
    )
    out = (
        ops.add_regex_extract(
            rd.from_arrow(logs), "line",
            r"(?P<verb>[A-Z]+) (?P<path>\S+) (?P<code>\d{3}) (?P<ms>\d+)ms",
            groups={"verb": None, "path": None, "code": pa.int64(),
                    "ms": pa.int64()},
        )
        .to_pandas()
    )
    assert out["verb"].tolist()[:2] == ["GET", "POST"]
    assert out["code"].tolist()[:2] == [200, 503]
    assert out["ms"].tolist()[:2] == [12, 840]
    assert out["code"].isna().tolist() == [False, False, True]


def test_dataset_checksum_order_invariant(ray_session):
    import ray.data as rd

    from georay import ops

    vals = np.arange(1, 5001, dtype=np.int64)
    a = rd.from_arrow(pa.table({"k": pa.array(vals)})).repartition(7)
    rng = np.random.default_rng(1)
    b = rd.from_arrow(
        pa.table({"k": pa.array(rng.permutation(vals))})
    ).repartition(3)
    ca = ops.dataset_checksum(a, ["k"]).to_pandas()
    cb = ops.dataset_checksum(b, ["k"]).to_pandas()
    assert ca.values.tolist() == cb.values.tolist()
    # any single-row change flips the checksum
    c = rd.from_arrow(pa.table({"k": pa.array(np.r_[vals[:-1], [9999999]])}))
    cc = ops.dataset_checksum(c, ["k"]).to_pandas()
    assert cc["checksum"].iloc[0] != ca["checksum"].iloc[0]


def test_group_top_k_descending_timestamp(ray_session):
    """Descending order on a datetime64 column (the SCD-1 latest-per-key
    pattern) — previously crashed in the negation fast path."""
    import ray.data as rd

    from georay import ops

    tbl = pa.table(
        {
            "k": pa.array([1, 1, 2, 2], pa.int64()),
            "ts": pa.array([10, 30, 20, 5], pa.timestamp("us")),
            "v": pa.array(["a", "b", "c", "d"]),
        }
    )
    out = (
        ops.group_top_k(rd.from_arrow(tbl), "k", ["ts"], 1, descending=True)
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    assert out["v"].tolist() == ["b", "c"]


def test_group_top_k_descending_string(ray_session):
    """Descending order on a STRING column (alphabetical last-per-key):
    dense-rank inversion per batch — local orders suffice because the
    map-side prune only needs within-batch ranks and each key's bucket
    finisher sees the whole key in one batch."""
    import ray.data as rd

    from georay import ops

    tbl = pa.table(
        {
            "k": pa.array([1, 1, 1, 2, 2], pa.int64()),
            "s": pa.array(["apple", "pear", "fig", "yam", "kiwi"]),
        }
    )
    out = (
        ops.group_top_k(
            rd.from_arrow(tbl).repartition(3), "k", ["s"], 1, descending=True
        )
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    assert out["s"].tolist() == ["pear", "yam"]


def test_geodesic_index_path_matches_brute(ray_session):
    """r4: the pole-safe ring-expansion plan (PointIndex.knn_geodesic,
    used above brute_cutoff) must reproduce the blocked brute scan
    bit-for-bit — including polar probes (meridian convergence breaks a
    naive longitude ring bound), the antimeridian wrap, and quantized
    distance ties broken by ascending ref id."""
    import ray.data as rd

    from georay import joins

    rng = np.random.default_rng(23)
    nref = 4000
    rl = rng.uniform(-180, 180, nref)
    rp = rng.uniform(-89, 89, nref)
    # a polar cluster + antimeridian cluster to stress the bounds
    rl[:50] = rng.uniform(-180, 180, 50)
    rp[:50] = rng.uniform(88.5, 89.9, 50)
    rl[50:100] = rng.uniform(179.0, 180.0, 50)
    rp[50:100] = rng.uniform(-10, 10, 50)
    rid = np.arange(nref, dtype=np.int64)
    pl = np.concatenate([rng.uniform(-180, 180, 300), [179.95, 0.0, -180.0], [10.0], [0.0]])
    pp = np.concatenate([rng.uniform(-89, 89, 300), [5.0, 89.7, -89.5], [89.9], [-89.99]])
    pts = pa.table(
        {"pid": pa.array(np.arange(pl.shape[0]), pa.int64()),
         "lon": pa.array(pl), "lat": pa.array(pp)}
    )

    for k in (1, 3):
        idx_out = joins.knn_geodesic_join(
            rd.from_arrow(pts), rl, rp, rid, k=k, brute_cutoff=1
        ).to_pandas().sort_values(["pid", "rank"]).reset_index(drop=True)
        brute_out = joins.knn_geodesic_join(
            rd.from_arrow(pts), rl, rp, rid, k=k, brute_cutoff=1 << 30
        ).to_pandas().sort_values(["pid", "rank"]).reset_index(drop=True)
        assert idx_out["ref_id"].tolist() == brute_out["ref_id"].tolist()
        assert idx_out["d_mkm"].tolist() == brute_out["d_mkm"].tolist()

    n_idx = joins.nearest_geodesic_join(
        rd.from_arrow(pts), rl, rp, rid, brute_cutoff=1
    ).to_pandas().sort_values("pid").reset_index(drop=True)
    n_brt = joins.nearest_geodesic_join(
        rd.from_arrow(pts), rl, rp, rid, brute_cutoff=1 << 30
    ).to_pandas().sort_values("pid").reset_index(drop=True)
    assert n_idx["ref_id"].tolist() == n_brt["ref_id"].tolist()
    assert n_idx["d_mkm"].tolist() == n_brt["d_mkm"].tolist()

def test_geodesic_seam_slack_bound():
    """r4 seam fix (geodesic only — haversine Δλ is circular): with
    res ∤ 360 the wrap column is narrower than res, so circular cell
    distance r+1 across the antimeridian only guarantees
    Δλ > r·res − slack. A probe near the seam whose kth geodesic
    neighbor sits across it must not lose that ref to the old
    r·res-based longitude bound."""
    from georay.index import PointIndex

    res = 8.05  # nx = 45 → slack = 45·8.05 − 360 = 2.25°
    # probe at lon 173 (column 43); ref A across the seam at −179.9
    # (column 0, circular distance 2): Δλ = 7.1° geodesic. ref B same
    # side at Δλ = 7.9° (column 44 → distance 1, inside ring 1). Old
    # bound at r=1: kth(B) = 7.9°·111.2 ≈ 878 km < 1·res·111.2 ≈ 895 km
    # → stop at ring 1 and miss A (7.1° ≈ 790 km).
    rl = np.array([-179.9, 173.0 + 7.9])
    rp = np.array([0.0, 0.0])
    rid = np.array([1, 2], np.int64)
    idx = PointIndex.build(rl, rp, rid, res)
    P, R, mkm = idx.knn_geodesic(np.array([173.0]), np.array([0.0]), 1)
    assert idx.ref_ids[R].tolist() == [1]  # the cross-seam ref wins

    # brute haversine agrees
    from georay.kernels import haversine_km

    km = haversine_km(np.full(2, 173.0), np.zeros(2), rl, rp)
    assert int(np.floor(km.min() * 1000 + 0.5)) == mkm[0]


def test_movement_report_gate_fallback_matches_broadcast(ray_session):
    """r4: q_movement_report's dwell-gate user list auto-switches from a
    driver broadcast to equi_join_partitioned(how='semi') above the
    threshold; forcing the shuffle path must reproduce the broadcast
    result exactly."""
    from georay import tpch

    sf = "/root/testdata/sf0.001"
    a = tpch.q_movement_report(sf).to_pandas()
    b = tpch.q_movement_report(sf, gate_broadcast_max=0).to_pandas()
    key = ["user_id", "o_cell", "d_cell"] if "o_cell" in a.columns else list(a.columns)
    a = a.sort_values(key).reset_index(drop=True)
    b = b.sort_values(key).reset_index(drop=True)
    import pandas as pd

    pd.testing.assert_frame_equal(a, b[a.columns])


def test_str_point_index_knn_matches_grid(ray_session):
    """r4: STRPointIndex radius-doubling kNN must return the identical
    (neighbor, dist2, rank) set as PointIndex ring expansion — raw
    index API on a wildly mixed-density ref set, and knn_join
    end-to-end with index='str'."""
    import ray.data as rd

    from georay import joins
    from georay.codecs import native
    from georay.index import PointIndex, STRPointIndex
    from georay.types import GeoType

    rng = np.random.default_rng(31)
    # dense city cluster + sparse global scatter + antimeridian strip
    rl = np.concatenate(
        [rng.normal(10, 0.2, 2000), rng.uniform(-180, 180, 300),
         rng.uniform(178, 180, 50)]
    )
    rp = np.concatenate(
        [rng.normal(45, 0.2, 2000), rng.uniform(-85, 85, 300),
         rng.uniform(-5, 5, 50)]
    )
    rid = np.arange(rl.shape[0], dtype=np.int64)
    pl = np.concatenate([rng.normal(10, 0.5, 200), rng.uniform(-180, 180, 100)])
    pp = np.concatenate([rng.normal(45, 0.5, 200), rng.uniform(-85, 85, 100)])

    grid = PointIndex.build(rl, rp, rid, res=2.0)
    st = STRPointIndex.build(rl, rp, rid)
    for k in (1, 5):
        gP, gR, gD = grid.knn(pl, pp, k)
        sP, sR, sD = st.knn(pl, pp, k)
        assert gP.tolist() == sP.tolist()
        assert grid.ref_ids[gR].tolist() == st.ref_ids[sR].tolist()
        assert np.allclose(gD, sD)
    assert len(st.levels) >= 3  # multi-level descent exercised

    geo = GeoType.point(crs="OGC:CRS84")
    probes = pa.table(
        {"p_partkey": pa.array(np.arange(pl.shape[0]), pa.int64())},
    ).append_column(
        geo.field("geotag"), native.build_points(np.column_stack([pl, pp]), geo)
    )
    a = joins.knn_join(
        rd.from_arrow(probes), rl, rp, rid, k=3, id_out="s_suppkey"
    ).to_pandas().sort_values(["p_partkey", "knn_rank"]).reset_index(drop=True)
    b = joins.knn_join(
        rd.from_arrow(probes), rl, rp, rid, k=3, id_out="s_suppkey", index="str"
    ).to_pandas().sort_values(["p_partkey", "knn_rank"]).reset_index(drop=True)
    assert a["s_suppkey"].tolist() == b["s_suppkey"].tolist()
    assert np.allclose(a["knn_dist2"], b["knn_dist2"])


def test_rect_intersect_str_index_end_to_end(ray_session):
    """r4: rect_intersect_count/pairs with index='str' match the grid
    plan through the Dataset API."""
    import ray.data as rd

    from georay import generate, joins

    polys = generate.make_polygons_table(200, seed=5)
    rng = np.random.default_rng(9)
    n = 500
    cx = rng.uniform(-170, 170, n)
    cy = rng.uniform(-80, 80, n)
    rects = rd.from_arrow(
        pa.table(
            {
                "rect_id": pa.array(np.arange(n, dtype=np.int64)),
                "xmin": pa.array(cx - 2), "ymin": pa.array(cy - 2),
                "xmax": pa.array(cx + 2), "ymax": pa.array(cy + 2),
            }
        )
    )
    a = joins.rect_intersect_count(rects, polys).to_pandas().sort_values(
        "rect_id").reset_index(drop=True)
    rects2 = rd.from_arrow(rects.take_all() and pa.Table.from_pandas(
        rects.to_pandas()))
    b = joins.rect_intersect_count(rects2, polys, index="str").to_pandas(
    ).sort_values("rect_id").reset_index(drop=True)
    assert a.values.tolist() == b.values.tolist()
    p1 = joins.rect_intersect_pairs(rects, polys).to_pandas()
    p2 = joins.rect_intersect_pairs(rects, polys, index="str").to_pandas()
    assert sorted(map(tuple, p1.values.tolist())) == sorted(
        map(tuple, p2.values.tolist())
    )


def test_pretrain_prep_gate_fallback_matches_broadcast(ray_session):
    """r4: q_pretrain_prep's novelty-gate semi join auto-switches
    between key broadcast and the partitioned existence probe; both
    paths must emit identical packs."""
    import pandas as pd

    from georay import tpch

    sf = "/root/testdata/sf0.001"
    a = tpch.q_pretrain_prep(sf).to_pandas().sort_values("rid").reset_index(drop=True)
    b = tpch.q_pretrain_prep(sf, gate_broadcast_max=0).to_pandas().sort_values(
        "rid").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_grouped_impurity_exact(ray_session):
    import ray.data as rd

    tbl = pa.table(
        {
            "k": pa.array([1, 1, 1, 2, 2], pa.int64()),
            "c": pa.array(["x", "x", "y", "z", "z"]),
        }
    )
    out = (
        ops.grouped_impurity(rd.from_arrow(tbl), "k", "c")
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    # k=1: counts {x:2, y:1} -> n 3, sum_c2 5; k=2: {z:2} -> n 2, sum_c2 4
    assert out.values.tolist() == [[1, 3, 5], [2, 2, 4]]


def test_window_decayed_sum_short_groups_and_w_clip(ray_session):
    import ray.data as rd

    # key 1: values 8, 4 (window spans both rows); key 2: single row
    # (window must not leak across the key boundary)
    tbl = pa.table(
        {
            "k": pa.array([1, 1, 2], pa.int64()),
            "t": pa.array([10, 20, 5], pa.int64()),
            "v": pa.array([8, 4, 9], pa.int64()),
        }
    )
    out = (
        ops.window_decayed_sum(
            rd.from_arrow(tbl), "k", ["t"], "v", w=16, n_buckets=4
        )
        .to_pandas().sort_values(["k", "t"]).reset_index(drop=True)
    )
    # row (1,10): 8; row (1,20): 4 + (8>>1) = 8; row (2,5): 9
    assert out["decayed_q"].tolist() == [8, 8, 9]
    with pytest.raises(ValueError):
        bad = pa.table(
            {
                "k": pa.array([1], pa.int64()),
                "t": pa.array([1], pa.int64()),
                "v": pa.array([-5], pa.int64()),
            }
        )
        ops.window_decayed_sum(
            rd.from_arrow(bad), "k", ["t"], "v", w=4, n_buckets=2
        ).to_pandas()


def test_rect_overlap_area_str_matches_grid(ray_session):
    """rect_overlap_area through the STR index must equal the grid
    index, and both must equal the hand-computed clamp product."""
    import ray.data as rd

    from georay.joins import rect_overlap_area
    from georay.tpch import part_box_polygons

    polys = part_box_polygons("/root/testdata/sf0.001")
    sx = np.array([10.05, -170.05])
    sy = np.array([20.05, -80.05])
    rects = rd.from_arrow(
        pa.table(
            {
                "rect_id": pa.array([1, 2], pa.int64()),
                "xmin": pa.array(sx - 5.0),
                "ymin": pa.array(sy - 5.0),
                "xmax": pa.array(sx + 5.0),
                "ymax": pa.array(sy + 5.0),
            }
        )
    )
    a = rect_overlap_area(rects, polys, id_col="rect_id",
                          poly_id_col="p_partkey").to_pandas()
    b = rect_overlap_area(rects, polys, id_col="rect_id",
                          poly_id_col="p_partkey", index="str").to_pandas()
    pa_sort = lambda d: d.sort_values("rect_id").reset_index(drop=True)
    assert pa_sort(a).values.tolist() == pa_sort(b).values.tolist()
    assert (a["overlap_q"] > 0).all()


def test_rolling_active_count_gap_days(ray_session):
    import ray.data as rd

    # users active on days 0, 1 and 10 (gap): day 1's trailing-7 window
    # sees both day-0 and day-1 entities; day 10 sees only its own
    # (days 2-9 unobserved and never reported)
    us = 86_400_000_000
    tbl = pa.table(
        {
            "u": pa.array([1, 2, 2, 3, 1], pa.int64()),
            "ts": pa.array(
                np.array([0, 0, 1 * us, 1 * us, 10 * us], "datetime64[us]")
            ),
        }
    )
    out = (
        ops.rolling_active_count(rd.from_arrow(tbl), "u", "ts", window=7)
        .to_pandas().sort_values("day").reset_index(drop=True)
    )
    assert out["day"].tolist() == [0, 1, 10]
    # day 0: {1,2}; day 1: {1,2,3} (user 2 on both days counts once);
    # day 10: {1}
    assert out["n_active"].tolist() == [2, 3, 1]



def test_ks_statistic_known_value(ray_session):
    import ray.data as rd

    # A: {1, 2}, B: {2, 3} (quantized ints) -> CDF gap is max 1/2:
    # d_num = max|cum_a*nb - cum_b*na| = 2, na = nb = 2
    tbl = pa.table(
        {
            "v": pa.array([0.01, 0.02, 0.02, 0.03], pa.float64()),
            "s": pa.array(["A", "A", "B", "B"]),
        }
    )
    out = ops.ks_statistic(rd.from_arrow(tbl), "v", "s", "A", "B").to_pandas()
    # d_num 2; tv: |1*2-0*2| + |1*2-1*2| + |0*2-1*2| = 4
    assert out.values.tolist() == [[2, 4, 2, 2]]
    # identical distributions -> D = 0
    same = pa.table(
        {
            "v": pa.array([0.01, 0.02, 0.01, 0.02], pa.float64()),
            "s": pa.array(["A", "A", "B", "B"]),
        }
    )
    out2 = ops.ks_statistic(rd.from_arrow(same), "v", "s", "A", "B").to_pandas()
    assert out2["d_num"][0] == 0


def test_round4_empty_and_null_edges(ray_session):
    """Round-4 robustness pins: empty inputs return typed empty/zero
    results; NULL payloads follow SQL semantics (SUM skips NULL; no
    NULL on a CDF axis)."""
    import ray.data as rd

    from georay import analytics

    e = rd.from_arrow(
        pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    )
    out = analytics.degree_assortativity(e).to_pandas()
    assert out.values.tolist() == [[0, 0, 0, 0]]
    ra = ops.rolling_active_count(
        rd.from_arrow(
            pa.table(
                {
                    "u": pa.array([], pa.int64()),
                    "ts": pa.array([], pa.timestamp("us")),
                }
            )
        ),
        "u", "ts",
    ).to_pandas()
    # (column names are not asserted: empty Datasets lose their schema
    # through to_pandas in Ray 2.49 — the ROUND_NOTES quirk)
    assert len(ra) == 0
    # NULL value in decayed sum contributes 0 (SQL SUM skips NULL)
    t = pa.table(
        {
            "k": pa.array([1, 1], pa.int64()),
            "t": pa.array([1, 2], pa.int64()),
            "v": pa.array([8, None], pa.int64()),
        }
    )
    d = (
        ops.window_decayed_sum(rd.from_arrow(t), "k", ["t"], "v", w=4, n_buckets=2)
        .to_pandas().sort_values("t")
    )
    assert d["decayed_q"].tolist() == [8, 4]
    # NULL values excluded from the KS CDF
    kt = pa.table(
        {
            "v": pa.array([1.0, None, 1.0], pa.float64()),
            "s": pa.array(["A", "A", "B"]),
        }
    )
    ks = ops.ks_statistic(rd.from_arrow(kt), "v", "s", "A", "B").to_pandas()
    assert ks.values.tolist() == [[0, 0, 1, 1]]


def test_window_locf_key_boundary(ray_session):
    import ray.data as rd

    # key 1: [null, 5, null, null] -> [null, 5, 5, 5]
    # key 2 starts with null and must NOT inherit key 1's carry
    tbl = pa.table(
        {
            "k": pa.array([1, 1, 1, 1, 2, 2], pa.int64()),
            "t": pa.array([1, 2, 3, 4, 1, 2], pa.int64()),
            "v": pa.array([None, 5.0, None, None, None, 7.0], pa.float64()),
        }
    )
    out = (
        ops.window_locf(rd.from_arrow(tbl), "k", ["t"], "v", n_buckets=4)
        .to_pandas().sort_values(["k", "t"]).reset_index(drop=True)
    )
    f = out["filled"].tolist()
    assert f[0] != f[0] or f[0] is None  # NaN/None
    assert f[1:4] == [5.0, 5.0, 5.0]
    assert not (f[4] == f[4])  # key 2 first row stays null
    assert f[5] == 7.0


def test_grouped_weighted_median_exact(ray_session):
    import ray.data as rd

    # key a: values 1(w1), 2(w1), 3(w10) -> weighted median 3
    # key b: values 1(w1), 2(w1)         -> lower median 1
    tbl = pa.table(
        {
            "k": pa.array(["a", "a", "a", "b", "b"]),
            "v": pa.array([0.01, 0.02, 0.03, 0.01, 0.02], pa.float64()),
            "w": pa.array([1, 1, 10, 1, 1], pa.int64()),
        }
    )
    out = (
        ops.grouped_weighted_median(rd.from_arrow(tbl), "k", "v", "w")
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    assert out.values.tolist() == [["a", 3], ["b", 1]]


def test_survival_risk_table_known(ray_session):
    import ray.data as rd

    # t=1: 1 event; t=2: 1 censored; t=3: 1 event
    tbl = pa.table(
        {
            "t": pa.array([1, 2, 3], pa.int64()),
            "ev": pa.array([True, False, True]),
        }
    )
    out = (
        ops.survival_risk_table(rd.from_arrow(tbl), "t", "ev")
        .to_pandas().sort_values("t").reset_index(drop=True)
    )
    assert out.values.tolist() == [[1, 1, 0, 3], [2, 0, 1, 2], [3, 1, 0, 1]]


def test_window_distinct_count_bitmask(ray_session):
    import ray.data as rd

    # key 1 sequence x, y, x, z with w=2: distinct in {curr, prev}:
    # [1, 2, 2, 2]; null values carry no bit
    tbl = pa.table(
        {
            "k": pa.array([1, 1, 1, 1, 1], pa.int64()),
            "t": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "v": pa.array(["x", "y", "x", "z", None]),
        }
    )
    out = (
        ops.window_distinct_count(
            rd.from_arrow(tbl), "k", ["t"], "v", w=2, n_buckets=4
        )
        .to_pandas().sort_values("t")
    )
    assert out["n_distinct"].tolist() == [1, 2, 2, 2, 1]
    with pytest.raises(ValueError):
        big = pa.table(
            {
                "k": pa.array(np.zeros(100, np.int64)),
                "t": pa.array(np.arange(100, dtype=np.int64)),
                "v": pa.array([f"v{i}" for i in range(100)]),
            }
        )
        ops.window_distinct_count(rd.from_arrow(big), "k", ["t"], "v", w=4)


def test_grouped_ks_vs_rest_matches_pairwise(ray_session):
    import ray.data as rd

    # two groups: grouped-vs-rest must equal the pairwise two-sample KS
    tbl = pa.table(
        {
            "g": pa.array(["A", "A", "B", "B", "B"]),
            "v": pa.array([1.0, 2.0, 2.0, 3.0, 3.0], pa.float64()),
        }
    )
    ds = rd.from_arrow(tbl)
    grouped = (
        ops.grouped_ks_vs_rest(ds, "g", "v", quantize=1.0)
        .to_pandas().set_index("g")
    )
    pair = ops.ks_statistic(ds, "v", "g", "A", "B", quantize=1.0).to_pandas()
    assert grouped.loc["A", "d_num"] == pair["d_num"][0]
    assert grouped.loc["B", "d_num"] == pair["d_num"][0]
    assert grouped.loc["A", "n_g"] == 2 and grouped.loc["A", "n_rest"] == 3


# ------------------------------------------- round-4 batch 3 operators

def _ds(tbl):
    import ray.data as rd

    return rd.from_arrow(tbl)


def test_pr_curve_known_counts(ray_session):
    import pyarrow as pa

    tbl = pa.table(
        {
            "label": pa.array([1, 1, 0, 0, 1], pa.int64()),
            "score": pa.array([3.0, 2.0, 2.0, 1.0, 1.0], pa.float64()),
        }
    )
    out = (
        ops.pr_curve(_ds(tbl), "label", "score", quantize=1.0)
        .to_pandas().sort_values("s", ascending=False).reset_index(drop=True)
    )
    # thresholds 3,2,1: tp cum = 1,2,3 ; fp cum = 0,1,2 ; fn = 3-tp
    assert out["s"].tolist() == [3, 2, 1]
    assert out["tp"].tolist() == [1, 2, 3]
    assert out["fp"].tolist() == [0, 1, 2]
    assert out["fn"].tolist() == [2, 1, 0]


def test_calibration_bins_rejects_negative_scores(ray_session):
    import pyarrow as pa
    import pytest as _pytest

    tbl = pa.table(
        {
            "label": pa.array([1, 0], pa.int64()),
            "score": pa.array([1.0, -2.0], pa.float64()),
        }
    )
    with _pytest.raises(Exception):
        ops.calibration_bins(
            _ds(tbl), "label", "score", quantize=1.0, bin_width_q=1
        ).to_pandas()


def test_contingency_profile_known_dev(ray_session):
    import pyarrow as pa

    # 2x2: obs = [[2,1],[1,2]]; n=6; row_tot=[3,3]; col_tot=[3,3]
    # dev(cell) = obs*6 - 9 -> [[3,-3],[-3,3]]
    tbl = pa.table(
        {
            "r": pa.array(["x", "x", "x", "y", "y", "y"]),
            "c": pa.array(["p", "p", "q", "p", "q", "q"]),
        }
    )
    out = ops.contingency_profile(_ds(tbl), "r", "c").to_pandas()
    got = {(r.r, r.c): (r.obs, r.row_tot, r.col_tot, r.n, r.dev)
           for r in out.itertuples()}
    assert got == {
        ("x", "p"): (2, 3, 3, 6, 3),
        ("x", "q"): (1, 3, 3, 6, -3),
        ("y", "p"): (1, 3, 3, 6, -3),
        ("y", "q"): (2, 3, 3, 6, 3),
    }


def test_activity_islands_streaks(ray_session):
    import numpy as np
    import pyarrow as pa

    # user 1: days 0,1,2 then 5 -> 2 islands, max 3; repeated events on
    # one day collapse. user 2: single day.
    day = np.array([0, 0, 1, 2, 5, 7], "datetime64[D]")
    tbl = pa.table(
        {
            "u": pa.array([1, 1, 1, 1, 1, 2], pa.int64()),
            "ts": pa.array(day.astype("datetime64[us]")),
        }
    )
    out = (
        ops.activity_islands(_ds(tbl), "u", "ts", n_buckets=4)
        .to_pandas().sort_values("u").reset_index(drop=True)
    )
    assert out.values.tolist() == [[1, 4, 2, 3], [2, 1, 1, 1]]


def test_corr_pairs_exact_sums(ray_session):
    import pyarrow as pa

    tbl = pa.table(
        {
            "x": pa.array([1.0, 2.0, 3.0], pa.float64()),
            "y": pa.array([2.0, 4.0, 6.0], pa.float64()),
        }
    )
    out = ops.corr_pairs(_ds(tbl), {"x": 1.0, "y": 1.0}).to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    assert (r.cx, r.cy, r.n, r.sx, r.sy, r.sxx, r.syy, r.sxy) == (
        "x", "y", 3, 6, 12, 14, 56, 28,
    )


def test_cross_corr_daily_known_shift(ray_session):
    import numpy as np
    import pyarrow as pa

    # A active on days 0,1; B active on days 1,2 (2 events day 2).
    day = np.array([0, 1, 1, 2, 2], "datetime64[D]")
    tbl = pa.table(
        {
            "k": pa.array(["A", "A", "B", "B", "B"]),
            "ts": pa.array(day.astype("datetime64[us]")),
        }
    )
    out = (
        ops.cross_corr_daily(_ds(tbl), "k", "ts", "A", "B", max_lag=2)
        .to_pandas().sort_values("lag").reset_index(drop=True)
    )
    # a=[1,1,0], b=[0,1,2]; dot(0)=1, dot(1)=1*1+1*2=3, dot(2)=2
    assert out["lag"].tolist() == [0, 1, 2]
    assert out["dot"].tolist() == [1, 3, 2]
    assert out["sa"].tolist() == [2, 2, 1]
    assert out["sb"].tolist() == [3, 3, 2]
    assert out["n_days"].tolist() == [3, 2, 1]


def test_seasonal_dow_anomaly_calendar_occurrences(ray_session):
    import numpy as np
    import pyarrow as pa

    # span = 8 days starting Thursday 1970-01-01 (dow (0+4)%7 = 4):
    # the starting weekday occurs twice (day 0 and 7), others once.
    day = np.array([0, 0, 7], "datetime64[D]")
    tbl = pa.table(
        {
            "k": pa.array(["x", "x", "x"]),
            "ts": pa.array(day.astype("datetime64[us]")),
        }
    )
    out = (
        ops.seasonal_dow_anomaly(_ds(tbl), "k", "ts")
        .to_pandas().sort_values("d").reset_index(drop=True)
    )
    # daily: d0 n=2, d7 n=1; dow=4 both; dow_total=3; dow_days=2
    assert out["dow"].tolist() == [4, 4]
    assert out["dow_days"].tolist() == [2, 2]
    assert out["dow_total"].tolist() == [3, 3]
    assert out["anom_num"].tolist() == [2 * 2 - 3, 1 * 2 - 3]


def test_interarrival_single_event_null_gaps(ray_session):
    import numpy as np
    import pyarrow as pa

    ts = np.array([1_000_000, 3_000_000, 3_000_000, 9_000_000],
                  "datetime64[us]")
    tbl = pa.table(
        {
            "u": pa.array([1, 1, 1, 2], pa.int64()),
            "ts": pa.array(ts),
        }
    )
    out = (
        ops.interarrival_stats(_ds(tbl), "u", "ts", n_buckets=4)
        .to_pandas().sort_values("u").reset_index(drop=True)
    )
    r1 = out.iloc[0]
    assert (r1.n_events, r1.span_us, r1.min_gap_us, r1.max_gap_us) == (
        3, 2_000_000, 0, 2_000_000,
    )
    r2 = out.iloc[1]
    assert r2.n_events == 1 and r2.span_us == 0
    import pandas as pd

    assert pd.isna(r2.min_gap_us) and pd.isna(r2.max_gap_us)


def test_window_trend_known_slope(ray_session):
    import pyarrow as pa

    # single key, values 10,20,30 with w=2: window sums over (j, v):
    # row0: n=1 -> den=0; row1: j={0,1} v={10,20}: num=2*20-1*30=10, den=2*1-1=1
    # row2: j={1,2} v={20,30}: num=2*(20+60)-3*50=10, den=2*5-9=1
    tbl = pa.table(
        {
            "k": pa.array([1, 1, 1], pa.int64()),
            "t": pa.array([1, 2, 3], pa.int64()),
            "v": pa.array([10.0, 20.0, 30.0], pa.float64()),
        }
    )
    out = (
        ops.window_trend(_ds(tbl), "k", ["t"], "v", w=2, quantize=1.0,
                         n_buckets=2)
        .to_pandas().sort_values("t").reset_index(drop=True)
    )
    assert out["slope_num"].tolist() == [0, 10, 10]
    assert out["slope_den"].tolist() == [0, 1, 1]


def test_window_burst_peer_timestamps(ray_session):
    import numpy as np
    import pyarrow as pa

    # key 1: events at t=0,5,5,100 with window 10 -> peak 3 (0,5,5);
    # RANGE peers: the row at t=5 counts BOTH t=5 rows.
    ts = np.array([0, 5, 5, 100], "datetime64[us]")
    tbl = pa.table(
        {"u": pa.array([1, 1, 1, 1], pa.int64()), "ts": pa.array(ts)}
    )
    out = ops.window_burst(_ds(tbl), "u", "ts", window_us=10, n_buckets=2) \
        .to_pandas()
    assert out.values.tolist() == [[1, 3, 4]]


def test_conversion_lag_strictly_after(ray_session):
    import numpy as np
    import pyarrow as pa

    # user 1: A at t=10, B at t=10 (tie — excluded) and t=30 -> lag 20.
    # user 2: B before any A only -> no row. user 3: A only -> no row.
    ts = np.array([10, 10, 30, 5, 8, 50], "datetime64[us]")
    tbl = pa.table(
        {
            "u": pa.array([1, 1, 1, 2, 2, 3], pa.int64()),
            "ts": pa.array(ts),
            "t": pa.array(["A", "B", "B", "B", "A", "A"]),
        }
    )
    out = ops.conversion_lag(
        _ds(tbl), "u", "ts", "t", "A", "B", n_buckets=4
    ).to_pandas()
    assert out.values.tolist() == [[1, 20]]


def test_debounce_count_gap_rule(ray_session):
    import numpy as np
    import pyarrow as pa

    # gaps: first kept; 5 <= w dropped; 11 > w kept; tie (0) dropped
    ts = np.array([0, 5, 16, 16], "datetime64[us]")
    tbl = pa.table({"u": pa.array([1, 1, 1, 1], pa.int64()),
                    "ts": pa.array(ts)})
    out = ops.debounce_count(_ds(tbl), "u", "ts", window_us=10,
                             n_buckets=2).to_pandas()
    assert out.values.tolist() == [[1, 4, 2]]


def test_asof_interpolate_brackets_and_ties(ray_session):
    """Hand-checked lerp: exact sample hit returns the sample, interior
    points lerp linearly, queries outside the envelope drop, duplicate
    right timestamps reduce to MIN(value), NULL-free inner semantics."""
    import pyarrow as pa
    import ray.data as rd

    series = pa.table({
        "k": pa.array([1, 1, 1, 1, 2], pa.int64()),
        "ts": pa.array([10, 20, 20, 30, 5], pa.int64()),
        "v": pa.array([1.0, 9.0, 3.0, 7.0, 100.0]),
    })
    q = pa.table({
        "qid": pa.array([0, 1, 2, 3, 4, 5], pa.int64()),
        "k": pa.array([1, 1, 1, 1, 1, 2], pa.int64()),
        "ts": pa.array([10, 15, 20, 25, 35, 5], pa.int64()),
    })
    out = {
        r["qid"]: r["interp"]
        for r in ops.asof_interpolate(
            rd.from_arrow(q), series, "k", "ts", "k", "ts", "v"
        ).take_all()
    }
    # dup ts=20 -> MIN(9,3)=3; lerp 10->20 over (1,3); 20->30 over (3,7)
    assert out[0] == 1.0          # exact hit
    assert out[1] == 2.0          # 1 + (3-1)*0.5
    assert out[2] == 3.0          # exact hit on deduped sample
    assert out[3] == 5.0          # 3 + (7-3)*0.5
    assert 5 in out and out[5] == 100.0  # single-sample key, exact hit
    assert 4 not in out           # beyond the envelope: dropped


def test_late_event_stats_watermark(ray_session):
    """Hand-checked watermark accounting: an event is late only when its
    arrival exceeds window_end + lateness; NULL rows drop; max delay is
    a max-merge (not a sum) through the combine tree."""
    import pyarrow as pa
    import ray.data as rd

    W, L = 100, 10
    t = pa.table({
        "ts": pa.array([5, 50, 150, 250, None], pa.int64()),
        "arrival": pa.array([20, 160, 180, 380, 1], pa.int64()),
    })
    out = {
        r["window_start"]: (r["n_events"], r["n_late"], r["max_delay_us"])
        for r in ops.late_event_stats(
            rd.from_arrow(t), "ts", "arrival", window_us=W, lateness_us=L
        ).take_all()
    }
    # window 0 (end 100, seal 110): ts=5 arr=20 on-time; ts=50 arr=160 LATE
    # window 100 (seal 210): ts=150 arr=180 on-time
    # window 200 (seal 310): ts=250 arr=380 LATE
    assert out == {0: (2, 1, 110), 100: (1, 0, 30), 200: (1, 1, 130)}


def test_window_median_nulls_and_partial_frames(ray_session):
    """DuckDB-pinned rolling median: partial leading frames use only
    the key's own rows, NULLs are skipped, an even non-null count
    averages the middle two, an all-NULL frame is NULL, and non-finite
    payloads raise (the +inf sentinel marks NULL/out-of-frame slots)."""
    import pyarrow as pa
    import ray.data as rd

    t = pa.table({
        "k": pa.array([1, 1, 1, 1, 1, 2, 2, 3], pa.int64()),
        "ts": pa.array([1, 2, 3, 4, 5, 1, 2, 1], pa.int64()),
        "v": pa.array([5.0, 1.0, None, 9.0, 2.0, 10.0, 20.0, None]),
    })
    out = {
        (r["k"], r["ts"]): r["moving_median"]
        for r in ops.window_median(
            rd.from_arrow(t), "k", "ts", "v", window_rows=3
        ).take_all()
    }
    assert out[(1, 1)] == 5.0 and out[(1, 2)] == 3.0
    assert out[(1, 3)] == 3.0      # frame {5,1,NULL} -> median(1,5)
    assert out[(1, 4)] == 5.0      # frame {1,NULL,9}
    assert out[(1, 5)] == 5.5      # frame {NULL,9,2}
    assert out[(2, 1)] == 10.0 and out[(2, 2)] == 15.0
    assert out[(3, 1)] is None     # all-NULL frame

    bad = pa.table({
        "k": pa.array([1], pa.int64()), "ts": pa.array([1], pa.int64()),
        "v": pa.array([float("inf")]),
    })
    with pytest.raises(Exception, match="finite"):
        ops.window_median(rd.from_arrow(bad), "k", "ts", "v", 2).take_all()


def test_grouped_spearman_ties_and_nulls(ray_session):
    """Hand-checked Spearman sufficient stats: perfect monotone key
    gives rho=1, perfect reverse gives rho=-1, ties use doubled average
    ranks, NULL rows drop listwise."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    t = pa.table({
        "k": pa.array([1]*4 + [2]*4 + [3]*3, pa.int64()),
        "x": pa.array([1.0, 2.0, 3.0, 4.0,   4.0, 3.0, 2.0, 1.0,
                       1.0, 1.0, None]),
        "y": pa.array([10., 20., 30., 40.,   1., 2., 3., 4.,
                       5., 5., 7.]),
    })
    out = {
        r["k"]: r
        for r in ops.grouped_spearman(
            rd.from_arrow(t), "k", "x", "y", quantize_x=1.0, quantize_y=1.0
        ).take_all()
    }
    r1 = out[1]
    assert r1["cov_num"] == r1["var_x"] == r1["var_y"] > 0  # rho = +1
    r2 = out[2]
    assert -r2["cov_num"] == r2["var_x"] == r2["var_y"] > 0  # rho = -1
    r3 = out[3]
    assert r3["n_pairs"] == 2            # NULL x row dropped
    assert r3["var_x"] == 0              # both x tie -> zero rank variance


def test_grouped_kendall_hand_counts(ray_session):
    """Hand-counted Kendall sufficient stats including every tie class,
    plus the pair-budget guard."""
    import pyarrow as pa
    import ray.data as rd

    t = pa.table({
        "k": pa.array([1, 1, 1, 1], pa.int64()),
        "x": pa.array([1.0, 2.0, 2.0, 3.0]),
        "y": pa.array([1.0, 2.0, 2.0, 1.0]),
    })
    r = ops.grouped_kendall(
        rd.from_arrow(t), "k", "x", "y", quantize_x=1.0, quantize_y=1.0
    ).take_all()[0]
    # pairs (x,y): (1,1)-(2,2) C, (1,1)-(2,2) C, (1,1)-(3,1) tie_y,
    # (2,2)-(2,2) tie_xy, (2,2)-(3,1) D, (2,2)-(3,1) D
    assert (r["n_pairs"], r["conc"], r["disc"]) == (6, 2, 2)
    assert (r["tie_x"], r["tie_y"], r["tie_xy"]) == (0, 1, 1)

    with pytest.raises(Exception, match="max_pairs_per_bucket"):
        big = pa.table({
            "k": pa.array([1] * 100, pa.int64()),
            "x": pa.array([float(i) for i in range(100)]),
            "y": pa.array([float(i) for i in range(100)]),
        })
        ops.grouped_kendall(
            rd.from_arrow(big), "k", "x", "y", max_pairs_per_bucket=100
        ).take_all()


def test_grouped_theil_sen_outlier_immunity(ray_session):
    """One wild outlier leaves the Theil-Sen slope at the true trend;
    equal-x pairs are excluded; even slope counts average the middle
    two."""
    import pyarrow as pa
    import ray.data as rd

    # y = 2x except one wild point; 5 points -> 10 pairs, 6 involve the
    # outlier, median of the 10 slopes is still 2
    t = pa.table({
        "k": pa.array([1] * 5, pa.int64()),
        "x": pa.array([1.0, 2.0, 3.0, 4.0, 5.0]),
        "y": pa.array([2.0, 4.0, 6.0, 1000.0, 10.0]),
    })
    r = ops.grouped_theil_sen(
        rd.from_arrow(t), "k", "x", "y", quantize_x=1.0, quantize_y=1.0
    ).take_all()[0]
    assert r["n_slopes"] == 10 and r["slope"] == 2.0

    # equal-x pairs excluded: two points sharing x contribute nothing
    t2 = pa.table({
        "k": pa.array([1] * 3, pa.int64()),
        "x": pa.array([1.0, 1.0, 2.0]),
        "y": pa.array([0.0, 10.0, 5.0]),
    })
    r2 = ops.grouped_theil_sen(
        rd.from_arrow(t2), "k", "x", "y", quantize_x=1.0, quantize_y=1.0
    ).take_all()[0]
    assert r2["n_slopes"] == 2  # (0->5) and (10->-5) slopes; x-tie dropped
    assert r2["slope"] == 0.0   # (5 + -5)/2


def test_grouping_sets_sum_validates_and_duplicates(ray_session):
    import ray.data as rd

    from georay import ops

    t = pa.table(
        {
            "a": pa.array(["x", "x", "y"]),
            "b": pa.array(["p", "q", "p"]),
            "v": pa.array([1, 2, 4], pa.int64()),
        }
    )
    ds = rd.from_arrow(t)
    with pytest.raises(ValueError, match="not within keys"):
        ops.grouping_sets_sum(ds, ["a", "b"], [("z",)], "v")
    # duplicate sets -> duplicate rows (SQL bag semantics); () = grand total
    out = (
        ops.grouping_sets_sum(ds, ["a", "b"], [(), ()], "v", out_col="s")
        .to_pandas()
    )
    assert out["s"].tolist() == [7, 7]


def test_analyze_table_nulls_and_types(ray_session):
    import ray.data as rd

    from georay import ops

    t = pa.table(
        {
            "i": pa.array([3, None, 10, 9, None], pa.int64()),
            "s": pa.array(["b", "a", None, "c", "a"]),
        }
    )
    out = (
        ops.analyze_table(rd.from_arrow(t), int_cols=("i",), str_cols=("s",))
        .to_pandas().sort_values("col").reset_index(drop=True)
    )
    # numeric min/max compare numerically (3 < 9 < 10), not bytewise
    assert out.values.tolist() == [
        ["i", 5, 2, 3, "3", "10"],
        ["s", 5, 1, 3, "a", "c"],
    ]


def test_analyze_table_all_null_column(ray_session):
    import ray.data as rd

    from georay import ops

    t = pa.table({"i": pa.array([None, None], pa.int64())})
    out = ops.analyze_table(rd.from_arrow(t), int_cols=("i",)).to_pandas()
    r = out.iloc[0]
    assert (
        [r["n"], r["n_null"], r["n_distinct"]] == [2, 2, 0]
        and r["min_v"] is None and r["max_v"] is None
    )


def test_semi_join_bloom_matches_exact(ray_session):
    import numpy as np
    import ray.data as rd

    from georay import ops

    rng = np.random.default_rng(3)
    lk = rng.integers(0, 1000, 5000)
    left = rd.from_arrow(pa.table({
        "k": pa.array(lk, pa.int64()),
        "v": pa.array(np.arange(5000, dtype=np.int64)),
    }))
    rk = np.unique(rng.integers(0, 1000, 120))
    right = rd.from_arrow(pa.table({"rk": pa.array(rk, pa.int64())}))
    got = (
        ops.semi_join_bloom(left, "k", right, "rk", bits=1 << 12)
        .to_pandas().sort_values("v").reset_index(drop=True)
    )
    want = np.isin(lk, rk)
    assert got["v"].tolist() == sorted(np.arange(5000)[want].tolist())
    # empty right side -> empty result (bitmap all zero)
    empty = rd.from_arrow(pa.table({"rk": pa.array([], pa.int64())}))
    assert len(ops.semi_join_bloom(left, "k", empty, "rk").to_pandas()) == 0


def test_polyfill_convex_diamonds_vs_clamp_oracle(ray_session):
    """polyfill_convex SAT keep must equal the independent separable
    clamp-point predicate for diamonds (|clamp(c)−c|/w + ... ≤ 1),
    for BOTH ring orientations; degenerate and null features emit
    nothing."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from georay import ops
    from georay.cells import GRID_MULT
    from georay.codecs import native
    from georay.types import GeoType

    rng = np.random.default_rng(7)
    n = 120
    cx = rng.uniform(-170, 170, n)
    cy = rng.uniform(-80, 80, n)
    w = rng.uniform(0.3, 4.0, n)
    h = rng.uniform(0.3, 3.0, n)
    ring = np.empty((n, 5, 2))
    ring[:, 0] = np.column_stack([cx + w, cy])
    ring[:, 1] = np.column_stack([cx, cy + h])
    ring[:, 2] = np.column_stack([cx - w, cy])
    ring[:, 3] = np.column_stack([cx, cy - h])
    ring[:, 4] = ring[:, 0]
    cw = np.arange(n) % 2 == 1  # half the rings clockwise
    ring[cw] = ring[cw][:, ::-1]
    geo = GeoType.polygon(crs="OGC:CRS84")
    # append a degenerate 2-vertex ring and a ringless (empty) feature
    coords = np.concatenate(
        [ring.reshape(-1, 2), [[0.0, 0.0], [1.0, 1.0]]]
    )
    ring_off = np.concatenate(
        [np.arange(0, 5 * n + 1, 5), [5 * n + 2]]
    ).astype(np.int64)
    poly_off = np.concatenate(
        [np.arange(n + 1), [n + 1, n + 1]]
    ).astype(np.int64)
    geom = native.build_nested(coords, [poly_off, ring_off], geo)
    t = pa.table(
        {"pid": pa.array(np.arange(n + 2, dtype=np.int64)),
         "geometry": geom},
        schema=pa.schema([pa.field("pid", pa.int64()),
                          geo.field("geometry")]),
    )
    out = ops.polyfill_convex(
        rd.from_arrow(t), id_col="pid", res=1.0
    ).to_pandas()
    got = set(zip(out["pid"], out["grid_cell"]))
    exp = set()
    for i in range(n):
        gx0 = int(np.floor((cx[i] - w[i] + 180) / 1.0))
        gx1 = int(np.floor((cx[i] + w[i] + 180) / 1.0))
        gy0 = int(np.floor((cy[i] - h[i] + 90) / 1.0))
        gy1 = int(np.floor((cy[i] + h[i] + 90) / 1.0))
        for gx in range(gx0, gx1 + 1):
            for gy in range(gy0, gy1 + 1):
                px = min(max(cx[i], gx * 1.0 - 180), gx * 1.0 - 179)
                py = min(max(cy[i], gy * 1.0 - 90), gy * 1.0 - 89)
                if abs(px - cx[i]) / w[i] + abs(py - cy[i]) / h[i] <= 1.0:
                    exp.add((i, gx * GRID_MULT + gy))
    assert got == exp


def test_hll_distinct_accuracy_and_mergeability(ray_session):
    """hll_distinct: estimate within ~4σ of a known cardinality, and the
    registers of a union equal the elementwise max of the halves'
    registers (mergeability — the property that makes it a sketch)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from georay import ops

    n = 20_000
    keys = np.arange(1, n + 1, dtype=np.int64)
    dup = np.concatenate([keys, keys[: n // 2]])  # dups must not matter
    full = ops.hll_distinct(
        rd.from_arrow(pa.table({"k": pa.array(dup)})), "k"
    ).to_pandas().sort_values("bucket")
    est = int(full["distinct_est"].iloc[0])
    assert abs(est - n) / n < 0.26  # 4σ at m=256 (σ≈6.5%)
    assert int(full["n_zero"].iloc[0]) == int((full["r"] == 0).sum())

    a = ops.hll_distinct(
        rd.from_arrow(pa.table({"k": pa.array(keys[: n // 2])})), "k"
    ).to_pandas().sort_values("bucket")["r"].to_numpy()
    b = ops.hll_distinct(
        rd.from_arrow(pa.table({"k": pa.array(keys[n // 2:])})), "k"
    ).to_pandas().sort_values("bucket")["r"].to_numpy()
    assert (np.maximum(a, b) == full["r"].to_numpy()).all()


def test_link_prediction_cn_hand_graph(ray_session):
    """Common-neighbor link prediction: hand-checked scores on a known
    graph, adjacency exclusion, and typed schema on an empty result
    (the zero-candidate path must survive the partitioned anti join)."""
    import pyarrow as pa
    import ray.data as rd

    from georay import analytics

    # square 1-2-3-4-1 plus chord 1-3: non-adjacent pair (2,4) has
    # common neighbors {1,3} → cn 2; everything else is adjacent.
    edges = rd.from_arrow(pa.table({
        "a": pa.array([1, 2, 3, 1, 1], pa.int64()),
        "b": pa.array([2, 3, 4, 4, 3], pa.int64()),
    }))
    got = analytics.link_prediction_cn(edges, min_cn=1).to_pandas()
    assert sorted(map(tuple, got.values.tolist())) == [(2, 4, 2)]

    empty = analytics.link_prediction_cn(edges, min_cn=5)
    assert [f.name for f in empty.schema().base_schema] == ["a", "b", "cn"]
    assert empty.count() == 0


def test_dag_layers_local_vs_partitioned_vs_brute(ray_session):
    """dag_layers: both sssp plans (local CSR, directed partitioned
    label-correcting) must equal the brute longest-path DP on a random
    a<b DAG, including pure-sink nodes that appear only as edge
    heads, and on a 40-node chain whose critical path is 39 edges."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from georay import analytics

    rng = np.random.default_rng(11)
    n_nodes, n_edges = 48, 150
    a = rng.integers(0, n_nodes - 1, n_edges).astype(np.int64)
    # min step 12 keeps the critical path ≤ 3, so the partitioned plan
    # converges in 4 rounds
    b = (a + 12 + rng.integers(0, 5, n_edges).astype(np.int64)).clip(max=n_nodes - 1)
    keep = a < b
    a, b = a[keep], b[keep]
    edges = rd.from_arrow(pa.table({"a": pa.array(a), "b": pa.array(b)}))

    # brute: DP over ascending node id (valid topological order for a<b)
    layer = {}
    for v in np.unique(np.concatenate([a, b])):
        layer[int(v)] = 0
    order = np.lexsort((b, a))
    for i in order:  # relax repeatedly in topo order: one pass suffices
        layer[int(b[i])] = max(layer[int(b[i])], layer[int(a[i])] + 1)
    # second pass guards against same-source ordering subtleties
    for i in order:
        layer[int(b[i])] = max(layer[int(b[i])], layer[int(a[i])] + 1)

    loc = analytics.dag_layers(edges, rounds=6).to_pandas()
    got_loc = dict(zip(loc["node"], loc["layer"]))
    assert got_loc == layer

    part = analytics.dag_layers(
        edges, rounds=6, local_edge_cutoff=0
    ).to_pandas()
    got_part = dict(zip(part["node"], part["layer"]))
    assert got_part == layer

    # a directed 40-node chain: layer = position, one round per edge
    chain = np.arange(40, dtype=np.int64)
    edges = rd.from_arrow(pa.table({"a": pa.array(chain[:-1]), "b": pa.array(chain[1:])}))
    for cutoff in (2_000_000, 0):
        out = analytics.dag_layers(edges, rounds=40, local_edge_cutoff=cutoff).to_pandas()
        assert dict(zip(out["node"], out["layer"])) == {i: i for i in range(40)}


def test_radius_pairs_radius2_exact_boundary_and_counts(ray_session):
    """radius2 (pre-squared threshold) is applied EXACTLY — a ref whose
    d² equals radius2 is included, one ulp less excluded — and count_out
    carries the probe's total neighbor count on every pair row."""
    import ray.data as rd

    from georay.joins import radius_join_pairs
    from georay.types import GeoType

    # probe at origin; refs on a 3-4-5 triangle scaled so d² has a
    # representable-but-awkward value, plus a far ref
    rl = np.array([0.3, -0.3, 0.0, 50.0])
    rt = np.array([0.4, 0.4, 0.0, 50.0])
    rid = np.arange(4, dtype=np.int64)
    d2 = rl**2 + rt**2  # exact same expr as the kernel (ref - 0.0)
    geo = GeoType.point(crs="OGC:CRS84")
    probes = rd.from_arrow(
        pa.table({"pid": pa.array([7], pa.int64())}).append_column(
            geo.field("geotag"),
            native.build_points(np.array([[0.0, 0.0]]), geo),
        )
    )

    def pairs_at(radius2):
        rows = radius_join_pairs(
            probes, rl, rt, rid, radius=1.0, radius2=radius2,
            probe_id_col="pid", neighbor_out="rid", count_out="n",
        ).take_all()
        return sorted(r["rid"] for r in rows), [r["n"] for r in rows]

    got, counts = pairs_at(float(d2[0]))  # boundary INCLUDED
    assert got == [0, 1, 2] and counts == [3, 3, 3]
    got, counts = pairs_at(float(np.nextafter(d2[0], 0)))  # one ulp less
    assert got == [2] and counts == [1]


def test_pip_join_respects_polygon_holes(ray_session):
    """Even-odd PIP over ALL rings: a point inside a polygon's HOLE is
    outside the polygon; a point in the shell annulus is inside —
    pinned for both the grid and STR index paths."""
    import ray.data as rd

    from georay.codecs import wkt
    from georay.joins import pip_join
    from georay.types import GeoType

    donut = (
        "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), "
        "(3 3, 7 3, 7 7, 3 7, 3 3))"
    )
    geo = GeoType.polygon(crs="OGC:CRS84")
    geom, _ = wkt.decode(pa.array([donut]), geo)
    polys = pa.table(
        {"polygon_id": pa.array([1], pa.int64())}
    ).append_column(geo.field("geometry"), geom)

    pt_geo = GeoType.point(crs="OGC:CRS84")
    pts = pa.table({"image_id": pa.array(["in_hole", "in_shell", "outside"])})
    coords = np.array([[5.0, 5.0], [1.0, 5.0], [20.0, 20.0]])
    pts = pts.append_column(
        pt_geo.field("geotag"), native.build_points(coords, pt_geo)
    )
    for index in ("grid", "str"):
        got = sorted(
            r["image_id"]
            for r in pip_join(
                rd.from_arrow(pts), polys, index=index
            ).take_all()
        )
        assert got == ["in_shell"], index


def test_pip_join_multipolygon_parts(ray_session):
    """A MULTIPOLYGON matches points in EITHER part (once) and not the
    gap between parts."""
    import ray.data as rd

    from georay.codecs import wkt
    from georay.joins import pip_join
    from georay.types import GeoType

    mp = ("MULTIPOLYGON (((0 0, 4 0, 4 4, 0 4, 0 0)), "
          "((10 10, 14 10, 14 14, 10 14, 10 10)))")
    geo = GeoType.multipolygon(crs="OGC:CRS84")
    geom, _ = wkt.decode(pa.array([mp]), geo)
    polys = pa.table(
        {"polygon_id": pa.array([1], pa.int64())}
    ).append_column(geo.field("geometry"), geom)
    pt_geo = GeoType.point(crs="OGC:CRS84")
    pts = pa.table({"image_id": pa.array(["in_a", "in_b", "between"])})
    pts = pts.append_column(
        pt_geo.field("geotag"),
        native.build_points(
            np.array([[2.0, 2.0], [12.0, 12.0], [7.0, 7.0]]), pt_geo
        ),
    )
    got = sorted(
        r["image_id"]
        for r in pip_join(rd.from_arrow(pts), polys).take_all()
    )
    assert got == ["in_a", "in_b"]


def test_knn_geodesic_partitioned_matches_broadcast(ray_session):
    """r5: the BOTH-SIDES-LARGE geodesic twin (driver-free in-band-state
    ring co-shuffle + lat-band polar-stall finish) must reproduce the
    broadcast plan bit-for-bit — polar clusters (stall path), the
    antimeridian wrap, quantized-distance ties, refs-smaller-than-k,
    and NaN coordinate filtering. Closes the last hole in the
    twin matrix (SCALING.md geodesic row)."""
    import ray.data as rd

    from georay import joins

    rng = np.random.default_rng(31)
    nref, nprb = 600, 2500
    rl = np.concatenate([rng.uniform(-180, 180, nref),
                         rng.uniform(-180, 180, 40)])
    rp = np.concatenate([rng.uniform(-85, 85, nref),
                         rng.uniform(86, 89.9, 40)])
    rid = np.arange(rl.shape[0], dtype=np.int64)
    pl = np.concatenate([rng.uniform(-180, 180, nprb),
                         rng.uniform(-180, 180, 80), [179.95, -180.0, 0.0]])
    pp = np.concatenate([rng.uniform(-85, 85, nprb),
                         rng.uniform(87, 90, 80), [5.0, -89.99, 90.0]])
    probes = rd.from_arrow(pa.table({
        "pid": pa.array(np.arange(pl.shape[0]), pa.int64()),
        "lon": pa.array(pl), "lat": pa.array(pp),
    })).repartition(5)
    refs = rd.from_arrow(pa.table({
        "rid": pa.array(rid), "lon": pa.array(rl), "lat": pa.array(rp),
    })).repartition(3)

    for k in (1, 3):
        bc = joins.knn_geodesic_join(
            probes, rl, rp, rid, k=k, out_id="rid", brute_cutoff=1 << 30
        ).to_pandas()
        pt = joins.knn_geodesic_partitioned(
            probes, refs, k=k, probe_id_col="pid", ref_id_col="rid"
        ).to_pandas()
        a = set(zip(bc["pid"], bc["rid"], bc["d_mkm"], bc["rank"]))
        b = set(zip(pt["pid"], pt["rid"], pt["d_mkm"], pt["rank"]))
        assert a == b, (k, len(a - b), len(b - a))

    nb = joins.nearest_geodesic_join(
        probes, rl, rp, rid, out_id="rid", brute_cutoff=1 << 30
    ).to_pandas()
    npart = joins.nearest_geodesic_partitioned(
        probes, refs, probe_id_col="pid", ref_id_col="rid"
    ).to_pandas()
    assert set(zip(nb["pid"], nb["rid"], nb["d_mkm"])) == set(
        zip(npart["pid"], npart["rid"], npart["d_mkm"])
    )

    # refs smaller than k → fewer rows per probe, still exact
    small_refs = rd.from_arrow(pa.table({
        "rid": pa.array([10, 11], pa.int64()),
        "lon": pa.array([0.5, 179.9]), "lat": pa.array([0.5, -60.0]),
    }))
    few = rd.from_arrow(pa.table({
        "pid": pa.array([1, 2], pa.int64()),
        "lon": pa.array([0.0, np.nan]), "lat": pa.array([0.0, 10.0]),
    }))
    out = joins.knn_geodesic_partitioned(
        few, small_refs, k=5, probe_id_col="pid", ref_id_col="rid"
    ).to_pandas()
    assert set(out["pid"]) == {1} and len(out) == 2  # NaN probe dropped


def test_radius_geodesic_partitioned_matches_brute(ray_session):
    """r5: the both-sides-large geodesic radius count (pole-safe
    lat-band × widened-lon probe cover, one cell co-shuffle, exact
    in-bucket haversine) vs a brute haversine scan — polar clusters,
    antimeridian probes, a probe at 89.999°, two radii."""
    import ray.data as rd

    from georay import joins
    from georay.kernels import haversine_km

    rng = np.random.default_rng(77)
    rlon = np.concatenate([rng.uniform(-180, 180, 300),
                           rng.uniform(-180, 180, 30)])
    rlat = np.concatenate([rng.uniform(-85, 85, 300),
                           rng.uniform(85, 89.99, 30)])
    plon = np.concatenate([rng.uniform(-180, 180, 800),
                           [179.99, -179.99, 0.0]])
    plat = np.concatenate([rng.uniform(-88, 88, 800),
                           [0.0, 0.0, 89.999]])
    pid = np.arange(plon.shape[0], dtype=np.int64)
    probes = rd.from_arrow(pa.table({
        "pid": pa.array(pid), "lon": pa.array(plon),
        "lat": pa.array(plat),
    })).repartition(4)
    refs = rd.from_arrow(pa.table({
        "rid": pa.array(np.arange(rlon.shape[0], dtype=np.int64)),
        "lon": pa.array(rlon), "lat": pa.array(rlat),
    })).repartition(2)
    for radius in (300.0, 1200.0):
        km = haversine_km(plon[:, None], plat[:, None],
                          rlon[None, :], rlat[None, :])
        cnt = (km <= radius).sum(axis=1)
        want = {int(p): int(c) for p, c in zip(pid, cnt) if c}
        got_df = joins.radius_geodesic_count_partitioned(
            probes, refs, radius_km=radius, probe_id_col="pid"
        ).to_pandas()
        got = dict(zip(got_df["pid"].astype(int),
                       got_df["n"].astype(int)))
        assert got == want, radius


def test_knn_geodesic_partitioned_unsnapped_res(ray_session):
    """r5: an explicit res that does NOT divide 360 (seam slack > 0)
    must still match the broadcast plan — keeps the slack code path
    covered now that the DEFAULT grid is snapped seam-free."""
    import ray.data as rd

    from georay import joins

    rng = np.random.default_rng(13)
    rlon = rng.uniform(-180, 180, 200)
    rlat = rng.uniform(-85, 85, 200)
    rid = np.arange(200, dtype=np.int64)
    plon = np.concatenate([rng.uniform(-180, 180, 600),
                           [179.99, -179.99]])
    plat = np.concatenate([rng.uniform(-85, 85, 600), [3.0, -3.0]])
    pid = np.arange(plon.shape[0], dtype=np.int64)
    probes = rd.from_arrow(pa.table({
        "pid": pa.array(pid), "lon": pa.array(plon),
        "lat": pa.array(plat),
    })).repartition(3)
    refs = rd.from_arrow(pa.table({
        "rid": pa.array(rid), "lon": pa.array(rlon),
        "lat": pa.array(rlat),
    }))
    bc = joins.knn_geodesic_join(
        probes, rlon, rlat, rid, k=3, out_id="rid",
        brute_cutoff=1 << 30,
    ).to_pandas()
    pt = joins.knn_geodesic_partitioned(
        probes, refs, k=3, probe_id_col="pid", ref_id_col="rid",
        res=1.17,
    ).to_pandas()
    assert set(zip(bc["pid"], bc["rid"], bc["d_mkm"], bc["rank"])) == set(
        zip(pt["pid"], pt["rid"], pt["d_mkm"], pt["rank"])
    )


def test_knn_partitioned_waves_match_one_exchange(ray_session, monkeypatch, capsys):
    """A tiny ``msg_budget`` splits every ring round into several
    hash(pid) waves; the rows must equal the single-exchange default run,
    for the geodesic twin and for the planar metric through the same
    ring engine (its public twin has no budget parameter)."""
    import re

    import ray.data as rd

    from georay import joins

    rng = np.random.default_rng(23)
    rlon, rlat = rng.uniform(-180, 180, 150), rng.uniform(-89, 89, 150)
    plon = np.concatenate([rng.uniform(-180, 180, 200), [179.9, 0.0]])
    plat = np.concatenate([rng.uniform(-85, 85, 200), [0.0, 89.9]])
    geo = GeoType.point()

    def pts(idc, ids, lon, lat):
        return rd.from_arrow(pa.table({
            idc: pa.array(ids, pa.int64()), "lon": pa.array(lon),
            "lat": pa.array(lat),
        }).append_column(
            geo.field("geotag"),
            native.build_points(np.column_stack([lon, lat]), geo),
        ))

    probes = pts("pid", np.arange(plon.shape[0]), plon, plat)
    refs = pts("rid", np.arange(rlon.shape[0]), rlon, rlat)

    def key(df, cols):
        return set(map(tuple, df[cols].itertuples(index=False)))

    def waves(out: str) -> int:
        return max(int(w) for w in re.findall(r"waves=(\d+)", out))

    monkeypatch.setenv("GEORAY_KNN_DEBUG", "1")
    cols = ["pid", "rid", "d_mkm", "rank"]
    one = joins.knn_geodesic_partitioned(probes, refs, k=3).to_pandas()
    assert waves(capsys.readouterr().out) == 1
    many = joins.knn_geodesic_partitioned(
        probes, refs, k=3, msg_budget=1000
    ).to_pandas()
    assert waves(capsys.readouterr().out) > 1
    assert len(one) == 3 * plon.shape[0] and key(one, cols) == key(many, cols)

    res = 20.0
    cols = ["pid", "rid", "knn_rank"]
    one = joins.knn_join_partitioned(
        probes, refs, k=3, res=res, probe_id_col="pid", ref_id_col="rid"
    ).to_pandas()
    capsys.readouterr()
    many = joins._ring_knn(
        probes.select_columns(["pid", "lon", "lat"]),
        refs.select_columns(["rid", "lon", "lat"]),
        3, res, joins._PlanarMetric(res), 16, 64, 1000,
        lambda b: b.select(["pid", "rid", "rank"]).rename_columns(cols),
    ).to_pandas()
    assert waves(capsys.readouterr().out) > 1
    assert len(one) == 3 * plon.shape[0] and key(one, cols) == key(many, cols)
