"""Degenerate-input sweep: every bucketed/combine-tree operator must
handle EMPTY and single-row datasets (reduceat/searchsorted edge cases
— the shapes a real 100-TB run hits in sparse partitions)."""

import numpy as np
import pyarrow as pa
import pytest

from georay import ops


EMPTY = pa.table({
    "k": pa.array([], pa.int64()), "s": pa.array([], pa.string()),
    "ts": pa.array([], pa.int64()), "v": pa.array([], pa.float64()),
})
ONE = pa.table({
    "k": pa.array([5], pa.int64()), "s": pa.array(["x"]),
    "ts": pa.array([100], pa.int64()), "v": pa.array([2.0]),
})


@pytest.mark.parametrize("tbl,expect", [(EMPTY, 0), (ONE, 1)])
def test_operators_on_degenerate_inputs(tbl, expect, ray_session):
    import ray.data as rd

    ds = rd.from_arrow(tbl)
    cases = {
        "dedup_exact": lambda d: ops.dedup_exact(d, "s", keep_col="k"),
        "group_top_k": lambda d: ops.group_top_k(d, "k", ["v"], 2),
        "sessionize_int": lambda d: ops.sessionize(d, key="k", ts="ts", gap_us=10),
        "sessionize_str": lambda d: ops.sessionize(d, key="s", ts="ts", gap_us=10),
        "window_lag": lambda d: ops.window_lag(d, "k", "ts", "v"),
        "window_cumsum": lambda d: ops.window_cumsum(d, "k", "ts", "v"),
        "grouped_quantiles": lambda d: ops.grouped_quantiles(d, "k", "v", [0.5]),
        "pivot_count": lambda d: ops.pivot_count(d, "k", "s", ["x", "y"]),
        "heavy_hitters": lambda d: ops.heavy_hitters(d, "s", 0.5),
        "top_k": lambda d: ops.top_k(d, "v", 3),
        "focal_sum": lambda d: ops.focal_sum(
            rd.from_arrow(pa.table({"grid_cell": tbl["k"], "n": tbl["k"]}))
        ),
    }
    for name, fn in cases.items():
        r = fn(ds)
        n = r.count() if isinstance(r, rd.Dataset) else len(r)
        assert n == expect, name
    # profile emits one row per column; an all-empty dataset produces no
    # batches, hence no rows (documented)
    assert ops.profile_columns(ds, ["k", "v", "s"]).count() == (3 if expect else 0)


def test_bytes_hash_long_keys_distinct():
    """Keys sharing a >4 KiB prefix with permuted tails must hash apart
    (a capped power table aliased positions past 4095 and collided
    them), and trailing NUL bytes must change the hash (length fold)."""
    import pyarrow as pa

    from georay.ops import _bytes_hash

    arr = pa.array(
        [
            b"x" * 4096 + b"ab",
            b"x" * 4096 + b"ba",
            b"hello",
            b"hello",
            b"",
            None,
            b"ab",
            b"ab\x00",
            b"ab\x00\x00",
        ],
        pa.binary(),
    )
    h = _bytes_hash(arr)
    assert h[0] != h[1]
    assert h[2] == h[3]
    assert h[4] == 0 and h[5] == 0
    assert len({int(h[6]), int(h[7]), int(h[8])}) == 3
    # no collisions over a few thousand random long keys
    rng = np.random.default_rng(7)
    keys = [rng.integers(0, 256, size=5000, dtype=np.uint8).tobytes() for _ in range(2000)]
    hh = _bytes_hash(pa.array(keys, pa.binary()))
    assert len(set(hh.tolist())) == 2000


def test_ohlc_bars_rejects_unpackable_keys(ray_session):
    """(key, period) packing is only injective for |key| < 2^32 and
    0 <= period < 2^31 — out-of-range inputs must raise, not collide."""
    import ray.data as rd

    big = pa.table(
        {
            "k": pa.array([1 << 33], pa.int64()),
            "ts": pa.array([1_000_000], pa.int64()),
            "v": pa.array([1.0], pa.float64()),
        }
    )
    with pytest.raises(Exception, match="pack"):
        ops.ohlc_bars(
            rd.from_arrow(big), key="k", ts_col="ts", value_col="v",
            bucket_us=1_000_000,
        ).count()
    neg = big.set_column(0, "k", pa.array([1], pa.int64())).set_column(
        1, "ts", pa.array([-5_000_000], pa.int64())
    )
    with pytest.raises(Exception, match="pack"):
        ops.ohlc_bars(
            rd.from_arrow(neg), key="k", ts_col="ts", value_col="v",
            bucket_us=1_000_000,
        ).count()


@pytest.mark.parametrize("n", [0, 1])
def test_round3_ops_on_degenerate_inputs(n, ray_session):
    """Empty and single-row inputs through the round-3 additions."""
    import ray.data as rd

    from georay import analytics

    tbl = pa.table(
        {
            "u": pa.array([7] * n, pa.int64()),
            "ts": pa.array([100] * n, pa.timestamp("us")),
            "e": pa.array([1] * n, pa.int64()),
            "lon": pa.array([1.0] * n),
            "lat": pa.array([2.0] * n),
            "v": pa.array([3.0] * n),
        }
    )
    ds = rd.from_arrow(tbl)
    assert analytics.trajectory_clip_rect(
        ds, "u", "ts", "lon", "lat", rect=(0, 0, 10, 10), tiebreak_col="e"
    ).count() == n
    assert analytics.trajectory_midpoint(
        ds, "u", "ts", "lon", "lat", tiebreak_col="e"
    ).count() == n
    assert analytics.movement_rose(
        ds, "u", "ts", "lon", "lat", tiebreak_col="e"
    ).count() == 0  # a single fix has no legs
    assert analytics.simplify_tracks(
        ds, "u", "ts", "lon", "lat", epsilon=1.0, tiebreak_col="e"
    ).count() == n
    assert analytics.lttb_downsample(ds, "u", "ts", "v", 3).count() == n

    box = rd.from_arrow(
        pa.table(
            {
                "xmin": pa.array([0.0] * n), "ymin": pa.array([0.0] * n),
                "xmax": pa.array([1.0] * n), "ymax": pa.array([1.0] * n),
            }
        )
    )
    assert ops.rasterize_boxes(box, "xmin", "ymin", "xmax", "ymax", 10.0).count() == n

    kv = rd.from_arrow(pa.table({"k": pa.array([1] * n, pa.int64()),
                                 "v": pa.array([2.0] * n)}))
    assert ops.window_share(kv, "k", "v").count() == n
    sk = pa.Table.from_pandas(
        ops.count_min_sketch(kv, "k", width=16, depth=2).to_pandas(),
        preserve_index=False,
    )
    est = ops.cms_estimate(sk, np.array([1], np.int64), width=16, depth=2)
    assert est.tolist() == [n]
    anon = ops.k_anonymity_stats(kv, ["k"], 5).to_pandas()
    assert anon["n_rows_at_risk"].tolist() == [n]


def test_snap_partitioned_no_matches(ray_session):
    """All probe points farther than max_radius from every segment:
    empty result with the right schema, no crash."""
    import pyarrow as pa
    import ray.data as rd

    from georay import joins

    pts = rd.from_arrow(
        pa.table(
            {
                "pid": pa.array([1, 2], pa.int64()),
                "lon": pa.array([-170.0, -160.0]),
                "lat": pa.array([-80.0, -70.0]),
            }
        )
    )
    segs = rd.from_arrow(
        pa.table(
            {
                "seg_id": pa.array([1], pa.int64()),
                "ax": pa.array([170.0]), "ay": pa.array([80.0]),
                "bx": pa.array([171.0]), "by": pa.array([81.0]),
            }
        )
    )
    out = joins.nearest_segment_join_partitioned(
        pts, segs, max_radius=1.0, point_id_col="pid"
    ).to_pandas()
    assert len(out) == 0


def test_equi_join_partitioned_null_keys(ray_session):
    """SQL null semantics: NULL keys join NOTHING (inner), survive
    null-extended in a left join — even though the bucket hash sends
    all nulls to value-0's bucket."""
    import pyarrow as pa
    import ray.data as rd

    left = pa.table(
        {"k": pa.array([1, None, 2], pa.int64()),
         "lv": pa.array([10, 20, 30], pa.int64())}
    )
    right = pa.table(
        {"rk": pa.array([1, None, 3], pa.int64()),
         "rv": pa.array([100, 200, 300], pa.int64())}
    )
    inner = ops.equi_join_partitioned(
        rd.from_arrow(left), rd.from_arrow(right), on="k", right_on="rk"
    ).to_pandas()
    assert inner["lv"].tolist() == [10]
    lo = ops.equi_join_partitioned(
        rd.from_arrow(left), rd.from_arrow(right), on="k", right_on="rk",
        how="left",
    ).to_pandas()
    assert len(lo) == 3
    assert lo[lo["k"].isna()]["rv"].isna().all()


def test_salted_count_null_keys_one_group(ray_session):
    """SQL GROUP BY semantics: all NULL keys form ONE group (NaN != NaN
    would otherwise split every null row into its own group)."""
    import pyarrow as pa
    import ray.data as rd

    t = pa.table({"k": pa.array([1, None, None, 2], pa.int64())})
    out = ops.salted_count(rd.from_arrow(t), ["k"], count_alias="n").to_pandas()
    assert len(out) == 3
    assert int(out[out["k"].isna()]["n"].iloc[0]) == 2


def test_salted_count_null_string_keys(ray_session):
    """Null STRING group keys: np.lexsort cannot compare None with str;
    the factorize path groups them as SQL does (one NULL group)."""
    import pyarrow as pa
    import ray.data as rd

    t = pa.table({"k": pa.array(["a", None, None, "b"])})
    out = ops.salted_count(rd.from_arrow(t), ["k"], count_alias="n").to_pandas()
    assert len(out) == 3
    assert int(out[out["k"].isna()]["n"].iloc[0]) == 2


def test_top_k_null_strings_both_directions(ray_session):
    """ADVICE r3: descending string keys with NULLs crashed np.unique
    (None < str). NULL strings now rank LAST in BOTH directions (SQL
    NULLS LAST, DuckDB default)."""
    import pyarrow as pa
    import ray.data as rd

    t = pa.table(
        {"s": pa.array(["b", None, "a", "c", None]),
         "i": pa.array([1, 2, 3, 4, 5], pa.int64())}
    )
    d = ops.top_k(rd.from_arrow(t), "s", 5, descending=True).to_pandas()
    assert d["s"].tolist()[:3] == ["c", "b", "a"]
    assert d["s"].isna().tolist() == [False, False, False, True, True]
    a = ops.top_k(rd.from_arrow(t), "s", 5, descending=False).to_pandas()
    assert a["s"].tolist()[:3] == ["a", "b", "c"]
    assert a["s"].isna().tolist() == [False, False, False, True, True]


def test_group_top_k_null_strings(ray_session):
    """Same null hardening for the grouped variant's order columns."""
    import pyarrow as pa
    import ray.data as rd

    t = pa.table(
        {"g": pa.array([1, 1, 1, 2, 2], pa.int64()),
         "s": pa.array(["b", None, "a", None, "z"])}
    )
    out = ops.group_top_k(
        rd.from_arrow(t), "g", "s", 1, descending=True
    ).to_pandas().sort_values("g")
    assert out["s"].tolist() == ["b", "z"]


def test_interval_union_length_wide_span_fallback(ray_session):
    """ADVICE r3: kid*span packing overflows int64 for many keys x a
    wide timestamp span; the per-key-segment fallback must agree with
    the packed path."""
    import pyarrow as pa
    import ray.data as rd

    span = (1 << 61)  # one key's span alone forces the fallback branch
    t = pa.table(
        {"k": pa.array([1, 1, 2], pa.int64()),
         "s": pa.array([0, 5, span - 10], pa.int64()),
         "e": pa.array([10, 20, span - 1], pa.int64())}
    )
    out = ops.interval_union_length(
        rd.from_arrow(t), "k", "s", "e", n_buckets=2
    ).to_pandas().sort_values("k")
    assert out["covered"].tolist() == [20, 9]

    # same intervals through the packed fast path (narrow span)
    t2 = pa.table(
        {"k": pa.array([1, 1, 2], pa.int64()),
         "s": pa.array([0, 5, 100], pa.int64()),
         "e": pa.array([10, 20, 109], pa.int64())}
    )
    out2 = ops.interval_union_length(
        rd.from_arrow(t2), "k", "s", "e", n_buckets=2
    ).to_pandas().sort_values("k")
    assert out2["covered"].tolist() == [20, 9]


def test_window_share_overflow_and_zero_total_raise(ray_session):
    """ADVICE r3: the shift used to wrap silently negative and a
    zero-total key hit numpy's divide-by-zero warning; both raise now."""
    import pyarrow as pa
    import pytest
    import ray.data as rd

    big = pa.table(
        {"k": pa.array([1, 1], pa.int64()),
         "v": pa.array([1 << 44, 1], pa.int64())}
    )
    with pytest.raises(Exception):
        ops.window_share(rd.from_arrow(big), "k", "v").to_pandas()
    zero = pa.table(
        {"k": pa.array([1, 1], pa.int64()),
         "v": pa.array([0, 0], pa.int64())}
    )
    with pytest.raises(Exception):
        ops.window_share(rd.from_arrow(zero), "k", "v").to_pandas()


def test_snapshot_diff_both_null_unchanged(ray_session):
    """ADVICE r3: a key NULL in both snapshots was 'changed' every run
    (NaN != NaN); IS NOT DISTINCT FROM semantics pin it as unchanged."""
    import pyarrow as pa
    import ray.data as rd

    old = pa.table(
        {"k": pa.array([1, 2, 3], pa.int64()),
         "v": pa.array([None, 5, None], pa.int64())}
    )
    new = pa.table(
        {"k": pa.array([1, 2, 3], pa.int64()),
         "v": pa.array([None, 6, 7], pa.int64())}
    )
    d = ops.snapshot_diff(
        rd.from_arrow(old), rd.from_arrow(new), "k", "v"
    ).to_pandas()
    assert int(d["n_unchanged"].iloc[0]) == 1  # both-null key 1
    assert int(d["n_changed"].iloc[0]) == 2    # 5->6 and NULL->7
    ch = ops.snapshot_changes(
        rd.from_arrow(old), rd.from_arrow(new), "k", "v"
    ).to_pandas()
    assert sorted(ch["k"].tolist()) == [2, 3]


def _pts_tbl(n, idc="pt_id"):
    import numpy as np
    import pyarrow as pa

    from georay.codecs import native
    from georay.types import GeoType

    geo = GeoType.point(crs="OGC:CRS84")
    if n == 0:
        t = pa.table({idc: pa.array([], pa.int64())})
        return t.append_column(
            geo.field("geotag"), native.build_points(np.empty((0, 2)), geo)
        )
    rng = np.random.default_rng(1)
    t = pa.table({idc: pa.array(np.arange(n, dtype=np.int64))})
    return t.append_column(
        geo.field("geotag"),
        native.build_points(
            np.column_stack([rng.uniform(-10, 10, n), rng.uniform(-10, 10, n)]),
            geo,
        ),
    )


def test_empty_inputs_through_partitioned_twins(ray_session):
    """r4 robustness sweep: every partitioned join twin must run (and
    return the right empty shape) with an empty probe side, an empty
    reference side, or both."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from georay import generate, joins

    def D(t):
        return rd.from_arrow(t)

    polys = generate.make_polygons_table(10, seed=3)
    assert joins.pip_join_partitioned(
        D(_pts_tbl(0)), D(polys), res=4.0, point_id_col="pt_id"
    ).count() == 0
    assert joins.pip_join_partitioned(
        D(_pts_tbl(5)), D(polys.slice(0, 0)), res=4.0, point_id_col="pt_id"
    ).count() == 0
    assert joins.knn_join_partitioned(
        D(_pts_tbl(0, "p_partkey")), D(_pts_tbl(5, "s_suppkey")), k=2,
        probe_id_col="p_partkey", ref_id_col="s_suppkey", res=5.0,
    ).count() == 0
    assert joins.knn_join_partitioned(
        D(_pts_tbl(5, "p_partkey")), D(_pts_tbl(0, "s_suppkey")), k=2,
        probe_id_col="p_partkey", ref_id_col="s_suppkey", res=5.0, max_ring=4,
    ).count() == 0
    refs_empty = pa.table(
        {"lon": pa.array([], pa.float64()), "lat": pa.array([], pa.float64())}
    )
    assert joins.radius_join_count_partitioned(
        D(_pts_tbl(5, "p_partkey")), D(refs_empty), radius=2.0
    ).count() == 0
    ts_empty = pa.table(
        {"k": pa.array([], pa.int64()), "ts": pa.array([], pa.int64())}
    )
    rt = pa.table({"rk": pa.array([1], pa.int64()), "rts": pa.array([4], pa.int64())})
    assert ops.asof_join_partitioned(
        rd.from_arrow(ts_empty), rd.from_arrow(rt),
        left_key="k", left_ts="ts", right_key="rk", right_ts="rts",
    ).count() == 0
    assert ops.asof_join_partitioned(
        rd.from_arrow(rt.rename_columns(["k", "ts"])),
        rd.from_arrow(rt.slice(0, 0)),
        left_key="k", left_ts="ts", right_key="rk", right_ts="rts",
    ).count() == 0


def test_pip_partitioned_string_polygon_ids(ray_session):
    """r4 probe find: pip_join_partitioned hardcoded int64 polygon ids
    while the broadcast plan accepts strings (make_polygons_table's
    shape). Both plans must now agree on string ids, dtype preserved."""
    import ray.data as rd

    from georay import generate, joins

    import numpy as np
    import pyarrow as pa

    from georay.codecs import native
    from georay.types import GeoType

    polys = generate.make_polygons_table(200, seed=3)  # string polygon_id
    rng = np.random.default_rng(7)
    geo = GeoType.point(crs="OGC:CRS84")
    pts = pa.table(
        {"pt_id": pa.array(np.arange(500, dtype=np.int64))}
    ).append_column(
        geo.field("geotag"),
        native.build_points(
            np.column_stack(
                [rng.uniform(-180, 180, 500), rng.uniform(-85, 85, 500)]
            ),
            geo,
        ),
    )
    part = joins.pip_join_partitioned(
        rd.from_arrow(pts), rd.from_arrow(polys), res=4.0, point_id_col="pt_id"
    ).to_pandas()
    bc = joins.pip_join(
        rd.from_arrow(pts), polys, mode="inner", geom_col="geotag"
    ).to_pandas()
    a = sorted(zip(part["pt_id"].astype(str), part["polygon_id"]))
    b = sorted(zip(bc["pt_id"].astype(str), bc["polygon_id"]))
    assert a == b and len(a) > 0
    assert part["polygon_id"].map(type).eq(str).all()


def _sorted_pylist(ds, cols):
    import pandas as pd

    df = ds.to_pandas().sort_values(["k", "ts"]).reset_index(drop=True)
    return [df[c].tolist() for c in cols]


def test_window_sum_family_null_payloads(ray_session):
    """SQL SUM window semantics with NULL payloads: NULLs are skipped
    from the total and the frame sum is NULL only while the frame holds
    zero non-null values; a non-null NaN still poisons float sums
    (verified against DuckDB in the round-4 probe — testdata has no
    null payloads, so the oracle sweep can't see this)."""
    import math

    import ray.data as rd

    t = pa.table({
        "k": pa.array([1, 1, 1, 2, 2, 3], pa.int64()),
        "ts": pa.array([1, 2, 3, 1, 2, 1], pa.int64()),
        "v": pa.array([1.0, None, float("nan"), None, 5.0, None], pa.float64()),
        "vi": pa.array([1, None, 7, None, 5, None], pa.int64()),
    })
    ds = rd.from_arrow(t)

    (rs,) = _sorted_pylist(ops.window_cumsum(ds, "k", "ts", "v"), ["running_sum"])
    assert rs[0] == 1.0 and rs[1] == 1.0 and math.isnan(rs[2])
    assert rs[3] != rs[3] or rs[3] is None or np.isnan(rs[3])  # NULL → NaN in pandas
    assert rs[4] == 5.0

    (ms,) = _sorted_pylist(
        ops.window_moving_sum(ds, "k", "ts", "v", 2), ["moving_sum"]
    )
    # k=2 row1 frame {NULL} → NULL; row2 frame {NULL, 5.0} → 5.0
    assert np.isnan(ms[3]) and ms[4] == 5.0

    out = ops.window_range_sum(ds, "k", "ts", "vi", 1).to_pandas()
    out = out.sort_values(["k", "ts"]).reset_index(drop=True)
    got = out["range_sum"].tolist()
    # k=1: [1, 1(Null skipped), 7]; k=2: [NULL, 5]; k=3: [NULL]
    assert got[0] == 1 and got[1] == 1 and got[2] == 7
    assert np.isnan(got[3]) and got[4] == 5 and np.isnan(got[5])


def test_window_range_minmax_nan_and_null(ray_session):
    """MIN/MAX window over NaN/NULL payloads: NULL skipped (NULL result
    only for all-NULL frames), NaN orders GREATER than every float
    (DuckDB total order) and round-trips bit-exactly through the
    order-key transform — ±inf included."""
    import ray.data as rd

    t = pa.table({
        "k": pa.array([1] * 6 + [2] * 3, pa.int64()),
        "ts": pa.array([1, 2, 3, 4, 5, 6, 1, 2, 3], pa.int64()),
        "v": pa.array(
            [-2.5, float("nan"), float("-inf"), 0.0, float("inf"), None,
             float("nan"), float("nan"), None], pa.float64()),
    })
    ds = rd.from_arrow(t)
    mn = ops.window_range_minmax(ds, "k", "ts", "v", 2, "min").to_pandas()
    mn = mn.sort_values(["k", "ts"]).reset_index(drop=True)["range_min"].tolist()
    # k=1 framewise mins: [-2.5, -2.5, -inf, -inf, -inf, 0.0]
    assert mn[:6] == [-2.5, -2.5, float("-inf"), float("-inf"), float("-inf"), 0.0]
    # k=2: all-NaN frames stay NaN, trailing NULL row's frame still has NaNs
    assert all(x != x for x in mn[6:])
    mx = ops.window_range_minmax(ds, "k", "ts", "v", 2, "max").to_pandas()
    mx = mx.sort_values(["k", "ts"]).reset_index(drop=True)["range_max"].tolist()
    # NaN > inf in the total order, so every k=1 frame containing the
    # ts=2 NaN maxes to NaN; afterwards +inf wins
    assert mx[0] == -2.5
    assert all(x != x for x in mx[1:4])
    assert mx[4] == float("inf") and mx[5] == float("inf")


def test_window_family_single_row_groups(ray_session):
    """Every key exactly one row: rank family emits 1/0-style floors,
    lag/lead emit NULL, sums equal the value (probed vs DuckDB in
    round 4 — single-row groups are reduceat edge cases)."""
    import ray.data as rd

    n = 5
    t = pa.table({
        "k": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array(np.arange(n, dtype=np.int64) * 10),
        "v": pa.array(np.arange(n, dtype=np.int64) * 3 + 1),
    })
    ds = rd.from_arrow(t)
    pr = ops.window_percent_rank(ds, "k", "ts").to_pandas()["pct_rank"]
    assert (pr == 0.0).all()
    cd = ops.window_cume_dist(ds, "k", "ts").to_pandas()["cume_dist"]
    assert (cd == 1.0).all()
    lg = ops.window_lag(ds, "k", "ts", "v").to_pandas()["lag_value"]
    assert lg.isna().all()
    ld = ops.window_lead(ds, "k", "ts", "v").to_pandas()["lead_value"]
    assert ld.isna().all()
    nt = ops.window_ntile(ds, "k", "ts", 4).to_pandas()["tile"]
    assert (nt == 1).all()
    cs = ops.window_cumsum(ds, "k", "ts", "v").to_pandas()
    assert (
        cs.sort_values("k")["running_sum"].to_numpy()
        == t["v"].to_numpy().astype(np.float64)
    ).all()


def test_dissolve_area_edges(ray_session):
    """Union-of-rects dissolve: overlap counts once, contained rects
    add nothing, disjoint rects add up, degenerate (min>=max) rects are
    EMPTY boxes (reference src/geoarrow.c:2986-3016), string keys work,
    empty input yields an empty typed table."""
    import ray.data as rd

    t = pa.table({
        "g": pa.array(["a", "a", "a", "b", "b", "c"], pa.string()),
        "x1": pa.array([0, 5, 2, 0, 10, 3], pa.int64()),
        "y1": pa.array([0, 5, 2, 0, 10, 3], pa.int64()),
        "x2": pa.array([10, 15, 4, 10, 20, 3], pa.int64()),
        "y2": pa.array([10, 15, 4, 10, 20, 3], pa.int64()),
    })
    out = (
        ops.dissolve_area(rd.from_arrow(t), "g", "x1", "y1", "x2", "y2")
        .to_pandas().sort_values("g").reset_index(drop=True)
    )
    # a: two 10x10 overlapping on [5,10)^2 (area 175) + contained 2x2 → 175
    # b: two disjoint 10x10 → 200; c: degenerate only → absent
    assert out["g"].tolist() == ["a", "b"]
    assert out["union_area"].tolist() == [175, 200]

    empty = pa.table({
        "g": pa.array([], pa.int64()),
        "x1": pa.array([], pa.int64()), "y1": pa.array([], pa.int64()),
        "x2": pa.array([], pa.int64()), "y2": pa.array([], pa.int64()),
    })
    assert ops.dissolve_area(
        rd.from_arrow(empty), "g", "x1", "y1", "x2", "y2"
    ).count() == 0


def test_round4_batch34_null_payloads(ray_session):
    """NULL keys/timestamps/scores are EXCLUDED (documented) across the
    round-4 batch-3/4 ops instead of corrupting the int casts."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from georay import ops

    # pr_curve: null score + null label rows dropped
    t = pa.table(
        {
            "label": pa.array([1, None, 0, 1], pa.int64()),
            "score": pa.array([2.0, 1.0, None, 1.0], pa.float64()),
        }
    )
    out = ops.pr_curve(rd.from_arrow(t), "label", "score", quantize=1.0) \
        .to_pandas().sort_values("s", ascending=False)
    assert out["tp"].tolist() == [1, 2] and out["fp"].tolist() == [0, 0]

    # corr_pairs: pairwise-complete exclusion
    t = pa.table(
        {
            "x": pa.array([1.0, None, 3.0], pa.float64()),
            "y": pa.array([2.0, 4.0, None], pa.float64()),
        }
    )
    r = ops.corr_pairs(rd.from_arrow(t), {"x": 1.0, "y": 1.0}) \
        .to_pandas().iloc[0]
    assert (r.n, r.sx, r.sy, r.sxy) == (1, 1, 2, 2)

    # islands / interarrival: null ts rows dropped
    ts = pa.array([np.datetime64(0, "us"), None], pa.timestamp("us"))
    t = pa.table({"u": pa.array([7, 7], pa.int64()), "ts": ts})
    isl = ops.activity_islands(rd.from_arrow(t), "u", "ts", n_buckets=2) \
        .to_pandas()
    assert isl["n_days"].tolist() == [1]
    ia = ops.interarrival_stats(rd.from_arrow(t), "u", "ts", n_buckets=2) \
        .to_pandas()
    assert ia["n_events"].tolist() == [1]

    # contingency: null category rows dropped
    t = pa.table(
        {"r": pa.array(["a", None, "b"]), "c": pa.array(["x", "y", None])}
    )
    cp = ops.contingency_profile(rd.from_arrow(t), "r", "c").to_pandas()
    assert cp["n"].tolist() == [1] and cp["obs"].tolist() == [1]


def test_empty_inputs_remaining_partitioned_twins(ray_session):
    """r4 session-4 sweep: the partitioned twins the earlier empty-input
    test did not cover (interval count, nearest-segment snap, equality
    join in every how) must return the right empty/null-padded shape
    with an empty probe side, an empty reference side, or both —
    including payload columns surviving Ray 2.49's empty-partition
    schema loss."""
    import pyarrow as pa
    import ray.data as rd

    from georay import joins

    def D(t):
        return rd.from_arrow(t)

    probes = pa.table({"ts": pa.array([100, 200], pa.int64())})
    iv = pa.table({"start": pa.array([90], pa.int64())})
    assert ops.interval_join_count_partitioned(
        D(probes.slice(0, 0)), D(iv), "ts", "start", width_us=50
    ).count() == 0
    rows = sorted(
        ops.interval_join_count_partitioned(
            D(probes), D(iv.slice(0, 0)), "ts", "start", width_us=50
        ).take_all(),
        key=lambda r: r["ts"],
    )
    assert [(r["ts"], r["n_matches"]) for r in rows] == [(100, 0), (200, 0)]
    assert ops.interval_join_count_partitioned(
        D(probes.slice(0, 0)), D(iv.slice(0, 0)), "ts", "start", width_us=50
    ).count() == 0

    pts = pa.table({
        "pid": pa.array([1], pa.int64()),
        "lon": pa.array([0.0]), "lat": pa.array([0.0]),
    })
    segs = pa.table({
        "seg_id": pa.array([7], pa.int64()),
        "ax": pa.array([0.0]), "ay": pa.array([1.0]),
        "bx": pa.array([1.0]), "by": pa.array([1.0]),
    })
    for l, r in [
        (pts.slice(0, 0), segs),
        (pts, segs.slice(0, 0)),
        (pts.slice(0, 0), segs.slice(0, 0)),
    ]:
        assert joins.nearest_segment_join_partitioned(
            D(l), D(r), max_radius=2.0
        ).count() == 0

    lt = pa.table({"k": pa.array([1, 2], pa.int64()),
                   "lv": pa.array([10, 20], pa.int64())})
    rt = pa.table({"k": pa.array([2, 3], pa.int64()),
                   "rv": pa.array([5, 6], pa.int64())})
    for how, n_empty_left, n_empty_right in [
        # outer keeps the unmatched RIGHT rows when the left is empty
        ("inner", 0, 0), ("left", 0, 2), ("outer", 2, 2),
        ("semi", 0, 0), ("anti", 0, 2),
    ]:
        got_l = ops.equi_join_partitioned(
            D(lt.slice(0, 0)), D(rt), on="k", how=how
        ).take_all()
        assert len(got_l) == n_empty_left, how
        if how == "outer":
            assert sorted((r["k"], r["lv"], r["rv"]) for r in got_l) == [
                (2, None, 5), (3, None, 6)
            ]
        got = ops.equi_join_partitioned(
            D(lt), D(rt.slice(0, 0)), on="k", how=how
        ).take_all()
        assert len(got) == n_empty_right, how
        if how in ("left", "outer"):
            # right payload present and null-padded
            assert sorted((r["k"], r["lv"], r["rv"]) for r in got) == [
                (1, 10, None), (2, 20, None)
            ], how
        assert ops.equi_join_partitioned(
            D(lt.slice(0, 0)), D(rt.slice(0, 0)), on="k", how=how
        ).count() == 0


def test_nonfinite_payloads_window_and_quantized_ops(ray_session):
    """r4 session-4 probe finds: (1) window_moving_sum used a plain
    cumsum difference, so one NaN/Inf row poisoned every LATER frame —
    SQL frame semantics poison only frames CONTAINING the row; (2) the
    quantizing integer-sufficient-stat ops cast NaN→int64 (undefined,
    INT64_MIN) silently — they now SQL-skip NULLs and raise on genuine
    non-finite payloads."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    nan, inf = float("nan"), float("inf")
    t = pa.table({
        "k": pa.array([1] * 7, pa.int64()),
        "ts": pa.array([10, 20, 30, 40, 50, 60, 70], pa.int64()),
        "v": pa.array([1.0, nan, 2.0, inf, 4.0, -inf, 5.0]),
    })
    ms = (
        ops.window_moving_sum(rd.from_arrow(t), "k", "ts", "v", window_rows=2)
        .to_pandas().sort_values("ts")["moving_sum"].tolist()
    )
    # DuckDB: SUM OVER (ROWS 1 PRECEDING): per-frame IEEE, later frames clean
    assert ms[0] == 1.0 and np.isnan(ms[1]) and np.isnan(ms[2])
    assert ms[3] == inf and ms[4] == inf and ms[5] == -inf and ms[6] == -inf

    # NULL/NaN mix: all-NULL frame → NULL; frame with NaN → NaN
    t2 = pa.table({
        "k": pa.array([1] * 4, pa.int64()),
        "ts": pa.array([1, 2, 3, 4], pa.int64()),
        "v": pa.array([None, nan, None, 3.0], pa.float64()),
    })
    out = (
        ops.window_moving_sum(rd.from_arrow(t2), "k", "ts", "v", window_rows=2)
        .to_pandas().sort_values("ts")
    )
    col = out["moving_sum"]
    assert col.iloc[3] == 3.0 and np.isnan(col.iloc[1]) and np.isnan(col.iloc[2])

    # quantizing ops: NULL values SQL-skipped (were NaN-cast corruption)
    t3 = pa.table({
        "k": pa.array([1, 1, 1], pa.int64()),
        "v": pa.array([2.0, None, 4.0], pa.float64()),
    })
    gm = ops.grouped_moments(rd.from_arrow(t3), "k", "v").to_pandas()
    assert gm["n"].tolist() == [2]
    assert gm["sum_q"].tolist() == [600]  # quantize=100
    g = ops.gini_exact(rd.from_arrow(t3), "v").to_pandas()
    assert g["gini_den"].iloc[0] > 0  # folds only the 2 non-null values
    h = ops.hoover_exact(rd.from_arrow(t3), "v").to_pandas()
    assert h["hoover_num"].iloc[0] == 400  # |2·200−600| + |2·400−600|

    # genuine NaN payload → loud error, not silent INT64_MIN
    t4 = pa.table({
        "k": pa.array([1, 1], pa.int64()),
        "ts": pa.array([1, 2], pa.int64()),
        "v": pa.array([1.0, nan]),
    })
    with pytest.raises(Exception, match="finite"):
        ops.grouped_moments(rd.from_arrow(t4), "k", "v").to_pandas()
    with pytest.raises(Exception, match="finite"):
        ops.window_trend(rd.from_arrow(t4), "k", "ts", "v", w=2).to_pandas()
    with pytest.raises(Exception, match="finite"):
        ops.window_range_sum(
            rd.from_arrow(t4), "k", "ts", "v", range_us=10
        ).to_pandas()


def test_nonfinite_scores_and_coords(ray_session):
    """Companion sweep: roc_auc lacked pr_curve's drop_null (NULL rows
    corrupted the histogram); both now raise on genuine NaN scores;
    idw_grid and leg_crossings drop NULL/NaN points instead of
    quantizing them to INT64_MIN."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from georay import analytics

    nan = float("nan")
    t = pa.table({
        "y": pa.array([1, 0, None, 1], pa.int64()),
        "s": pa.array([3.0, 1.0, 2.0, None], pa.float64()),
    })
    auc = ops.roc_auc(rd.from_arrow(t), "y", "s", quantize=1.0).to_pandas()
    # only rows (y=1,s=3) and (y=0,s=1) survive: AUC = 1
    assert (auc["auc_num"].iloc[0], auc["auc_den"].iloc[0]) == (2, 2)

    bad = pa.table({
        "y": pa.array([1, 0], pa.int64()),
        "s": pa.array([1.0, nan]),
    })
    with pytest.raises(Exception, match="finite"):
        ops.roc_auc(rd.from_arrow(bad), "y", "s", quantize=1.0).to_pandas()
    with pytest.raises(Exception, match="finite"):
        ops.pr_curve(rd.from_arrow(bad), "y", "s", quantize=1.0).to_pandas()

    pts = pa.table({
        "x": pa.array([0.0, nan, 0.1], pa.float64()),
        "y": pa.array([0.0, 0.0, nan], pa.float64()),
        "v": pa.array([5, 7, 9], pa.int64()),
    })
    g = ops.idw_grid(
        rd.from_arrow(pts), "x", "y", "v", grid_res_deg=90.0, radius_deg=90.0
    ).to_pandas()
    # only the finite point contributes anywhere
    assert (g["n_pts"] == 1).all() and len(g) > 0

    tr = pa.table({
        "u": pa.array([1] * 5, pa.int64()),
        "ts": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "x": pa.array([0.0, 2.0, nan, 0.0, 2.0]),
        "y": pa.array([0.0, 2.0, 5.0, 2.0, 0.0]),
    })
    # one fence edge on the diagonal band x=1 (vertical line segment)
    edges_q = np.array([[20, -20, 20, 60]], np.int64)  # x=1 quantized (q=20)
    cr = analytics.leg_crossings(
        rd.from_arrow(tr), "u", "ts", "x", "y", edges_q=edges_q
    ).to_pandas()
    # NaN fix dropped: legs (0,0)->(2,2), (2,2)->(0,2), (0,2)->(2,0);
    # each properly crosses the x=1 fence once
    assert cr["n_crossings"].tolist() == [3]


def test_session5_ops_edge_inputs(ray_session):
    """r4 session-5 sweep: NaN fixes, empty inputs and degenerate
    probes through this session's new operators."""
    import ray.data as rd

    from georay import analytics, ops
    from georay.stages.text import token_label_stats

    nan = float("nan")
    # hausdorff: NaN fix dropped from the point set (movement-family
    # convention) — distances computed over the remaining fixes only
    tr = pa.table({
        "u": pa.array([1, 1, 2], pa.int64()),
        "ts": pa.array([1, 2, 1], pa.int64()),
        "e": pa.array([1, 2, 3], pa.int64()),
        "x": pa.array([0.0, nan, 3.0]),
        "y": pa.array([0.0, 1.0, 0.0]),
    })
    out = analytics.hausdorff_pairs(
        rd.from_arrow(tr), "u", "ts", "x", "y",
        group_fn=lambda lon0, lat0: np.zeros(lon0.shape[0], np.int64),
        tiebreak_col="e", n_buckets=2,
    ).to_pandas()
    assert out.values.tolist() == [[1, 2, 3 * (1 << 20)]]

    # empty inputs: every new op returns 0 rows (or its typed scalar)
    epts = pa.table({
        "u": pa.array([], pa.int64()), "ts": pa.array([], pa.int64()),
        "e": pa.array([], pa.int64()),
        "x": pa.array([], pa.float64()), "y": pa.array([], pa.float64()),
    })
    assert len(analytics.hausdorff_pairs(
        rd.from_arrow(epts), "u", "ts", "x", "y",
        group_fn=lambda a, b: np.zeros(a.shape[0], np.int64),
        tiebreak_col="e",
    ).to_pandas()) == 0
    assert len(analytics.path_self_intersections(
        rd.from_arrow(epts), "u", "ts", "x", "y"
    ).to_pandas()) == 0
    edocs = pa.table({"text": pa.array([], pa.string())})
    assert len(token_label_stats(
        rd.from_arrow(edocs),
        lambda b: np.zeros(len(b), np.int64),
    ).to_pandas()) == 0
    et = pa.table({"i": pa.array([], pa.int64())})
    r = ops.analyze_table(rd.from_arrow(et), int_cols=("i",)).to_pandas()
    assert r["n"].tolist() == [0] and r["n_distinct"].tolist() == [0]


def test_zorder_antimeridian_wrap_and_inverted_lat(ray_session, tmp_path):
    import ray.data as rd

    from georay import pipeline

    t = pa.table({
        "rid": pa.array([1, 2, 3], pa.int64()),
        "lon": pa.array([170.0, -170.0, 0.0]),
        "lat": pa.array([5.0, 5.0, 5.0]),
    })
    out = str(tmp_path / "z2")
    pipeline.write_zorder(rd.from_arrow(t), out, "lon", "lat",
                          bits=4, n_ranges=4)
    # lon_lo > lon_hi = rect crosses the antimeridian (GeoJSON bbox):
    # [160, 180] U [-180, -160) catches rids 1 and 2, not 3
    ds, n_opened, n_total = pipeline.read_rect_zorder(
        out, 160.0, -160.0, 0.0, 10.0, columns=["rid"]
    )
    assert sorted(ds.to_pandas()["rid"].tolist()) == [1, 2]
    # inverted LATITUDE is genuinely empty (no wrap over the poles)
    ds2, n2, _ = pipeline.read_rect_zorder(
        out, -180.0, 180.0, 50.0, 40.0, columns=["rid"]
    )
    assert len(ds2.to_pandas()) == 0


def test_text_ops_null_text_and_source(ray_session):
    """NULL text contributes no tokens/n-grams (SQL unnest-of-NULL);
    NULL sources contribute nothing; class totals still count all
    docs."""
    import pyarrow.compute as pc
    import ray.data as rd

    from georay.stages.text import source_ngram_overlap, token_label_stats

    t = pa.table({
        "text": pa.array(["a b", None, "a c"]),
        "y": pa.array([1, 0, 0], pa.int64()),
    })
    out = (
        token_label_stats(
            rd.from_arrow(t),
            lambda b: b["y"].to_numpy(zero_copy_only=False),
            min_df=1,
        )
        .to_pandas().sort_values("token").reset_index(drop=True)
    )
    # P=1, N=2; 'a' in docs 0 (pos) and 2 (neg): diff = 1*(2-1) - 1*(1-1) = 1
    # 'b' only pos: diff = 1*2 - 0 = 2 -> 4; 'c' only neg: diff = 0 - 1*1 -> 1
    assert out.values.tolist() == [
        ["a", 1, 1, 1], ["b", 1, 0, 4], ["c", 0, 1, 1],
    ]
    o = source_ngram_overlap(
        rd.from_arrow(pa.table({
            "text": pa.array(["a b c d", None, "a b c e", "a b c d"]),
            "source": pa.array(["s1", "s2", None, "s2"]),
        })),
        n_buckets=2,
    ).to_pandas()
    assert o.values.tolist() == [["s1", "s2", 2]]


def test_session6_ops_edge_inputs(ray_session):
    """Edge pins for the session-6 operators: empty graphs, constant
    features, and degenerate DBSCAN inputs."""
    import pytest
    import ray.data as rd

    from georay import analytics
    from georay.stages.classify import decision_stump

    empty_edges = rd.from_arrow(
        pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    )
    # LPA on an empty edge list: typed empty (node,label), no crash
    # (assert on schema(): Dataset.to_pandas drops columns at 0 rows —
    # the Ray 2.49 quirk ROUND_NOTES documents)
    out = analytics.label_propagation(empty_edges)
    assert out.schema().names == ["node", "label"] and out.count() == 0
    outp = analytics.label_propagation_partitioned(empty_edges)
    assert outp.schema().names == ["node", "label"] and outp.count() == 0

    # modularity on empty edges raises (Q undefined at m=0), matching
    # the SQL twin's division by zero
    with pytest.raises(ValueError, match="empty edge list"):
        analytics.modularity(
            empty_edges,
            rd.from_arrow(pa.table({
                "node": pa.array([], pa.int64()),
                "label": pa.array([], pa.int64()),
            })),
        )

    # one-edge graph: both nodes adopt the smaller endpoint's label
    # after round 1 and stay; modularity of the 1-community partition
    # is Q = 0 -> q_num = 4m*e - d^2 = 4*1*1 - 2*2 = 0
    e1 = rd.from_arrow(pa.table({"a": pa.array([5], pa.int64()),
                                 "b": pa.array([9], pa.int64())}))
    # sync LPA on a single edge: each node adopts the OTHER's label
    # every round -> after 3 (odd) rounds the labels are swapped
    lp = analytics.label_propagation(e1).to_pandas().sort_values("node")
    assert lp["node"].tolist() == [5, 9] and lp["label"].tolist() == [9, 5]
    mod = analytics.modularity(
        e1,
        rd.from_arrow(pa.table({"node": pa.array([5, 9], pa.int64()),
                                "label": pa.array([1, 1], pa.int64())})),
    ).to_pandas()
    assert mod["m_edges"].tolist() == [1] and mod["q_num"].tolist() == [0]

    # decision stump: constant features -> no valid split, typed error
    const = rd.from_arrow(pa.table({
        "embedding": pa.array([[0.5, 0.5], [0.5, 0.5]],
                              pa.list_(pa.float32())),
        "label": pa.array([0, 1], pa.int64()),
    }))
    with pytest.raises(ValueError, match="no valid split"):
        decision_stump(const)

    # perfectly separable single feature: split found, max score
    sep = rd.from_arrow(pa.table({
        "embedding": pa.array([[0.0], [0.0], [1.0], [1.0]],
                              pa.list_(pa.float32())),
        "label": pa.array([0, 0, 1, 1], pa.int64()),
    }))
    st = decision_stump(sep).to_pandas()
    # pure sides: score = (S_L*n_R + S_R*n_L)/(n_L*n_R) = (4*2+4*2)/4 = 4
    assert st["dim"].tolist() == [0] and st["thr"].tolist() == [0]
    assert st["score_q"].tolist() == [4 << 40]


def test_session6_batch2_empty_inputs(ray_session, tmp_path):
    """Empty/degenerate inputs through the second session-6 batch."""
    import ray.data as rd

    from georay import analytics, ops, pipeline

    empty_gi = rd.from_arrow(pa.table({
        "g": pa.array([], pa.int64()), "it": pa.array([], pa.int64()),
    }))
    assert analytics.frequent_triples(empty_gi, "g", "it").count() == 0
    assert analytics.item_similarity_topk(empty_gi, "g", "it").count() == 0

    empty_edges = rd.from_arrow(pa.table({
        "a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
    }))
    assert analytics.ktruss_edges(empty_edges, k=3).count() == 0
    out = analytics.pagerank_weighted(
        empty_edges, lambda a, b: np.ones(a.shape[0], np.int64)
    )
    assert out.schema().names == ["node", "rank_q"] and out.count() == 0

    # line_density: empty fixes and single-fix users (no legs)
    empty_tr = rd.from_arrow(pa.table({
        "u": pa.array([], pa.int64()),
        "ts": pa.array([], pa.timestamp("us")),
        "ix": pa.array([], pa.int64()), "iy": pa.array([], pa.int64()),
    }))
    assert analytics.line_density(
        empty_tr, "u", "ts", "ix", "iy", x_origin=-3600, y_origin=-1800,
        cell_units=200, nx=36, ny=18,
    ).count() == 0
    one_fix = rd.from_arrow(pa.table({
        "u": pa.array([1, 2], pa.int64()),
        "ts": pa.array([0, 0], pa.int64()).cast(pa.timestamp("us")),
        "ix": pa.array([5, 7], pa.int64()), "iy": pa.array([5, 7], pa.int64()),
    }))
    assert analytics.line_density(
        one_fix, "u", "ts", "ix", "iy", x_origin=-3600, y_origin=-1800,
        cell_units=200, nx=36, ny=18,
    ).count() == 0

    # phrase/near search: terms absent from the corpus
    docs = pa.table({
        "doc_id": pa.array([1], pa.int64()),
        "text": pa.array(["alpha beta"]),
    })
    idx = str(tmp_path / "pos2")
    pipeline.write_postings_positional(rd.from_arrow(docs), idx, n_buckets=4)
    assert pipeline.postings_phrase(idx, ["missing", "terms"]).count() == 0
    assert pipeline.postings_near(idx, "alpha", "missing", 3).count() == 0
    got = pipeline.postings_near(idx, "alpha", "beta", 3).take_all()
    assert got == [{"doc_id": 1, "min_gap": 1}]


def test_clamped_cumsum_pins(ray_session):
    """window_clamped_cumsum: closed form equals the sequential
    max(level+d, 0) recurrence; NULL deltas skip; empty input typed;
    single-row keys; negative-first segments clamp at 0."""
    import ray.data as rd

    from georay import ops

    d = pa.table({
        "k": pa.array([1, 1, 1, 1, 2, 2, 3], pa.int64()),
        "t": pa.array([0, 1, 2, 3, 0, 1, 0], pa.int64()),
        "v": pa.array([5, -10, 3, None, -3, 2, -7], pa.int64()),
    })
    out = (
        ops.window_clamped_cumsum(rd.from_arrow(d), "k", "t", "v",
                                  out_col="lvl")
        .to_pandas().sort_values(["k", "t"])
    )
    # sequential reference: l = max(l + (d or 0), 0) per key
    assert out["lvl"].tolist() == [5, 0, 3, 3, 0, 2, 0]

    empty = rd.from_arrow(pa.table({
        "k": pa.array([], pa.int64()),
        "t": pa.array([], pa.int64()),
        "v": pa.array([], pa.int64()),
    }))
    e = ops.window_clamped_cumsum(empty, "k", "t", "v")
    assert e.count() == 0

    # adversarial cross-segment leak check: a deeply negative first key
    # must not drag later keys' running minimum down (the offset-trick
    # regression this op's first draft had)
    d2 = pa.table({
        "k": pa.array([1, 2], pa.int64()),
        "t": pa.array([0, 0], pa.int64()),
        "v": pa.array([-1_000_000, 7], pa.int64()),
    })
    out2 = (
        ops.window_clamped_cumsum(rd.from_arrow(d2), "k", "t", "v",
                                  out_col="lvl")
        .to_pandas().sort_values("k")
    )
    assert out2["lvl"].tolist() == [0, 7]


def test_ancestor_closure_pins(ray_session):
    """Pointer doubling vs a hand-walked forest: chain 1→2→…→9 (depth 8
    forces 3+ doubling rounds) plus a star 20→{21,22}; pair set equals
    the transitive closure; a 2-cycle raises."""
    import ray.data as rd

    from georay import analytics

    chain_nodes = list(range(2, 10))
    edges = pa.table({
        "node": pa.array(chain_nodes + [21, 22], pa.int64()),
        "parent": pa.array([k - 1 for k in chain_nodes] + [20, 20],
                           pa.int64()),
    })
    want = {(n, a) for n in chain_nodes for a in range(1, n)}
    want |= {(21, 20), (22, 20)}
    # local fast path AND the distributed pointer-doubling twin
    # (cutoff=0) must both equal the hand-walked closure
    for cutoff in (2_000_000, 0):
        out = analytics.ancestor_closure(
            rd.from_arrow(edges), local_edge_cutoff=cutoff
        ).to_pandas()
        got = set(zip(out["an"], out["aa"]))
        assert got == want, cutoff

    cyc = pa.table({
        "node": pa.array([1, 2], pa.int64()),
        "parent": pa.array([2, 1], pa.int64()),
    })
    for cutoff in (2_000_000, 0):
        with pytest.raises(ValueError, match="cycle"):
            analytics.ancestor_closure(
                rd.from_arrow(cyc), max_rounds=4, local_edge_cutoff=cutoff
            )


def test_radix_quantile_pins(ray_session):
    """exact_quantiles_radix vs np.sort ground truth on a hostile
    domain: negatives, ±inf, denormal-ish magnitudes, NULLs and NaNs
    (both excluded), multiple quantiles in one call; empty input gives
    NULL values."""
    import ray.data as rd

    from georay import ops

    rng = np.random.RandomState(7)
    x = np.concatenate([
        rng.randn(500) * 1e6, rng.randn(500) * 1e-6,
        np.array([-np.inf, np.inf, 0.0, -0.0]),
    ])
    vals = list(x) + [None, float("nan")]
    t = pa.table({"x": pa.array(vals, pa.float64())})
    qs = [0.01, 0.5, 0.99]
    out = (
        ops.exact_quantiles_radix(rd.from_arrow(t), "x", qs)
        .to_pandas().sort_values("q")
    )
    xs = np.sort(x)
    for q, v in zip(out["q"], out["v"]):
        k = max(int(np.ceil(q * xs.shape[0])) - 1, 0)
        assert v == xs[k], (q, v, xs[k])

    empty = rd.from_arrow(pa.table({"x": pa.array([], pa.float64())}))
    e = ops.exact_quantiles_radix(empty, "x", [0.5]).to_pandas()
    assert len(e) == 1 and np.isnan(e["v"].iloc[0])


def test_postings_append_pins(ray_session, tmp_path):
    """Incremental postings maintenance: base build + postings_append
    equals a fresh full build for phrase AND proximity search; id-type
    mismatch raises."""
    import ray.data as rd

    from georay import pipeline

    docs = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array([
            "merge window now", "window merge later",
            "the merge window closes", "nothing here",
        ]),
    })
    full = str(tmp_path / "full")
    inc = str(tmp_path / "inc")
    pipeline.write_postings_positional(rd.from_arrow(docs), full, n_buckets=4)
    pipeline.write_postings_positional(
        rd.from_arrow(docs.slice(0, 2)), inc, n_buckets=4)
    pipeline.postings_append(inc, rd.from_arrow(docs.slice(2)))

    for d in (full, inc):
        got = sorted(
            (r["doc_id"], r["n_occ"])
            for r in pipeline.postings_phrase(d, ["merge", "window"]).take_all()
        )
        assert got == [(1, 1), (3, 1)], d
    a = sorted(r["doc_id"] for r in
               pipeline.postings_near(full, "merge", "window", 2).take_all())
    b = sorted(r["doc_id"] for r in
               pipeline.postings_near(inc, "merge", "window", 2).take_all())
    assert a == b

    wrong = pa.table({
        "doc_id": pa.array(["x"]), "text": pa.array(["merge"]),
    })
    with pytest.raises(ValueError, match="type"):
        pipeline.postings_append(inc, rd.from_arrow(wrong))


def test_grouped_radix_quantile_pins(ray_session):
    """grouped_quantiles_radix vs per-group np.sort ground truth; NULL
    group keys and NaN payloads excluded; empty input typed."""
    import ray.data as rd

    from georay import ops

    rng = np.random.RandomState(11)
    g = np.array(["a", "b"])[rng.randint(0, 2, 400)]
    x = rng.randn(400) * np.where(g == "a", 1e3, 1e-3)
    t = pa.table({
        "g": pa.array(list(g) + [None, "a"]),
        "x": pa.array(list(x) + [1.0, float("nan")], pa.float64()),
    })
    out = (
        ops.grouped_quantiles_radix(rd.from_arrow(t), "g", "x", [0.25, 0.75])
        .to_pandas().sort_values(["g", "q"]).reset_index(drop=True)
    )
    assert sorted(out["g"].unique()) == ["a", "b"]
    for gv in ("a", "b"):
        xs = np.sort(x[g == gv])
        for q in (0.25, 0.75):
            got = out[(out["g"] == gv) & (out["q"] == q)]["v"].iloc[0]
            k = max(int(np.ceil(q * xs.shape[0])) - 1, 0)
            assert got == xs[k], (gv, q)

    empty = rd.from_arrow(pa.table({
        "g": pa.array([], pa.string()), "x": pa.array([], pa.float64()),
    }))
    assert ops.grouped_quantiles_radix(empty, "g", "x", [0.5]).count() == 0


def test_weighted_radix_quantile_pins(ray_session):
    """Weighted radix select vs the repeat-expansion ground truth
    (weight w behaves as w copies); zero weights ignored; negative
    weight raises; all-zero weights give NULL."""
    import ray.data as rd

    from georay import ops

    rng = np.random.RandomState(3)
    x = rng.randn(300)
    w = rng.randint(0, 5, 300).astype(np.int64)
    t = pa.table({"x": pa.array(x, pa.float64()),
                  "w": pa.array(w, pa.int64())})
    out = (
        ops.exact_quantiles_radix(rd.from_arrow(t), "x", [0.5, 0.9],
                                  weight_col="w")
        .to_pandas().sort_values("q")
    )
    expanded = np.sort(np.repeat(x, w))
    W = expanded.shape[0]
    for q, v in zip(out["q"], out["v"]):
        target = max(int(np.ceil(q * W)), 1)
        assert v == expanded[target - 1], (q, v)

    neg = pa.table({"x": pa.array([1.0]), "w": pa.array([-1], pa.int64())})
    with pytest.raises(Exception, match="negative"):
        ops.exact_quantiles_radix(rd.from_arrow(neg), "x", [0.5],
                                  weight_col="w").to_pandas()

    zero = pa.table({"x": pa.array([1.0, 2.0]),
                     "w": pa.array([0, 0], pa.int64())})
    z = ops.exact_quantiles_radix(rd.from_arrow(zero), "x", [0.5],
                                  weight_col="w").to_pandas()
    assert np.isnan(z["v"].iloc[0])


def test_join_auto_plan_parity(ray_session):
    """join_auto: broadcast and partitioned plans emit identical rows;
    duplicate right keys force the partitioned plan even when small
    (broadcast first-match would drop pairs); left join keeps unmatched
    probes under both plans."""
    import ray.data as rd

    from georay import ops

    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, 2], pa.int64()),
        "lv": pa.array([10, 20, 30, 21], pa.int64()),
    }))
    uniq = rd.from_arrow(pa.table({
        "rk": pa.array([1, 2], pa.int64()),
        "rv": pa.array([100, 200], pa.int64()),
    }))
    for how in ("inner", "left"):
        a = (ops.join_auto(left, uniq, "k", right_on="rk", how=how)
             .to_pandas().sort_values(["k", "lv"]).reset_index(drop=True))
        b = (ops.join_auto(left, uniq, "k", right_on="rk", how=how,
                           broadcast_limit=0)
             .to_pandas().sort_values(["k", "lv"]).reset_index(drop=True))
        assert sorted(a.columns) == sorted(b.columns)
        assert a[sorted(a.columns)].equals(b[sorted(b.columns)]), how

    dup = rd.from_arrow(pa.table({
        "rk": pa.array([2, 2], pa.int64()),
        "rv": pa.array([200, 201], pa.int64()),
    }))
    # duplicate keys: full pair semantics (2 left rows × 2 right rows)
    out = ops.join_auto(left, dup, "k", right_on="rk").to_pandas()
    assert len(out) == 4


def test_clamped_cumsum_overflow_guard(ray_session):
    """Deltas whose bucket Σ|delta| exceeds 2^62 must raise, not wrap."""
    import ray.data as rd

    from georay import ops

    t = pa.table({
        "k": pa.array([1, 1], pa.int64()),
        "ts": pa.array([0, 1], pa.int64()),
        "v": pa.array([1 << 62, 1 << 62], pa.int64()),
    })
    with pytest.raises(Exception, match="budget"):
        ops.window_clamped_cumsum(rd.from_arrow(t), "k", "ts", "v").to_pandas()


def test_radix_quantile_cont_pins(ray_session):
    """Interpolated radix select vs np ground truth (same linear
    interpolation formula); q=0/q=1 endpoints; single-row input."""
    import ray.data as rd

    from georay import ops

    rng = np.random.RandomState(5)
    x = rng.randn(257) * 1e4
    t = pa.table({"x": pa.array(x, pa.float64())})
    qs = [0.0, 0.25, 0.5, 0.9, 1.0]
    out = (
        ops.exact_quantiles_radix_cont(rd.from_arrow(t), "x", qs)
        .to_pandas().sort_values("q")
    )
    xs = np.sort(x)
    n = xs.shape[0]
    for q, v in zip(out["q"], out["v"]):
        pos = q * (n - 1)
        lo, hi = int(np.floor(pos)), int(np.ceil(pos))
        want = xs[lo] + (pos - np.floor(pos)) * (xs[hi] - xs[lo])
        assert v == want, (q, v, want)

    one = rd.from_arrow(pa.table({"x": pa.array([42.0], pa.float64())}))
    o = ops.exact_quantiles_radix_cont(one, "x", [0.5]).to_pandas()
    assert o["v"].iloc[0] == 42.0

    empty = rd.from_arrow(pa.table({"x": pa.array([], pa.float64())}))
    e = ops.exact_quantiles_radix_cont(empty, "x", [0.25, 0.5]).to_pandas()
    assert len(e) == 2 and e["v"].isna().all()


def test_ancestor_closure_review_fixes(ray_session):
    """Review hardening: (1) the DISTRIBUTED path rejects duplicate
    node rows like the local path; (2) depth exactly 2^max_rounds
    completes instead of spuriously raising."""
    import ray.data as rd

    from georay import analytics

    dup = pa.table({
        "node": pa.array([2, 3, 3, 4], pa.int64()),
        "parent": pa.array([1, 2, 1, 3], pa.int64()),
    })
    for cutoff in (2_000_000, 0):
        with pytest.raises(ValueError, match="duplicate"):
            analytics.ancestor_closure(
                rd.from_arrow(dup), local_edge_cutoff=cutoff
            ).to_pandas()

    # chain 1→2→3→4→5: max distance 4 == 2^2 → complete at max_rounds=2
    chain = pa.table({
        "node": pa.array([2, 3, 4, 5], pa.int64()),
        "parent": pa.array([1, 2, 3, 4], pa.int64()),
    })
    out = analytics.ancestor_closure(
        rd.from_arrow(chain), max_rounds=2, local_edge_cutoff=0
    ).to_pandas()
    got = set(zip(out["an"], out["aa"]))
    want = {(n, a) for n in (2, 3, 4, 5) for a in range(1, n)}
    assert got == want
    # …and depth 5 > 2^2 still raises
    deeper = pa.table({
        "node": pa.array([2, 3, 4, 5, 6], pa.int64()),
        "parent": pa.array([1, 2, 3, 4, 5], pa.int64()),
    })
    with pytest.raises(ValueError, match="depth"):
        analytics.ancestor_closure(
            rd.from_arrow(deeper), max_rounds=2, local_edge_cutoff=0
        ).to_pandas()


def test_grouped_radix_empty_keeps_key_dtype(ray_session):
    """Empty input preserves the key column dtype (int64 stays int64,
    not the string fallback)."""
    import ray.data as rd

    from georay import ops

    empty = rd.from_arrow(pa.table({
        "g": pa.array([], pa.int64()), "x": pa.array([], pa.float64()),
    }))
    out = ops.grouped_quantiles_radix(empty, "g", "x", [0.5])
    assert out.schema().base_schema.field("g").type == pa.int64()


def test_merge_sorted_layouts_pins(ray_session, tmp_path):
    """Compaction: merged layout's pruned range scan equals one full
    build; zone-map prune still holds; misaligned geometry raises;
    bloom sidecars OR together."""
    import ray.data as rd

    from georay import pipeline

    n = 400
    ks = np.arange(n, dtype=np.int64)
    t = pa.table({
        "k": pa.array(ks), "id": pa.array(ks * 7 % 1000, pa.int64()),
    })
    full_d = str(tmp_path / "full")
    a_d, b_d, m_d = (str(tmp_path / x) for x in ("a", "b", "m"))
    bounds = (0, n)
    pipeline.write_sorted(rd.from_arrow(t), full_d, "k", n_ranges=8,
                          bounds=bounds, bloom_col="id")
    pipeline.write_sorted(rd.from_arrow(t.filter(pa.array(ks % 2 == 0))),
                          a_d, "k", n_ranges=8, bounds=bounds,
                          bloom_col="id")
    pipeline.write_sorted(rd.from_arrow(t.filter(pa.array(ks % 2 == 1))),
                          b_d, "k", n_ranges=8, bounds=bounds,
                          bloom_col="id")
    merged = pipeline.merge_sorted_layouts([a_d, b_d], m_d)

    dsf, of, tf = pipeline.read_range(full_d, 100, 200, columns=["k"])
    dsm, om, tm = pipeline.read_range(m_d, 100, 200, columns=["k"])
    assert om == of and om < tm  # prune preserved
    assert sorted(r["k"] for r in dsm.take_all()) == sorted(
        r["k"] for r in dsf.take_all()
    )
    # bloom sidecar: merged bitset is the OR of the halves
    import json as _json

    with open(f"{full_d}/_zonemap.json") as f:
        bf = _json.load(f)["bloom"]["bitmaps"]
    assert merged["bloom"]["bitmaps"] == bf

    bad = str(tmp_path / "bad")
    pipeline.write_sorted(rd.from_arrow(t), bad, "k", n_ranges=4,
                          bounds=bounds)
    with pytest.raises(ValueError, match="geometry"):
        pipeline.merge_sorted_layouts([a_d, bad], str(tmp_path / "x"))


def test_postings_append_tf_scalars(ray_session, tmp_path):
    """tf-layout append: manifest corpus scalars (n_docs, sum_dl) fold
    to exactly the full build's; BM25 scores equal across plans."""
    import json as _json

    import ray.data as rd

    from georay import pipeline

    docs = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array([
            "merge window now", "window merge later",
            "the merge window closes", "other words here",
        ]),
    })
    full, inc = str(tmp_path / "full"), str(tmp_path / "inc")
    pipeline.write_postings(rd.from_arrow(docs), full, n_buckets=4)
    pipeline.write_postings(rd.from_arrow(docs.slice(0, 2)), inc,
                            n_buckets=4)
    pipeline.postings_append(inc, rd.from_arrow(docs.slice(2)))
    mf = _json.load(open(f"{full}/_POSTINGS.json"))
    mi = _json.load(open(f"{inc}/_POSTINGS.json"))
    assert (mf["n_docs"], mf["sum_dl"]) == (mi["n_docs"], mi["sum_dl"])
    def scores(d):
        df = pipeline.postings_bm25(d, ["merge", "window"], k=4).to_pandas()
        return sorted(zip(df["doc_id"], df["score"]))

    assert scores(full) == scores(inc)


def test_ivf_append_validation(ray_session, tmp_path):
    """ivf_append_index rejects a delta whose id type or embedding dim
    mismatches the base index (the postings_append convention)."""
    import ray.data as rd

    from georay.stages import embed

    rng = np.random.RandomState(2)
    base = pa.table({
        "vec_id": pa.array(np.arange(64), pa.int64()),
        "embedding": pa.array(list(rng.randn(64, 8)),
                              pa.list_(pa.float64())),
    })
    d = str(tmp_path / "ivf")
    embed.ivf_build_index(rd.from_arrow(base), d, n_list=4)

    wrong_id = pa.table({
        "vec_id": pa.array(["x"]),
        "embedding": pa.array([list(rng.randn(8))], pa.list_(pa.float64())),
    })
    with pytest.raises(ValueError, match="type"):
        embed.ivf_append_index(d, rd.from_arrow(wrong_id))

    wrong_dim = pa.table({
        "vec_id": pa.array([99], pa.int64()),
        "embedding": pa.array([list(rng.randn(5))], pa.list_(pa.float64())),
    })
    with pytest.raises(Exception, match="dim"):
        embed.ivf_append_index(d, rd.from_arrow(wrong_dim))

    # a valid append lands and searches pick it up
    good = pa.table({
        "vec_id": pa.array([100], pa.int64()),
        "embedding": pa.array([list(base["embedding"][0].as_py())],
                              pa.list_(pa.float64())),
    })
    embed.ivf_append_index(d, rd.from_arrow(good))
    q = np.stack([np.asarray(base["embedding"][0].as_py())])
    got = embed.ivf_search_index(d, q, np.array([0]), k=2, n_probe=4,
                                 exclude_self=True).to_pandas()
    assert 100 in set(got["vec_id"])


def test_merge_sorted_custom_key_guard(ray_session, tmp_path):
    """Layouts written with a custom key_to_int refuse a default-cast
    merge and accept one with the callable passed back in."""
    import ray.data as rd

    from georay import pipeline

    t = pa.table({"k": pa.array(np.arange(50), pa.int64())})
    conv = lambda col: (  # noqa: E731
        col.cast(pa.int64()).to_numpy(zero_copy_only=False) * 2
    )
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    pipeline.write_sorted(rd.from_arrow(t.slice(0, 25)), a, "k",
                          n_ranges=4, bounds=(0, 100), key_to_int=conv)
    pipeline.write_sorted(rd.from_arrow(t.slice(25)), b, "k",
                          n_ranges=4, bounds=(0, 100), key_to_int=conv)
    with pytest.raises(ValueError, match="key_to_int"):
        pipeline.merge_sorted_layouts([a, b], str(tmp_path / "m0"))
    m = pipeline.merge_sorted_layouts([a, b], str(tmp_path / "m1"),
                                      key_to_int=conv)
    ds, _, _ = pipeline.read_range(str(tmp_path / "m1"), 0, 100,
                                   columns=["k"])
    assert sorted(r["k"] for r in ds.take_all()) == list(range(50))


def test_hash_shuffle_rank_pins(ray_session):
    """Exact permutation: positions are 0..n-1 exactly once; different
    epochs give different orders; NULL ids raise; empty input typed."""
    import ray.data as rd

    from georay import ops

    t = pa.table({"id": pa.array(np.arange(777), pa.int64())})
    out = ops.hash_shuffle_rank(rd.from_arrow(t), "id", epoch=1).to_pandas()
    assert sorted(out["pos"]) == list(range(777))
    out2 = ops.hash_shuffle_rank(rd.from_arrow(t), "id", epoch=2).to_pandas()
    m = out.merge(out2, on="id", suffixes=("_1", "_2"))
    assert (m["pos_1"] != m["pos_2"]).any()
    # determinism: same epoch, same permutation
    out1b = ops.hash_shuffle_rank(rd.from_arrow(t), "id", epoch=1).to_pandas()
    assert out.sort_values("id")["pos"].tolist() == \
        out1b.sort_values("id")["pos"].tolist()

    withnull = pa.table({"id": pa.array([1, None], pa.int64())})
    with pytest.raises(Exception, match="NULL"):
        ops.hash_shuffle_rank(rd.from_arrow(withnull), "id").to_pandas()

    empty = rd.from_arrow(pa.table({"id": pa.array([], pa.int64())}))
    assert ops.hash_shuffle_rank(empty, "id").count() == 0


def test_radix_quantile_int64_native(ray_session):
    """Integer columns bypass float64: quantiles of values beyond 2^53
    stay exact (adjacent huge ints that would collide as doubles)."""
    import ray.data as rd

    from georay import ops

    big = (1 << 60) + 1  # not representable exactly as float64
    vals = [big, big + 1, big + 2, big + 3, -(1 << 60) - 7, 0]
    t = pa.table({"x": pa.array(vals, pa.int64())})
    out = (
        ops.exact_quantiles_radix(rd.from_arrow(t), "x",
                                  [0.0, 0.5, 1.0])
        .to_pandas().sort_values("q")
    )
    xs = sorted(vals)
    assert out["v"].dtype == np.int64
    for q, v in zip(out["q"], out["v"]):
        k = max(int(np.ceil(q * len(xs))) - 1, 0)
        assert int(v) == xs[k], (q, v)

    # weighted int path
    t2 = pa.table({"x": pa.array([big, big + 1], pa.int64()),
                   "w": pa.array([1, 3], pa.int64())})
    w = ops.exact_quantiles_radix(rd.from_arrow(t2), "x", [0.5],
                                  weight_col="w").to_pandas()
    assert int(w["v"].iloc[0]) == big + 1  # cumw hits ceil(0.5*4)=2 there


def test_grouped_radix_quantile_int64_native(ray_session):
    """The grouped radix select keeps integer keys native too: adjacent
    odd values beyond 2^53 stay apart and ``v`` is int64."""
    import ray.data as rd

    big = (1 << 53) + 1
    t = pa.table({"g": pa.array([7, 7, 7], pa.int64()),
                  "x": pa.array([big, big + 2, big + 4], pa.int64())})
    out = ops.grouped_quantiles_radix(
        rd.from_arrow(t), "g", "x", [0.0, 0.5, 1.0]
    ).to_pandas().sort_values("q")
    assert out["v"].dtype == np.int64
    assert [int(v) for v in out["v"]] == [big, big + 2, big + 4]
    assert out["g"].dtype == np.int64


# (group, value, weight) rows shared by the quantile-family q checks
_QG = [1, 1, 1, 2, 2, 2]
_QX = [1.0, 2.0, 3.0, 10.0, 20.0, 30.0]
_QUANTILE_OPS = {
    "exact_quantiles": lambda d, qs: ops.exact_quantiles(d, "x", qs),
    "exact_quantiles_cont": lambda d, qs: ops.exact_quantiles_cont(d, "x", qs),
    "grouped_quantiles": lambda d, qs: ops.grouped_quantiles(d, "g", "x", qs),
    "grouped_quantiles_cont": lambda d, qs: ops.grouped_quantiles(
        d, "g", "x", qs, interp="cont"),
    "exact_quantiles_radix": lambda d, qs: ops.exact_quantiles_radix(
        d, "x", qs),
    "exact_quantiles_radix_weighted": lambda d, qs: ops.exact_quantiles_radix(
        d, "x", qs, weight_col="w"),
    "exact_quantiles_radix_cont": lambda d, qs: ops.exact_quantiles_radix_cont(
        d, "x", qs),
    "grouped_quantiles_radix": lambda d, qs: ops.grouped_quantiles_radix(
        d, "g", "x", qs),
    "winsorize": lambda d, qs: ops.winsorize(
        d, "g", "x", q_lo=qs[0], q_hi=qs[-1]),
}


def _quantile_input():
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "g": pa.array(_QG, pa.int64()), "x": pa.array(_QX, pa.float64()),
        "w": pa.array([1] * len(_QX), pa.int64()),
    }))


@pytest.mark.parametrize("bad", [-0.5, 1.5, float("nan")])
@pytest.mark.parametrize("name", sorted(_QUANTILE_OPS))
def test_quantile_q_outside_unit_interval_raises(ray_session, name, bad):
    """Every quantile entry point rejects a q outside [0, 1] (or NaN) on
    the driver instead of an IndexError in a task or a silent answer;
    q = 0 and q = 1 still give each group's min and max."""
    fn = _QUANTILE_OPS[name]
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        fn(_quantile_input(), [0.5, bad]).to_pandas()

    out = fn(_quantile_input(), [0.0, 1.0]).to_pandas()
    if name == "winsorize":  # clamping to [min, max] changes nothing
        assert list(out["x_w"]) == _QX
        return
    got = {(r.get("g", 1), r["q"]): r["v"] for r in out.to_dict("records")}
    lo_hi = {1: (1.0, 3.0), 2: (10.0, 30.0)} if "g" in out else {1: (1.0, 30.0)}
    assert got == {(g, q): v for g, (lo, hi) in lo_hi.items()
                   for q, v in ((0.0, lo), (1.0, hi))}


@pytest.mark.parametrize("n_groups", [2, 50])
@pytest.mark.parametrize("n_qs", [1, 5])
def test_radix_quantiles_are_four_ray_data_executions(
    ray_session, ray_executions, n_qs, n_groups
):
    """Every radix entry point is exactly 4 Ray Data executions (one
    per 16-bit digit) however many quantiles and groups ride them."""
    import ray.data as rd

    calls = ray_executions
    rng = np.random.RandomState(n_qs * n_groups)
    n = 2000
    t = pa.table({
        "g": pa.array(rng.randint(0, n_groups, n), pa.int64()),
        "x": pa.array(rng.randn(n) * 1e3, pa.float64()),
        "w": pa.array(rng.randint(0, 5, n), pa.int64()),
    })
    qs = list(np.linspace(0.05, 0.95, n_qs))
    ds = rd.from_arrow(t)
    runs = {
        "plain": lambda: ops.exact_quantiles_radix(ds, "x", qs),
        "weighted": lambda: ops.exact_quantiles_radix(
            ds, "x", qs, weight_col="w"),
        "cont": lambda: ops.exact_quantiles_radix_cont(ds, "x", qs),
        "grouped": lambda: ops.grouped_quantiles_radix(ds, "g", "x", qs),
    }
    for name, run in runs.items():
        calls.clear()
        out = run()
        assert len(calls) == 4, name
        assert len(out.take_all()) == n_qs * (n_groups if name == "grouped" else 1)


def test_radix_quantile_int_nulls(ray_session):
    """NULLs in an INT column must not poison the radix keys: pyarrow's
    to_numpy on a nullable int array returns float64 (NaN for nulls),
    and viewing those float bits as uint64 mis-orders everything —
    the advisor's repro (median of [1,2,3,NULL] returned 2.0's bit
    pattern, 4611686018427387904). Nulls are dropped in Arrow first."""
    import ray.data as rd

    from georay import ops

    t = pa.table({"x": pa.array([1, 2, 3, None], pa.int64())})
    out = ops.exact_quantiles_radix(rd.from_arrow(t), "x", [0.5]).to_pandas()
    assert out["v"].dtype == np.int64
    assert int(out["v"].iloc[0]) == 2

    # negatives + nulls, and the weighted twin (weight mask must align
    # with the null-dropped value vector)
    t2 = pa.table({
        "x": pa.array([-5, None, -1, 7, None, 3], pa.int64()),
        "w": pa.array([2, 9, 1, 1, 9, 1], pa.int64()),
    })
    o2 = ops.exact_quantiles_radix(
        rd.from_arrow(t2), "x", [0.0, 0.5, 1.0]
    ).to_pandas().sort_values("q")
    assert list(o2["v"]) == [-5, -1, 7]
    ow = ops.exact_quantiles_radix(
        rd.from_arrow(t2), "x", [0.5], weight_col="w"
    ).to_pandas()
    # weights of the null rows are dropped with them: W=5, k=ceil(2.5)=3
    # cum: -5→2, -1→3 → answer -1
    assert int(ow["v"].iloc[0]) == -1

    # all-null int column → NULL result, int64 dtype preserved
    t3 = pa.table({"x": pa.array([None, None], pa.int64())})
    o3 = ops.exact_quantiles_radix(rd.from_arrow(t3), "x", [0.5]).to_pandas()
    assert len(o3) == 1 and o3["v"].isna().all()


def test_label_propagation_auto_switch(ray_session, monkeypatch):
    """r5: above broadcast_edge_cutoff the broadcast plan's driver-held
    merged count table (2·|edges| rows, 4.4 GiB at 20M edges) is the
    wrong shape — label_propagation must DELEGATE to the partitioned
    twin (measured crossover ≈2M edges). All three plans stay
    identical; the delegation is observed via monkeypatch."""
    import ray.data as rd

    from georay import analytics

    rng = np.random.default_rng(3)
    a = rng.integers(0, 60, 300)
    b = rng.integers(0, 60, 300)
    m = a < b
    import pandas as pd

    df = pd.DataFrame({"a": a[m], "b": b[m]}).drop_duplicates()
    edges = rd.from_arrow(pa.table({
        "a": pa.array(df["a"].to_numpy().astype(np.int64)),
        "b": pa.array(df["b"].to_numpy().astype(np.int64)),
    }))
    want = analytics.label_propagation(edges).to_pandas().sort_values(
        "node"
    ).reset_index(drop=True)

    calls = []
    orig = analytics.label_propagation_partitioned

    def spy(*args, **kw):
        calls.append(1)
        return orig(*args, **kw)

    monkeypatch.setattr(analytics, "label_propagation_partitioned", spy)
    got = analytics.label_propagation(
        edges, local_edge_cutoff=0, broadcast_edge_cutoff=0
    ).to_pandas().sort_values("node").reset_index(drop=True)
    assert calls, "auto-switch did not delegate to the partitioned twin"
    assert got.equals(want)

    # below both cutoffs the broadcast/local plans run, no delegation
    calls.clear()
    got2 = analytics.label_propagation(edges).to_pandas().sort_values(
        "node"
    ).reset_index(drop=True)
    assert not calls and got2.equals(want)


def test_bench_regression_gate_smoke():
    """r5: the bench regression gate must flag an intentional 3x
    regression in BOTH the headline and the extended families, and stay
    silent within tolerance (incl. the extended absolute-slack floor
    for sub-second queries)."""
    import importlib.util
    import json as js
    import os

    spec = importlib.util.spec_from_file_location(
        "georay_bench",
        os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "bench.py"),
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    base = js.load(open(os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_baseline.json")))
    hq = next(iter(base["queries"]))
    big_ext = max(base["extended_queries"],
                  key=base["extended_queries"].get)
    small_ext = min(base["extended_queries"],
                    key=base["extended_queries"].get)

    # within tolerance → silent
    ok = bench._check_regressions(
        {hq: base["queries"][hq] * 1.5}, base["value"] * 1.2,
        {big_ext: base["extended_queries"][big_ext] * 1.5},
    )
    assert ok == {}, ok
    # intentional 3x regressions → flagged with the right gate label
    bad = bench._check_regressions(
        {hq: base["queries"][hq] * 3}, base["value"] * 3,
        {big_ext: base["extended_queries"][big_ext] * 3},
    )
    assert hq in bad and "TOTAL" in bad
    assert bad[big_ext]["gate"] == "extended"
    # a tiny extended query tripling inside the absolute slack → silent
    if base["extended_queries"][small_ext] * 2 < bench.EXT_ABS_SLACK_SEC:
        quiet = bench._check_regressions(
            {}, 0.0,
            {small_ext: base["extended_queries"][small_ext] * 3},
        )
        assert small_ext not in quiet


def test_r5_robustness_probe_pins(ray_session, tmp_path):
    """r5 probe sweep (VERDICT item 7) — pin the verified edge
    behaviors: radix weighted/grouped on hostile columns,
    peak_concurrency under all-equal timestamps, hausdorff with
    single-point tracks, and the loud zero/one-run LSM merge guard."""
    import ray.data as rd

    from georay import analytics, ops, pipeline

    # weighted radix: all-null values / all-zero weights → NULL v
    t = pa.table({"x": pa.array([None, None], pa.float64()),
                  "w": pa.array([5, 5], pa.int64())})
    o = ops.exact_quantiles_radix(rd.from_arrow(t), "x", [0.5],
                                  weight_col="w").to_pandas()
    assert o["v"].isna().all()
    t2 = pa.table({"x": pa.array([1.0, 2.0]),
                   "w": pa.array([0, 0], pa.int64())})
    o2 = ops.exact_quantiles_radix(rd.from_arrow(t2), "x", [0.5],
                                   weight_col="w").to_pandas()
    assert o2["v"].isna().all()
    # ±inf-only column orders correctly
    t3 = pa.table({"x": pa.array([np.inf, -np.inf, np.inf], pa.float64())})
    o3 = ops.exact_quantiles_radix(
        rd.from_arrow(t3), "x", [0.0, 0.5, 1.0]
    ).to_pandas().sort_values("q")
    assert list(o3["v"]) == [-np.inf, np.inf, np.inf]
    # NULL weights are zero; int path stays int under them
    t4 = pa.table({"x": pa.array([5, 6, 7], pa.int64()),
                   "w": pa.array([None, 2, None], pa.int64())})
    o4 = ops.exact_quantiles_radix(rd.from_arrow(t4), "x", [0.5],
                                   weight_col="w").to_pandas()
    assert int(o4["v"].iloc[0]) == 6
    # grouped: an all-NaN group vanishes (SQL GROUP BY semantics)
    t5 = pa.table({"g": pa.array(["a", "a", "b"]),
                   "x": pa.array([np.nan, np.nan, 1.0])})
    o5 = ops.grouped_quantiles_radix(
        rd.from_arrow(t5), "g", "x", [0.5]
    ).to_pandas()
    assert list(o5["g"]) == ["b"]

    # peak_concurrency: all events at one instant
    t6 = pa.table({"ts": pa.array([100] * 7, pa.int64()),
                   "d": pa.array([1] * 7, pa.int64())})
    assert ops.peak_concurrency(
        rd.from_arrow(t6), "ts", "d"
    ).to_pandas()["peak"].iloc[0] == 7
    t7 = pa.table({"ts": pa.array([100] * 6, pa.int64()),
                   "d": pa.array([1, 1, 1, -1, -1, -1], pa.int64())})
    assert ops.peak_concurrency(
        rd.from_arrow(t7), "ts", "d"
    ).to_pandas()["peak"].iloc[0] == 3

    # hausdorff: single-point tracks pair fine; a lone user → 0 pairs
    def cellfn(lon, lat):
        return np.zeros(lon.shape[0], np.int64)

    t8 = pa.table({
        "u": pa.array([1, 2, 3, 3], pa.int64()),
        "ts": pa.array([1, 1, 1, 2], pa.int64()),
        "lon": pa.array([0.0, 1.0, 2.0, 2.1]),
        "lat": pa.array([0.0, 1.0, 2.0, 2.1]),
        "eid": pa.array([10, 20, 30, 31], pa.int64()),
    })
    h = analytics.hausdorff_pairs(
        rd.from_arrow(t8), "u", "ts", "lon", "lat",
        group_fn=cellfn, tiebreak_col="eid",
    ).to_pandas()
    assert len(h) == 3 and (h["hausdorff_q"] > 0).all()
    lone = pa.table({"u": pa.array([1], pa.int64()),
                     "ts": pa.array([1], pa.int64()),
                     "lon": pa.array([0.0]), "lat": pa.array([0.0]),
                     "eid": pa.array([1], pa.int64())})
    assert analytics.hausdorff_pairs(
        rd.from_arrow(lone), "u", "ts", "lon", "lat",
        group_fn=cellfn, tiebreak_col="eid",
    ).count() == 0

    # LSM merge of zero/one runs refuses LOUDLY (no silent half-layout)
    t9 = pa.table({"k": pa.array(np.arange(50), pa.int64()),
                   "v": pa.array(np.arange(50), pa.int64())})
    run1 = str(tmp_path / "run1")
    pipeline.write_sorted(rd.from_arrow(t9), run1, key="k",
                          n_ranges=4, bounds=(0, 50))
    with pytest.raises(ValueError, match=">= 2"):
        pipeline.merge_sorted_layouts([run1], str(tmp_path / "m1"))
    with pytest.raises(ValueError, match=">= 2"):
        pipeline.merge_sorted_layouts([], str(tmp_path / "m0"))


def _lonlat_pts(ids, lon, lat, idc):
    """(idc, lon, lat, geotag) table: one input for planar and geodesic twins."""
    from georay.codecs import native
    from georay.types import GeoType

    geo = GeoType.point(crs="OGC:CRS84")
    lon, lat = np.asarray(lon, float), np.asarray(lat, float)
    return pa.table({
        idc: pa.array(ids, pa.int64()), "lon": pa.array(lon),
        "lat": pa.array(lat),
    }).append_column(
        geo.field("geotag"), native.build_points(np.column_stack([lon, lat]), geo)
    )


def test_refs_on_antimeridian_and_pole_match_brute(ray_session):
    """Refs at exactly lon = 180 and lat = 90 land in column nx / row ny
    under plain ``grid_cell``, which no probe disk or cover visits: every
    proximity twin (partitioned and broadcast, geodesic and planar) must
    still find them, as a NumPy brute force does."""
    import ray.data as rd

    from georay import joins
    from georay.kernels import haversine_km

    rl, rp = np.array([180.0, 170.0, 0.0, 10.0]), np.array([0.0, 0.0, 90.0, 80.0])
    rid = np.arange(4, dtype=np.int64)
    pl, pp = np.array([179.5, 5.0]), np.array([0.0, 89.5])
    probes = rd.from_arrow(_lonlat_pts([0, 1], pl, pp, "pid"))
    refs = rd.from_arrow(_lonlat_pts(rid, rl, rp, "rid"))

    km = haversine_km(pl[:, None], pp[:, None], rl[None, :], rp[None, :])
    mkm = np.floor(km * 1000.0 + 0.5).astype(np.int64)
    want = {(p, int(mkm[p].argmin()), int(mkm[p].min())) for p in (0, 1)}
    assert {(p, r) for p, r, _ in want} == {(0, 0), (1, 2)}

    def rows(df, d="d_mkm"):
        return set(zip(df["pid"], df["rid"], df[d]))

    knn = joins.knn_geodesic_partitioned(probes, refs, k=1).to_pandas()
    assert rows(knn) == want and set(knn["rank"]) == {1}
    assert rows(joins.nearest_geodesic_partitioned(probes, refs).to_pandas()) == want
    for cutoff in (0, 1 << 30):  # grid-index plan and brute plan
        bk = joins.knn_geodesic_join(
            probes, rl, rp, rid, k=1, out_id="rid", brute_cutoff=cutoff
        ).to_pandas()
        assert rows(bk) == want, cutoff
        bn = joins.nearest_geodesic_join(
            probes, rl, rp, rid, out_id="rid", brute_cutoff=cutoff
        ).to_pandas()
        assert rows(bn) == want, cutoff

    n_km = {p: int(c) for p, c in enumerate((km <= 120.0).sum(axis=1)) if c}
    assert n_km == {0: 1, 1: 1}
    got = joins.radius_geodesic_count_partitioned(
        probes, refs, radius_km=120.0
    ).to_pandas()
    assert dict(zip(got["pid"], got["n"])) == n_km
    got = joins.radius_join_count(
        probes, rl, rp, rid, 120.0, probe_id_col="pid", metric="haversine"
    ).to_pandas()
    assert dict(zip(got["pid"], got["n"])) == n_km

    # planar twins: degrees, no wrap in the metric
    d2 = (pl[:, None] - rl[None, :]) ** 2 + (pp[:, None] - rp[None, :]) ** 2
    assert d2.argmin(axis=1).tolist() == [0, 2]
    part = joins.knn_join_partitioned(
        probes, refs, k=1, probe_id_col="pid", ref_id_col="rid"
    ).to_pandas()
    assert set(zip(part["pid"], part["rid"])) == {(0, 0), (1, 2)}
    bc = joins.knn_join(probes, rl, rp, rid, k=1, id_out="rid").to_pandas()
    assert set(zip(bc["pid"], bc["rid"])) == {(0, 0), (1, 2)}
    n_deg = {p: int(c) for p, c in enumerate((d2 <= 36.0).sum(axis=1)) if c}
    assert n_deg == {0: 1, 1: 1}
    for got in (
        joins.radius_join_count_partitioned(probes, refs, 6.0, probe_id_col="pid"),
        joins.radius_join_count(probes, rl, rp, rid, 6.0, probe_id_col="pid"),
    ):
        df = got.to_pandas()
        assert dict(zip(df["pid"], df["n"])) == n_deg


def test_knn_partitioned_rejects_negative_ref_ids(ray_session):
    """Ref ids −1 and −2 are the ring engine's in-band probe-state
    sentinels: both metrics refuse negative ref ids loudly instead of
    silently dropping the probe's neighbours (the broadcast ``knn_join``
    returns (1, −1, 1), (1, 7, 2) here)."""
    import ray.data as rd

    from georay import joins

    probes = rd.from_arrow(_lonlat_pts([1], [0.0], [0.0], "pid"))
    refs = rd.from_arrow(_lonlat_pts([-1, 7], [0.5, 1.0], [0.0, 0.0], "rid"))
    # the ValueError is raised in the ref-keying task; Ray re-raises it
    # in the caller wrapped in its task error, message included
    msg = "ValueError: partitioned kNN: ref ids must be >= 0"
    with pytest.raises(Exception, match=msg):
        joins.knn_join_partitioned(
            probes, refs, k=2, res=4.0, probe_id_col="pid", ref_id_col="rid"
        ).take_all()
    with pytest.raises(Exception, match=msg):
        joins.knn_geodesic_partitioned(probes, refs, k=2).take_all()


def _dedup_labels(rows):
    import ray.data as rd

    from georay.stages import dedup

    tbl = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
        }
    )
    out = dedup.minhash_dedup(rd.from_arrow(tbl), threshold=0.8).to_pandas()
    return list(zip(out["doc_id"], out["cluster_id"], out["is_dup"]))


def test_minhash_dedup_fused_edge_inputs(ray_session):
    """The fused band reducer on degenerate buckets: 300 identical
    captions chain into one component under the W = 50 pairing cap and
    take the min id; empty, null and all-whitespace texts cluster
    together (Jaccard 1.0); a duplicated doc id verifies each row
    against its own text, so it emits no false cross pair."""
    rng = np.random.default_rng(5)
    same = "a red kite over the old harbour at dusk"
    ids = rng.permutation(np.arange(1000, 1300))
    rows = [(int(i), same) for i in ids]
    rows += [
        (int(i), " ".join(f"w{v}" for v in rng.integers(0, 10**6, 8)))
        for i in range(20)
    ]
    got = {d: (c, dup) for d, c, dup in _dedup_labels(rows)}
    assert all(got[int(i)] == (1000, int(i) != 1000) for i in ids)
    assert all(got[i] == (i, False) for i in range(20))

    got = {d: (c, dup) for d, c, dup in _dedup_labels(
        [(7, ""), (3, None), (9, " \t\n "), (4, "some unrelated caption text")]
    )}
    assert got == {7: (3, True), 3: (3, False), 9: (3, True), 4: (4, False)}

    same = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    other = "one two three four five six seven eight nine ten"
    got = _dedup_labels([(1, same), (1, same), (2, other)])
    assert sorted(got) == [(1, 1, False), (1, 1, False), (2, 2, False)]


def test_broadcast_fetched_once_per_worker_process(ray_session):
    """``exchange.broadcast`` fetches once per worker process: Ray Data
    deserializes a map fn afresh for every task, so a closure-local
    cache dict starts empty in each of the 8 tasks, while the handle's
    module-level table keeps the value for the process."""
    import os
    from collections import Counter

    import ray
    import ray.data as rd

    from georay import exchange

    handle = exchange.broadcast(np.arange(10))
    ref = ray.put(np.arange(10))
    cache: dict = {}

    def via_handle(batch: pa.Table) -> pa.Table:
        fetched = handle.ref.binary() not in exchange._fetched
        assert int(handle.get().sum()) == 45
        return pa.table({"pid": [os.getpid()], "fetched": [fetched]})

    def via_closure_cache(batch: pa.Table) -> pa.Table:
        fetched = "v" not in cache
        assert int(cache.setdefault("v", ray.get(ref)).sum()) == 45
        return pa.table({"pid": [os.getpid()], "fetched": [fetched]})

    def run(fn):
        ds = rd.from_items([{"i": i} for i in range(8)], override_num_blocks=8)
        rows = ds.map_batches(fn, batch_format="pyarrow", batch_size=None).take_all()
        assert len(rows) == 8
        return rows

    rows = run(via_handle)
    per_pid = Counter(r["pid"] for r in rows if r["fetched"])
    assert per_pid == Counter({pid: 1 for pid in {r["pid"] for r in rows}})
    assert sum(r["fetched"] for r in run(via_closure_cache)) == 8


def test_broadcast_table_is_bounded(ray_session):
    """More distinct broadcasts than the table's bound, read in one
    worker, leave at most the bound cached (the most recently read
    ones), and every read returns its own value."""
    import ray.data as rd

    from georay import exchange

    n = exchange._MAX_ENTRIES + 3
    handles = [exchange.broadcast(np.full(4, i)) for i in range(n)]

    def read_all(batch: pa.Table) -> pa.Table:
        vals = [int(h.get()[0]) for h in handles]
        cached = [h.ref.binary() in exchange._fetched for h in handles]
        return pa.table({
            "size": [len(exchange._fetched)], "vals": [vals], "cached": [cached],
        })

    (row,) = rd.from_items([{"i": 0}]).map_batches(
        read_all, batch_format="pyarrow", batch_size=None
    ).take_all()
    assert row["size"] <= exchange._MAX_ENTRIES
    assert list(row["vals"]) == list(range(n))
    assert list(row["cached"]) == [False] * 3 + [True] * exchange._MAX_ENTRIES


def test_pip_join_broadcasts_do_not_go_stale(ray_session):
    """Two ``pip_join`` calls in one session with different polygon
    tables each match against their own table, in the same workers."""
    import ray.data as rd

    from georay import joins
    from georay.codecs import wkt
    from georay.types import GeoType

    def boxes(name, x0, x1):
        g, geo = wkt.decode(pa.array(
            [f"POLYGON(({x0} -10, {x1} -10, {x1} 10, {x0} 10, {x0} -10))"]
        ), GeoType.polygon())
        return pa.table({"polygon_id": [name]}).append_column(geo.field("geometry"), g)

    pts = _pts_tbl(400)
    lon, _ = ops.point_lonlat(pts, "geotag")
    for name, x0, x1, want in (("west", -10, 0, lon < 0), ("east", 0, 10, lon > 0)):
        ds = rd.from_arrow(pts).repartition(8)
        got = joins.pip_join(ds, boxes(name, x0, x1), mode="inner").to_pandas()
        assert set(got["polygon_id"]) == {name}
        assert sorted(got["pt_id"]) == np.nonzero(want)[0].tolist()


def test_degree_assortativity_is_three_ray_data_executions(
    ray_session, ray_executions
):
    """``exchange.collect`` runs its plan once: ``to_arrow_refs`` ran it
    a second time for the schema (4 executions at 3,000 edges)."""
    import ray.data as rd

    from georay import analytics

    calls = ray_executions
    rng = np.random.default_rng(3)
    edges = pa.table({
        "a": pa.array(rng.integers(0, 500, 3000), pa.int64()),
        "b": pa.array(rng.integers(0, 500, 3000), pa.int64()),
    })
    calls.clear()
    out = analytics.degree_assortativity(rd.from_arrow(edges)).take_all()
    assert len(calls) == 3
    assert out[0]["n_pairs"] == 6000


def test_broadcast_and_collect_only_in_exchange():
    """The driver-to-task data movement lives in ``georay/exchange.py``:
    no other module calls ``ray.put``, ``ray.get`` or
    ``Dataset.to_arrow_refs``. ``StreamingDedup`` reads its seen-set
    actors' replies with ``ray.get`` (actor calls, not broadcasts)."""
    import ast
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "georay"
    allowed = {("state.py", "fn"), ("state.py", "n_seen")}
    bad = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel == "exchange.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        ray_names = {"ray"} | {
            a.asname for n in ast.walk(tree) if isinstance(n, ast.Import)
            for a in n.names if a.name == "ray" and a.asname
        }

        def visit(node, fn_name):
            for child in ast.iter_child_nodes(node):
                name = fn_name
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = child.name
                if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                    f = child.func
                    is_ray = isinstance(f.value, ast.Name) and f.value.id in ray_names
                    if (f.attr == "to_arrow_refs"
                            or (is_ray and f.attr in ("put", "get")
                                and (rel, fn_name) not in allowed)):
                        bad.append(f"{rel}:{child.lineno} {f.attr}")
                visit(child, name)

        visit(tree, None)
    assert not bad, bad


def test_co_shuffle_only_in_exchange():
    """Every key-bucket co-shuffle goes through ``exchange.co_shuffle``:
    no other module calls ``map_groups`` or ``shuffle_coalesce``, and the
    retired private copy ``_bucketed`` does not come back."""
    import ast
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "georay"
    bad = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.alias):
                name = node.asname or node.name
            else:
                continue
            if name == "_bucketed":
                bad.append(f"{rel}:{getattr(node, 'lineno', '?')} _bucketed")
            if rel == "exchange.py":
                continue
            if isinstance(node, ast.Call):
                f = node.func
                callee = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if callee == "shuffle_coalesce" or (
                    callee == "map_groups" and isinstance(f, ast.Attribute)
                ):
                    bad.append(f"{rel}:{node.lineno} {callee}")
    assert not bad, bad


def test_graph_buckets_only_through_co_shuffle():
    """The graph modules bucket rows only through ``co_shuffle(...,
    n_buckets=...)``: no ``_mix64`` call in ``analytics.py`` or
    ``stages/components.py``, except in ``negative_edge_samples``, where
    it picks a seeded node index, not a bucket."""
    import ast
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "georay"
    bad = []
    for rel in ("analytics.py", "stages/components.py"):
        tree = ast.parse((root / rel).read_text(), rel)
        for top in tree.body:
            if getattr(top, "name", None) == "negative_edge_samples":
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                    if name == "_mix64":
                        bad.append(f"{rel}:{node.lineno}")
    assert not bad, bad


def _key_side_counter():
    """A group fn emitting one row per (k, side) in the group with its
    row count. Built in a closure so Ray ships it by value (workers
    cannot import this test module)."""

    def per_key_side_counts(group: pa.Table) -> pa.Table:
        k = group["k"].to_numpy(zero_copy_only=False)
        side = group["side"].to_numpy(zero_copy_only=False)
        pairs, counts = np.unique(np.stack([k, side]), axis=1, return_counts=True)
        return pa.table({
            "k": pa.array(pairs[0], pa.int64()),
            "side": pa.array(pairs[1], pa.int64()),
            "n": pa.array(counts, pa.int64()),
        })

    return per_key_side_counts


def _side_table(keys, side: int) -> pa.Table:
    keys = np.asarray(keys, np.int64)
    return pa.table({
        "k": pa.array(keys, pa.int64()),
        "side": pa.array(np.full(keys.shape[0], side), pa.int64()),
    })


@pytest.mark.parametrize("n_buckets", [None, 8])
def test_co_shuffle_two_sides_one_empty(n_buckets, ray_session):
    """A two-sided co-shuffle whose right side is empty (Ray 2.49 drops
    the schema of empty partitions in ``Dataset.join``): every key of the
    other side still lands whole in one ``fn`` call."""
    import pandas as pd
    import ray.data as rd

    from georay import exchange

    rng = np.random.default_rng(3)
    left = _side_table(rng.integers(0, 50, 400), 0)
    right = _side_table([], 1)
    out = exchange.co_shuffle(
        [rd.from_arrow(left).repartition(4), rd.from_arrow(right)],
        "k", _key_side_counter(), n_buckets=n_buckets, coalesce=True,
    ).to_pandas().sort_values(["k", "side"]).reset_index(drop=True)
    ref = (
        pd.concat([left.to_pandas(), right.to_pandas()])
        .groupby(["k", "side"]).size().rename("n").reset_index()
    )
    pd.testing.assert_frame_equal(out, ref, check_dtype=False)


def test_co_shuffle_one_hot_key(ray_session):
    """All rows on one key: one bucket receives them all, in one call."""
    import ray.data as rd

    from georay import exchange

    v = np.arange(1000, dtype=np.int64)
    t = pa.table({"k": pa.array(np.full(1000, 7), pa.int64()), "v": pa.array(v)})

    def per_call(group: pa.Table) -> pa.Table:
        return pa.table({
            "rows": pa.array([len(group)], pa.int64()),
            "sum": pa.array([int(np.sum(group["v"].to_numpy()))], pa.int64()),
            "cols": pa.array([",".join(group.column_names)]),
        })

    out = exchange.co_shuffle(
        rd.from_arrow(t).repartition(8), "k", per_call, n_buckets=16,
        coalesce=True,
    ).to_pandas()
    assert out["rows"].tolist() == [1000]
    assert out["sum"].tolist() == [int(v.sum())]
    assert out["cols"].tolist() == ["k,v"]  # the bucket column is dropped


@pytest.mark.parametrize("n_buckets", [None, 8])
def test_co_shuffle_empty_input(n_buckets, ray_session):
    """No rows in, no rows out, and ``fn`` is never asked to invent a
    group — for one side and for two."""
    import ray.data as rd

    from georay import exchange

    for sides in ([_side_table([], 0)], [_side_table([], 0), _side_table([], 1)]):
        ds = [rd.from_arrow(t) for t in sides]
        out = exchange.co_shuffle(
            ds, "k", _key_side_counter(), n_buckets=n_buckets, coalesce=True,
        )
        assert out.count() == 0


def test_co_shuffle_unhashable_key_names_columns(ray_session):
    """A key type without a bucket hash (here float64) fails with a
    TypeError that names the key column and its type, not with a
    ``NoneType % uint64`` error from deep inside the task. Ray Data
    wraps map errors in ``UserCodeException``; the TypeError line is in
    its message."""
    import ray.data as rd

    from georay import analytics

    t = pa.table({
        "u": pa.array([1.0, 2.0, 1.0]),
        "ts": pa.array([1, 2, 3], pa.int64()),
        "e": pa.array(["a", "b", "a"]),
    })
    with pytest.raises(Exception) as err:
        analytics.funnel(rd.from_arrow(t), "u", "ts", "e", ["a", "b"]).take_all()
    assert "TypeError: key columns ['u'] (u: double) have no bucket hash" in str(err.value)


def test_task_count_bounds(ray_session, cluster_cpus):
    """``task_count`` is at least 1 and never more than the parts; it is
    one task per CPU otherwise, and the bytes term raises it to one task
    per ``target_max_block_size``."""
    import ray.data as rd

    from georay import exchange

    cluster_cpus(2)
    block = rd.DataContext.get_current().target_max_block_size
    assert exchange.task_count(0) == 1
    assert exchange.task_count(1) == 1
    assert exchange.task_count(100) == 2
    assert exchange.task_count(100, block) == 2
    assert exchange.task_count(100, 10 * block) == 10
    assert exchange.task_count(100, 10 * block + 1) == 11
    assert exchange.task_count(3, 10 * block) == 3
    for n_parts in range(1, 9):
        for n_bytes in (None, 0, block // 2, 5 * block):
            assert 1 <= exchange.task_count(n_parts, n_bytes) <= n_parts


def test_shuffle_coalesce_never_splits(ray_session, cluster_cpus):
    """At 4 CPUs ``shuffle_coalesce`` adds no stage to a 2-block input
    and merges a 16-block input to 4 blocks, rows unchanged. A file read
    that Ray splits at run time is merged to 4 blocks too, though the
    plan counts it as one."""
    import ray.data as rd

    from georay import exchange

    cluster_cpus(4)
    t = pa.table({"k": pa.array(np.arange(1600), pa.int64())})
    two = rd.from_arrow([t.slice(0, 800), t.slice(800)])
    assert exchange.shuffle_coalesce(two) is two
    sixteen = rd.from_arrow([t.slice(i * 100, 100) for i in range(16)])
    out = exchange.shuffle_coalesce(sixteen).materialize()
    assert out.num_blocks() == 4
    assert sorted(out.to_pandas()["k"].tolist()) == list(range(1600))
    read = rd.read_parquet("/root/testdata/sf0.001/lineitem.parquet", columns=["l_orderkey"])
    assert exchange.shuffle_coalesce(read)._plan.initial_num_blocks() == 4


def test_combine_tree_only_in_exchange():
    """Every combine-tree stage goes through ``exchange.combine`` /
    ``exchange.gather``: no other module spells a one-task merge
    (``batch_size=1 << 40``), a ``num_cpus`` offset on ``map_batches``
    or a ``repartition(1)`` barrier."""
    import ast
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "georay"
    bad = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel == "exchange.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            kw = {k.arg: ast.unparse(k.value) for k in node.keywords if k.arg}
            if node.func.attr == "map_batches" and (
                kw.get("batch_size") == "1 << 40" or "num_cpus" in kw
            ):
                bad.append(f"{rel}:{node.lineno} map_batches({kw})")
            if (node.func.attr == "repartition" and node.args
                    and ast.unparse(node.args[0]) == "1"):
                bad.append(f"{rel}:{node.lineno} repartition(1)")
    assert not bad, bad


def test_gather_calls_fn_once_with_every_row(ray_session):
    """``exchange.gather`` over a 50-block input calls its fn once, with
    every row; the 0.9-CPU merge does not fuse with the default-CPU map
    before it, so that map keeps one task per block."""
    import pyarrow.compute as pc
    import ray.data as rd

    from georay import exchange

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column("one", pa.array(np.ones(len(batch), np.int64)))

    def fold(batch: pa.Table) -> pa.Table:
        return pa.table({
            "n": pa.array([len(batch)], pa.int64()),
            "s": pa.array([int(pc.sum(batch["k"]).as_py())], pa.int64()),
        })

    parts = [pa.table({"k": pa.array(np.arange(i * 10, i * 10 + 10), pa.int64())})
             for i in range(50)]
    ds = rd.from_arrow(parts)
    assert ds.num_blocks() == 50
    out = exchange.gather(
        ds.map_batches(tag, batch_format="pyarrow", batch_size=None), fold
    ).materialize()
    assert out.take_all() == [{"n": 500, "s": sum(range(500))}]
    ops_run = [ln for ln in out.stats().splitlines() if ln.startswith("Operator")]
    assert not any("MapBatches(tag)->" in ln for ln in ops_run), ops_run
    assert any("MapBatches(tag): 50 tasks" in ln for ln in ops_run), ops_run


def test_combine_tree_on_empty_input(ray_session):
    """On an input with no rows the tree's fns are never called and the
    result has no rows; the callers keep their own empty results."""
    import ray.data as rd

    from georay import exchange
    from georay.stages import text

    def boom(batch: pa.Table) -> pa.Table:
        raise AssertionError(f"called on {len(batch)} rows")

    empty = rd.from_arrow([EMPTY.append_column("text", pa.array([], pa.string()))] * 3)
    assert exchange.gather(exchange.combine(empty, boom), boom).take_all() == []

    hh = ops.heavy_hitters(empty, "s", 0.5).materialize()
    assert hh.count() == 0
    assert hh.schema().names == ["s", "n"]
    assert ops.top_k(empty, "v", 3).count() == 0
    assert text.token_histogram(empty, "text").count() == 0
    assert ops.approx_distinct(empty, "k") == 0.0


def test_rollup_plan_has_no_repartition(ray_session):
    """``rollup_sum`` (like cube, grouping sets and grouped mode) expands
    the one-block finest table inside the tree's merge task: its
    executed plan has no ``Repartition`` barrier."""
    import ray.data as rd

    t = pa.table({
        "k": pa.array([1, 1, 2], pa.int64()),
        "s": pa.array(["a", "b", "a"]),
        "v": pa.array([1.0, 2.0, 3.0]),
    })
    out = ops.rollup_sum(rd.from_arrow(t), ["k", "s"], "v").materialize()
    assert "Repartition" not in out.stats()
    got = sorted((r["k"] or 0, r["s"] or "", r["total"]) for r in out.take_all())
    assert got == [(0, "", 6.0), (1, "", 3.0), (1, "a", 1.0), (1, "b", 2.0),
                   (2, "", 3.0), (2, "a", 3.0)]


def test_hll_partial_no_cast_warning_and_registers_pinned():
    """``hll_partial`` ranks a hash whose 52 high bits are zero without
    taking log2(0): no RuntimeWarning, and the registers equal both a
    ``bit_length`` reference and the digest the rank rule has always
    produced (key 0 hashes to 0, so ``w == 0`` occurs in this input)."""
    import hashlib
    import warnings

    import pandas as pd

    vals = np.arange(5000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        regs = ops.hll_partial(vals)
    h = pd.util.hash_array(vals).astype(np.uint64)
    want = np.zeros(1 << ops._HLL_P, dtype=np.int8)
    for hv in h.tolist():
        w = hv >> ops._HLL_P
        rank = 65 - ops._HLL_P - w.bit_length()
        j = hv & ((1 << ops._HLL_P) - 1)
        want[j] = max(want[j], rank)
    assert np.array_equal(regs, want)
    assert hashlib.sha256(regs.tobytes()).hexdigest() == (
        "18a896febadd657b65ec375e2e2878b8679f52561fec569bfba3f8d82c4e291d"
    )


# ------------------------------------------------ first-match PIP probe
STAR_CX, STAR_CY = 10.0, 20.0


def _star_ring(r_out):
    """Closed 5-spike star ring around the star center, inner radius
    0.4·``r_out``, outer vertex 0 on the +x axis."""
    k = np.arange(10)
    ang = np.pi * k / 5
    rad = np.where(k % 2 == 0, r_out, 0.4 * r_out)
    xy = np.column_stack([STAR_CX + rad * np.cos(ang), STAR_CY + rad * np.sin(ang)])
    return np.vstack([xy, xy[:1]])


def _polygon_table(rings_per_feature):
    """geoarrow.polygon table from a list of ring lists (one per row),
    ``polygon_id`` = row number."""
    from georay.codecs import native
    from georay.types import GeoType

    geo = GeoType.polygon(crs="OGC:CRS84")
    rings = [r for feat in rings_per_feature for r in feat]
    ring_off = np.concatenate([[0], np.cumsum([len(r) for r in rings])])
    feat_off = np.concatenate([[0], np.cumsum([len(f) for f in rings_per_feature])])
    coords = np.vstack([np.reshape(r, (-1, 2)) for r in rings])
    geom = native.build_nested(coords, [feat_off, ring_off], geo)
    ids = pa.array(np.arange(len(rings_per_feature), dtype=np.int64))
    return pa.table({"polygon_id": ids}).append_column(geo.field("geometry"), geom)


def _concentric_stars(n=200):
    """``n`` concentric stars, smallest first: a point on an inner-vertex
    ray lies in the bbox of every larger star but inside only those at
    least 2.5× its radius, so its first hit sits deep in its candidate
    list (or it has none), and the cluster center has ``n`` candidates."""
    radii = 0.02 * (np.arange(n) + 1)
    return _polygon_table([[_star_ring(r)] for r in radii]), radii


def _probe_points(radii):
    """Heavy-overlap probe batch: a random sprinkle, points down the
    inner-vertex ray, points exactly on vertices, edges and bbox
    borders, and three 1e9 sentinels (what ``pip_join`` feeds for null
    and NaN geotags)."""
    rng = np.random.default_rng(5)
    r_max = radii[-1]
    pts = [rng.uniform(-1.1 * r_max, 1.1 * r_max, (400, 2)) + [STAR_CX, STAR_CY]]
    rho = np.linspace(0.01, 1.05 * r_max, 120)
    ang = np.pi / 5  # the inner vertex between outer vertices 0 and 2
    pts.append(np.column_stack([STAR_CX + rho * np.cos(ang), STAR_CY + rho * np.sin(ang)]))
    for i in (0, 37, 99, 150, 199):
        ring = _star_ring(radii[i])
        pts.append(ring[:-1])  # every vertex
        pts.append((ring[:-1] + ring[1:]) / 2)  # every edge midpoint
        xmin, ymin = ring.min(axis=0)
        xmax, ymax = ring.max(axis=0)
        pts.append([[xmin, STAR_CY], [xmax, STAR_CY], [STAR_CX, ymin], [STAR_CX, ymax],
                    [xmin, ymin], [xmax, ymax]])
    pts.append(np.full((3, 2), 1e9))
    xy = np.vstack(pts)
    return xy[:, 0].copy(), xy[:, 1].copy()


def _min_poly_per_point(idx, lon, lat):
    """Reference first match: lowest polygon index over ``contains``."""
    want = np.full(lon.shape[0], -1, np.int64)
    pidx, poly = idx.contains(lon, lat)
    order = np.lexsort((-poly, pidx))  # last write per point = min poly
    want[pidx[order]] = poly[order]
    return want


@pytest.mark.parametrize("kind", ["grid", "str"])
def test_contains_first_is_min_match_in_log_waves(kind, monkeypatch):
    """``contains_first`` returns the lowest matching polygon index per
    point for both indexes, and runs the exact test once per doubling
    rank wave: at most ceil(log2 R) + 1 ``_pip_pairs`` calls per batch,
    R being the largest candidate count of any point (a rank-by-rank
    probe needs one call per rank, > 100 here)."""
    from georay.index import PolygonIndex, STRPolygonIndex

    polys, radii = _concentric_stars()
    idx = (STRPolygonIndex if kind == "str" else PolygonIndex).build(polys)
    lon, lat = _probe_points(radii)
    pidx, poly = idx.candidates(lon, lat)
    r_max = int(np.bincount(pidx).max())
    assert r_max > 64

    want = _min_poly_per_point(idx, lon, lat)
    # a rank-by-rank probe tests each point's candidates up to its first
    # hit, or all of them on a miss
    counts = np.bincount(pidx, minlength=lon.shape[0])
    start = np.cumsum(counts) - counts
    hit_rank = np.nonzero(poly == np.repeat(want, counts))[0]
    hit_rank = hit_rank[np.r_[True, pidx[hit_rank][1:] != pidx[hit_rank][:-1]]]
    needed = counts.copy()
    needed[pidx[hit_rank]] = hit_rank - start[pidx[hit_rank]] + 1
    assert (want < 0).any() and (needed[want >= 0] > 64).any()

    calls = []
    real = PolygonIndex._pip_pairs

    def counting(self, *args):
        calls.append(args[0].shape[0])
        return real(self, *args)

    monkeypatch.setattr(PolygonIndex, "_pip_pairs", counting)
    got = idx.contains_first(lon, lat)
    assert np.array_equal(got, want)
    assert 5 <= len(calls) <= int(np.ceil(np.log2(r_max))) + 1
    assert sum(calls) <= 2 * needed.sum()

    # all-miss batch: only sentinels and far points
    far = np.array([1e9, -170.0, 170.0, STAR_CX + 10.0])
    assert (idx.contains_first(far, np.array([1e9, -80.0, 80.0, STAR_CY])) == -1).all()
    # empty batch
    assert idx.contains_first(np.empty(0), np.empty(0)).shape == (0,)


def test_contains_first_grid_and_str_agree_on_generated_polygons():
    """Grid and STR first matches agree with each other and with the
    min-over-``contains`` reference on the generator's mixed polygons."""
    from georay import generate
    from georay.index import PolygonIndex, STRPolygonIndex

    polys = generate.make_polygons_table(300, seed=7)
    grid = PolygonIndex.build(polys)
    st = STRPolygonIndex.build(polys)
    rng = np.random.default_rng(3)
    # points scattered over random polygons' bboxes (most hit something)
    b = grid.bbox[np.isfinite(grid.bbox[:, 0])]
    pick = b[rng.integers(0, b.shape[0], 3000)]
    lon = rng.uniform(pick[:, 0], pick[:, 2])
    lat = rng.uniform(pick[:, 1], pick[:, 3])
    want = _min_poly_per_point(grid, lon, lat)
    assert (want >= 0).sum() > 1000 and (want < 0).any()
    assert np.array_equal(grid.contains_first(lon, lat), want)
    assert np.array_equal(st.contains_first(lon, lat), want)


@pytest.mark.parametrize("index", ["grid", "str"])
def test_pip_join_first_match_modes_on_heavy_overlap(index, ray_session):
    """left/semi/anti ``pip_join`` over the concentric stars, with null
    and NaN geotags, equal the min-over-``contains`` reference: left
    carries the lowest-index containing polygon's id, semi/anti split
    the points by whether any polygon contains them."""
    import ray.data as rd

    from georay.codecs import native
    from georay.index import PolygonIndex
    from georay.joins import pip_join
    from georay.types import GeoType

    n = 200
    polys, radii = _concentric_stars(n)
    polys = polys.set_column(
        0, "polygon_id", pa.array([f"star{i:03d}" for i in range(n)])
    )
    lon, lat = _probe_points(radii)
    lon, lat = lon[:-3], lat[:-3]  # sentinels come from null/NaN rows below
    m = lon.shape[0]
    coords = np.vstack([np.column_stack([lon, lat]), [[0.0, 0.0], [np.nan, np.nan]]])
    mask = np.zeros(m + 2, bool)
    mask[m] = True  # null geotag
    pt_geo = GeoType.point(crs="OGC:CRS84")
    ids = [f"p{i:05d}" for i in range(m + 2)]
    pts = pa.table({"image_id": pa.array(ids)}).append_column(
        pt_geo.field("geotag"), native.build_points(coords, pt_geo, mask=mask)
    )
    first = _min_poly_per_point(PolygonIndex.build(polys), lon, lat)
    first = np.concatenate([first, [-1, -1]])
    want_left = {
        i: (f"star{f:03d}" if f >= 0 else None) for i, f in zip(ids, first.tolist())
    }

    def run(mode):
        ds = rd.from_arrow(pts).repartition(3)
        return pip_join(ds, polys, mode=mode, index=index).take_all()

    left = run("left")
    assert len(left) == m + 2
    assert {r["image_id"]: r["polygon_id"] for r in left} == want_left
    hit = {i for i, f in zip(ids, first.tolist()) if f >= 0}
    assert {r["image_id"] for r in run("semi")} == hit
    assert {r["image_id"] for r in run("anti")} == set(ids) - hit


def test_polygon_index_edges_match_per_ring_enumeration():
    """The vectorized edge build equals a per-ring loop over holes,
    multipolygon parts, EMPTY polygons and 0/1-vertex rings."""
    from georay.codecs import native
    from georay.index import PolygonIndex
    from georay.types import GeoType

    sq = np.array([[0, 0], [4, 0], [4, 4], [0, 4], [0, 0]], np.float64)
    hole = np.array([[1, 1], [2, 1], [2, 2], [1, 2], [1, 1]], np.float64)
    poly_rows = [
        [sq, hole],  # shell + hole
        [sq + 10, np.array([[11.0, 11.0]])],  # 1-vertex ring
        [],  # EMPTY
        [np.empty((0, 2)), sq + 20],  # 0-vertex ring first
        [_star_ring(1.0), _star_ring(0.3)],
    ]
    mp_geo = GeoType.multipolygon(crs="OGC:CRS84")
    mp_parts = [[[sq], [sq + 5, hole + 5]], [[np.array([[7.0, 7.0]]), sq + 30]], []]
    rings = [r for f in mp_parts for part in f for r in part]
    part_off = np.concatenate([[0], np.cumsum([len(f) for f in mp_parts])])
    ring_cnt = np.concatenate([[0], np.cumsum([len(p) for f in mp_parts for p in f])])
    coord_off = np.concatenate([[0], np.cumsum([len(r) for r in rings])])
    mp = pa.table({"polygon_id": pa.array([0, 1, 2])}).append_column(
        mp_geo.field("geometry"),
        native.build_nested(
            np.vstack([np.reshape(r, (-1, 2)) for r in rings]),
            [part_off, ring_cnt, coord_off],
            mp_geo,
        ),
    )

    for table in (_polygon_table(poly_rows), mp):
        geo = GeoType.from_field(table.schema.field("geometry"))
        v = native.view(table["geometry"].combine_chunks(), geo)
        ring_off = v.offsets[-1]
        want = {k: [] for k in ("x1", "y1", "x2", "y2")}
        offsets = [0]
        for f in range(v.length):
            r0, r1 = v.offsets[0][f], v.offsets[0][f + 1]
            for mid in v.offsets[1:-1]:
                r0, r1 = mid[r0], mid[r1]
            for r in range(r0, r1):
                for k in range(ring_off[r], ring_off[r + 1] - 1):
                    want["x1"].append(v.coords[k, 0])
                    want["y1"].append(v.coords[k, 1])
                    want["x2"].append(v.coords[k + 1, 0])
                    want["y2"].append(v.coords[k + 1, 1])
            offsets.append(len(want["x1"]))
        idx = PolygonIndex.build(table)
        for k in ("x1", "y1", "x2", "y2"):
            assert np.array_equal(getattr(idx, f"edge_{k}"), np.array(want[k], np.float64)), k
        assert np.array_equal(idx.poly_edge_offsets, offsets)
