"""Unit tests for georay.analytics (funnel, cohort, graph) and the
weighted-sample / CDC-merge operators, against hand-built oracles."""

import numpy as np
import pyarrow as pa
import pytest

from georay import analytics, ops


def _ds(tbl: pa.Table):
    import ray.data as rd

    return rd.from_arrow(tbl)


# ------------------------------------------------------------- funnel

def test_funnel_strict_ordering(ray_session):
    # user 1 completes A->B->C; user 2 does B before A (B must not count);
    # user 3 does A and B at the SAME timestamp (strictly-later fails)
    tbl = pa.table(
        {
            "u": pa.array([1, 1, 1, 2, 2, 3, 3], pa.int64()),
            "ts": pa.array([10, 20, 30, 5, 50, 7, 7], pa.timestamp("us")),
            "t": pa.array(["A", "B", "C", "B", "A", "A", "B"]),
        }
    )
    out = (
        analytics.funnel(_ds(tbl), "u", "ts", "t", ["A", "B", "C"], n_buckets=4)
        .to_pandas()
        .sort_values("step")
    )
    assert out["n_users"].tolist() == [3, 1, 1]
    assert out["step_name"].tolist() == ["A", "B", "C"]


def test_funnel_retrograde_step_recovers(ray_session):
    # user does A, B, then another B is irrelevant; C arrives last
    tbl = pa.table(
        {
            "u": pa.array([9, 9, 9, 9], pa.int64()),
            "ts": pa.array([1, 2, 3, 4], pa.timestamp("us")),
            "t": pa.array(["A", "B", "B", "C"]),
        }
    )
    out = (
        analytics.funnel(_ds(tbl), "u", "ts", "t", ["A", "B", "C"], n_buckets=2)
        .to_pandas()
        .sort_values("step")
    )
    assert out["n_users"].tolist() == [1, 1, 1]


# ------------------------------------------------------------- cohort

def test_cohort_retention_hand():
    import ray.data as rd  # noqa: F401  (ray via fixture in callers)

    tbl = pa.table(
        {
            "u": pa.array([1, 1, 1, 2, 2], pa.int64()),
            # user 1: periods 0,0,2 -> cohort 0 offsets {0,2}
            # user 2: periods 1,3   -> cohort 1 offsets {0,2}
            "ts": pa.array([5, 9, 25, 12, 35], pa.timestamp("us")),
        }
    )
    out = (
        analytics.cohort_retention(_ds(tbl), "u", "ts", 10, n_buckets=4)
        .to_pandas()
        .sort_values(["cohort", "offset"])
        .reset_index(drop=True)
    )
    assert out.values.tolist() == [[0, 0, 1], [0, 2, 1], [1, 0, 1], [1, 2, 1]]


# ----------------------------------------------------- weighted sample

def test_weighted_sample_matches_numpy_oracle(ray_session):
    n = 500
    rid = np.arange(n, dtype=np.int64)
    w = (rid % 7 + 1).astype(np.float64)
    tbl = pa.table({"rid": pa.array(rid), "w": pa.array(w)})
    out = ops.weighted_sample(_ds(tbl), "rid", "w", 20).to_pandas()
    h = ops._mix64(rid.view(np.uint64).copy())
    pri = w / ((h.astype(np.float64) + 1.0) / float(1 << 64))
    order = np.lexsort((rid, -pri))[:20]
    assert out["rid"].tolist() == rid[order].tolist()
    assert np.array_equal(
        out["priority"].to_numpy().view(np.int64), pri[order].view(np.int64)
    )


def test_weighted_sample_bias(ray_session):
    # one row with overwhelming weight always wins (rid starts at 1:
    # mix64(0)=0 gives u=2^-64, the known degenerate zero-key priority)
    rid = np.arange(1, 101, dtype=np.int64)
    w = np.ones(100)
    w[37] = 1e12
    tbl = pa.table({"rid": pa.array(rid), "w": pa.array(w)})
    out = ops.weighted_sample(_ds(tbl), "rid", "w", 5).to_pandas()
    assert out["rid"].iloc[0] == 38


# --------------------------------------------------------- merge_upsert

def test_merge_upsert_semantics(ray_session):
    base = pa.table(
        {
            "k": pa.array([1, 2, 3, 4], pa.int64()),
            "v": pa.array([10.0, 20.0, 30.0, 40.0]),
            "version": pa.array([5, 5, 5, 5], pa.int64()),
        }
    )
    # k=2 updated twice (version 2 wins over 1 even though base had 5:
    # updates supersede base regardless of version); k=3 deleted;
    # k=9 inserted
    upd = pa.table(
        {
            "k": pa.array([2, 2, 3, 9], pa.int64()),
            "v": pa.array([21.0, 22.0, 0.0, 90.0]),
            "version": pa.array([1, 2, 1, 1], pa.int64()),
            "op": pa.array(["U", "U", "D", "U"]),
        }
    )
    out = (
        ops.merge_upsert(_ds(base), _ds(upd), "k", "version", n_buckets=4)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert out["k"].tolist() == [1, 2, 4, 9]
    assert out["v"].tolist() == [10.0, 22.0, 40.0, 90.0]
    assert list(out.columns) == ["k", "v", "version"]


# --------------------------------------------------------------- graphs

def test_pairs_within_groups():
    # groups of sizes 3, 1, 2 -> 3 + 0 + 1 pairs
    starts = np.array([0, 3, 4])
    i, j = analytics._pairs_within_groups(starts, 6)
    pairs = sorted(zip(i.tolist(), j.tolist()))
    assert pairs == [(0, 1), (0, 2), (1, 2), (4, 5)]


def test_cooccurrence_support_filter(ray_session):
    # items (1,2) share groups 10 and 20; (1,3) only group 10
    tbl = pa.table(
        {
            "g": pa.array([10, 10, 10, 20, 20], pa.int64()),
            "i": pa.array([1, 2, 3, 1, 2], pa.int64()),
        }
    )
    e1 = (
        analytics.cooccurrence_edges(_ds(tbl), "g", "i", n_buckets=4)
        .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    )
    assert e1.values.tolist() == [[1, 2], [1, 3], [2, 3]]
    e2 = analytics.cooccurrence_edges(
        _ds(tbl), "g", "i", n_buckets=4, min_support=2
    ).to_pandas()
    assert e2.values.tolist() == [[1, 2]]


def test_triangle_count_k4(ray_session):
    # K4 has 4 triangles; attach a pendant edge (no new triangle)
    a = pa.array([1, 1, 1, 2, 2, 3, 4], pa.int64())
    b = pa.array([2, 3, 4, 3, 4, 4, 5], pa.int64())
    edges = _ds(pa.table({"a": a, "b": b}))
    out = analytics.triangle_count(edges, n_buckets=4).to_pandas()
    assert out["n_triangles"].tolist() == [4]
    deg = (
        analytics.degree_distribution(edges)
        .to_pandas().sort_values("degree").reset_index(drop=True)
    )
    # node 5 deg 1; nodes 1..4 have deg 3 except node 4 has deg 4
    assert deg.values.tolist() == [[1, 1], [3, 3], [4, 1]]


def test_max_group_size_drops_large_groups(ray_session):
    tbl = pa.table(
        {
            "g": pa.array([1, 1, 1, 2, 2], pa.int64()),
            "i": pa.array([7, 8, 9, 7, 8], pa.int64()),
        }
    )
    e = analytics.cooccurrence_edges(
        _ds(tbl), "g", "i", n_buckets=4, max_group_size=2
    ).to_pandas()
    assert e.values.tolist() == [[7, 8]]


# --------------------------------------------------------- bm25 / lm


def test_bm25_ranks_term_dense_doc_first(ray_session):
    from georay.stages.text import bm25_topk

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                [
                    "spark spark spark run",
                    "spark run run run",
                    "run run run run",
                    "walk walk",
                ]
            ),
        }
    )
    out = bm25_topk(_ds(docs), ["spark"], k=10).to_pandas()
    # doc 3 and 4 contain no query term -> excluded; doc 1 beats doc 2
    assert out["doc_id"].tolist() == [1, 2]
    assert out["score"].iloc[0] > out["score"].iloc[1] > 0


def test_bm25_length_normalization(ray_session):
    from georay.stages.text import bm25_topk

    # same tf, shorter doc wins under b=0.75
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(["spark run", "spark run run run run run run"]),
        }
    )
    out = bm25_topk(_ds(docs), ["spark"], k=2).to_pandas()
    assert out["doc_id"].tolist() == [1, 2]


def test_lm_score_hand_corpus(ray_session):
    from georay.stages.text import lm_score

    # corpus bigrams: "a b" x2, "b a" x1, "a c" x1
    # c1: a->3 (a b twice, a c once), b->1
    # p(b|a)=2/3, p(c|a)=1/3, p(a|b)=1/1
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["a b a c", "a b", "x"]),
        }
    )
    out = (
        lm_score(_ds(docs)).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    s = 1 << 20
    import math

    q_ab = math.floor((2 / 3) * s)
    q_ba = math.floor(1.0 * s)
    q_ac = math.floor((1 / 3) * s)
    assert out["n_bigrams"].tolist() == [3, 1, 0]
    assert out["lm_q"].tolist() == [q_ab + q_ba + q_ac, q_ab, 0]


# ------------------------------------------------------------------ pca


def _emb_table(n=300, d=16, seed=7):
    rng = np.random.default_rng(seed)
    # anisotropic data with a known dominant direction
    base = rng.normal(size=(n, d)) * 0.01
    base[:, 2] += rng.normal(size=n) * 0.2
    base[:, 5] += rng.normal(size=n) * 0.1
    flat = pa.array(base.astype(np.float32).reshape(-1), pa.float32())
    emb = pa.FixedSizeListArray.from_arrays(flat, d).cast(pa.list_(pa.float32()))
    return pa.table(
        {"vec_id": pa.array(np.arange(n, dtype=np.int64)), "embedding": emb}
    ), base.astype(np.float32).astype(np.float64)


def test_pca_fit_matches_numpy(ray_session):
    from georay.stages.embed import pca_fit

    tbl, x = _emb_table()
    model = pca_fit(_ds(tbl), n_components=3)
    # numpy oracle on the SAME quantization
    xq = np.floor(x * (1 << 20)) / (1 << 20)
    cov = np.cov(xq, rowvar=False)
    evals, evecs = np.linalg.eigh(cov)
    top = evecs[:, np.argsort(evals)[::-1][:3]]
    # components span the same subspace (|cos| ~ 1 per axis)
    cos = np.abs((model["components"] * top).sum(axis=0))
    assert np.all(cos > 0.999), cos
    assert np.all(np.diff(model["explained_variance"]) <= 1e-12)
    # dominant direction is axis 2
    assert np.abs(model["components"][2, 0]) > 0.9


def test_pca_project_roundtrip(ray_session):
    from georay.stages.embed import pca_fit, pca_project

    tbl, x = _emb_table(n=200, d=8, seed=3)
    model = pca_fit(_ds(tbl), n_components=8)
    out = pca_project(_ds(tbl), model).to_pandas()
    p = np.stack(out["pc"].to_numpy())
    # full-rank projection preserves centered data: reconstruct
    recon = p @ model["components"].T + model["mean"]
    assert np.allclose(recon, x, atol=2e-6)
    # sign convention: largest-|coeff| entry positive
    c = model["components"]
    idx = np.abs(c).argmax(axis=0)
    assert np.all(c[idx, np.arange(c.shape[1])] >= 0)


# ------------------------------------------------------------- pagerank


def test_pagerank_hand_graph(ray_session):
    # star: center 1 connected to 2,3,4 — center outranks leaves;
    # isolated pair 5-6 get equal ranks
    a = pa.array([1, 1, 1, 5], pa.int64())
    b = pa.array([2, 3, 4, 6], pa.int64())
    edges = _ds(pa.table({"a": a, "b": b})).materialize()
    out = (
        analytics.pagerank(edges, n_iter=3)
        .to_pandas().set_index("node")["rank_q"]
    )
    assert out[1] > out[2] == out[3] == out[4]
    assert out[5] == out[6]
    # rank mass conserved up to floor losses
    total = out.sum()
    assert 0.95 * (1 << 30) < total <= (1 << 30)


def test_pagerank_matches_float_pagerank(ray_session):
    # quantized fixed-point tracks the float power iteration closely
    rng = np.random.default_rng(11)
    m = 60
    aa = rng.integers(1, 30, m)
    bb = rng.integers(1, 30, m)
    keep = aa != bb
    aa, bb = aa[keep], bb[keep]
    lo, hi = np.minimum(aa, bb), np.maximum(aa, bb)
    e = np.unique(np.stack([lo, hi], axis=1), axis=0)
    edges = _ds(
        pa.table({"a": pa.array(e[:, 0], pa.int64()), "b": pa.array(e[:, 1], pa.int64())})
    ).materialize()
    out = (
        analytics.pagerank(edges, n_iter=3)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    nodes = np.unique(e)
    n = nodes.size
    deg = np.zeros(n)
    ia = np.searchsorted(nodes, e[:, 0])
    ib = np.searchsorted(nodes, e[:, 1])
    np.add.at(deg, ia, 1)
    np.add.at(deg, ib, 1)
    r = np.full(n, 1.0 / n)
    for _ in range(3):
        c = r / deg
        s = np.zeros(n)
        np.add.at(s, ib, c[ia])
        np.add.at(s, ia, c[ib])
        r = 0.15 / n + 0.85 * s
    got = out["rank_q"].to_numpy() / (1 << 30)
    assert np.allclose(got, r, atol=1e-6)


# --------------------------------------------------------- tile pyramid


def test_tile_pyramid_parent_children_consistency(ray_session):
    from georay.codecs import native
    from georay.types import GeoType

    rng = np.random.default_rng(5)
    lon = rng.uniform(-170, 170, 2000)
    lat = rng.uniform(-80, 80, 2000)
    pt = native.build_points(np.column_stack([lon, lat]), GeoType.point())
    tbl = pa.table({"i": pa.array(np.arange(2000, dtype=np.int64))})
    tbl = tbl.append_column(GeoType.point().field("geotag"), pt)
    out = (
        ops.tile_pyramid(_ds(tbl), zoom=6, levels=3)
        .to_pandas()
    )
    # every zoom level's total equals the point count
    assert (out.groupby("zoom")["n"].sum() == 2000).all()
    # each parent's count equals the sum of its (up to 4) children
    for z in (6, 5):
        child = out[out["zoom"] == z]
        parent = out[out["zoom"] == z - 1]
        rolled = (
            child.assign(px=child["tile_x"] // 2, py=child["tile_y"] // 2)
            .groupby(["px", "py"])["n"].sum().reset_index()
        )
        merged = rolled.merge(
            parent, left_on=["px", "py"], right_on=["tile_x", "tile_y"]
        )
        assert len(merged) == len(parent)
        assert (merged["n_x"] == merged["n_y"]).all()


def test_graph_local_and_distributed_paths_agree(ray_session):
    rng = np.random.default_rng(21)
    m = 120
    aa = rng.integers(1, 40, m)
    bb = rng.integers(1, 40, m)
    keep = aa != bb
    lo = np.minimum(aa[keep], bb[keep])
    hi = np.maximum(aa[keep], bb[keep])
    e = np.unique(np.stack([lo, hi], axis=1), axis=0)
    edges = _ds(
        pa.table({"a": pa.array(e[:, 0], pa.int64()), "b": pa.array(e[:, 1], pa.int64())})
    ).materialize()
    t_loc = analytics.triangle_count(edges).to_pandas()["n_triangles"][0]
    t_dist = analytics.triangle_count(edges, local_edge_cutoff=0).to_pandas()[
        "n_triangles"
    ][0]
    assert t_loc == t_dist
    p_loc = (
        analytics.pagerank(edges, n_iter=3)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    p_dist = (
        analytics.pagerank(edges, n_iter=3, local_edge_cutoff=0)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    assert p_loc.values.tolist() == p_dist.values.tolist()


def test_weighted_sample_grouped_per_group_k(ray_session):
    rng = np.random.default_rng(2)
    n = 300
    rid = np.arange(1, n + 1, dtype=np.int64)
    grp = rng.integers(0, 3, n)
    w = rng.uniform(0.5, 5.0, n)
    tbl = pa.table(
        {"rid": pa.array(rid), "g": pa.array(grp, pa.int64()), "w": pa.array(w)}
    )
    out = ops.weighted_sample_grouped(_ds(tbl), "rid", "g", "w", 7).to_pandas()
    assert (out.groupby("g").size() == 7).all()
    # matches the numpy oracle per group
    h = ops._mix64(rid.view(np.uint64).copy())
    pri = w / ((h.astype(np.float64) + 1.0) / float(1 << 64))
    for g in range(3):
        m = grp == g
        order = np.lexsort((rid[m], -pri[m]))[:7]
        assert sorted(out[out["g"] == g]["rid"]) == sorted(rid[m][order])


# ---------------------------------------------------------------- bpe


def test_bpe_train_classic_example(ray_session):
    from georay.stages.text import bpe_train, _bpe_apply

    # Sennrich et al. toy corpus: most frequent pair is (e, s) from
    # newest(6) + widest(3); tie with (s, t▁) broken lexicographically
    docs = ["low"] * 5 + ["lower"] * 2 + ["newest"] * 6 + ["widest"] * 3
    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(len(docs), dtype=np.int64)),
            "text": pa.array(docs),
        }
    )
    merges = bpe_train(_ds(tbl), n_merges=4)
    assert merges[0] == ("e", "s")
    assert merges[1] == ("es", "t▁")
    # enough merges collapse the most frequent word to one token
    merges_full = bpe_train(_ds(tbl), n_merges=50)
    ranks = {tuple(m): i for i, m in enumerate(merges_full)}
    assert _bpe_apply("newest", ranks, "▁") == 1
    # unseen word stays segmented but never errors
    assert _bpe_apply("zzz", ranks, "▁") == 3


def test_bpe_token_count_monotone_and_cached(ray_session):
    from georay.stages.text import add_bpe_token_count, bpe_train

    docs = ["the cat sat", "the cat", "a dog and the cat sat down"]
    tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(3, dtype=np.int64)),
            "text": pa.array(docs),
        }
    )
    m0 = add_bpe_token_count(_ds(tbl), merges=[]).to_pandas().sort_values("doc_id")
    # zero merges: token count = non-space chars
    assert m0["n_bpe_tokens"].tolist() == [
        len(d.replace(" ", "")) for d in docs
    ]
    merges = bpe_train(_ds(tbl), n_merges=10)
    m1 = (
        add_bpe_token_count(_ds(tbl), merges=merges)
        .to_pandas().sort_values("doc_id")
    )
    assert (m1["n_bpe_tokens"].values <= m0["n_bpe_tokens"].values).all()
    assert (m1["n_bpe_tokens"].values >= 1).all()


# -------------------------------------------------------- trajectories


def test_trajectory_stats_hand(ray_session):
    # user 1: (0,0) -> (3,4) -> (3,4): path = 5 + 0, net = 5
    # user 2: single fix: path 0, net 0
    tbl = pa.table(
        {
            "u": pa.array([1, 1, 1, 2], pa.int64()),
            "ts": pa.array([1, 2, 3, 9], pa.timestamp("us")),
            "e": pa.array([10, 11, 12, 13], pa.int64()),
            "lon": pa.array([0.0, 3.0, 3.0, 7.0]),
            "lat": pa.array([0.0, 4.0, 4.0, 7.0]),
        }
    )
    out = (
        analytics.trajectory_stats(
            _ds(tbl), "u", "ts", "lon", "lat", tiebreak_col="e", n_buckets=4
        )
        .to_pandas().sort_values("u").reset_index(drop=True)
    )
    s = 1 << 20
    assert out.values.tolist() == [[1, 3, 5 * s, 5 * s], [2, 1, 0, 0]]


def test_trajectory_clip_rect_hand(ray_session):
    # rect [0,10]x[0,10].
    # user 1: (-5,5)->(5,5): horizontal crossing, 5 of 10 inside;
    #         then (5,5)->(5,15): vertical (dx==0) leaving, 5 of 10 in.
    # user 2: (20,20)->(30,20): wholly outside, dy==0 branch -> 0.
    # user 3: (2,2)->(4,2): wholly inside -> full leg 2.
    tbl = pa.table(
        {
            "u": pa.array([1, 1, 1, 2, 2, 3, 3], pa.int64()),
            "ts": pa.array([1, 2, 3, 1, 2, 1, 2], pa.timestamp("us")),
            "e": pa.array([1, 2, 3, 4, 5, 6, 7], pa.int64()),
            "lon": pa.array([-5.0, 5.0, 5.0, 20.0, 30.0, 2.0, 4.0]),
            "lat": pa.array([5.0, 5.0, 15.0, 20.0, 20.0, 2.0, 2.0]),
        }
    )
    out = (
        analytics.trajectory_clip_rect(
            _ds(tbl), "u", "ts", "lon", "lat",
            rect=(0.0, 0.0, 10.0, 10.0), tiebreak_col="e", n_buckets=4,
        )
        .to_pandas().sort_values("u").reset_index(drop=True)
    )
    s = 1 << 20
    assert out.values.tolist() == [[1, 3, 10 * s], [2, 2, 0], [3, 2, 2 * s]]


def test_od_matrix_hand(ray_session):
    # user 1 visits cells 5 -> 7 -> 7 -> 5; user 2: 7 -> 5
    tbl = pa.table(
        {
            "u": pa.array([1, 1, 1, 1, 2, 2], pa.int64()),
            "ts": pa.array([1, 2, 3, 4, 1, 2], pa.timestamp("us")),
            "e": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
            "cell": pa.array([5, 7, 7, 5, 7, 5], pa.int64()),
        }
    )
    out = (
        analytics.od_matrix(_ds(tbl), "u", "ts", "cell", tiebreak_col="e", n_buckets=4)
        .to_pandas().sort_values(["cell_from", "cell_to"]).reset_index(drop=True)
    )
    assert out.values.tolist() == [[5, 7, 1], [7, 5, 2], [7, 7, 1]]


# --------------------------------------------------------- convex hull


def test_grouped_convex_hull_square_and_containment(ray_session):
    rng = np.random.default_rng(9)
    # group 1: unit square corners + interior points -> hull = square
    inner = rng.uniform(0.1, 0.9, (50, 2))
    g1 = np.vstack([[[0, 0], [1, 0], [1, 1], [0, 1]], inner])
    # group 2: random cloud
    g2 = rng.normal(size=(80, 2))
    pts = np.vstack([g1, g2])
    key = np.concatenate([np.ones(len(g1), np.int64), np.full(len(g2), 2, np.int64)])
    tbl = pa.table(
        {
            "k": pa.array(key),
            "lon": pa.array(pts[:, 0]),
            "lat": pa.array(pts[:, 1]),
        }
    )
    out = (
        analytics.grouped_convex_hull(_ds(tbl), "k", "lon", "lat", n_buckets=4)
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    sq = out.iloc[0]
    assert sq["n_vertices"] == 4 and abs(sq["area"] - 1.0) < 1e-12
    assert sq["hull_wkt"].startswith("POLYGON ((")
    # containment: every group-2 point inside or on its hull
    from georay.codecs import wkt as wkt_codec
    from georay.types import GeoType

    row = out.iloc[1]
    arr, hull_geo = wkt_codec.decode(pa.array([row["hull_wkt"]]), GeoType.polygon())
    from georay.codecs import native

    v = native.view(arr, hull_geo)
    ring = v.coords[:-1]  # closed ring, drop repeat
    hx, hy = ring[:, 0], ring[:, 1]
    ex, ey = np.roll(hx, -1) - hx, np.roll(hy, -1) - hy
    for px, py in g2:
        cross = ex * (py - hy) - ey * (px - hx)
        assert (cross >= -1e-9).all()


def test_grouped_convex_hull_degenerate(ray_session):
    tbl = pa.table(
        {
            "k": pa.array([1, 1, 2], pa.int64()),
            "lon": pa.array([0.0, 1.0, 5.0]),
            "lat": pa.array([0.0, 0.0, 5.0]),
        }
    )
    out = (
        analytics.grouped_convex_hull(_ds(tbl), "k", "lon", "lat", n_buckets=2)
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    assert out["hull_wkt"].tolist() == ["POLYGON EMPTY", "POLYGON EMPTY"]
    assert out["area"].tolist() == [0.0, 0.0]


# ------------------------------------------------------------ edge cases


def test_new_ops_empty_inputs(ray_session):
    from georay.stages.text import bm25_topk, lm_score

    empty_ev = pa.table(
        {
            "u": pa.array([], pa.int64()),
            "ts": pa.array([], pa.timestamp("us")),
            "t": pa.array([], pa.string()),
        }
    )
    f = analytics.funnel(_ds(empty_ev), "u", "ts", "t", ["A", "B"], n_buckets=2)
    assert len(f.to_pandas()) == 0  # empty input -> empty result
    c = analytics.cohort_retention(
        _ds(empty_ev.select(["u", "ts"])), "u", "ts", 10, n_buckets=2
    )
    assert len(c.to_pandas()) == 0

    base = pa.table(
        {
            "k": pa.array([1, 2], pa.int64()),
            "v": pa.array([1.0, 2.0]),
            "version": pa.array([0, 0], pa.int64()),
        }
    )
    upd = pa.table(
        {
            "k": pa.array([], pa.int64()),
            "v": pa.array([], pa.float64()),
            "version": pa.array([], pa.int64()),
            "op": pa.array([], pa.string()),
        }
    )
    m = ops.merge_upsert(_ds(base), _ds(upd), "k", "version", n_buckets=2)
    assert sorted(m.to_pandas()["k"]) == [1, 2]

    empty_docs = pa.table(
        {"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())}
    )
    assert len(lm_score(_ds(empty_docs)).to_pandas()) == 0


# ------------------------------------------------------------ asof forward


def test_asof_forward_direction(ray_session):
    left = pa.table(
        {
            "k": pa.array([1, 1, 1, 2], pa.int64()),
            "ts": pa.array([5, 10, 100, 5], pa.timestamp("us")),
        }
    )
    right = pa.table(
        {
            "rk": pa.array([1, 1, 2], pa.int64()),
            "rts": pa.array([7, 10, 3], pa.timestamp("us")),
        }
    )
    out = (
        ops.asof_join_broadcast(
            _ds(left), right, "k", "ts", "rk", "rts",
            out_ts="m", direction="forward",
        )
        .to_pandas().sort_values(["k", "ts"]).reset_index(drop=True)
    )
    # k=1: ts 5 -> 7, ts 10 -> 10 (>= is inclusive), ts 100 -> no match
    # k=2: ts 5 -> no match (right has only 3)
    assert out[["k", "m"]].values.tolist() == [[1, 7], [1, 10]]


# ------------------------------------------------------------ properties


def test_weighted_sample_scale_invariance(ray_session):
    # priority sampling selection is invariant to scaling ALL weights
    rng = np.random.default_rng(4)
    rid = np.arange(1, 201, dtype=np.int64)
    w = rng.uniform(0.1, 9.0, 200)
    t1 = pa.table({"rid": pa.array(rid), "w": pa.array(w)})
    t2 = pa.table({"rid": pa.array(rid), "w": pa.array(w * 1000.0)})
    s1 = ops.weighted_sample(_ds(t1), "rid", "w", 25).to_pandas()["rid"].tolist()
    s2 = ops.weighted_sample(_ds(t2), "rid", "w", 25).to_pandas()["rid"].tolist()
    assert s1 == s2


def test_merge_upsert_idempotent(ray_session):
    base = pa.table(
        {
            "k": pa.array(np.arange(50, dtype=np.int64)),
            "v": pa.array(np.arange(50, dtype=np.float64)),
            "version": pa.array(np.zeros(50, np.int64)),
        }
    )
    upd = pa.table(
        {
            "k": pa.array([3, 7, 11], pa.int64()),
            "v": pa.array([33.0, 77.0, 0.0]),
            "version": pa.array([1, 1, 1], pa.int64()),
            "op": pa.array(["U", "U", "D"]),
        }
    )
    once = (
        ops.merge_upsert(_ds(base), _ds(upd), "k", "version", n_buckets=4)
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    twice = (
        ops.merge_upsert(
            ops.merge_upsert(_ds(base), _ds(upd), "k", "version", n_buckets=4),
            _ds(upd), "k", "version", n_buckets=4,
        )
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    assert once.values.tolist() == twice.values.tolist()
    assert 11 not in once["k"].tolist() and once.loc[once["k"] == 3, "v"].iloc[0] == 33.0


def test_pagerank_rank_sum_and_monotonicity(ray_session):
    # adding an edge to a node cannot DECREASE its 1-iteration in-flow;
    # also rank mass stays within floor losses
    a = pa.array([1, 2, 3], pa.int64())
    b = pa.array([2, 3, 4], pa.int64())
    e1 = _ds(pa.table({"a": a, "b": b})).materialize()
    out1 = analytics.pagerank(e1, n_iter=1).to_pandas().set_index("node")["rank_q"]
    e2 = _ds(
        pa.table({"a": pa.array([1, 2, 3, 1], pa.int64()),
                  "b": pa.array([2, 3, 4, 4], pa.int64())})
    ).materialize()
    out2 = analytics.pagerank(e2, n_iter=1).to_pandas().set_index("node")["rank_q"]
    assert out2[4] >= out1[4]
    for o in (out1, out2):
        assert 0.9 * (1 << 30) < o.sum() <= (1 << 30)


# ------------------------------------------------- range sum / ohlc


def test_window_range_sum_hand(ray_session):
    tbl = pa.table(
        {
            "k": pa.array([1, 1, 1, 2], pa.int64()),
            "ts": pa.array([0, 5, 20, 3], pa.timestamp("us")),
            "v": pa.array([1, 10, 100, 7], pa.int64()),
        }
    )
    out = (
        ops.window_range_sum(_ds(tbl), "k", "ts", "v", range_us=10, n_buckets=4)
        .to_pandas().sort_values(["k", "ts"]).reset_index(drop=True)
    )
    # k=1: ts0 -> 1; ts5 -> 1+10; ts20 -> 100 (frame [10,20] excludes 0,5)
    assert out["range_sum"].tolist() == [1, 11, 100, 7]


def test_ohlc_bars_hand(ray_session):
    tbl = pa.table(
        {
            "k": pa.array([1, 1, 1, 1, 2], pa.int64()),
            "ts": pa.array([5, 1, 9, 12, 3], pa.timestamp("us")),
            "v": pa.array([50.0, 10.0, 90.0, 40.0, 7.0]),
        }
    )
    out = (
        ops.ohlc_bars(_ds(tbl), "k", "ts", "v", bucket_us=10)
        .to_pandas().sort_values(["k", "period"]).reset_index(drop=True)
    )
    # k=1 period 0: rows ts 1,5,9 -> open 10 (ts1), close 90 (ts9),
    # low 10, high 90, n 3; period 1: single row 40; k=2: single row 7
    assert out.values.tolist() == [
        [1, 0, 10.0, 90.0, 10.0, 90.0, 3],
        [1, 1, 40.0, 40.0, 40.0, 40.0, 1],
        [2, 0, 7.0, 7.0, 7.0, 7.0, 1],
    ]


# ---------------------------------------------------------- edit distance


def test_edit_distance_batch_known_values():
    from georay.stages.dedup import edit_distance_batch

    a = pa.array(["kitten", "flaw", "", "abc", "same"])
    b = pa.array(["sitting", "lawn", "xyz", "", "same"])
    assert edit_distance_batch(a, b).tolist() == [3, 2, 3, 3, 0]
    # symmetric
    assert edit_distance_batch(b, a).tolist() == [3, 2, 3, 3, 0]


# ---------------------------------------------------- ridge / encoding


def test_ridge_fit_recovers_plant_and_reproducible(ray_session):
    from georay.stages import classify

    rng = np.random.default_rng(3)
    n = 1500
    x1 = rng.standard_normal(n)
    x2 = rng.standard_normal(n) * 2
    y = 5.0 * x1 - 1.5 * x2 + 2.0 + rng.standard_normal(n) * 0.01
    tbl = pa.table({"a": pa.array(x1), "b": pa.array(x2), "y": pa.array(y)})
    m1 = classify.ridge_fit(_ds(tbl), ["a", "b"], "y")
    m2 = classify.ridge_fit(_ds(tbl), ["a", "b"], "y")
    assert np.array_equal(m1["w"], m2["w"]) and m1["b"] == m2["b"]
    assert np.allclose(m1["w"], [5.0, -1.5], atol=0.01)
    assert abs(m1["b"] - 2.0) < 0.01
    scored = classify.ridge_predict(_ds(tbl), m1, ["a", "b"]).to_pandas()
    assert np.abs(scored["pred"] - scored["y"]).max() < 0.1


def test_target_encode_smoothing(ray_session):
    # category A: values {10,10}; B: {0}; prior = 20/3
    tbl = pa.table(
        {
            "c": pa.array(["A", "A", "B"]),
            "t": pa.array([10, 10, 0], pa.int64()),
        }
    )
    out = ops.target_encode(_ds(tbl), "c", "t", m=1.0).to_pandas()
    prior = 20.0 / 3.0
    te_a = (20.0 + prior) / 3.0
    te_b = (0.0 + prior) / 2.0
    got = dict(zip(out["c"], out["te"]))
    assert abs(got["A"] - te_a) < 1e-12 and abs(got["B"] - te_b) < 1e-12


# --------------------------------------------------- image channel stats


def test_corpus_channel_stats_exact(ray_session, tmp_path):
    import pyarrow.parquet as pq
    import ray.data as rd

    from georay import generate, images as im
    from georay.stages.multimodal import corpus_channel_stats

    d = str(tmp_path / "imgs")
    generate.write_images_dataset(d, 200, seed=11, rows_per_file=100)
    out = corpus_channel_stats(rd.read_parquet(d)).to_pandas()
    # numpy oracle over the same decoded pixels
    src = pq.read_table(d)
    s = np.zeros(3)
    s2 = np.zeros(3)
    n = 0
    for data, fmt, w, h in zip(
        src["bytes"].to_pylist(), src["fmt"].to_pylist(),
        src["w"].to_pylist(), src["h"].to_pylist(),
    ):
        pix = im.decode_image(data, fmt, w, h).astype(np.float64)
        s += pix.sum(axis=(0, 1))
        s2 += (pix * pix).sum(axis=(0, 1))
        n += pix.shape[0] * pix.shape[1]
    mean = s / n
    std = np.sqrt(s2 / n - mean * mean)
    assert out["n_pixels"].tolist() == [n, n, n]
    assert np.allclose(out["mean"].values, mean, rtol=0, atol=1e-9)
    assert np.allclose(out["std"].values, std, rtol=0, atol=1e-9)


# ------------------------------------------------------------ more edges


def test_merge_upsert_string_keys(ray_session):
    base = pa.table(
        {
            "k": pa.array(["a", "b"]),
            "v": pa.array([1.0, 2.0]),
            "version": pa.array([0, 0], pa.int64()),
        }
    )
    upd = pa.table(
        {
            "k": pa.array(["b", "c"]),
            "v": pa.array([20.0, 30.0]),
            "version": pa.array([1, 1], pa.int64()),
            "op": pa.array(["U", "U"]),
        }
    )
    out = (
        ops.merge_upsert(_ds(base), _ds(upd), "k", "version", n_buckets=4)
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    assert out["k"].tolist() == ["a", "b", "c"]
    assert out["v"].tolist() == [1.0, 20.0, 30.0]


def test_weighted_sample_k_exceeds_n(ray_session):
    tbl = pa.table(
        {"rid": pa.array([1, 2, 3], pa.int64()), "w": pa.array([1.0, 2.0, 3.0])}
    )
    out = ops.weighted_sample(_ds(tbl), "rid", "w", 10).to_pandas()
    assert sorted(out["rid"]) == [1, 2, 3]


def test_graph_ops_empty_edges(ray_session):
    empty = _ds(
        pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    ).materialize()
    assert analytics.triangle_count(empty).to_pandas()["n_triangles"].tolist() == [0]
    assert len(analytics.pagerank(empty).to_pandas()) == 0
    assert len(analytics.degree_distribution(empty).to_pandas()) == 0


def test_radius_partitioned_matches_broadcast(ray_session):
    import ray.data as rd

    from georay.codecs import native
    from georay.joins import radius_join_count, radius_join_count_partitioned
    from georay.types import GeoType

    rng = np.random.default_rng(8)
    n_p, n_r = 400, 300
    plon = rng.uniform(-170, 170, n_p)
    plat = rng.uniform(-80, 80, n_p)
    rlon = rng.uniform(-170, 170, n_r)
    rlat = rng.uniform(-80, 80, n_r)
    geo = GeoType.point()
    probes = rd.from_arrow(
        pa.table({"p_partkey": pa.array(np.arange(n_p, dtype=np.int64))})
        .append_column(
            geo.field("geotag"),
            native.build_points(np.column_stack([plon, plat]), geo),
        )
    )
    bc = (
        radius_join_count(
            probes, rlon, rlat, np.arange(n_r, dtype=np.int64), 6.0
        )
        .to_pandas().sort_values("p_partkey").reset_index(drop=True)
    )
    refs = rd.from_arrow(pa.table({"lon": pa.array(rlon), "lat": pa.array(rlat)}))
    pt = (
        radius_join_count_partitioned(probes, refs, 6.0)
        .to_pandas().sort_values("p_partkey").reset_index(drop=True)
    )
    assert bc.values.tolist() == pt.values.tolist()


def test_grouped_hull_stats_square_and_degenerate(ray_session):
    # group 1: unit square ×20 grid + interior + collinear boundary point
    # group 2: single point -> 0 vertices; group 3: collinear -> 2
    tbl = pa.table(
        {
            "k": pa.array([1] * 7 + [2] + [3, 3, 3], pa.int64()),
            "x": pa.array(
                [0.0, 20, 20, 0, 10, 10, 0, 5.0, 0.0, 10, 20], pa.float64()
            ),
            "y": pa.array(
                [0.0, 0, 20, 20, 10, 0, 10, 5.0, 0.0, 10, 20], pa.float64()
            ),
        }
    )
    out = (
        analytics.grouped_hull_stats(_ds(tbl), "k", "x", "y", n_buckets=4)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert out["k"].tolist() == [1, 2, 3]
    # square: 4 strict corners (collinear midpoints (10,0),(0,10) dropped),
    # area2 = 2*400, perimeter 80 -> 80e6
    assert out["n_vertices"].tolist() == [4, 0, 2]
    assert out["area2"].tolist() == [800, 0, 0]
    assert out["perim_q"].tolist() == [80_000_000, 0, 0]


def test_pagerank_partitioned_matches_broadcast(ray_session, long_graphs):
    """pagerank and label propagation: the partitioned superstep
    programs equal the broadcast and local twins on a random graph and
    on the long-diameter graphs."""
    rng = np.random.default_rng(5)
    a = rng.integers(0, 300, size=800).astype(np.int64)
    b = rng.integers(0, 300, size=800).astype(np.int64)
    keep = a != b
    lo, hi = np.minimum(a, b)[keep], np.maximum(a, b)[keep]
    tbl = pa.table({"a": pa.array(lo), "b": pa.array(hi)})
    import pandas as pd

    edges = _ds(
        pa.Table.from_pandas(
            tbl.to_pandas().drop_duplicates(), preserve_index=False
        )
    ).materialize()
    want = (
        analytics.pagerank(edges, n_iter=3, local_edge_cutoff=0)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    got = (
        analytics.pagerank_partitioned(edges, n_iter=3, n_buckets=8)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    assert got.equals(want)

    def rows(ds):
        return ds.to_pandas().sort_values("node").reset_index(drop=True)

    graphs = {"random": edges}
    for name, (a, b) in long_graphs.items():
        graphs[name] = _ds(pa.table({"a": pa.array(a), "b": pa.array(b)})).materialize()
    for name, g in graphs.items():
        if name != "random":
            want = rows(analytics.pagerank(g, n_iter=3, local_edge_cutoff=0))
            got = rows(analytics.pagerank_partitioned(g, n_iter=3, n_buckets=8))
            assert got.equals(want), name
        want = rows(analytics.label_propagation(g, rounds=3))
        got = rows(analytics.label_propagation_partitioned(g, rounds=3, n_buckets=8))
        assert got.equals(want), name


def test_triangle_count_partitioned_matches_broadcast(ray_session):
    rng = np.random.default_rng(9)
    a = rng.integers(0, 120, size=900).astype(np.int64)
    b = rng.integers(0, 120, size=900).astype(np.int64)
    keep = a != b
    lo, hi = np.minimum(a, b)[keep], np.maximum(a, b)[keep]
    tbl = pa.table({"a": pa.array(lo), "b": pa.array(hi)})
    edges = _ds(
        pa.Table.from_pandas(
            tbl.to_pandas().drop_duplicates(), preserve_index=False
        )
    ).materialize()
    want = analytics.triangle_count(edges, local_edge_cutoff=1 << 30).take_all()
    bc = analytics.triangle_count(edges, local_edge_cutoff=0).take_all()
    pt = analytics.triangle_count(
        edges, local_edge_cutoff=0, degree_strategy="partitioned"
    ).take_all()
    assert want == bc == pt
    assert want[0]["n_triangles"] > 0


def test_window_range_minmax_matches_pandas(ray_session):
    rng = np.random.default_rng(13)
    n = 4000
    tbl = pa.table(
        {
            "k": pa.array(rng.integers(0, 20, n), pa.int64()),
            "ts": pa.array(rng.integers(0, 10_000, n) * 1000, pa.int64()),
            "v": pa.array(rng.normal(size=n), pa.float64()),
        }
    )
    W = 500_000
    for stat in ("min", "max"):
        got = (
            ops.window_range_minmax(_ds(tbl), "k", "ts", "v", W, stat=stat)
            .to_pandas()
            .sort_values(["k", "ts", "v"])
            .reset_index(drop=True)
        )
        df = tbl.to_pandas()
        f = min if stat == "min" else max
        exp = []
        for _, r in df.iterrows():
            w = df[(df["k"] == r["k"]) & (df["ts"] >= r["ts"] - W) & (df["ts"] <= r["ts"])]
            exp.append(f(w["v"]))
        df[f"range_{stat}"] = exp
        want = df.sort_values(["k", "ts", "v"]).reset_index(drop=True)
        assert np.array_equal(
            got[f"range_{stat}"].to_numpy(), want[f"range_{stat}"].to_numpy()
        ), stat


def test_skyline2_duplicates_and_orientation(ray_session):
    # duplicates on the front survive together; dominated rows drop
    tbl = pa.table(
        {
            "id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
            "price": pa.array([1.0, 1.0, 2.0, 2.0, 3.0, 0.5], pa.float64()),
            "size": pa.array([5, 5, 9, 4, 9, 1], pa.int64()),
        }
    )
    out = (
        ops.skyline2(_ds(tbl), "price", "size", maximize_b=True,
                     keep_cols=["id", "price", "size"])
        .to_pandas().sort_values("id")
    )
    # id6 (0.5,1) front; ids 1,2 (1,5) duplicates both front; id3 (2,9)
    # front; id4 (2,4) dominated by 1/2; id5 (3,9) dominated by 3
    assert out["id"].tolist() == [1, 2, 3, 6]


def test_trajectory_midpoint_hand(ray_session):
    # user 1: (0,0)->(10,0)->(10,10): total 20, midpoint at arc 10 ->
    # exactly the corner (10,0) (carrying leg is the FIRST with
    # cum >= 10). user 2: single fix -> its own coords.
    # user 3: (0,0)->(4,0): midpoint (2,0) interior lerp.
    tbl = pa.table(
        {
            "u": pa.array([1, 1, 1, 2, 3, 3], pa.int64()),
            "ts": pa.array([1, 2, 3, 1, 1, 2], pa.timestamp("us")),
            "e": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
            "lon": pa.array([0.0, 10.0, 10.0, -7.5, 0.0, 4.0]),
            "lat": pa.array([0.0, 0.0, 10.0, 3.25, 0.0, 0.0]),
        }
    )
    out = (
        analytics.trajectory_midpoint(
            _ds(tbl), "u", "ts", "lon", "lat", tiebreak_col="e", n_buckets=4
        )
        .to_pandas().sort_values("u").reset_index(drop=True)
    )
    s = 1 << 20
    assert out.values.tolist() == [
        [1, 10 * s, 0],
        [2, int(np.floor(-7.5 * s + 0.5)), int(np.floor(3.25 * s + 0.5))],
        [3, 2 * s, 0],
    ]


def test_simplify_tracks_dp(ray_session):
    # user 1: straight run with a spike at x=2 -> keeps ends + spike;
    # user 2: perfectly straight -> endpoints only;
    # user 3: single fix survives.
    tbl = pa.table(
        {
            "u": pa.array([1] * 5 + [2] * 4 + [3], pa.int64()),
            "ts": pa.array([1, 2, 3, 4, 5, 1, 2, 3, 4, 1], pa.timestamp("us")),
            "e": pa.array(list(range(10)), pa.int64()),
            "lon": pa.array([0.0, 1.0, 2.0, 3.0, 4.0, 0.0, 1.0, 2.0, 3.0, 9.0]),
            "lat": pa.array([0.0, 0.0, 5.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 9.0]),
        }
    )
    out = (
        analytics.simplify_tracks(
            _ds(tbl), "u", "ts", "lon", "lat", epsilon=1.0,
            tiebreak_col="e", n_buckets=4,
        )
        .to_pandas().sort_values(["u", "ts"]).reset_index(drop=True)
    )
    per_user = out.groupby("u")["e"].apply(list).to_dict()
    assert per_user[1] == [0, 2, 4]     # spike at e=2 retained
    assert per_user[2] == [5, 8]        # collinear interior dropped
    assert per_user[3] == [9]
    # epsilon larger than the spike: user 1 collapses to endpoints
    out2 = (
        analytics.simplify_tracks(
            _ds(tbl), "u", "ts", "lon", "lat", epsilon=6.0,
            tiebreak_col="e", n_buckets=4,
        )
        .to_pandas()
    )
    assert sorted(out2[out2["u"] == 1]["e"].tolist()) == [0, 4]


def test_movement_rose_octants(ray_session):
    # one user, 8 legs one per octant, plus an exact diagonal (dx==dy>0
    # -> octant 0 by the >= rule) and a stationary leg (excluded)
    moves = [
        (2.0, 0.5),    # octant 0 (E, shallow)
        (1.0, 2.0),    # octant 1
        (-0.5, 2.0),   # octant 2
        (-2.0, 0.5),   # octant 3
        (-2.0, -1.0),  # octant 4
        (-0.5, -2.0),  # octant 5
        (0.5, -2.0),   # octant 6
        (2.0, -0.5),   # octant 7
        (1.0, 1.0),    # exact diagonal -> octant 0
        (0.0, 0.0),    # stationary -> excluded
    ]
    lon = [0.0]; lat = [0.0]
    for dx, dy in moves:
        lon.append(lon[-1] + dx); lat.append(lat[-1] + dy)
    n = len(lon)
    tbl = pa.table(
        {
            "u": pa.array([1] * n, pa.int64()),
            "ts": pa.array(list(range(n)), pa.timestamp("us")),
            "e": pa.array(list(range(n)), pa.int64()),
            "lon": pa.array(lon),
            "lat": pa.array(lat),
        }
    )
    out = (
        analytics.movement_rose(
            _ds(tbl), "u", "ts", "lon", "lat", tiebreak_col="e", n_buckets=4
        )
        .to_pandas().sort_values("octant").reset_index(drop=True)
    )
    assert out["octant"].tolist() == list(range(8))
    assert out["n"].tolist() == [2, 1, 1, 1, 1, 1, 1, 1]


def test_lttb_downsample_invariants(ray_session):
    # 100-point sine-ish series with one huge spike; downsample to 12:
    # endpoints survive, the spike survives, output is ts-sorted and
    # exactly n_out long. A short series passes through unchanged.
    n = 100
    ts = np.arange(n, dtype=np.int64)
    v = np.sin(ts / 7.0)
    v[41] = 25.0  # spike
    tbl = pa.table(
        {
            "k": pa.array(np.r_[np.full(n, 1), [2, 2]], pa.int64()),
            "ts": pa.array(np.r_[ts, [5, 9]], pa.timestamp("us")),
            "v": pa.array(np.r_[v, [1.0, 2.0]]),
        }
    )
    out = (
        analytics.lttb_downsample(_ds(tbl), "k", "ts", "v", 12, n_buckets=4)
        .to_pandas().sort_values(["k", "ts"]).reset_index(drop=True)
    )
    s1 = out[out["k"] == 1]
    assert len(s1) == 12
    assert s1["ts"].iloc[0].value // 1000 == 0 and s1["ts"].iloc[-1].value // 1000 == 99
    assert 25.0 in s1["v"].tolist()          # spike survived
    assert len(out[out["k"] == 2]) == 2      # short series passthrough

    with pytest.raises(ValueError):
        analytics.lttb_downsample(_ds(tbl), "k", "ts", "v", 2)


def test_trajectory_clip_stats_fuses_both_passes(ray_session):
    """Fused kernel == trajectory_stats ⨝ trajectory_clip_rect."""
    rng = np.random.default_rng(11)
    n = 300
    tbl = pa.table(
        {
            "u": pa.array(rng.integers(1, 9, n), pa.int64()),
            "ts": pa.array(rng.permutation(n).astype("int64"), pa.timestamp("us")),
            "e": pa.array(np.arange(n), pa.int64()),
            "lon": pa.array(rng.uniform(-90, 90, n)),
            "lat": pa.array(rng.uniform(-50, 50, n)),
        }
    )
    rect = (-30.0, -20.0, 30.0, 20.0)
    fused = (
        analytics.trajectory_clip_stats(
            _ds(tbl), "u", "ts", "lon", "lat", rect=rect, tiebreak_col="e",
            n_buckets=4,
        )
        .to_pandas().sort_values("u").reset_index(drop=True)
    )
    stats = (
        analytics.trajectory_stats(
            _ds(tbl), "u", "ts", "lon", "lat", tiebreak_col="e", n_buckets=4
        )
        .to_pandas().sort_values("u").reset_index(drop=True)
    )
    clip = (
        analytics.trajectory_clip_rect(
            _ds(tbl), "u", "ts", "lon", "lat", rect=rect, tiebreak_col="e",
            n_buckets=4,
        )
        .to_pandas().sort_values("u").reset_index(drop=True)
    )
    assert fused["path_q"].tolist() == stats["path_q"].tolist()
    assert fused["clip_q"].tolist() == clip["clip_q"].tolist()
    assert fused["n_points"].tolist() == stats["n_points"].tolist()


# ------------------------------------------- round-4: BFS / AUC / CUSUM / OLS

def _bfs_naive(edges, seeds, max_hops):
    import collections

    adj = collections.defaultdict(set)
    nodes = set()
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
        nodes.update((a, b))
    hop = {s: 0 for s in seeds if s in nodes}
    frontier = set(hop)
    for h in range(1, max_hops + 1):
        nxt = set()
        for u in frontier:
            for v in adj[u]:
                if v not in hop:
                    hop[v] = h
                    nxt.add(v)
        frontier = nxt
    return hop


def test_bfs_hops_matches_naive_and_partitioned(ray_session, long_graphs):
    # two components + a cycle; seeds = nodes divisible by 10
    edges = [(1, 2), (2, 3), (3, 4), (4, 1), (3, 10), (20, 21), (21, 22),
             (30, 31), (5, 6)]
    tbl = pa.table(
        {
            "a": pa.array([e[0] for e in edges], pa.int64()),
            "b": pa.array([e[1] for e in edges], pa.int64()),
        }
    )
    pred = lambda n: n % 10 == 0
    want = _bfs_naive(edges, [n for n in range(0, 40) if n % 10 == 0], 3)
    got = (
        analytics.bfs_hops(_ds(tbl), pred, max_hops=3)
        .to_pandas().sort_values("node")
    )
    assert dict(zip(got["node"], got["hops"])) == want
    got_p = (
        analytics.bfs_hops_partitioned(_ds(tbl), pred, max_hops=3, n_buckets=4)
        .to_pandas().sort_values("node")
    )
    assert dict(zip(got_p["node"], got_p["hops"])) == want
    # long diameters: enough hops to reach every node, so the
    # partitioned twin stops when its frontier empties
    for name, (a, b) in long_graphs.items():
        tbl = pa.table({"a": pa.array(a), "b": pa.array(b)})
        seeds = [int(n) for n in np.unique(np.concatenate([a, b])) if n % 10 == 0]
        want = _bfs_naive(list(zip(a.tolist(), b.tolist())), seeds, 64)
        for got in (
            analytics.bfs_hops(_ds(tbl), pred, max_hops=64).to_pandas(),
            analytics.bfs_hops_partitioned(
                _ds(tbl), pred, max_hops=64, n_buckets=4
            ).to_pandas(),
        ):
            assert dict(zip(got["node"], got["hops"])) == want, name


def test_graph_twins_one_execution_per_superstep(
    ray_session, ray_executions, monkeypatch
):
    """bfs, sssp, pagerank and label propagation run at most
    ``rounds + 1`` supersteps and one Ray Data execution per superstep
    (one node-keyed co-shuffle, materialized once; the halt test reads
    block metadata) plus two: the edge rows and the caller's read of
    the result."""
    supersteps = []
    co_shuffle = analytics.co_shuffle

    def counting(*args, **kwargs):
        supersteps.append(1)
        return co_shuffle(*args, **kwargs)

    monkeypatch.setattr(analytics, "co_shuffle", counting)
    rng = np.random.default_rng(7)
    tbl = pa.table({"a": pa.array(rng.integers(0, 300, 600)),
                    "b": pa.array(rng.integers(300, 600, 600))})
    edges = _ds(tbl).materialize()

    def tens(n):
        return n % 10 == 0

    runs = {
        "bfs": (3, lambda: analytics.bfs_hops_partitioned(
            edges, tens, max_hops=3, n_buckets=8)),
        "sssp": (4, lambda: analytics.sssp_partitioned(
            edges, tens, lambda a, b: (a + b) % 5 + 1, rounds=4,
            n_buckets=8)),
        "pagerank": (3, lambda: analytics.pagerank_partitioned(
            edges, n_iter=3, n_buckets=8)),
        "label_prop": (3, lambda: analytics.label_propagation_partitioned(
            edges, rounds=3, n_buckets=8)),
    }
    for name, (rounds, run) in runs.items():
        ray_executions.clear()
        supersteps.clear()
        assert len(run().take_all()) > 0, name
        assert 0 < len(supersteps) <= rounds + 1, name
        assert len(ray_executions) <= len(supersteps) + 2, name


def test_bfs_hops_no_seeds(ray_session):
    tbl = pa.table({"a": pa.array([1, 2], pa.int64()),
                    "b": pa.array([2, 3], pa.int64())})
    got = analytics.bfs_hops(_ds(tbl), lambda n: n < 0, max_hops=2).to_pandas()
    assert len(got) == 0


def test_roc_auc_exact(ray_session):
    # scores: pos {3, 2}, neg {1, 2} -> pairs: (3>1)=1, (3>2)=1,
    # (2>1)=1, (2==2)=0.5 -> AUC = 3.5/4
    tbl = pa.table(
        {
            "label": pa.array([1, 1, 0, 0], pa.int64()),
            "score": pa.array([3, 2, 1, 2], pa.int64()),
        }
    )
    out = ops.roc_auc(_ds(tbl), "label", "score").to_pandas()
    assert out["auc_num"][0] / out["auc_den"][0] == 3.5 / 4


def test_cusum_matches_sequential_recurrence(ray_session):
    rng = np.random.RandomState(7)
    n = 500
    k = rng.randint(0, 5, n).astype(np.int64)
    ts = np.arange(n, dtype=np.int64)
    v = rng.randint(-50, 200, n) / 100.0  # includes negatives
    tbl = pa.table(
        {
            "k": pa.array(k),
            "ts": pa.array(ts),
            "v": pa.array(v, pa.float64()),
        }
    )
    drift, thr = 60, 150
    out = ops.cusum_alarms(
        _ds(tbl), "k", "ts", "v", drift_q=drift, threshold_q=thr,
        quantize=100.0, n_buckets=3,
    ).to_pandas().set_index("k")
    for key in np.unique(k):
        s, mx, alarms = 0, -(1 << 62), 0
        for t in ts[k == key]:
            x = int(np.floor(v[t] * 100.0 + 0.5)) - drift
            s = max(0, s + x)
            mx = max(mx, s)
            alarms += s > thr
        assert out.loc[key, "n_alarms"] == alarms, key
        assert out.loc[key, "max_stat"] == mx, key


def test_grouped_ols_recovers_exact_line(ray_session):
    # y = 3x + 7 exactly -> slope_q = 3 << 20, icept_q = 7 << 20
    x = np.arange(1, 21, dtype=np.int64)
    tbl = pa.table(
        {
            "g": pa.array(np.ones(20, np.int64)),
            "x": pa.array(x),
            "y": pa.array(3 * x + 7),
        }
    )
    out = ops.grouped_ols(_ds(tbl), "g", "x", "y").to_pandas()
    assert out["slope_q"][0] == 3 << 20
    assert out["icept_q"][0] == 7 << 20
    # constant-x group is dropped (undefined fit)
    tbl2 = pa.table(
        {
            "g": pa.array([1, 1], pa.int64()),
            "x": pa.array([5, 5], pa.int64()),
            "y": pa.array([1, 2], pa.int64()),
        }
    )
    assert len(ops.grouped_ols(_ds(tbl2), "g", "x", "y").to_pandas()) == 0


def test_div_trunc_matches_duckdb():
    import duckdb

    for a in (-7, 7, -8, 8, 0):
        for b in (2, -2, 3, -3):
            assert ops._div_trunc(a, b) == duckdb.sql(
                f"SELECT {a} // {b}"
            ).fetchone()[0]


def test_morans_i_checkerboard_negative(ray_session):
    # perfect checkerboard -> strong negative autocorrelation (I < 0);
    # uniform field -> all z = 0 -> I = 0
    gx, gy, reps = [], [], []
    for a in range(4):
        for b in range(4):
            gx.append(a)
            gy.append(b)
            reps.append(3 if (a + b) % 2 == 0 else 1)
    tbl = pa.table(
        {
            "gx": pa.array(np.repeat(gx, reps).astype(np.int64)),
            "gy": pa.array(np.repeat(gy, reps).astype(np.int64)),
        }
    )
    out = ops.morans_i(_ds(tbl), "gx", "gy").to_pandas()
    assert out["n_cells"][0] == 16
    assert out["w_pairs"][0] == 2 * (2 * 4 * 3)  # directed rook pairs on 4x4
    assert out["morans_q"][0] == -(1 << 20)  # perfect alternation -> I = -1
    uni = pa.table(
        {
            "gx": pa.array(np.repeat(gx, 2).astype(np.int64)),
            "gy": pa.array(np.repeat(gy, 2).astype(np.int64)),
        }
    )
    with pytest.raises(ValueError, match="constant field"):
        ops.morans_i(_ds(uni), "gx", "gy").to_pandas()


def test_grouped_autocorr_matches_naive(ray_session):
    rng = np.random.RandomState(11)
    n = 300
    k = rng.randint(0, 4, n).astype(np.int64)
    ts = np.arange(n, dtype=np.int64)
    v = rng.randint(0, 500, n) / 100.0
    tbl = pa.table({"k": pa.array(k), "ts": pa.array(ts),
                    "v": pa.array(v, pa.float64())})
    out = ops.grouped_autocorr(
        _ds(tbl), "k", "ts", "v", quantize=100.0, n_buckets=3
    ).to_pandas().set_index("k")
    for key in np.unique(k):
        seq = np.floor(v[k == key] * 100.0 + 0.5).astype(np.int64)
        if seq.shape[0] < 2:
            assert key not in out.index
            continue
        a, b = seq[:-1].astype(object), seq[1:].astype(object)
        m = len(a)
        assert out.loc[key, "n_pairs"] == m
        assert out.loc[key, "cov_num"] == m * (a * b).sum() - a.sum() * b.sum()
        assert out.loc[key, "var_a"] == m * (a * a).sum() - a.sum() ** 2
        assert out.loc[key, "var_b"] == m * (b * b).sum() - b.sum() ** 2


def test_group_top_k_ties_keeps_straddling_tie(ray_session):
    # key 1: values 9, 9, 5, 5, 5, 1 with k=2 -> RANK<=2 keeps both 9s
    # only (ranks 1,1; the 5s have rank 3); key 2: 7, 7, 7 -> all kept
    tbl = pa.table(
        {
            "k": pa.array([1, 1, 1, 1, 1, 1, 2, 2, 2], pa.int64()),
            "v": pa.array([9, 9, 5, 5, 5, 1, 7, 7, 7], pa.int64()),
            "id": pa.array(list(range(9)), pa.int64()),
        }
    )
    out = ops.group_top_k(
        _ds(tbl), "k", ["v"], k=2, descending=True, ties=True, n_buckets=2
    ).to_pandas().sort_values(["k", "id"])
    assert out[out["k"] == 1]["id"].tolist() == [0, 1]
    assert out[out["k"] == 2]["id"].tolist() == [6, 7, 8]
    # ROW_NUMBER mode keeps exactly k
    out2 = ops.group_top_k(
        _ds(tbl), "k", ["v", "id"], k=2, descending=[True, False],
        n_buckets=2,
    ).to_pandas()
    assert len(out2[out2["k"] == 2]) == 2


def test_leg_crossings_proper_only(ray_session):
    # unit square fence (0,0)-(10,10); user 1 crosses the left edge
    # twice (in and out), user 2 only touches a corner (not proper),
    # user 3 runs collinear along the bottom edge (not proper)
    edges = np.asarray(
        [(0, 0, 10, 0), (10, 0, 10, 10), (10, 10, 0, 10), (0, 10, 0, 0)],
        np.int64,
    )
    tbl = pa.table(
        {
            "u": pa.array([1, 1, 1, 2, 2, 3, 3], pa.int64()),
            "ts": pa.array([1, 2, 3, 1, 2, 1, 2], pa.int64()),
            "x": pa.array([-5.0, 5.0, -5.0, -5.0, 0.0, 2.0, 8.0]),
            "y": pa.array([5.0, 5.0, 6.0, -5.0, 0.0, 0.0, 0.0]),
        }
    )
    from georay import analytics

    out = analytics.leg_crossings(
        _ds(tbl), "u", "ts", "x", "y", edges, quantize=1.0, n_buckets=2
    ).to_pandas().set_index("u")
    assert out.loc[1, "n_crossings"] == 2
    assert out.loc[2, "n_crossings"] == 0
    assert out.loc[3, "n_crossings"] == 0


def test_kcore_peel_hand_graph(ray_session):
    # triangle 1-2-3 (each deg 2) + pendant 4-1: k=2 peels 4 first,
    # then the triangle survives with degree 2 everywhere
    tbl = pa.table(
        {
            "a": pa.array([1, 2, 3, 1], pa.int64()),
            "b": pa.array([2, 3, 1, 4], pa.int64()),
        }
    )
    for strat in ("broadcast", "partitioned"):
        out = (
            analytics.kcore_peel(
                _ds(tbl), k=2, n_rounds=3, degree_strategy=strat, n_buckets=4
            )
            .to_pandas().sort_values("node")
        )
        assert out["node"].tolist() == [1, 2, 3], strat
        assert out["degree"].tolist() == [2, 2, 2], strat
    # k=3 kills everything (each triangle node has deg 2 < 3)
    out = analytics.kcore_peel(_ds(tbl), k=3, n_rounds=2).to_pandas()
    assert len(out) == 0


def test_degree_assortativity_star_negative(ray_session):
    # star graph: hub deg 4, leaves deg 1 -> perfectly disassortative
    tbl = pa.table(
        {
            "a": pa.array([0, 0, 0, 0], pa.int64()),
            "b": pa.array([1, 2, 3, 4], pa.int64()),
        }
    )
    out = analytics.degree_assortativity(_ds(tbl)).to_pandas()
    n, cov = out["n_pairs"][0], out["cov_num"][0]
    va, vb = out["var_a"][0], out["var_b"][0]
    assert n == 8
    assert cov < 0 and va > 0 and vb == va
    assert cov * cov == va * vb  # |r| = 1 exactly on a star


def test_hoover_exact_known_value(ray_session):
    # values 1, 3 -> mean 2, sum|x-mean| = 2, H = 2/(2*4) = 1/4
    tbl = pa.table({"v": pa.array([0.01, 0.03], pa.float64())})
    out = ops.hoover_exact(_ds(tbl), "v", quantize=100.0).to_pandas()
    assert out["hoover_num"][0] / out["hoover_den"][0] == 0.25


def test_edge_jaccard_hand_graph(ray_session):
    # triangle 1-2-3 plus pendant 4-1:
    #  edge (1,2): N(1)={2,3,4}, N(2)={1,3} -> common {3}=1, union {1,2,3,4}=4
    #  edge (2,3): N(2)={1,3}, N(3)={1,2}   -> common {1}=1, union {1,2,3}=3
    #  edge (3,1): common {2}=1, union 4;   edge (1,4): common 0, union 4
    tbl = pa.table(
        {
            "a": pa.array([1, 2, 3, 1], pa.int64()),
            "b": pa.array([2, 3, 1, 4], pa.int64()),
        }
    )
    out = (
        analytics.edge_jaccard(_ds(tbl), n_buckets=4)
        .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    )
    got = {(r.a, r.b): (r.common, r.union_n) for r in out.itertuples()}
    assert got == {
        (1, 2): (1, 4),
        (2, 3): (1, 3),
        (3, 1): (1, 4),
        (1, 4): (0, 4),
    }


def test_edge_jaccard_resource_allocation(ray_session):
    # triangle 1-2-3 + pendant 4-1: edge (2,3)'s only common neighbor
    # is node 1 with deg 3 -> ra_q = 2^20 // 3 = 349525
    tbl = pa.table(
        {
            "a": pa.array([1, 2, 3, 1], pa.int64()),
            "b": pa.array([2, 3, 1, 4], pa.int64()),
        }
    )
    out = (
        analytics.edge_jaccard(_ds(tbl), n_buckets=4, ra_bits=20)
        .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    )
    got = {(r.a, r.b): r.ra_q for r in out.itertuples()}
    assert got[(2, 3)] == (1 << 20) // 3
    assert got[(1, 2)] == (1 << 20) // 2  # common {3}, deg(3)=2
    assert got[(1, 4)] == 0


def test_negative_edge_samples_are_nonedges(ray_session):
    tbl = pa.table(
        {
            "a": pa.array([1, 2, 3, 1], pa.int64()),
            "b": pa.array([2, 3, 4, 3], pa.int64()),
        }
    )
    out = analytics.negative_edge_samples(_ds(tbl)).to_pandas()
    edges = {(1, 2), (2, 3), (3, 4), (1, 3)}
    for r in out.itertuples():
        lo, hi = min(r.a, r.b_neg), max(r.a, r.b_neg)
        assert (lo, hi) not in edges
        assert r.b_neg != r.a and r.b_neg != r.b
    # deterministic: second run identical
    out2 = analytics.negative_edge_samples(_ds(tbl)).to_pandas()
    assert sorted(map(tuple, out.values.tolist())) == sorted(
        map(tuple, out2.values.tolist())
    )


def test_clustering_coeff_hand_graph(ray_session):
    # triangle 1-2-3 + pendant 4-1: node 1 deg 3 tri2 2; nodes 2,3
    # deg 2 tri2 2; node 4 deg 1 tri2 0
    tbl = pa.table(
        {
            "a": pa.array([1, 2, 3, 1], pa.int64()),
            "b": pa.array([2, 3, 1, 4], pa.int64()),
        }
    )
    out = (
        analytics.clustering_coeff(_ds(tbl), n_buckets=4)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    assert out.values.tolist() == [[1, 2, 3], [2, 2, 2], [3, 2, 2], [4, 0, 1]]


def test_event_sequences_key_boundary(ray_session):
    # user 1: x,y,z,x -> trigrams x>y>z, y>z>x; user 2 has only 2
    # events (no trigram) and must not splice with user 1
    tbl = pa.table(
        {
            "u": pa.array([1, 1, 1, 1, 2, 2], pa.int64()),
            "t": pa.array([1, 2, 3, 4, 1, 2], pa.int64()),
            "e": pa.array(["x", "y", "z", "x", "q", "r"]),
        }
    )
    out = (
        analytics.event_sequences(
            _ds(tbl), key="u", order_cols=["t"], type_col="e",
            n=3, k=10, n_buckets=4,
        )
        .to_pandas().sort_values("seq").reset_index(drop=True)
    )
    assert out.values.tolist() == [["x>y>z", 1], ["y>z>x", 1]]


# ------------------------------------------- round-4 batch 3 operators

def test_market_basket_hand_counts(ray_session):
    # baskets: {1,2,3}, {1,2}, {2,3}, {1,2} (dup item rows collapse)
    tbl = pa.table(
        {
            "g": pa.array([10, 10, 10, 20, 20, 30, 30, 40, 40, 40], pa.int64()),
            "i": pa.array([1, 2, 3, 1, 2, 2, 3, 1, 2, 2], pa.int64()),
        }
    )
    out = (
        analytics.market_basket(
            _ds(tbl), "g", "i", top_k=10, min_support=2, n_buckets=4
        )
        .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    )
    # pair supports: (1,2)=3, (1,3)=1 (dropped), (2,3)=2
    got = {
        (r.a, r.b): (r.support, r.n_a, r.n_b, r.n_baskets, r.lift_num, r.lift_den)
        for r in out.itertuples()
    }
    assert got == {
        (1, 2): (3, 3, 4, 4, 12, 12),
        (2, 3): (2, 4, 2, 4, 8, 8),
    }


def test_market_basket_max_group_size_drops_basket(ray_session):
    # basket 10 has 3 items -> dropped at cap 2; marginals exclude it
    tbl = pa.table(
        {
            "g": pa.array([10, 10, 10, 20, 20], pa.int64()),
            "i": pa.array([1, 2, 3, 1, 2], pa.int64()),
        }
    )
    out = (
        analytics.market_basket(
            _ds(tbl), "g", "i", top_k=10, min_support=1, max_group_size=2,
            n_buckets=4,
        )
        .to_pandas()
    )
    assert len(out) == 1
    r = out.iloc[0]
    assert (r.a, r.b, r.support, r.n_a, r.n_b, r.n_baskets) == (1, 2, 1, 1, 1, 1)


def test_hits_bipartite_known(ray_session):
    # hubs {1,2} -> auths {10, 20}; hub 1 points at both, hub 2 at 10.
    # a0 = scale//2 each; h1_raw: h1=scale//2*2, h2=scale//2 -> tot=3*(scale//2)
    # h1_q = scale*2//3, h2_q = scale//3 (exact int division)
    edges = pa.table(
        {
            "src": pa.array([1, 1, 2], pa.int64()),
            "dst": pa.array([10, 20, 10], pa.int64()),
        }
    )
    out = (
        analytics.hits_scores(_ds(edges), n_iter=1, scale_bits=20)
        .to_pandas()
    )
    scale = 1 << 20
    half = scale // 2
    h1_raw, h2_raw = 2 * half, half
    tot = h1_raw + h2_raw
    h1_q, h2_q = h1_raw * scale // tot, h2_raw * scale // tot
    a10_raw, a20_raw = h1_q + h2_q, h1_q
    atot = a10_raw + a20_raw
    exp = {
        ("hub", 1): h1_q,
        ("hub", 2): h2_q,
        ("auth", 10): a10_raw * scale // atot,
        ("auth", 20): a20_raw * scale // atot,
    }
    got = {(r.side, r.node): r.score_q for r in out.itertuples()}
    assert got == exp


def test_sssp_local_vs_partitioned_parity(ray_session, long_graphs):
    # path 0-1-2-3-4 with weights 5,1,1,1 plus shortcut 0-4 weight 9;
    # seed node 0. 3 rounds: dist(4)=min(9, 8 via path needs 4 edges).
    edges = pa.table(
        {
            "a": pa.array([0, 1, 2, 3, 0], pa.int64()),
            "b": pa.array([1, 2, 3, 4, 4], pa.int64()),
        }
    )
    w = {(0, 1): 5, (1, 2): 1, (2, 3): 1, (3, 4): 1, (0, 4): 9}

    def wf(a, b):
        return np.array(
            [w[(x, y)] if (x, y) in w else w[(y, x)]
             for x, y in zip(a.tolist(), b.tolist())],
            np.int64,
        )

    seed = lambda n: n == 0
    loc = (
        analytics.sssp_rounds(_ds(edges), seed, wf, rounds=3)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    part = (
        analytics.sssp_partitioned(_ds(edges), seed, wf, rounds=3, n_buckets=4)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    assert loc.values.tolist() == part.values.tolist()
    got = dict(zip(loc["node"], loc["dist"]))
    assert got == {0: 0, 1: 5, 2: 6, 3: 7, 4: 9}
    # one more round reaches 4 via the cheap path
    loc4 = analytics.sssp_rounds(_ds(edges), seed, wf, rounds=4).to_pandas()
    assert dict(zip(loc4["node"], loc4["dist"]))[4] == 8

    def tens(n):
        return n % 10 == 0

    def sum_w(a, b):
        return (a + b) % 7 + 1

    for name, (a, b) in long_graphs.items():
        g = _ds(pa.table({"a": pa.array(a), "b": pa.array(b)}))
        loc = (
            analytics.sssp_rounds(g, tens, sum_w, rounds=64)
            .to_pandas().sort_values("node").reset_index(drop=True)
        )
        part = (
            analytics.sssp_partitioned(g, tens, sum_w, rounds=64, n_buckets=4)
            .to_pandas().sort_values("node").reset_index(drop=True)
        )
        assert len(loc) and loc.values.tolist() == part.values.tolist(), name


def test_sssp_empty_edges(ray_session):
    edges = pa.table(
        {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())}
    )
    out = analytics.sssp_rounds(
        _ds(edges), lambda n: n == 0, lambda a, b: np.ones(0, np.int64)
    ).to_pandas()
    # (column names not asserted: empty Datasets lose their schema
    # through to_pandas in Ray 2.49 — the ROUND_NOTES quirk)
    assert len(out) == 0


def test_avg_neighbor_degree_star(ray_session):
    # star: center 1 with leaves 2,3,4 -> deg(1)=3, sum_ndeg(1)=3;
    # each leaf deg=1, sum_ndeg=3
    tbl = pa.table(
        {
            "a": pa.array([1, 1, 1], pa.int64()),
            "b": pa.array([2, 3, 4], pa.int64()),
        }
    )
    out = (
        analytics.avg_neighbor_degree(_ds(tbl))
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    assert out.values.tolist() == [
        [1, 3, 3], [2, 1, 3], [3, 1, 3], [4, 1, 3],
    ]


def test_rectangle_count_known(ray_session):
    # C4 (one 4-cycle), K4 (3 rectangles: each pair of disjoint edges
    # closes via the other two nodes), and a pendant edge adds none
    c4 = pa.table(
        {
            "a": pa.array([1, 2, 3, 1], pa.int64()),
            "b": pa.array([2, 3, 4, 4], pa.int64()),
        }
    )
    out = analytics.rectangle_count(_ds(c4)).to_pandas()
    assert out["n_rectangles"].tolist() == [1]
    k4 = pa.table(
        {
            "a": pa.array([1, 1, 1, 2, 2, 3, 4], pa.int64()),
            "b": pa.array([2, 3, 4, 3, 4, 4, 5], pa.int64()),
        }
    )
    assert analytics.rectangle_count(_ds(k4)).to_pandas()[
        "n_rectangles"
    ].tolist() == [3]
    # triangle alone has no 4-cycle
    tri = pa.table(
        {
            "a": pa.array([1, 1, 2], pa.int64()),
            "b": pa.array([2, 3, 3], pa.int64()),
        }
    )
    assert analytics.rectangle_count(_ds(tri)).to_pandas()[
        "n_rectangles"
    ].tolist() == [0]


def test_rectangle_count_local_vs_distributed(ray_session):
    rng = np.random.default_rng(7)
    aa = rng.integers(1, 30, 300)
    bb = rng.integers(1, 30, 300)
    keep = aa != bb
    lo = np.minimum(aa[keep], bb[keep])
    hi = np.maximum(aa[keep], bb[keep])
    e = np.unique(np.stack([lo, hi], axis=1), axis=0)
    edges = _ds(
        pa.table(
            {
                "a": pa.array(e[:, 0], pa.int64()),
                "b": pa.array(e[:, 1], pa.int64()),
            }
        )
    ).materialize()
    r_loc = analytics.rectangle_count(edges).to_pandas()["n_rectangles"][0]
    r_dist = analytics.rectangle_count(edges, local_edge_cutoff=0).to_pandas()[
        "n_rectangles"
    ][0]
    assert r_loc == r_dist
    # brute force: count 4-node subsets joined in a cycle
    es = {(int(x), int(y)) for x, y in e} | {(int(y), int(x)) for x, y in e}
    nodes = sorted({n for p in es for n in p})
    import itertools

    brute = 0
    for quad in itertools.combinations(nodes, 4):
        for perm in itertools.permutations(quad[1:]):
            ring = (quad[0],) + perm
            if all(
                (ring[i], ring[(i + 1) % 4]) in es for i in range(4)
            ):
                brute += 1
    # each cycle counted twice per orientation and 4 rotations / ...
    # fixing ring[0]=min leaves 3! perms; each undirected cycle seen twice
    assert r_loc == brute // 2


def test_rectangle_count_empty(ray_session):
    empty = _ds(
        pa.table(
            {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())}
        )
    )
    assert analytics.rectangle_count(empty).to_pandas()[
        "n_rectangles"
    ].tolist() == [0]


def test_hausdorff_pairs_known(ray_session):
    # two users in one group: A = {(0,0),(1,0)}, B = {(0,3),(4,0)}
    # directed A->B: min dists from (0,0): min(3, 4)=3; from (1,0): min(sqrt(10),3)=3
    #   -> h(A->B) = 3
    # directed B->A: from (0,3): 3 (to (0,0)); from (4,0): 3 (to (1,0))
    #   -> h(B->A) = 3 -> hausdorff = 3.0
    tbl = pa.table(
        {
            "u": pa.array([1, 1, 2, 2], pa.int64()),
            "ts": pa.array([1, 2, 1, 2], pa.int64()),
            "eid": pa.array([1, 2, 3, 4], pa.int64()),
            "lon": pa.array([0.0, 1.0, 0.0, 4.0]),
            "lat": pa.array([0.0, 0.0, 3.0, 0.0]),
        }
    )
    ds = _ds(tbl)
    out = analytics.hausdorff_pairs(
        ds, "u", "ts", "lon", "lat",
        group_fn=lambda lon0, lat0: np.zeros(lon0.shape[0], np.int64),
        tiebreak_col="eid", n_buckets=2,
    ).to_pandas()
    assert out.values.tolist() == [[1, 2, 3 * (1 << 20)]]


def test_hausdorff_pairs_grouping(ray_session):
    # users 1,2 share group 0; user 3 alone in group 1 -> exactly 1 pair
    tbl = pa.table(
        {
            "u": pa.array([1, 2, 3], pa.int64()),
            "ts": pa.array([1, 1, 1], pa.int64()),
            "eid": pa.array([1, 2, 3], pa.int64()),
            "lon": pa.array([0.0, 1.0, 100.0]),
            "lat": pa.array([0.0, 0.0, 0.0]),
        }
    )
    out = analytics.hausdorff_pairs(
        _ds(tbl), "u", "ts", "lon", "lat",
        group_fn=lambda lon0, lat0: (lon0 > 50).astype(np.int64),
        tiebreak_col="eid", n_buckets=2,
    ).to_pandas()
    assert out.values.tolist() == [[1, 2, 1 << 20]]


def test_path_self_intersections_bowtie(ray_session):
    # user 1: bowtie path (0,0)->(2,2)->(2,0)->(0,2): leg 1 and leg 3
    # properly cross; user 2: straight line, no crossing; user 3: a
    # single point (no legs) still emits a zero row
    tbl = pa.table(
        {
            "u": pa.array([1, 1, 1, 1, 2, 2, 2, 3], pa.int64()),
            "t": pa.array([1, 2, 3, 4, 1, 2, 3, 1], pa.int64()),
            "x": pa.array([0.0, 2.0, 2.0, 0.0, 0.0, 1.0, 2.0, 5.0]),
            "y": pa.array([0.0, 2.0, 0.0, 2.0, 0.0, 0.0, 0.0, 5.0]),
        }
    )
    out = (
        analytics.path_self_intersections(
            _ds(tbl), "u", "t", "x", "y", n_buckets=2
        )
        .to_pandas().sort_values("u").reset_index(drop=True)
    )
    assert out.values.tolist() == [[1, 1], [2, 0], [3, 0]]


def test_path_self_intersections_touching_not_proper(ray_session):
    # path that TOUCHES its first leg at a vertex but never crosses:
    # (0,0)->(4,0)->(4,2)->(2,0) — leg 3 ends ON leg 1 (collinear
    # touch), strict test counts nothing
    tbl = pa.table(
        {
            "u": pa.array([1, 1, 1, 1], pa.int64()),
            "t": pa.array([1, 2, 3, 4], pa.int64()),
            "x": pa.array([0.0, 4.0, 4.0, 2.0]),
            "y": pa.array([0.0, 0.0, 2.0, 0.0]),
        }
    )
    out = analytics.path_self_intersections(
        _ds(tbl), "u", "t", "x", "y", n_buckets=2
    ).to_pandas()
    assert out.values.tolist() == [[1, 0]]


def test_kcore_partitioned_peels_to_empty(ray_session):
    # path graph: every round peels the current leaves; k=2 on a path
    # empties it — the fused vote plan's empty case must return the
    # typed empty degree table
    tbl = pa.table(
        {
            "a": pa.array([1, 2, 3], pa.int64()),
            "b": pa.array([2, 3, 4], pa.int64()),
        }
    )
    out = analytics.kcore_peel(
        _ds(tbl), k=2, n_rounds=3, degree_strategy="partitioned",
        n_buckets=4,
    ).to_pandas()
    assert len(out) == 0
    assert sorted(out.columns) == ["degree", "node"]


def test_personalized_pagerank_paths_and_mass(ray_session):
    """Seeded PageRank: local and distributed paths bit-identical;
    teleport mass stays near the seed (a seed outranks a node at
    distance 2 on a path graph); absent seeds raise."""
    import pytest
    import ray.data as rd

    from georay import analytics

    edges = rd.from_arrow(
        pa.table({"a": pa.array([1, 2, 3, 4], pa.int64()),
                  "b": pa.array([2, 3, 4, 5], pa.int64())})
    ).materialize()
    seeds = np.array([1], np.int64)
    loc = (
        analytics.pagerank(edges, n_iter=4, seeds=seeds)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    dist = (
        analytics.pagerank(edges, n_iter=4, seeds=seeds, local_edge_cutoff=0)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    assert loc.values.tolist() == dist.values.tolist()
    rq = dict(zip(loc["node"], loc["rank_q"]))
    assert rq[1] > rq[3] > rq[5]  # proximity to the seed orders ranks
    with pytest.raises(ValueError, match="no seed node"):
        analytics.pagerank(edges, seeds=np.array([99], np.int64))


def test_line_density_matches_brute_force(ray_session):
    """line_density's ragged bbox-cover + separating-line plan equals
    the direct O(legs x cells) predicate on random lattice tracks."""
    import ray.data as rd

    from georay import analytics

    rng = np.random.default_rng(123)
    n = 400
    u = rng.integers(0, 12, n)
    ts = rng.integers(0, 10**9, n)
    ix = rng.integers(-3600, 3601, n)
    iy = rng.integers(-1800, 1801, n)
    eid = np.arange(n)
    ds = rd.from_arrow(pa.table({
        "u": pa.array(u, pa.int64()), "ts": pa.array(ts).cast(pa.int64()),
        "e": pa.array(eid, pa.int64()),
        "ix": pa.array(ix, pa.int64()), "iy": pa.array(iy, pa.int64()),
    }).set_column(1, "ts", pa.array(ts, pa.int64()).cast(pa.timestamp("us"))))
    got = {
        (r["gx"], r["gy"]): r["n_legs"]
        for r in analytics.line_density(
            ds, "u", "ts", "ix", "iy", x_origin=-3600, y_origin=-1800,
            cell_units=200, nx=36, ny=18, tiebreak_col="e", n_buckets=4,
        ).take_all()
    }
    # brute force over every (leg, cell)
    order = np.lexsort((eid, ts, u))
    uu, xx, yy = u[order], ix[order], iy[order]
    want: dict = {}
    for i in range(1, n):
        if uu[i] != uu[i - 1]:
            continue
        x1, y1, x2, y2 = xx[i - 1], yy[i - 1], xx[i], yy[i]
        for gx in range(36):
            for gy in range(18):
                cx0, cx1 = -3600 + 200 * gx, -3600 + 200 * (gx + 1)
                cy0, cy1 = -1800 + 200 * gy, -1800 + 200 * (gy + 1)
                if min(x1, x2) > cx1 or max(x1, x2) < cx0:
                    continue
                if min(y1, y2) > cy1 or max(y1, y2) < cy0:
                    continue
                dx, dy = x2 - x1, y2 - y1
                cs = [dx * (cy - y1) - dy * (cx - x1)
                      for cx in (cx0, cx1) for cy in (cy0, cy1)]
                if all(c > 0 for c in cs) or all(c < 0 for c in cs):
                    continue
                want[(gx, gy)] = want.get((gx, gy), 0) + 1
    assert got == want and len(want) > 50


def test_pagerank_weighted_paths_and_degeneracy(ray_session):
    """Weighted PageRank: local and distributed paths bit-identical;
    uniform weights reproduce plain pagerank; nonpositive weights
    raise."""
    import pytest
    import ray.data as rd

    from georay import analytics

    rng = np.random.default_rng(9)
    a = rng.integers(0, 40, 120)
    b = (a + 1 + rng.integers(0, 38, 120)) % 40
    e = np.unique(np.stack([np.minimum(a, b), np.maximum(a, b)], 1), axis=0)
    e = e[e[:, 0] != e[:, 1]]
    edges = rd.from_arrow(
        pa.table({"a": pa.array(e[:, 0], pa.int64()),
                  "b": pa.array(e[:, 1], pa.int64())})
    ).materialize()
    wfn = lambda x, y: 1 + (x * 3 + y) % 5
    loc = (
        analytics.pagerank_weighted(edges, wfn, n_iter=3)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    dist = (
        analytics.pagerank_weighted(edges, wfn, n_iter=3, local_edge_cutoff=0)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    assert loc.values.tolist() == dist.values.tolist()
    # weight ≡ 1 degenerates to the unweighted iteration exactly
    uni = (
        analytics.pagerank_weighted(edges, lambda x, y: np.ones(x.shape[0], np.int64), n_iter=3)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    plain = (
        analytics.pagerank(edges, n_iter=3)
        .to_pandas().sort_values("node").reset_index(drop=True)
    )
    assert uni.values.tolist() == plain.values.tolist()
    with pytest.raises(ValueError, match="positive"):
        analytics.pagerank_weighted(edges, lambda x, y: np.zeros(x.shape[0], np.int64))
