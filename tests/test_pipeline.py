"""Flagship pipeline E2E: lineage manifest, checkpoint resume, per-row
image invariant (PSNR/caption), run-to-run determinism."""

import json
import os
import shutil

import pyarrow.parquet as pq
import pytest

from georay import generate, pipeline


@pytest.fixture(scope="module")
def images_dir(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("imgs")
    generate.write_images_dataset(str(d), 2000, seed=42, rows_per_file=500)
    return str(d)


@pytest.fixture(scope="module")
def polygons():
    return generate.make_polygons_table(200, seed=43)


def test_flagship_runs_and_writes_manifest(images_dir, polygons, tmp_path, ray_session):
    out = str(tmp_path / "out")
    summary = pipeline.run_flagship(images_dir, out, polygons, zoom=5, concurrency=2)
    assert summary["rows"] == 2000
    assert summary["shards_processed_this_run"] == 4
    manifest = pipeline.load_manifest(out)
    assert len(manifest) == 4
    for m in manifest.values():
        assert m["rows_in"] == m["rows_out"] == 500
        assert m["id_checksum"] > 0
    assign = pq.read_table(os.path.join(out, "assign"))
    assert assign.num_rows == 2000
    for col in ("cell", "cell_parent", "polygon_id", "tile_key"):
        assert col in assign.column_names
    assert os.path.exists(os.path.join(out, "tile_histogram.parquet"))


def test_flagship_resume_skips_done_and_reproduces(
    images_dir, polygons, tmp_path, ray_session
):
    out = str(tmp_path / "out2")
    s1 = pipeline.run_flagship(images_dir, out, polygons, zoom=5, concurrency=2)
    m1 = pipeline.load_manifest(out)

    # simulate a failed shard: drop one manifest entry + its output dir
    victim = sorted(m1)[1]
    del m1[victim]
    pipeline.save_manifest(out, m1)
    shutil.rmtree(os.path.join(out, "assign", f"shard={victim}"))

    s2 = pipeline.run_flagship(images_dir, out, polygons, zoom=5, concurrency=2)
    assert s2["shards_processed_this_run"] == 1
    m2 = pipeline.load_manifest(out)
    assert len(m2) == 4
    # content-addressed determinism: the re-run shard reproduces the
    # identical id checksum recorded by the first run
    assert m2[victim]["id_checksum"] == pipeline.load_manifest(out)[victim]["id_checksum"]

    full1 = pq.read_table(os.path.join(out, "assign")).sort_by("image_id")
    assert full1.num_rows == 2000


def test_flagship_idempotent_when_done(images_dir, polygons, tmp_path, ray_session):
    out = str(tmp_path / "out3")
    pipeline.run_flagship(images_dir, out, polygons, zoom=5, concurrency=2)
    s = pipeline.run_flagship(images_dir, out, polygons, zoom=5, concurrency=2)
    assert s["shards_processed_this_run"] == 0
    assert s["rows"] == 2000


def _assert_outputs_match_assign(out):
    """Histograms equal a NumPy recount over the written assign/ table,
    and each manifest checksum equals one over that shard's written ids."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    assign = pq.read_table(
        os.path.join(out, "assign"), columns=["image_id", "cell_parent", "tile_key", "shard"]
    )
    tk, tn = np.unique(assign["tile_key"].to_numpy(), return_counts=True)
    tiles = pd.read_parquet(os.path.join(out, "tile_histogram.parquet"))
    assert tiles["tile_key"].tolist() == tk.tolist()
    assert tiles["count"].tolist() == tn.tolist()
    ck, cn = np.unique(assign["cell_parent"].to_numpy(), return_counts=True)
    top = np.lexsort((ck, -cn))[:20]
    cells = pd.read_parquet(os.path.join(out, "top_cells.parquet"))
    assert cells["cell_parent"].tolist() == ck[top].tolist()
    assert cells["count"].tolist() == cn[top].tolist()
    shard = assign["shard"].cast(pa.string())
    manifest = pipeline.load_manifest(out)
    assert sorted(manifest) == sorted(set(shard.to_pylist()))
    for name, m in manifest.items():
        ids = assign["image_id"].filter(pc.equal(shard, name)).to_pylist()
        assert m["rows_out"] == len(ids)
        assert m["id_checksum"] == pipeline._id_checksum(ids)


def test_flagship_histograms_and_checksums_match_written_output(
    images_dir, polygons, tmp_path, ray_session
):
    """The write-time partials (histogram sidecars, checksums) agree with
    a recount over what is on disk after a fresh run, a resume that
    redoes one shard, and an idempotent rerun."""
    out = str(tmp_path / "pin")
    pipeline.run_flagship(images_dir, out, polygons, zoom=5, concurrency=2)
    _assert_outputs_match_assign(out)

    m = pipeline.load_manifest(out)
    victim = sorted(m)[2]
    del m[victim]
    pipeline.save_manifest(out, m)
    shutil.rmtree(os.path.join(out, "assign", f"shard={victim}"))
    s = pipeline.run_flagship(images_dir, out, polygons, zoom=5, concurrency=2)
    assert s["shards_processed_this_run"] == 1
    _assert_outputs_match_assign(out)

    s = pipeline.run_flagship(images_dir, out, polygons, zoom=5, concurrency=2)
    assert s["shards_processed_this_run"] == 0
    _assert_outputs_match_assign(out)


def test_flagship_redoes_shard_with_missing_sidecar(images_dir, polygons, tmp_path, ray_session):
    """A manifest shard whose histogram sidecar is gone is rewritten, not
    silently left out of the histograms."""
    out = str(tmp_path / "nosidecar")
    pipeline.run_flagship(images_dir, out, polygons, zoom=5, concurrency=2)
    victim = sorted(pipeline.load_manifest(out))[0]
    sidecar = os.path.join(out, pipeline.HIST_DIR, f"{victim}.parquet")
    os.remove(sidecar)
    s = pipeline.run_flagship(images_dir, out, polygons, zoom=5, concurrency=2)
    assert s["shards_processed_this_run"] == 1
    assert s["rows"] == 2000
    assert os.path.exists(sidecar)
    _assert_outputs_match_assign(out)


def test_shard_sink_merges_shards_split_across_write_tasks(images_dir, ray_session, tmp_path):
    """A shard written by several write tasks: rows and checksum partials
    add up per shard, and its sidecar's repeated keys sum to a recount."""
    import glob as _glob

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from georay import ops

    files = sorted(_glob.glob(os.path.join(images_dir, "*.parquet")))
    out = str(tmp_path / "split")

    def transform(ds):  # 7 blocks over 4 shards: some shards span two tasks
        return ops.add_cell_column(ds.repartition(7), level=10, parent_level=4)

    manifest, _, n = pipeline._write_shards(
        files, out, "data", transform, columns=["image_id", "geotag"], id_col="image_id",
        resume=True, partition_cols=["shard"], count_cols=("cell_parent",),
    )
    assert n == 2000 and len(manifest) == len(files)
    back = pq.read_table(os.path.join(out, "data"), columns=["image_id", "cell_parent", "shard"])
    shard = back["shard"].cast(pa.string())
    for name, m in manifest.items():
        ids = back["image_id"].filter(pc.equal(shard, name)).to_pylist()
        assert m["rows_out"] == len(ids) == 500
        assert m["id_checksum"] == pipeline._id_checksum(ids)
    sidecars = [pipeline._hist_path(out, s) for s in sorted(manifest)]
    split = [pq.read_table(p)["key"].to_numpy() for p in sidecars]
    assert any(len(np.unique(k)) < len(k) for k in split)
    col, key, cnt = pipeline._merge_sidecars(sidecars)
    want_k, want_n = np.unique(back["cell_parent"].to_numpy(), return_counts=True)
    order = np.argsort(key)
    assert (col == "cell_parent").all()
    assert key[order].tolist() == want_k.tolist() and cnt[order].tolist() == want_n.tolist()


@pytest.mark.parametrize("bucketed", [False, True])
def test_flagship_is_one_ray_data_execution(
    images_dir, polygons, tmp_path, ray_session, monkeypatch, bucketed
):
    """A fresh run is ONE Ray Data execution (write, validation and
    histogram partials together); a finished run starts none."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    calls = []
    orig = StreamingExecutor.execute

    def counting(self, *args, **kwargs):
        calls.append(1)
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counting)
    out = str(tmp_path / "once")
    kw = dict(zoom=5, concurrency=2, bucketed_cells=bucketed)
    pipeline.run_flagship(images_dir, out, polygons, **kw)
    assert len(calls) == 1
    pipeline.run_flagship(images_dir, out, polygons, **kw)
    assert len(calls) == 1


def test_image_invariant_psnr_and_captions(images_dir, ray_session):
    res = pipeline.validate_images(images_dir, concurrency=2)
    assert res["rows"] == 2000
    assert res["pixels_ok"] == 2000  # lossless exact + lossy ≥ 40 dB
    assert res["min_psnr_lossy"] >= 40.0


def test_write_resumable_generic(images_dir, ray_session, tmp_path):
    import glob as _glob

    import pyarrow as pa
    import ray.data as rd

    from georay import ops, pipeline

    files = sorted(_glob.glob(os.path.join(images_dir, "*.parquet")))
    out = str(tmp_path / "sink")

    def transform(ds):
        return ops.add_cell_column(ds, level=10, parent_level=4)

    s1 = pipeline.write_resumable(
        files, out, transform, columns=["image_id", "geotag"]
    )
    assert s1["shards_processed_this_run"] == len(files)
    total = s1["rows"]
    assert total > 0

    # rerun: everything skipped, same totals
    s2 = pipeline.write_resumable(
        files, out, transform, columns=["image_id", "geotag"]
    )
    assert s2["shards_processed_this_run"] == 0 and s2["rows"] == total

    # crash simulation: remove one shard from the manifest; only it reruns
    m = pipeline.load_manifest(out)
    victim = sorted(m)[0]
    del m[victim]
    pipeline.save_manifest(out, m)
    s3 = pipeline.write_resumable(
        files, out, transform, columns=["image_id", "geotag"]
    )
    assert s3["shards_processed_this_run"] == 1 and s3["rows"] == total
    back = pq.read_table(os.path.join(out, "data"))
    assert back.num_rows == total and "cell" in back.column_names


def test_write_spatial_partition_pruning(images_dir, ray_session, tmp_path):
    import numpy as np
    import ray.data as rd

    from georay import cells, pipeline
    from georay.codecs import native as nat

    out = str(tmp_path / "spatial")
    ds = rd.read_parquet(images_dir, columns=["image_id", "geotag"])
    parts = pipeline.write_spatial(ds, out, parent_level=2)
    assert len(parts) > 1

    # every row in a partition actually belongs to that cell prefix
    victim = parts[0]
    prefix = int(victim.split("cell_prefix=")[1])
    back = pipeline.read_spatial_partition(out, prefix).take_all()
    assert len(back) > 0
    import pyarrow as pa

    got = pa.Table.from_pylist(back)
    v = nat.view(got["geotag"].combine_chunks())
    lon, lat = v.coords[:, 0].copy(), v.coords[:, 1].copy()
    if v.valid is not None:
        lon[~v.valid] = np.nan
        lat[~v.valid] = np.nan
    cid = cells.cell_from_lonlat(lon, lat, cells.DEFAULT_LEVEL)
    par = cells.to_i64(cells.cell_parent(cid, 2))
    assert np.all(par == prefix)

    # totals preserved across partitions
    total = sum(pq.read_table(p).num_rows for p in parts)
    assert total == pq.read_table(images_dir).num_rows


def test_write_bucketed_and_shuffle_free_join(ray_session, tmp_path):
    """Two tables bucketed on the join key align bucket-for-bucket;
    the per-bucket local join equals a regular equality join, with no
    runtime exchange. Left join null-extends missing right buckets."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from georay import pipeline

    n = 5000
    rng = np.random.default_rng(5)
    left = pa.table(
        {
            "k": pa.array(rng.integers(0, 800, n), pa.int64()),
            "lv": pa.array(np.arange(n, dtype=np.int64)),
        }
    )
    right = pa.table(
        {
            "rk": pa.array(np.arange(0, 700, dtype=np.int64)),
            "rv": pa.array(np.arange(0, 700, dtype=np.int64) * 10),
        }
    )
    ld = str(tmp_path / "left")
    rdir = str(tmp_path / "right")
    parts = pipeline.write_bucketed(rd.from_arrow(left), ld, "k", n_buckets=16)
    pipeline.write_bucketed(rd.from_arrow(right), rdir, "rk", n_buckets=16)
    assert parts and all("bucket=" in p for p in parts)

    got = (
        pipeline.bucketed_join(ld, rdir, on="k", right_on="rk", n_buckets=16)
        .to_pandas().sort_values(["k", "lv"]).reset_index(drop=True)
    )
    exp = (
        left.to_pandas().merge(
            right.to_pandas(), left_on="k", right_on="rk", how="inner"
        )
        .drop(columns=["rk"]).sort_values(["k", "lv"]).reset_index(drop=True)
    )
    assert got["lv"].tolist() == exp["lv"].tolist()
    assert got["rv"].tolist() == exp["rv"].tolist()

    lgot = pipeline.bucketed_join(
        ld, rdir, on="k", right_on="rk", n_buckets=16, how="left"
    ).to_pandas()
    assert len(lgot) == n  # unmatched keys (700..799) survive nulled
    assert lgot["rv"].isna().sum() == int((left["k"].to_numpy() >= 700).sum())


def test_bucketed_aggregate_no_shuffle(ray_session, tmp_path):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from georay import pipeline

    n = 3000
    rng = np.random.default_rng(9)
    t = pa.table(
        {
            "k": pa.array(rng.integers(0, 50, n), pa.int64()),
            "v": pa.array(rng.integers(1, 5, n).astype(np.float64)),
        }
    )
    d = str(tmp_path / "t")
    pipeline.write_bucketed(rd.from_arrow(t), d, "k", n_buckets=8)
    got = (
        pipeline.bucketed_aggregate(d, "k", sum_cols=["v"], n_buckets=8)
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    exp = (
        t.to_pandas().groupby("k").agg(n=("v", "size"), sum_v=("v", "sum"))
        .reset_index()
    )
    assert got["n"].tolist() == exp["n"].tolist()
    assert got["sum_v"].tolist() == exp["sum_v"].tolist()


def test_flagship_bucketed_cells_identical_output(images_dir, polygons, ray_session, tmp_path):
    """r4: bucketed_cells=True persists the assignment table hash-
    bucketed by cell_parent and aggregates cells shuffle-free per
    bucket; summary, top-cells and tile histogram must be identical to
    the flat layout."""
    import pandas as pd

    from georay import pipeline

    a_dir = str(tmp_path / "flat")
    b_dir = str(tmp_path / "bucketed")
    sa = pipeline.run_flagship(images_dir, a_dir, polygons, zoom=6, concurrency=2)
    sb = pipeline.run_flagship(
        images_dir, b_dir, polygons, zoom=6, concurrency=2,
        bucketed_cells=True,
    )
    assert sa["rows"] == sb["rows"] and sa["tiles"] == sb["tiles"]
    ta = pd.read_parquet(f"{a_dir}/top_cells.parquet").reset_index(drop=True)
    tb = pd.read_parquet(f"{b_dir}/top_cells.parquet").reset_index(drop=True)
    pd.testing.assert_frame_equal(ta, tb[ta.columns])
    ha = pd.read_parquet(f"{a_dir}/tile_histogram.parquet").sort_values(
        "tile_key").reset_index(drop=True)
    hb = pd.read_parquet(f"{b_dir}/tile_histogram.parquet").sort_values(
        "tile_key").reset_index(drop=True)
    pd.testing.assert_frame_equal(ha, hb[ha.columns])


def test_write_sorted_read_range_prunes(ray_session, tmp_path):
    """Zone-map layout: a narrow range scan must open a strict subset
    of partitions and still return exactly the rows in range."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from georay import pipeline

    vals = np.arange(0, 1600, dtype=np.int64)
    t = pa.table({"k": pa.array(vals), "payload": pa.array(vals * 2)})
    out = str(tmp_path / "sorted")
    m = pipeline.write_sorted(rd.from_arrow(t), out, "k", n_ranges=16)
    assert m["lo"] == 0 and m["hi"] == 1599
    ds, n_opened, n_total = pipeline.read_range(out, 200, 400)
    assert n_total == 16 and 1 <= n_opened <= 3  # ~2 of 16 zones
    got = ds.to_pandas()
    # zones are coarse: the scan may return a superset of [200, 400)
    ks = got["k"].to_numpy()
    assert set(ks[(ks >= 200) & (ks < 400)]) == set(range(200, 400))


def test_postings_layout_roundtrip(ray_session, tmp_path):
    """Inverted-index layout: write_postings buckets by token hash with
    a self-describing manifest; postings_search reads ONLY the query
    terms' buckets and reproduces brute-force AND/OR membership,
    including tokenizer normalization and a term absent from the
    corpus."""
    import pyarrow as pa
    import pyarrow as pa
    import ray.data as rd

    from georay import pipeline

    docs = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array([
            "merge sort window scan",
            "window table merge",
            "scan scan scan",
            "  Merge   WINDOW  ",
        ]),
    })
    out = str(tmp_path / "postings")
    dirs = pipeline.write_postings(rd.from_arrow(docs), out, n_buckets=8)
    assert dirs and all("bucket=" in d for d in dirs)
    # pruned scan: the two query terms hash to <= 2 of the 8 buckets
    assert len(dirs) <= 8

    def got(terms, mode):
        return sorted(
            r["doc_id"]
            for r in pipeline.postings_search(out, terms, mode=mode).take_all()
        )

    assert got(["merge", "window"], "and") == [1, 2, 4]
    assert got(["merge", "scan"], "and") == [1]
    assert got(["merge", "window", "scan"], "or") == [1, 2, 3, 4]
    assert got(["nosuchterm"], "and") == []
    assert got(["nosuchterm"], "or") == []


def test_postings_bm25_matches_full_scan(ray_session, tmp_path):
    """The index path (postings_bm25) and the full-scan path
    (stages.text.bm25_topk) must produce BIT-identical (doc_id, score)
    top-k — same rational idf, same float operation order (reduceat's
    pairwise summation was 1 ulp off and is deliberately avoided)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from georay import pipeline
    from georay.stages.text import bm25_topk

    rng = np.random.default_rng(11)
    vocab = ["spark", "hash", "window", "sort", "scan", "merge", "row"]
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(2, 30)))
        for _ in range(300)
    ] + [""]  # empty doc: dl=1 via the empty token, never a candidate
    docs = pa.table({
        "doc_id": pa.array(np.arange(301, dtype=np.int64)),
        "text": pa.array(texts),
    })
    ds = rd.from_arrow(docs)
    out = str(tmp_path / "idx")
    pipeline.write_postings(ds, out, n_buckets=8)
    terms = ["spark", "window", "merge"]
    a = pd.DataFrame(bm25_topk(ds, terms, k=20).take_all()) \
        .sort_values(["score", "doc_id"], ascending=[False, True]) \
        .reset_index(drop=True)
    b = pd.DataFrame(pipeline.postings_bm25(out, terms, k=20).take_all()) \
        .sort_values(["score", "doc_id"], ascending=[False, True]) \
        .reset_index(drop=True)
    assert a["doc_id"].tolist() == b["doc_id"].tolist()
    assert (
        np.array(a["score"]).view(np.int64)
        == np.array(b["score"]).view(np.int64)
    ).all()
    with pytest.raises(ValueError, match="distinct"):
        pipeline.postings_bm25(out, ["spark", "spark"], k=5)


def test_postings_degenerate_corpora(ray_session, tmp_path):
    """Empty corpus and string doc ids through the postings layout:
    typed empty results come from the manifest (no bucket partition
    exists to borrow a schema from)."""
    import pyarrow as pa
    import ray.data as rd

    from georay import pipeline

    out = str(tmp_path / "empty")
    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "text": pa.array([], pa.string())})
    pipeline.write_postings(rd.from_arrow(empty), out, n_buckets=4)
    assert pipeline.postings_search(out, ["x"], mode="and").take_all() == []
    assert pipeline.postings_bm25(out, ["x"], k=3).take_all() == []

    out2 = str(tmp_path / "strid")
    docs = pa.table({"doc_id": pa.array(["a", "b"]),
                     "text": pa.array(["x y", "y z"])})
    pipeline.write_postings(rd.from_arrow(docs), out2, n_buckets=4)
    assert sorted(
        r["doc_id"]
        for r in pipeline.postings_search(out2, ["y"], mode="and").take_all()
    ) == ["a", "b"]
    hits = pipeline.postings_bm25(out2, ["z"], k=3).take_all()
    assert [r["doc_id"] for r in hits] == ["b"]
    assert pipeline.postings_search(out2, ["qqq"], mode="and").take_all() == []


def test_bloom_lookup_prunes_and_matches(ray_session, tmp_path):
    """Bloom-sidecar layout: a point lookup on a NON-clustered column
    must open a strict subset of partitions (the probed ids live in few
    ts ranges) and return exactly the probed rows; a probe of absent
    ids returns zero rows; blooms never lose rows (no false
    negatives)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from georay import pipeline

    # ids shuffled so the clustered key (k) and the bloom key (id)
    # disagree — the scenario zone maps cannot prune
    rng = np.random.default_rng(5)
    ids = rng.permutation(2000).astype(np.int64)
    k = np.arange(2000, dtype=np.int64)
    t = pa.table({"k": pa.array(k), "id": pa.array(ids)})
    out = str(tmp_path / "bloomed")
    m = pipeline.write_sorted(
        rd.from_arrow(t), out, "k", n_ranges=16, bloom_col="id"
    )
    assert set(m["bloom"]["bitmaps"]) == {str(i) for i in range(16)}
    probe = [int(ids[3]), int(ids[777]), int(ids[1500])]
    ds, n_opened, n_total = pipeline.read_bloom_lookup(
        out, probe, columns=["k", "id"]
    )
    assert n_total == 16 and 1 <= n_opened < 16
    got = ds.to_pandas().sort_values("id").reset_index(drop=True)
    assert got["id"].tolist() == sorted(probe)
    # absent ids: bloom may false-positive a partition open, but the
    # exact residual returns zero rows
    ds2, n2, _ = pipeline.read_bloom_lookup(
        out, [10**9, 10**9 + 1], columns=["k", "id"]
    )
    assert len(ds2.to_pandas()) == 0


def test_zorder_rect_prunes_and_matches(ray_session, tmp_path):
    """Z-order layout: a 2D rect scan must open a strict subset of
    partitions and return exactly the in-rect rows (brute-force
    reference)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from georay import pipeline

    rng = np.random.default_rng(11)
    lon = rng.uniform(-180, 180, 4000)
    lat = rng.uniform(-90, 90, 4000)
    t = pa.table(
        {
            "rid": pa.array(np.arange(4000, dtype=np.int64)),
            "lon": pa.array(lon),
            "lat": pa.array(lat),
        }
    )
    out = str(tmp_path / "zorder")
    m = pipeline.write_zorder(
        rd.from_arrow(t), out, "lon", "lat", bits=8, n_ranges=16
    )
    assert m["zorder"]["bits"] == 8
    ds, n_opened, n_total = pipeline.read_rect_zorder(
        out, 10.0, 40.0, -20.0, 10.0, columns=["rid"]
    )
    assert n_total == 16 and 1 <= n_opened < 16
    got = sorted(ds.to_pandas()["rid"].tolist())
    want = sorted(
        np.nonzero(
            (lon >= 10.0) & (lon < 40.0) & (lat >= -20.0) & (lat < 10.0)
        )[0].tolist()
    )
    assert got == want
    # degenerate rect fully outside any data still returns 0 rows
    ds2, _, _ = pipeline.read_rect_zorder(
        out, 179.99, 179.995, 89.99, 89.995, columns=["rid"]
    )
    assert len(ds2.to_pandas()) == 0


def test_sorted_merge_join_aligned_and_misaligned(ray_session, tmp_path):
    """Co-clustered merge join: aligned layouts join with zero exchange
    and reproduce the brute-force join; misaligned layouts raise."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from georay import pipeline

    ka = np.arange(0, 100, dtype=np.int64)
    a = pa.table({"k": pa.array(ka), "va": pa.array(ka * 10)})
    kb = np.arange(50, 150, dtype=np.int64)
    b = pa.table({"k": pa.array(np.repeat(kb, 2)),
                  "vb": pa.array(np.repeat(kb, 2) + 7)})
    da, db = str(tmp_path / "a"), str(tmp_path / "b")
    pipeline.write_sorted(rd.from_arrow(a), da, "k", n_ranges=8,
                          bounds=(0, 149))
    pipeline.write_sorted(rd.from_arrow(b), db, "k", n_ranges=8,
                          bounds=(0, 149))
    out = (
        pipeline.sorted_merge_join(da, db, on="k")
        .to_pandas().sort_values(["k", "vb"]).reset_index(drop=True)
    )
    # overlap keys 50..99, each twice on the b side
    assert len(out) == 100
    assert out["k"].tolist() == sorted(np.repeat(np.arange(50, 100), 2).tolist())
    assert (out["va"] == out["k"] * 10).all()
    assert (out["vb"] == out["k"] + 7).all()
    # misaligned: different bounds -> loud error
    dc = str(tmp_path / "c")
    pipeline.write_sorted(rd.from_arrow(b), dc, "k", n_ranges=8)
    import pytest as _pytest

    with _pytest.raises(ValueError, match="disagree"):
        pipeline.sorted_merge_join(da, dc, on="k")
    # disjoint key ranges -> typed empty result
    dd = str(tmp_path / "d")
    d = pa.table({"k": pa.array(np.arange(1000, 1010, dtype=np.int64)),
                  "vb": pa.array(np.zeros(10, np.int64))})
    pipeline.write_sorted(rd.from_arrow(d), dd, "k", n_ranges=8,
                          bounds=(0, 149))
    # keys clamp into the top range; a has no rows there -> empty join
    out2 = pipeline.sorted_merge_join(da, dd, on="k").to_pandas()
    assert len(out2) == 0


def test_versioned_layout_time_travel(ray_session, tmp_path):
    """Versioned layout: v1 read is the immutable base; v2 applies
    upserts and tombstones; reading latest defaults to v2."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from georay import pipeline

    base = pa.table({
        "k": pa.array([1, 2, 3, 4], pa.int64()),
        "v": pa.array([10, 20, 30, 40], pa.int64()),
    })
    out = str(tmp_path / "versioned")
    assert pipeline.write_versioned(out, rd.from_arrow(base), key="k") == 1
    delta = pa.table({
        "k": pa.array([2, 3, 5], pa.int64()),
        "v": pa.array([200, 30, 50], pa.int64()),
        "_deleted": pa.array([0, 1, 0], pa.int64()),
    })
    assert pipeline.append_version(out, rd.from_arrow(delta)) == 2
    v1 = (
        pipeline.read_version(out, 1)
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    assert v1.values.tolist() == [[1, 10], [2, 20], [3, 30], [4, 40]]
    v2 = (
        pipeline.read_version(out)  # latest
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    # k=2 upserted, k=3 tombstoned, k=5 inserted
    assert v2.values.tolist() == [[1, 10], [2, 200], [4, 40], [5, 50]]


def test_versioned_compact_and_vacuum(ray_session, tmp_path):
    """Compaction folds the delta chain into a new base (identical
    reads); vacuum expires the old chain — latest still reads, expired
    versions raise."""
    import pyarrow as pa
    import pytest as _pytest
    import ray.data as rd

    from georay import pipeline

    base = pa.table({
        "k": pa.array([1, 2, 3], pa.int64()),
        "v": pa.array([10, 20, 30], pa.int64()),
    })
    out = str(tmp_path / "vc")
    pipeline.write_versioned(out, rd.from_arrow(base), key="k")
    pipeline.append_version(out, rd.from_arrow(pa.table({
        "k": pa.array([2, 4], pa.int64()),
        "v": pa.array([200, 40], pa.int64()),
        "_deleted": pa.array([0, 0], pa.int64()),
    })))
    before = (
        pipeline.read_version(out)
        .to_pandas().sort_values("k").values.tolist()
    )
    c = pipeline.compact_versions(out)  # -> version 3, a full base
    assert c == 3
    after = (
        pipeline.read_version(out)
        .to_pandas().sort_values("k").values.tolist()
    )
    assert before == after == [[1, 10], [2, 200], [3, 30], [4, 40]]
    # a post-compaction delta chains off the new base
    pipeline.append_version(out, rd.from_arrow(pa.table({
        "k": pa.array([1], pa.int64()),
        "v": pa.array([0], pa.int64()),
        "_deleted": pa.array([1], pa.int64()),
    })))
    assert pipeline.read_version(out).to_pandas().sort_values(
        "k")["k"].tolist() == [2, 3, 4]
    removed = pipeline.vacuum_versions(out)
    assert removed == 2  # v=1, v=2 expired
    assert pipeline.read_version(out).to_pandas().sort_values(
        "k")["k"].tolist() == [2, 3, 4]
    with _pytest.raises(ValueError, match="expired"):
        pipeline.read_version(out, 2)


def test_bloom_lookup_negative_ids(ray_session, tmp_path):
    """Bloom hashing must be deterministic over the FULL int64 domain
    (negative ids wrap through uint64 identically at build and
    probe)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from georay import pipeline

    ids = np.arange(-1000, 1000, dtype=np.int64)
    t = pa.table({"k": pa.array(np.arange(2000, dtype=np.int64)),
                  "id": pa.array(ids)})
    out = str(tmp_path / "negbloom")
    pipeline.write_sorted(rd.from_arrow(t), out, "k", n_ranges=8,
                          bloom_col="id")
    ds, opened, total = pipeline.read_bloom_lookup(
        out, [-1000, -1, 0, 999], columns=["id"]
    )
    assert sorted(ds.to_pandas()["id"].tolist()) == [-1000, -1, 0, 999]


def test_postings_phrase_repeated_terms_and_prune(ray_session, tmp_path):
    """Positional phrase search: repeated-term phrases match only true
    consecutive runs; occurrence counts exact; only the phrase terms'
    buckets are read."""
    import pyarrow as pa
    import ray.data as rd

    from georay import pipeline

    docs = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array([
            "a a b c",        # "a a" once, "a b" once
            "a b a a a",      # "a a" twice (positions 2,3), "a b" once
            "b b b",          # none
            "x a",            # none
        ]),
    })
    idx = str(tmp_path / "pos")
    pipeline.write_postings_positional(rd.from_arrow(docs), idx, n_buckets=8)

    def res(phrase):
        return {
            r["doc_id"]: r["n_occ"]
            for r in pipeline.postings_phrase(idx, phrase).take_all()
        }

    assert res(["a", "a"]) == {1: 1, 2: 2}
    assert res(["a", "b"]) == {1: 1, 2: 1}
    assert res(["a", "a", "a"]) == {2: 1}
    assert res(["b", "c"]) == {1: 1}
    assert res(["c", "a"]) == {}


def test_secondary_zonemap_prunes_correlated_column(ray_session, tmp_path):
    """write_sorted(zone_col=): a range query on a sort-correlated
    secondary column opens only the overlapping partitions; an
    uncorrelated query still returns exact rows (honest no-prune)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from georay import pipeline

    n = 4000
    ts = np.arange(n, dtype=np.int64) * 1_000_000
    ids = np.arange(n, dtype=np.int64)          # perfectly correlated
    rnd = (ids * 2654435761) % n                # uncorrelated
    t = pa.table({
        "ts": pa.array(ts, pa.int64()),
        "eid": pa.array(ids, pa.int64()),
        "rnd": pa.array(rnd, pa.int64()),
    })
    out1 = str(tmp_path / "zcorr")
    pipeline.write_sorted(rd.from_arrow(t), out1, "ts", n_ranges=8,
                          zone_col="eid")
    ds, opened, total = pipeline.read_range_secondary(
        out1, 1000, 1499, columns=["eid"]
    )
    got = sorted(r["eid"] for r in ds.take_all())
    assert got == list(range(1000, 1500))
    assert opened <= 2 and total == 8  # correlated: near-perfect prune

    out2 = str(tmp_path / "zrnd")
    pipeline.write_sorted(rd.from_arrow(t), out2, "ts", n_ranges=8,
                          zone_col="rnd")
    ds2, opened2, total2 = pipeline.read_range_secondary(
        out2, 0, 99, columns=["rnd"]
    )
    assert len(ds2.take_all()) == 100  # exact rows even with no prune
    assert opened2 == total2 == 8      # uncorrelated: honest full open


def test_living_corpus_ivm_composition(ray_session, tmp_path):
    """r5 (VERDICT item 6): the maintained-index families COMPOSED over
    append cycles — tf/BM25 postings + positional postings +
    ivf_append_index + versioned entity table, with a mid-stream
    compaction and a final vacuum. After EVERY cycle all four query
    paths must equal a from-scratch rebuild of the same corpus (IVF
    rebuilt under the same centroids — append keeps pruning, not
    centroid optimality)."""
    import os
    import shutil

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from georay import pipeline
    from georay.stages import embed

    rng = np.random.default_rng(17)
    words = [f"w{i}" for i in range(60)]

    def mk_docs(ids):
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(
                [" ".join(rng.choice(words, rng.integers(5, 25)))
                 for _ in ids], pa.string()),
        })

    def mk_vecs(ids):
        return pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(
                list(rng.normal(size=(len(ids), 8))),
                pa.list_(pa.float64())),
        })

    def mk_ents(ids, c):
        return pa.table({"k": pa.array(ids, pa.int64()),
                         "val": pa.array(ids * 10 + c, pa.int64())})

    base = 700
    tfdir = str(tmp_path / "tf")
    posdir = str(tmp_path / "pos")
    ivfdir = str(tmp_path / "ivf")
    verdir = str(tmp_path / "ver")
    docs0 = mk_docs(np.arange(base))
    vecs0 = mk_vecs(np.arange(base))
    pipeline.write_postings(rd.from_arrow(docs0), tfdir)
    pipeline.write_postings_positional(rd.from_arrow(docs0), posdir)
    cent = embed.ivf_build_index(
        rd.from_arrow(vecs0), ivfdir, n_list=4, train_sample=256
    )
    pipeline.write_versioned(
        verdir, rd.from_arrow(mk_ents(np.arange(base), 0)), key="k"
    )

    qterms = ["w3", "w17", "w42"]
    phrase = ["w5", "w9"]
    qv = rng.normal(size=(3, 8))
    qids = np.arange(3)

    def run_queries(tf, pos, ivf, ver):
        bm = pipeline.postings_bm25(tf, qterms, k=10).to_pandas()
        bm = bm.sort_values(["score", "doc_id"],
                            ascending=[False, True]).reset_index(drop=True)
        ph = pipeline.postings_phrase(pos, phrase).to_pandas()
        ph = ph.sort_values("doc_id").reset_index(drop=True)
        iv = embed.ivf_search_index(ivf, qv, qids, k=5, exclude_self=False)
        if hasattr(iv, "to_pandas"):
            iv = iv.to_pandas()
        iv = iv.reset_index(drop=True)
        vr = pipeline.read_version(ver).to_pandas()[["k", "val"]]
        vr = vr.sort_values("k").reset_index(drop=True)
        return bm, ph, iv, vr

    doc_tbls, vec_tbls = [docs0], [vecs0]
    ent = {int(k): int(v) for k, v in
           zip(np.arange(base), np.arange(base) * 10)}
    import pyarrow.parquet as pq

    for ci, start in enumerate((base, base + 200), 1):
        ids = np.arange(start, start + 200)
        d, v = mk_docs(ids), mk_vecs(ids)
        upd = np.concatenate([ids, np.arange(0, 50)])
        e = mk_ents(upd, ci)
        pipeline.postings_append(tfdir, rd.from_arrow(d))
        pipeline.postings_append(posdir, rd.from_arrow(d))
        embed.ivf_append_index(ivfdir, rd.from_arrow(v))
        pipeline.append_version(verdir, rd.from_arrow(e))
        doc_tbls.append(d)
        vec_tbls.append(v)
        for k_, v_ in zip(e["k"].to_numpy(), e["val"].to_numpy()):
            ent[int(k_)] = int(v_)
        if ci == 1:
            pipeline.compact_versions(verdir)
        got = run_queries(tfdir, posdir, ivfdir, verdir)
        rb = str(tmp_path / f"rb{ci}")
        shutil.rmtree(rb, ignore_errors=True)
        os.makedirs(rb)
        docs = pa.concat_tables(doc_tbls)
        vecs = pa.concat_tables(vec_tbls)
        pipeline.write_postings(rd.from_arrow(docs), rb + "/tf")
        pipeline.write_postings_positional(rd.from_arrow(docs), rb + "/pos")
        embed._ivf_assign_write(cent, rd.from_arrow(vecs), rb + "/ivf",
                                "embedding")
        pq.write_table(
            pa.table({
                "list_id": pa.array(np.arange(cent.shape[0]), pa.int64()),
                "centroid": pa.array(list(cent), pa.list_(pa.float64())),
            }),
            rb + "/ivf/_ivf_centroids.parquet",
        )
        ks = sorted(ent)
        pipeline.write_versioned(
            rb + "/ver",
            rd.from_arrow(pa.table({
                "k": pa.array(ks, pa.int64()),
                "val": pa.array([ent[k] for k in ks], pa.int64()),
            })),
            key="k",
        )
        want = run_queries(rb + "/tf", rb + "/pos", rb + "/ivf", rb + "/ver")
        for name, g, w in zip(("bm25", "phrase", "ivf", "version"),
                              got, want):
            assert g.equals(w), (ci, name)

    pipeline.vacuum_versions(verdir)
    with pytest.raises(ValueError):
        pipeline.read_version(verdir, 1)
    latest = pipeline.read_version(verdir).to_pandas()[["k", "val"]]
    ks = sorted(ent)
    assert list(latest.sort_values("k")["val"]) == [ent[k] for k in ks]
