"""Training-data stage tests: text analysis, dedup family, embeddings
ANN, multimodal stages — numpy/DuckDB oracles + planted-duplicate
recall checks."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from georay.stages import dedup, embed, multimodal, text


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data as rd

    return rd.read_parquet("/root/testdata/sf0.001/documents.parquet")


def test_token_count_matches_duckdb(docs_ds):
    got = text.add_token_count(docs_ds).select_columns(["doc_id", "n_tokens"]).to_pandas()
    con = duckdb.connect()
    exp = con.execute(
        r"SELECT doc_id, len(regexp_extract_all(text, '\S+')) AS n_tokens "
        "FROM read_parquet('/root/testdata/sf0.001/documents.parquet')"
    ).df()
    m = got.sort_values("doc_id").reset_index(drop=True)
    e = exp.sort_values("doc_id").reset_index(drop=True)
    assert (m["n_tokens"].to_numpy() == e["n_tokens"].to_numpy()).all()


def test_language_id_marker_texts(ray_session):
    import ray.data as rd

    samples = {
        "en": "the cat and the dog went to the market for a walk in the park",
        "de": "der hund und die katze sind nicht mit der bahn gefahren",
        "fr": "le chat et le chien sont dans la maison pour une heure",
        "es": "el perro y el gato es una historia de los campos",
        "zh": "这是一个关于猫和狗的故事在城市里",
    }
    ds = rd.from_items(
        [{"doc_id": i, "text": t} for i, t in enumerate(samples.values())]
    )
    out = text.add_language_id(ds).to_pandas().sort_values("doc_id")
    assert list(out["lang_pred"]) == list(samples.keys())


def test_quality_score_bounds(docs_ds):
    out = text.add_quality(docs_ds).to_pandas()
    assert ((out["quality"] >= 0) & (out["quality"] <= 1)).all()
    assert (out["n_tokens"] > 0).any()


def test_fingerprint_matches_duckdb_md5(docs_ds):
    got = text.add_fingerprint(docs_ds).select_columns(["doc_id", "fingerprint"]).to_pandas()
    con = duckdb.connect()
    exp = con.execute(
        r"SELECT doc_id, md5(trim(regexp_replace(lower(text), '\s+', ' ', 'g'))) AS fingerprint "
        "FROM read_parquet('/root/testdata/sf0.001/documents.parquet')"
    ).df()
    m = got.sort_values("doc_id").reset_index(drop=True)
    e = exp.sort_values("doc_id").reset_index(drop=True)
    assert (m["fingerprint"] == e["fingerprint"]).all()


def _docs_with_dups(ray_session):
    import ray.data as rd

    base = [
        "the quick brown fox jumps over the lazy dog again and again",
        "pack my box with five dozen liquor jugs before the party starts",
        "how vexingly quick daft zebras jump over the fence at dawn",
        "completely different content about spark and ray data pipelines",
        "yet another unrelated document mentioning arrow batches and cells",
    ]
    rows = []
    for i, t in enumerate(base):
        rows.append({"doc_id": i, "text": t})
    # exact dup of 0 and near dup of 1 (one word changed)
    rows.append({"doc_id": 100, "text": base[0]})
    rows.append(
        {"doc_id": 101, "text": base[1].replace("party", "dinner")}
    )
    # whitespace/case variant of 2 (exact after normalization)
    rows.append({"doc_id": 102, "text": "  " + base[2].upper() + "  "})
    return rd.from_items(rows)


def test_dedup_exact_text(ray_session):
    ds = _docs_with_dups(ray_session)
    out = dedup.dedup_exact_text(ds).to_pandas()
    kept = set(out["doc_id"])
    assert 0 in kept and 100 not in kept
    assert 2 in kept and 102 not in kept
    assert 101 in kept  # near-dup is NOT an exact dup


def test_minhash_dedup_finds_neardups(ray_session):
    ds = _docs_with_dups(ray_session)
    out = dedup.minhash_dedup(ds, threshold=0.6).to_pandas().set_index("doc_id")
    assert out.loc[100, "cluster_id"] == 0 and out.loc[100, "is_dup"]
    assert out.loc[101, "cluster_id"] == 1 and out.loc[101, "is_dup"]
    assert out.loc[102, "cluster_id"] == 2
    # unrelated docs are NOT merged
    assert out.loc[3, "cluster_id"] == 3
    assert out.loc[4, "cluster_id"] == 4


def test_simhash_candidates(ray_session):
    ds = _docs_with_dups(ray_session)
    pairs = dedup.simhash_candidates(ds).to_pandas()
    found = {(a, b) for a, b in zip(pairs["id_a"], pairs["id_b"])}
    # identical (and normalization-identical) docs have Hamming 0 → all
    # four bands collide; the ≤3-bit pigeonhole guarantee applies to them
    assert (0, 100) in found
    assert (2, 102) in found
    ham = pairs.set_index(["id_a", "id_b"])["hamming"]
    assert ham.loc[(0, 100)] == 0
    assert ham.loc[(2, 102)] == 0


def test_jaccard_shingles():
    assert dedup.jaccard_shingles("abcdefgh", "abcdefgh") == 1.0
    assert dedup.jaccard_shingles("abcdefgh", "zzzzzzzz") == 0.0


def test_shingles_batch_matches_per_doc():
    """The flat-buffer shingle lane equals ``_shingle_hashes`` row by
    row (and its signatures the per-doc path) on a seeded fuzz of
    case, whitespace runs, short/empty/null docs, non-ASCII rows mixed
    into ASCII batches, sliced, chunked and large_string columns."""
    rng = np.random.default_rng(11)
    ws = [" ", "  ", "\t", "\n", "\v", "\f", "\r", "\x1c", "\x1f", " \t\n "]
    words = ["Ab", "cd", "EFG", "h", "ijkl", "MnOp", "qr", "s", "TUVWXYZ"]
    non_ascii = ["Ä", "ß", "İ", "\xa0", "\u3000", "é"]
    fixed = [None, "", "a", "ab", "abcd", "   ", "\t\n\v\f\r\x1c\x1f", "ABC DEF",
             "  lead and trail  ", "x\x1c\x1dy", "Ä", " ß "]

    def rand_doc():
        parts = []
        for _ in range(int(rng.integers(0, 8))):
            parts.append(str(rng.choice(ws)) if rng.random() < 0.4 else str(rng.choice(words)))
            if rng.random() < 0.05:
                parts.append(str(rng.choice(non_ascii)))
        return "".join(parts)

    for trial in range(60):
        docs = fixed + [rand_doc() for _ in range(int(rng.integers(0, 40)))]
        docs = [docs[i] for i in rng.permutation(len(docs))]
        k = int(rng.integers(1, 8))
        ref = [dedup._shingle_hashes(t, k) for t in docs]
        cut = int(rng.integers(0, len(docs) + 1))
        columns = [
            docs,
            pa.array(docs, pa.string()),
            pa.array(docs, pa.large_string()),
            pa.array(["pad", None] + docs, pa.string()).slice(2),
            pa.chunked_array([pa.array(docs[:cut], pa.string()), pa.array(docs[cut:], pa.string())]),
        ]
        for col in columns:
            h, counts = dedup._shingles_batch(col, k)
            assert counts.tolist() == [r.shape[0] for r in ref], (trial, k)
            assert h.dtype == np.uint64
            assert np.array_equal(h, np.concatenate([np.empty(0, np.uint64)] + ref)), (trial, k)
        per_doc = np.stack(
            [dedup.minhash_signatures_batch((r, np.array([r.shape[0]])))[0] for r in ref]
        )
        assert np.array_equal(dedup.minhash_signatures_batch(docs, k), per_doc)
        # a tuple of str is a sequence of texts, not a (hashes, counts) pair
        assert np.array_equal(dedup.minhash_signatures_batch(tuple(docs), k), per_doc)
        pair = ("some text", "more text")
        assert np.array_equal(
            dedup.minhash_signatures_batch(pair, k), dedup.minhash_signatures_batch(list(pair), k)
        )
        a = rng.integers(0, len(docs), 30)
        b = rng.integers(0, len(docs), 30)
        jac = dedup._set_jaccard(h, counts, a, b)
        assert jac.tolist() == [
            dedup.jaccard_shingles(docs[i], docs[j], k) for i, j in zip(a, b)
        ]
    # repeats within a doc, in any order, collapse to its sorted set; 3
    # and 2 differ only in the low bit the packed sort key drops, so this
    # also takes the lexsort re-sort
    h, counts = dedup._sorted_unique_per_doc(
        np.array([3, 2, 3, 2, 7], np.uint64), np.array([4, 1])
    )
    assert h.tolist() == [2, 3, 7] and counts.tolist() == [2, 1]


@pytest.mark.parametrize("threshold", [0.8, 0.5, 0.15])
def test_verified_band_pairs_matches_reference(threshold):
    """The band reducer (low-byte prefilter, full estimate floor, exact
    Jaccard) equals plain pairing of each (band_hash, id)-sorted bucket's
    members ≤ 50 apart, kept when the full-signature estimate reaches
    the floor and ``jaccard_shingles`` reaches the threshold. The
    group's columns arrive sliced and chunked."""
    rng = np.random.default_rng(5)
    base = ["the quick brown fox jumps over", "lorem ipsum dolor sit amet", "abc", ""]
    docs = []
    for _ in range(160):
        t = list(str(rng.choice(base)))
        for _ in range(int(rng.integers(0, 3))):
            t.insert(int(rng.integers(0, len(t) + 1)), str(rng.choice(list("xyz "))))
        docs.append("".join(t))
    ids = rng.permutation(10_000)[:160].astype(np.int64)
    ids[7] = ids[3]  # a duplicated id keeps its own text
    hs = rng.integers(0, 3, 160).astype(np.int64)  # 3 large buckets
    sigs = dedup.minhash_signatures_batch(docs)
    group = pa.table(
        {
            "band_hash": pa.array(np.concatenate([[9], hs])),
            "doc_id": pa.array(np.concatenate([[0], ids])),
            "sig_low": pa.concat_arrays(
                [dedup._sig_low_column(sigs[:1]), dedup._sig_low_column(sigs)]
            ),
            "text": pa.array([""] + docs, pa.large_string()),
        }
    ).slice(1)
    group = pa.concat_tables([group.slice(0, 70), group.slice(70)])
    got = dedup._verified_band_pairs(group, "text", "doc_id", 5, threshold)
    order = np.lexsort((ids, hs))
    want = []
    for x in range(160):
        for y in range(x + 1, min(x + 51, 160)):
            i, j = order[x], order[y]
            if hs[i] != hs[j]:
                break
            if threshold - 0.18 > 0 and (sigs[i] == sigs[j]).mean() < threshold - 0.18:
                continue
            if dedup.jaccard_shingles(docs[i], docs[j]) >= threshold:
                want.append((min(ids[i], ids[j]), max(ids[i], ids[j])))
    assert len(want) > 100
    assert sorted(zip(got["id_a"].to_pylist(), got["id_b"].to_pylist())) == sorted(want)


def test_minhash_dedup_is_two_ray_data_executions(ray_session, ray_executions):
    """Band exchange with in-reducer verify feeding connected components
    is one execution; the label assign is the second."""
    calls = ray_executions
    ds = _docs_with_dups(ray_session)
    calls.clear()
    out = dedup.minhash_dedup(ds, threshold=0.6).materialize()
    assert len(calls) == 2
    assert out.count() == ds.count()


def test_minhash_dedup_same_output_at_any_block_count(ray_session):
    """The band exchange merges its input to one block per CPU: the
    output is bit-identical on 1-, 4- and 7-block inputs of the sf0.001
    documents with 60 planted one-character edits."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from georay import exchange

    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"])
    head = docs.slice(0, 60)
    edits = [t[:5] + ("x" if t[5] != "x" else "y") + t[6:] for t in head["text"].to_pylist()]
    docs = pa.concat_tables([docs, pa.table({
        "doc_id": pa.array(head["doc_id"].to_numpy() + 10_000, pa.int64()),
        "text": pa.array(edits, pa.string()),
    })])
    outs = []
    for k in (1, 4, 7):
        step = -(-docs.num_rows // k)
        ds = rd.from_arrow([docs.slice(i, step) for i in range(0, docs.num_rows, step)])
        assert ds.num_blocks() == k
        outs.append(exchange.collect(dedup.minhash_dedup(ds, threshold=0.8)).sort_by("doc_id"))
    assert outs[0].num_rows == docs.num_rows
    assert outs[0]["is_dup"].to_numpy(zero_copy_only=False).sum() >= 50
    assert outs[1].equals(outs[0]) and outs[2].equals(outs[0])


def test_connected_components_raises_when_unconverged(ray_session):
    """A 200-node path with seeded-random ids needs 122 rounds of
    min-label propagation (50 leave 2 labels): both the local loop and
    the broadcast loop (``local_edge_cutoff=0``) raise at
    ``max_rounds=50`` instead of returning unconverged labels, and the
    local loop resolves it given enough rounds."""
    import ray.data as rd

    from georay.stages.components import connected_components

    ids = np.random.default_rng(7).permutation(10_000)[:200].astype(np.int64)
    pairs = rd.from_arrow(pa.table({"id_a": pa.array(ids[:-1]), "id_b": pa.array(ids[1:])}))
    for cutoff in (2_000_000, 0):
        with pytest.raises(RuntimeError, match="max_rounds=50"):
            connected_components(pairs, max_rounds=50, local_edge_cutoff=cutoff)
    got = connected_components(pairs, max_rounds=200)
    assert got.num_rows == 200 and set(got["label"].to_pylist()) == {int(ids.min())}


@pytest.fixture(scope="module")
def embeddings_ds(ray_session):
    import ray.data as rd

    return rd.read_parquet("/root/testdata/sf0.001/embeddings.parquet")


def test_ann_brute_matches_numpy_oracle(embeddings_ds):
    tbl = pa.Table.from_pandas(embeddings_ds.to_pandas())
    vecs = embed._embedding_matrix(tbl)
    ids = tbl["vec_id"].to_numpy()
    q = vecs[:3]
    qids = ids[:3]
    got = embed.ann_brute_topk(embeddings_ds, q, qids, k=5).to_pandas()
    vn = embed._normalize(vecs)
    qn = embed._normalize(q)
    for t, qid in enumerate(qids):
        sims = vn @ qn[t]
        mask = ids != qid
        order = np.lexsort((ids[mask], -sims[mask]))[:5]
        exp_ids = ids[mask][order]
        got_ids = got[got["query_id"] == qid].sort_values("rank")["vec_id"].to_numpy()
        assert np.array_equal(got_ids, exp_ids), (qid, got_ids, exp_ids)


def test_ivf_recall_vs_brute(embeddings_ds):
    tbl = pa.Table.from_pandas(embeddings_ds.to_pandas())
    vecs = embed._embedding_matrix(tbl)
    ids = tbl["vec_id"].to_numpy()
    q = vecs[10:20]
    qids = ids[10:20]
    brute = embed.ann_brute_topk(embeddings_ds, q, qids, k=5, exclude_self=False).to_pandas()
    ivf = embed.ivf_ann_topk(
        embeddings_ds, q, qids, k=5, n_list=8, n_probe=4, exclude_self=False
    ).to_pandas()
    recalls = []
    for qid in qids:
        b = set(brute[brute["query_id"] == qid]["vec_id"])
        g = set(ivf[ivf["query_id"] == qid]["vec_id"])
        recalls.append(len(b & g) / len(b))
    assert np.mean(recalls) >= 0.75, recalls


def test_embedding_neardup_finds_planted(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(2)
    vecs = rng.standard_normal((200, 32)).astype(np.float32)
    vecs[150] = vecs[10] + rng.standard_normal(32).astype(np.float32) * 0.01
    vecs[151] = vecs[20]
    rows = [
        {"vec_id": i, "embedding": vecs[i].tolist()} for i in range(200)
    ]
    ds = rd.from_items(rows)
    pairs = embed.embedding_neardup_pairs(ds, threshold=0.98).to_pandas()
    found = {(a, b) for a, b in zip(pairs["id_a"], pairs["id_b"])}
    assert (10, 150) in found
    assert (20, 151) in found


def test_embedding_neardup_exact_dup_guaranteed(ray_session):
    """Content-major bucket sort: EVERY exact clone yields its direct
    sim-1.0 pair even when the ids are maximally separated and the bucket
    is shared with many other vectors (the embed_planted oracle's
    invariant)."""
    import ray.data as rd

    rng = np.random.default_rng(7)
    vecs = rng.standard_normal((300, 32)).astype(np.float32)
    rows = [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(300)]
    # clone every 10th vector under id+1_000_000 (id-sort would place the
    # clones 300+ positions away from their originals)
    clones = [
        {"vec_id": i + 1_000_000, "embedding": vecs[i].tolist()}
        for i in range(0, 300, 10)
    ]
    ds = rd.from_items(rows + clones)
    pairs = embed.embedding_neardup_pairs(ds, threshold=0.98).to_pandas()
    found = {(a, b) for a, b in zip(pairs["id_a"], pairs["id_b"])}
    for i in range(0, 300, 10):
        assert (i, i + 1_000_000) in found


def test_decode_resize_real(ray_session, tmp_path):
    import ray.data as rd

    from georay import generate

    generate.write_images_dataset(str(tmp_path), 200, seed=5, rows_per_file=100)
    ds = rd.read_parquet(str(tmp_path))
    out = multimodal.decode_resize(ds, size=32, concurrency=2).to_pandas()
    assert len(out) == 200
    assert (out["w"] == 32).all() and (out["h"] == 32).all()
    assert all(len(b) == 32 * 32 * 3 for b in out["bytes"])


def test_image_stats(ray_session, tmp_path):
    import ray.data as rd

    from georay import generate

    generate.write_images_dataset(str(tmp_path), 100, seed=6, rows_per_file=100)
    ds = rd.read_parquet(str(tmp_path))
    stage = multimodal.ImageStats()
    out = ds.map_batches(
        stage, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).to_pandas()
    # uniform random pixels → means near 127.5
    assert abs(out["mean_r"].mean() - 127.5) < 3


def test_audio_video_stubs(ray_session):
    batch = pa.table(
        {
            "sample_id": pa.array(["a"]),
            "bytes": pa.array([b"\x01" * 1024], pa.binary()),
            "sample_rate": pa.array([16000], pa.int32()),
        }
    )
    with pytest.raises(NotImplementedError):
        multimodal.AudioFeatureStub(fake=False)(batch)
    out = multimodal.AudioFeatureStub(fake=True)(batch)
    assert out.column_names == [
        "sample_id", "n_frames", "features", "rms", "zcr", "centroid_hz",
    ]
    assert len(out["features"][0]) == multimodal.AudioFeatureStub.N_MELS

    vbatch = pa.table(
        {
            "video_id": pa.array(["v"]),
            "bytes": pa.array([b"\x02" * 40960], pa.binary()),
            "fps": pa.array([30.0]),
        }
    )
    with pytest.raises(NotImplementedError):
        multimodal.VideoFrameSampleStub(fake=False)(vbatch)
    frames = multimodal.VideoFrameSampleStub(every_n=10, fake=True)(vbatch)
    assert frames.num_rows == 4
    assert frames.column_names == [
        "video_id", "frame_idx", "frame_bytes", "fmt", "w", "h",
    ]


def test_audio_features_real_rpcm(ray_session):
    import ray.data as rd

    from georay import media

    rate = 8000
    t = np.arange(rate, dtype=np.float64) / rate
    # a pure 440 Hz tone at half amplitude: rms = 0.5/sqrt(2), centroid ≈ 440
    tone = (np.sin(2 * np.pi * 440.0 * t) * 0.5 * 32767).astype(np.int16)
    data = media.encode_rawpcm(tone, rate)
    ds = rd.from_items(
        [{"sample_id": "tone", "bytes": data, "sample_rate": rate}]
    )
    out = ds.map_batches(
        multimodal.AudioFeatures,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,
        concurrency=1,
    ).to_pandas()
    assert abs(out.rms[0] - 0.5 / np.sqrt(2)) < 0.01
    assert abs(out.centroid_hz[0] - 440.0) < 15.0
    assert 0.05 < out.zcr[0] < 0.2  # 440 Hz at 8 kHz → 2*440/8000 = 0.11
    assert out.n_frames[0] == 1 + (rate - 1024) // 512


def test_video_frame_sampler_composes_with_image_stats(ray_session):
    import ray.data as rd

    from georay import images, media

    rng = np.random.default_rng(4)
    frames = rng.integers(0, 256, (25, 8, 8, 3), dtype=np.uint8)
    data = media.encode_rawvid(frames)
    ds = rd.from_items([{"video_id": "v0", "bytes": data, "fps": 25.0}])
    sampled = ds.map_batches(
        multimodal.VideoFrameSampler,
        fn_constructor_kwargs={"every_n": 10},
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,
        concurrency=1,
    ).to_pandas()
    assert sampled.frame_idx.tolist() == [0, 10, 20]
    # sampled frames are REAL ppm payloads: decode must round-trip exactly
    for _, row in sampled.iterrows():
        pix = images.decode_ppm(row.frame_bytes)
        assert np.array_equal(pix, frames[row.frame_idx])


def test_connected_components_distributed(ray_session):
    import ray.data as rd

    from georay.stages.components import connected_components

    # two components: a 6-node chain {1..6} and a pair {10,11}; 20 isolated
    pairs = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (10, 11)]
    ds = rd.from_items([{"id_a": a, "id_b": b} for a, b in pairs])
    out = {r["node"]: r["label"] for r in connected_components(ds).to_pylist()}
    assert out == {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 10: 10, 11: 10}
    # empty edge list -> empty labels
    empty = rd.from_arrow(
        pa.table({"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())})
    )
    assert connected_components(empty).num_rows == 0


def test_verify_pairs_distributed_matches_exact_jaccard(ray_session):
    import ray.data as rd

    ds = _docs_with_dups(ray_session)
    cand = rd.from_items(
        [
            {"id_a": 0, "id_b": 100},   # exact dup -> jaccard 1.0
            {"id_a": 1, "id_b": 101},   # near dup -> high jaccard
            {"id_a": 3, "id_b": 4},     # unrelated -> low jaccard
            {"id_a": 3, "id_b": 4},     # duplicate candidate row (deduped)
        ]
    )
    out = dedup.verify_pairs_distributed(ds, cand, threshold=0.6).take_all()
    got = {(r["id_a"], r["id_b"]): r["jaccard"] for r in out}
    assert got[(0, 100)] == 1.0
    assert (1, 101) in got and got[(1, 101)] >= 0.6
    assert (3, 4) not in got
    assert len(out) == 2


def test_embedding_neardup_degenerate_bucket_capped(ray_session):
    # VERDICT regression: a degenerate bucket of thousands of identical
    # vectors must NOT explode into O(m^2) pairs; the adjacent-W cap
    # bounds it at ~m*W while still chaining the bucket into one
    # connected component
    import time

    import ray.data as rd

    from georay.stages.components import connected_components

    rng = np.random.default_rng(5)
    base = rng.standard_normal(32).astype(np.float32)
    m = 3000
    rows = [{"vec_id": i, "embedding": base.tolist()} for i in range(m)]
    # plus a planted distinct near-dup pair far from the blob
    other = rng.standard_normal(32).astype(np.float32)
    rows.append({"vec_id": 10_000, "embedding": other.tolist()})
    rows.append({"vec_id": 10_001, "embedding": (other * 1.0001).tolist()})
    ds = rd.from_items(rows)
    t0 = time.perf_counter()
    pairs = embed.embedding_neardup_pairs(ds, threshold=0.98).to_pandas()
    dt = time.perf_counter() - t0
    assert len(pairs) <= m * 50 + 1
    assert len(pairs) >= m - 1  # enough adjacent links to chain the blob
    found = {(a, b) for a, b in zip(pairs["id_a"].tolist(), pairs["id_b"].tolist())}
    assert (10_000, 10_001) in found
    # the identical blob forms ONE component
    labels = connected_components(rd.from_pandas(pairs[["id_a", "id_b"]]))
    lab = {n: l for n, l in zip(labels["node"].to_pylist(), labels["label"].to_pylist())}
    assert all(lab[i] == 0 for i in range(m))
    assert dt < 60, f"degenerate bucket took {dt:.1f}s"


def test_ivf_pipeline_no_full_materialization(embeddings_ds):
    # the IVF path must stream: verify it returns sane top-k with a tiny
    # train sample (forcing sample << table) and k rows per query
    tbl = pa.Table.from_pandas(embeddings_ds.to_pandas())
    vecs = embed._embedding_matrix(tbl)
    ids = tbl["vec_id"].to_numpy()
    q = vecs[:3]
    qids = ids[:3]
    out = embed.ivf_ann_topk(
        embeddings_ds, q, qids, k=5, n_list=8, n_probe=8, train_sample=64,
        exclude_self=False,
    ).to_pandas()
    # probe-all (n_probe == n_list) makes IVF exact == brute force
    brute = embed.ann_brute_topk(
        embeddings_ds, q, qids, k=5, exclude_self=False
    ).to_pandas()
    for qid in qids:
        b = list(brute[brute["query_id"] == qid]["vec_id"])
        g = list(out[out["query_id"] == qid]["vec_id"])
        assert b == g


def test_token_histogram_matches_python(ray_session):
    import collections
    import re as _re

    import ray.data as rd

    from georay.stages.text import token_histogram

    texts = [
        "The quick  Brown fox", "jumps over\tthe lazy dog", "",
        "  the the THE  ", "fox\n\nfox",
    ]
    ds = rd.from_arrow(pa.table({"text": pa.array(texts)})).repartition(3)
    got = {r["token"]: r["n"] for r in token_histogram(ds).take_all()}
    exp = collections.Counter()
    for t in texts:
        exp.update(_re.sub(r"\s+", " ", t.lower()).strip(" ").split(" "))
    assert got == dict(exp)


def test_kmeans_fit_recovers_separated_clusters(ray_session):
    import ray.data as rd

    from georay.stages import embed as E

    rng = np.random.default_rng(4)
    true_c = np.array([[10, 0, 0, 0], [0, 10, 0, 0], [0, 0, 10, 0]], dtype=np.float64)
    lab = rng.integers(0, 3, 1500)
    X = true_c[lab] + rng.normal(0, 0.3, (1500, 4))
    t = pa.table({
        "vec_id": pa.array(np.arange(1500), pa.int64()),
        "embedding": pa.array([r.astype(np.float32) for r in X], pa.list_(pa.float32())),
    })
    ds = rd.from_arrow(t).repartition(5)

    centers = E.kmeans_fit(ds, k=3, n_iter=6, init_centers=true_c + rng.normal(0, 1, (3, 4)))
    want = np.stack([X[lab == i].mean(axis=0) for i in range(3)])
    perm = [int(np.argmin(((want - c) ** 2).sum(axis=1))) for c in centers]
    assert sorted(perm) == [0, 1, 2]
    # exact per-cluster means up to float32 storage noise
    assert np.abs(centers - want[perm]).max() < 1e-6

    asg = E.kmeans_assign(ds, centers).to_pandas().sort_values("vec_id")
    assert (np.array([perm[c] for c in asg["center_id"]]) == lab).all()


def test_dct_phash_robust_neardup(ray_session):
    import ray.data as rd

    from georay import images as im
    from georay.stages.multimodal import add_dct_phash

    rng = np.random.default_rng(8)
    rows = []
    for i in range(30):
        pix = rng.integers(0, 255, (40, 56, 3)).astype(np.uint8)
        rows.append((f"im{i:03d}", pix))
        if i % 5 == 0:  # planted noisy near-dup
            noisy = np.clip(
                pix.astype(np.int16) + rng.integers(-6, 6, pix.shape), 0, 255
            ).astype(np.uint8)
            rows.append((f"im{i:03d}_dup", noisy))
    t = pa.table({
        "image_id": pa.array([r[0] for r in rows]),
        "bytes": pa.array([im.encode_ppm(r[1]) for r in rows], pa.binary()),
        "fmt": pa.array(["ppm"] * len(rows)),
        "w": pa.array([r[1].shape[1] for r in rows], pa.int32()),
        "h": pa.array([r[1].shape[0] for r in rows], pa.int32()),
    })
    ds = rd.from_arrow(t).repartition(3)
    got = {r["image_id"]: r["dct_phash"] for r in add_dct_phash(ds, concurrency=2).take_all()}
    ham = lambda a, b: bin((a ^ b) & ((1 << 64) - 1)).count("1")
    for i in range(0, 30, 5):
        d = ham(got[f"im{i:03d}"], got[f"im{i:03d}_dup"])
        assert d <= 6, (i, d)
    # unrelated pairs stay far
    far = ham(got["im001"], got["im002"])
    assert far > 10, far


def test_connected_components_local_matches_distributed(ray_session):
    import ray.data as rd

    from georay.stages.components import connected_components

    edges = [(100 + i, 101 + i) for i in range(15)]
    edges += [(500, x) for x in range(510, 520)] + [(7, 9), (9, 3)]
    t = pa.table({"id_a": pa.array([a for a, _ in edges], pa.int64()),
                  "id_b": pa.array([b for _, b in edges], pa.int64())})
    ds = rd.from_arrow(t).repartition(3)
    loc = connected_components(ds)
    dist = connected_components(ds, local_edge_cutoff=0)
    dl = dict(zip(loc["node"].to_pylist(), loc["label"].to_pylist()))
    dd = dict(zip(dist["node"].to_pylist(), dist["label"].to_pylist()))
    assert dl == dd
    assert dl[115] == 100 and dl[519] == 500 and dl[7] == 3 and dl[9] == 3


def test_doc_top_tfidf_matches_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from georay.stages.text import doc_top_tfidf

    texts = [
        "the cat sat on the mat", "dogs and cats and birds",
        "the the the rare unicorn", "mat mat mat dog", "a b c a b a",
        "", "  spaced   out   words  ",
    ]
    t = pa.table({"doc_id": pa.array(np.arange(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    ds = rd.from_arrow(t).repartition(3)
    got = {r["doc_id"]: (r["top_token"], r["tf"]) for r in doc_top_tfidf(ds).take_all()}
    con = duckdb.connect()
    con.register("documents", t.to_pandas())
    sql = r"""
    WITH toks AS (
      SELECT doc_id, unnest(string_split(trim(regexp_replace(lower(text),'\s+',' ','g')),' ')) AS token
      FROM documents
    ),
    tf AS (SELECT doc_id, token, COUNT(*) AS tf FROM toks GROUP BY doc_id, token),
    df AS (SELECT token, COUNT(DISTINCT doc_id) AS df FROM toks GROUP BY token),
    n AS (SELECT COUNT(*) AS n FROM documents),
    scored AS (
      SELECT tf.doc_id, tf.token, tf.tf, tf.tf * LN(CAST(n.n AS DOUBLE)/df.df) AS s
      FROM tf JOIN df USING(token) CROSS JOIN n
    )
    SELECT doc_id, token, tf FROM (
      SELECT doc_id, token, tf,
             ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY s DESC, token) rn
      FROM scored
    ) WHERE rn = 1
    """
    want = {r[0]: (r[1], r[2]) for r in con.execute(sql).fetchall()}
    assert got == want


def test_ivf_distributed_train_recall(ray_session):
    import ray.data as rd

    from georay.stages import embed as E

    rng = np.random.default_rng(14)
    vecs = rng.normal(size=(800, 16)).astype(np.float32)
    t = pa.table({"vec_id": pa.array(np.arange(800), pa.int64()),
                  "embedding": pa.array([v for v in vecs], pa.list_(pa.float32()))})
    ds = rd.from_arrow(t).repartition(4)
    q = vecs[:5].astype(np.float64)
    qids = np.arange(5)
    brute = E.ann_brute_topk(ds, q, qids, k=5).to_pandas()
    bset = brute.groupby("query_id")["vec_id"].apply(set).to_dict()
    ivf = E.ivf_ann_topk(ds, q, qids, k=5, n_list=8, n_probe=8, train="distributed").to_pandas()
    iset = ivf.groupby("query_id")["vec_id"].apply(set).to_dict()
    # probe-all must be exact vs brute regardless of the trainer
    for k in bset:
        assert bset[k] == iset[k]


def test_token_histogram_null_and_empty_texts(ray_session):
    import ray.data as rd

    from georay.stages.text import token_histogram

    t = pa.table({"text": pa.array(["a b", None, "", "a"])})
    got = {r["token"]: r["n"] for r in token_histogram(
        rd.from_arrow(t).repartition(2)).take_all()}
    # null drops (SQL unnest of NULL list yields nothing); "" yields one
    # empty token (string_split('') semantics, both sides)
    assert got == {"a": 2, "b": 1, "": 1}


def test_repetition_batch_edges():
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "text": pa.array(
                ["a b a b c", "  x  ", "", "w w w w", "one two three"]
            ),
        }
    )
    out = text.repetition_batch(t).to_pydict()
    assert out["n_tok"] == [5, 1, 1, 4, 3]
    assert out["n_distinct"] == [3, 1, 1, 1, 3]
    assert out["top_frac"] == [0.4, 1.0, 1.0, 1.0, pytest.approx(0.333333)]
    # doc 1: 2-grams (a,b)(b,a)(a,b)(b,c): repeated type covers 2 of 4
    assert out["dup2_frac"] == [0.5, 0.0, 0.0, 1.0, 0.0]


def test_redact_batch_counts_and_text():
    t = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(["the key and the hash key", "keys are not keyx"]),
        }
    )
    out = text.redact_batch(t).to_pydict()
    assert out["n_redacted"] == [3, 0]
    assert out["redacted"][0] == "the <REDACTED> and the <REDACTED> <REDACTED>"
    assert out["redacted"][1] == "keys are not keyx"


def test_chunk_batch_sliding_windows():
    docs = ["abcdefghij", "", "x", "hello world this is a doc"]
    t = pa.table(
        {"doc_id": pa.array([1, 2, 3, 4], pa.int64()), "text": pa.array(docs)}
    )
    out = text.chunk_batch(t, size=5, stride=3)
    for i, d in enumerate(docs):
        exp = [(j, d[s:s + 5]) for j, s in enumerate(range(0, len(d), 3))]
        got = [
            (ci, ch)
            for di, ci, ch in zip(
                out["doc_id"].to_pylist(),
                out["chunk_idx"].to_pylist(),
                out["chunk"].to_pylist(),
            )
            if di == i + 1
        ]
        assert got == exp, (d, got, exp)
    # sliced batch (nonzero Arrow array offset): same answer
    out2 = text.chunk_batch(t.slice(1), size=5, stride=3)
    assert out2["doc_id"].to_pylist()[0] == 3


def test_chunk_documents_distributed(docs_ds):
    got = text.chunk_documents(docs_ds, size=120, stride=90).to_pandas()
    con = duckdb.connect()
    exp = con.execute(
        """SELECT doc_id, chunk_idx,
                  substring(text, CAST(chunk_idx*90+1 AS BIGINT), 120) AS chunk
           FROM (SELECT doc_id, text, UNNEST(generate_series(0,
                   CAST(ceil(length(text)/90.0) AS BIGINT) - 1)) AS chunk_idx
                 FROM read_parquet('/root/testdata/sf0.001/documents.parquet'))"""
    ).df()
    m = got.sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)
    e = exp.sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)
    assert len(m) == len(e)
    assert (m["chunk"] == e["chunk"]).all()


def test_patch_images_exact_reconstruction(ray_session):
    import ray.data as rd

    from georay import images as im
    from georay.stages.multimodal import PatchImages, patch_images

    rng = np.random.default_rng(11)
    rows = []
    for i, (w, h, fmt) in enumerate(
        [(16, 24, "ppm"), (32, 16, "bmp"), (64, 64, "rawrgb"), (8, 8, "ppm")]
    ):
        pix = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        rows.append((f"img{i}", im.encode_image(pix, fmt), fmt, w, h, pix))
    t = pa.table(
        {
            "image_id": pa.array([r[0] for r in rows]),
            "bytes": pa.array([r[1] for r in rows], pa.binary()),
            "fmt": pa.array([r[2] for r in rows]),
            "w": pa.array([r[3] for r in rows], pa.int32()),
            "h": pa.array([r[4] for r in rows], pa.int32()),
        }
    )
    out = patch_images(rd.from_arrow(t).repartition(2), patch=8,
                       concurrency=2).to_pandas()
    for rid, _, fmt, w, h, pix in rows:
        sub = out[out["image_id"] == rid]
        gr, gc = h // 8, w // 8
        assert len(sub) == gr * gc
        rec = np.zeros((gr * 8, gc * 8, 3), np.uint8)
        for _, prow in sub.iterrows():
            r, c = int(prow["patch_row"]), int(prow["patch_col"])
            rec[r * 8:(r + 1) * 8, c * 8:(c + 1) * 8] = np.frombuffer(
                prow["patch_bytes"], np.uint8
            ).reshape(8, 8, 3)
        if fmt == "qoil":
            continue  # lossy
        assert (rec == pix[: gr * 8, : gc * 8]).all()
    # patch_mean matches the bytes
    b0 = out.iloc[0]
    assert abs(
        np.frombuffer(b0["patch_bytes"], np.uint8).mean() - b0["patch_mean"]
    ) < 1e-12


def test_doc_rare_bigrams_planted(ray_session):
    import ray.data as rd

    # repeated phrase across docs => common bigrams; one doc carries a
    # unique phrase => its bigrams are rare
    docs = [
        "the quick brown fox jumps",
        "the quick brown fox sleeps",
        "the quick brown fox jumps",
        "zyx wvu tsr qpo",        # all 3 bigrams globally unique
        "solo",                    # 1 token -> no bigrams -> absent
        "",                        # empty -> absent
    ]
    t = pa.table({
        "doc_id": pa.array(np.arange(len(docs), dtype=np.int64)),
        "text": pa.array(docs),
    })
    out = text.doc_rare_bigrams(
        rd.from_arrow(t).repartition(3)
    ).to_pandas().set_index("doc_id")
    assert set(out.index) == {0, 1, 2, 3}
    assert out.loc[3, "n_bigrams"] == 3 and out.loc[3, "n_rare"] == 3
    # 'fox jumps' occurs twice (docs 0,2) -> not rare; 'fox sleeps' once -> rare
    assert out.loc[1, "n_rare"] == 1
    assert out.loc[0, "n_rare"] == 0 and out.loc[2, "n_rare"] == 0
    assert (out["n_bigrams"].loc[[0, 1, 2]] == 4).all()


def test_decontaminate_planted_overlap(ray_session):
    import ray.data as rd

    # benchmark doc shares one exact 5-token span with corpus doc 10;
    # corpus doc 11 is fully novel; doc 12 IS the benchmark text.
    bench = rd.from_items(
        [{"doc_id": 0, "text": "alpha beta gamma delta epsilon zeta"}]
    )
    corpus = rd.from_items(
        [
            {"doc_id": 10, "text": "xx alpha beta gamma delta epsilon yy"},
            {"doc_id": 11, "text": "one two three four five"},
            {"doc_id": 12, "text": "alpha beta gamma delta epsilon zeta"},
            {"doc_id": 13, "text": "tiny"},  # < 3 tokens -> no row
        ]
    )
    out = (
        text.decontaminate(corpus, bench, n=3)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert list(out.index) == [10, 11, 12]
    # doc 10: 5 trigrams, 3 of which ("alpha beta gamma" .. "gamma
    # delta epsilon") are benchmark trigrams
    assert out.loc[10, "n_ngrams"] == 5 and out.loc[10, "n_hits"] == 3
    assert out.loc[11, "n_ngrams"] == 3 and out.loc[11, "n_hits"] == 0
    assert out.loc[12, "n_ngrams"] == 4 and out.loc[12, "n_hits"] == 4


def test_doc_duplicate_spans_planted(ray_session):
    import ray.data as rd

    boiler = "B" * 59  # >= width+stride-1 = 29 -> guaranteed window hit
    rows = [
        {"doc_id": 0, "text": "x" * 7 + boiler + "u" * 23},
        {"doc_id": 1, "text": "q" * 13 + boiler + "v" * 31},
        {"doc_id": 2, "text": "totally unique text with no repeats at all."},
        {"doc_id": 3, "text": "short"},  # < width -> no row
    ]
    out = (
        dedup.doc_duplicate_spans(
            rd.from_items(rows), width=20, stride=10, n_buckets=8
        )
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert list(out.index) == [0, 1, 2]
    # the shared 59-char boilerplate block is caught on BOTH copies
    assert out.loc[0, "n_dup"] > 0 and out.loc[1, "n_dup"] > 0
    # doc 0 itself also repeats 20-char runs of 'B' at several offsets;
    # the unique doc registers nothing
    assert out.loc[2, "n_dup"] == 0
    assert (out["n_spans"] >= out["n_dup"]).all()


def test_pq_ann_recall_and_code_shape(embeddings_ds):
    tbl = pa.Table.from_pandas(embeddings_ds.to_pandas())
    vecs = embed._embedding_matrix(tbl)
    ids = tbl["vec_id"].to_numpy()
    q = vecs[10:20]
    qids = ids[10:20]
    brute = embed.ann_brute_topk(
        embeddings_ds, q, qids, k=5, exclude_self=False
    ).to_pandas()
    pq = embed.pq_ann_topk(
        embeddings_ds, q, qids, k=5, exclude_self=False
    ).to_pandas()
    recalls = []
    for qid in qids:
        b = set(brute[brute["query_id"] == qid]["vec_id"])
        g = set(pq[pq["query_id"] == qid]["vec_id"])
        recalls.append(len(b & g) / len(b))
    assert np.mean(recalls) >= 0.8, recalls
    # sims are EXACT (re-ranked): every reported sim matches brute where
    # the same (query, vec) pair appears in both
    merged = pq.merge(brute, on=["query_id", "vec_id"], suffixes=("_pq", "_br"))
    assert np.allclose(merged["sim_pq"], merged["sim_br"])
    # encode plumbing: m uint8 codes per vector, id-stable
    books = embed.pq_train(vecs, m=8, ks=16)
    enc = embed.pq_encode(embeddings_ds, books, keep_embedding=False)
    sch = enc.schema().base_schema
    assert sch.field("pq_code").type == pa.list_(pa.uint8(), 8)
    assert enc.count() == len(ids)


def test_augment_deterministic_and_invariants(ray_session):
    import ray.data as rd

    from georay import images as im
    from georay.stages.multimodal import Augment, augment_images

    rng = np.random.default_rng(5)
    rows = []
    for i in range(24):
        w, h = (16, 12) if i % 2 else (10, 10)
        pix = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        rows.append(
            {"image_id": f"img{i:04d}", "bytes": im.encode_ppm(pix),
             "fmt": "ppm", "w": w, "h": h}
        )
    ds = rd.from_items(rows)
    a1 = augment_images(ds, seed=1, concurrency=None).to_pandas()
    a2 = augment_images(ds, seed=1, concurrency=None).to_pandas()
    # deterministic: identical bytes on a rerun
    m = a1.sort_values("image_id").reset_index(drop=True)
    n = a2.sort_values("image_id").reset_index(drop=True)
    assert (m["aug_op"] == n["aug_op"]).all()
    assert all(x == y for x, y in zip(m["bytes"], n["bytes"]))
    # a different seed produces a different epoch somewhere
    b = augment_images(ds, seed=2, concurrency=None).to_pandas()
    assert not (b.sort_values("image_id")["aug_op"].to_numpy() == m["aug_op"].to_numpy()).all() \
        or not all(x == y for x, y in zip(b.sort_values("image_id")["bytes"], m["bytes"]))
    # geometric invariants: rot90 swaps dims; flips preserve pixel
    # multiset (delta shifts all values equally before clipping)
    src = {r["image_id"]: r for r in rows}
    ops_seen = set()
    for _, row in m.iterrows():
        s = src[row["image_id"]]
        ops_seen.add(row["aug_op"])
        if row["aug_op"] == "rot90":
            assert (row["w"], row["h"]) == (s["h"], s["w"])
        else:
            assert (row["w"], row["h"]) == (s["w"], s["h"])
        assert len(row["bytes"]) == row["w"] * row["h"] * 3
    assert len(ops_seen) >= 3  # hash spreads ops across the batch


def test_logreg_fit_separable_and_deterministic(ray_session):
    import ray.data as rd

    from georay.stages import classify

    rng = np.random.default_rng(9)
    n = 2000
    x1 = rng.standard_normal(n) + np.where(np.arange(n) % 2 == 0, 2.0, -2.0)
    x2 = rng.standard_normal(n)
    y = (np.arange(n) % 2 == 0).astype(np.int64)
    ds = rd.from_items(
        [{"f1": float(a), "f2": float(b), "y": int(c)}
         for a, b, c in zip(x1, x2, y)]
    )
    m1 = classify.logreg_fit(ds, ["f1", "f2"], "y", n_iter=25, lr=1.0)
    m2 = classify.logreg_fit(ds, ["f1", "f2"], "y", n_iter=25, lr=1.0)
    # full-batch GD: bit-reproducible across runs
    assert np.array_equal(m1["w"], m2["w"]) and m1["b"] == m2["b"]
    # converging: loss decreases and ends well under chance (ln 2)
    assert m1["losses"][-1] < m1["losses"][0]
    assert m1["losses"][-1] < 0.3
    scored = classify.logreg_predict(ds, m1, ["f1", "f2"]).to_pandas()
    acc = ((scored["score"] > 0.5).astype(int) == scored["y"]).mean()
    assert acc >= 0.9, acc
    # the informative feature dominates
    assert abs(m1["w"][0]) > 3 * abs(m1["w"][1])


def test_verify_pairs_duplicated_doc_ids_no_same_side_match(ray_session):
    """ADVICE regression: with a DUPLICATED doc id in the corpus, the
    slot walk must pair strictly across sides — never compare two copies
    of the same doc and emit the cross pair as verified."""
    import ray.data as rd

    same = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    other = "one two three four five six seven eight nine ten"
    ds = rd.from_items(
        [
            {"doc_id": 1, "text": same},
            {"doc_id": 1, "text": same},   # duplicated id
            {"doc_id": 2, "text": other},
        ]
    )
    cand = rd.from_items([{"id_a": 1, "id_b": 2}])
    out = dedup.verify_pairs_distributed(ds, cand, threshold=0.8).take_all()
    # the old adjacent walk compared copy-vs-copy of doc 1 (jaccard 1.0)
    # and emitted (1, 2); the true cross jaccard is ~0
    assert out == []


def test_connected_components_partitioned_matches_broadcast(ray_session, long_graphs):
    """The partitioned-label twin (labels never on the driver) must be
    bit-equal to the broadcast plan — random graph plus a long path
    (multiple propagation rounds) plus singleton-free isolated edges —
    and to the local plan on the long-diameter graphs."""
    import ray.data as rd

    from georay.stages.components import (
        connected_components,
        connected_components_partitioned,
    )

    rng = np.random.default_rng(11)
    a = rng.integers(0, 400, size=600).astype(np.int64)
    b = rng.integers(0, 400, size=600).astype(np.int64)
    # a 30-node path through high ids forces >1 round without jumping
    path = np.arange(1000, 1030, dtype=np.int64)
    ia = np.concatenate([a, path[:-1]])
    ib = np.concatenate([b, path[1:]])
    pairs = rd.from_arrow(
        pa.table({"id_a": pa.array(ia), "id_b": pa.array(ib)})
    )
    want = connected_components(pairs, local_edge_cutoff=0)
    got = (
        connected_components_partitioned(pairs, n_buckets=8)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    wantp = want.to_pandas().sort_values("node").reset_index(drop=True)
    assert got.equals(wantp)
    # path collapsed to one component labeled by its min node
    assert (got[got["node"].isin(path)]["label"] == 1000).all()

    for name, (a, b) in long_graphs.items():
        pairs = rd.from_arrow(pa.table({"id_a": pa.array(a), "id_b": pa.array(b)}))
        want = connected_components(pairs).to_pandas().sort_values("node")
        got = (
            connected_components_partitioned(pairs, n_buckets=8)
            .to_pandas().sort_values("node")
        )
        assert got.reset_index(drop=True).equals(want.reset_index(drop=True)), name
        assert got["label"].nunique() == (2 if name == "two_paths" else 1), name


def test_connected_components_partitioned_resolves_a_long_path(
    ray_session, ray_executions
):
    """A 200-node path with seeded-random ids resolves to one label in
    O(log n) supersteps: at most 40 Ray Data executions at the default
    ``max_rounds`` (min-label propagation took 2 per unit of diameter,
    about 400)."""
    import ray.data as rd

    from georay.stages.components import connected_components_partitioned

    ids = np.random.default_rng(7).permutation(100_000)[:200].astype(np.int64)
    pairs = rd.from_arrow(pa.table({"id_a": pa.array(ids[:-1]), "id_b": pa.array(ids[1:])}))
    got = connected_components_partitioned(pairs, n_buckets=4).to_pandas()
    assert len(got) == 200 and set(got["label"]) == {int(ids.min())}
    assert len(ray_executions) <= 40


def test_connected_components_partitioned_raises_when_unconverged(ray_session):
    """A component whose diameter needs more than ``max_rounds`` rounds
    raises instead of returning half-propagated labels."""
    import ray.data as rd

    from georay.stages.components import connected_components_partitioned

    path = np.arange(6, dtype=np.int64)
    pairs = rd.from_arrow(
        pa.table({"id_a": pa.array(path[:-1]), "id_b": pa.array(path[1:])})
    )
    with pytest.raises(RuntimeError, match="max_rounds=2"):
        connected_components_partitioned(pairs, max_rounds=2, n_buckets=4)


def test_ivf_index_pruned_search_matches_masked(ray_session, tmp_path):
    """Partition-pruned IVF search must return the same ids/ranks as the
    masking scan (same centroids, same probes) while reading strictly
    fewer partitions and bytes."""
    import ray.data as rd

    from georay.stages import embed as es

    rng = np.random.default_rng(3)
    n, d = 2000, 16
    vecs = rng.normal(size=(n, d))
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(n), pa.int64()),
            "embedding": pa.array(list(vecs), pa.list_(pa.float64())),
        }
    )
    ds = rd.from_arrow(tbl)
    q = vecs[[5, 77, 300]]
    qids = np.array([5, 77, 300], dtype=np.int64)
    idx = str(tmp_path / "ivf")
    es.ivf_build_index(ds, idx, n_list=16)
    got, stats = es.ivf_search_index(
        idx, q, qids, k=5, n_probe=4, exclude_self=True, return_stats=True
    )
    masked = es.ivf_ann_topk(
        ds, q, qids, k=5, n_list=16, n_probe=4, exclude_self=True
    )
    g, m = got.to_pandas(), masked.to_pandas()
    assert g["query_id"].tolist() == m["query_id"].tolist()
    assert g["vec_id"].tolist() == m["vec_id"].tolist()
    assert np.allclose(g["sim"], m["sim"], rtol=0, atol=1e-12)
    assert stats["lists_scanned"] < stats["lists_total"]
    assert 0 < stats["bytes_scanned"] < stats["bytes_total"]


def test_pmi_collocations_known_corpus(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from georay.stages.text import pmi_collocations

    # "new york" appears 6x adjacent; "the the" 6x but 'the' is common
    docs = ["new york " * 6 + "the cat " + "the dog " + "the fox " * 2,
            "the end " * 2]
    ds = rd.from_arrow(pa.table({"text": pa.array(docs)}))
    out = pmi_collocations(ds, min_count=3, k=5).to_pandas()
    top = out.iloc[0]
    assert (top["w1"], top["w2"]) == ("new", "york") or (
        (top["w1"], top["w2"]) == ("york", "new")
    )
    # every returned pair meets the count floor, ranking is descending
    assert (out["c_xy"] >= 3).all()
    assert list(out["pmi_q"]) == sorted(out["pmi_q"], reverse=True)


def test_token_label_stats(ray_session):
    import ray.data as rd

    from georay.stages.text import token_label_stats

    tbl = pa.table(
        {
            "text": pa.array(
                ["cat dog", "cat cat bird", "dog dog", "bird cat"]
            ),
            "y": pa.array([1, 1, 0, 0], pa.int64()),
        }
    )
    out = (
        token_label_stats(
            rd.from_arrow(tbl),
            lambda b: b["y"].to_numpy(zero_copy_only=False),
            min_df=2,
        )
        .to_pandas().sort_values("token").reset_index(drop=True)
    )
    # doc presence: cat -> docs 1,2 (pos), 4 (neg); dog -> 1 (pos), 3 (neg);
    # bird -> 2 (pos), 4 (neg). P=2, N=2.
    # cat: n11=2 n10=1 -> diff = 2*(2-1) - 1*(2-2) = 2 -> 4
    # dog: n11=1 n10=1 -> diff = 1*1 - 1*1 = 0
    # bird: n11=1 n10=1 -> 0
    assert out.values.tolist() == [
        ["bird", 1, 1, 0],
        ["cat", 2, 1, 4],
        ["dog", 1, 1, 0],
    ]


def test_token_label_stats_exact_budget(ray_session):
    import pytest as _pytest
    import ray.data as rd

    from georay.stages.text import token_label_stats

    tbl = pa.table(
        {"text": pa.array(["a", "b"]), "y": pa.array([1, 0], pa.int64())}
    )
    with _pytest.raises(ValueError, match="budget"):
        token_label_stats(
            rd.from_arrow(tbl),
            lambda b: b["y"].to_numpy(zero_copy_only=False),
            max_docs_exact=1,
        ).to_pandas()


def test_source_ngram_overlap_known(ray_session):
    import ray.data as rd

    from georay.stages.text import source_ngram_overlap

    tbl = pa.table(
        {
            "text": pa.array(
                [
                    "a b c d",      # s1: grams {a b c, b c d}
                    "a b c x",      # s2: grams {a b c, b c x}
                    "b c d e",      # s3: grams {b c d, c d e}
                    "a b c d",      # s1 dup doc: no new grams
                    "",             # s2 empty doc: no grams
                ]
            ),
            "source": pa.array(["s1", "s2", "s3", "s1", "s2"]),
        }
    )
    out = (
        source_ngram_overlap(rd.from_arrow(tbl), n_buckets=4)
        .to_pandas().sort_values(["src_a", "src_b"]).reset_index(drop=True)
    )
    # s1∩s2 = {a b c}; s1∩s3 = {b c d}; s2∩s3 = {} (no row)
    assert out.values.tolist() == [["s1", "s2", 1], ["s1", "s3", 1]]


def test_editdist_join_qgram_matches_brute(ray_session):
    """r5: exact Levenshtein-≤k self-join (positional-multiset q-gram
    count filter + short-band sentinel + batch-vectorized DP verify)
    vs a per-pair brute force, including empty strings, sub-q-gram
    shorts, case folding, and the short×near-short band a naive
    short-bucket design would miss."""
    import itertools

    import ray.data as rd

    from georay.stages.text import editdist_join_qgram

    def lev(a, b):
        la, lb = len(a), len(b)
        dp = list(range(lb + 1))
        for i in range(1, la + 1):
            prev = dp[0]
            dp[0] = i
            for j in range(1, lb + 1):
                cur = dp[j]
                dp[j] = min(dp[j] + 1, dp[j - 1] + 1,
                            prev + (a[i - 1] != b[j - 1]))
                prev = cur
        return dp[lb]

    strs = [
        "ring", "rings", "rang", "widget", "widgit", "bolt", "boltt",
        "", "a", "ab", "abc", "abcd", "abcde", "abcdef", "smallring",
        "small ring", "smal ring", "red widget", "RED WIDGETT",
        "blue bolt", "blu bolt",
    ] + [f"gadget{i}" for i in range(12)] + [f"gadget{i}x" for i in range(6)]
    t = pa.table({
        "id": pa.array(np.arange(len(strs)), pa.int64()),
        "name": pa.array(strs, pa.string()),
    })
    for k in (1, 2):
        got = editdist_join_qgram(
            rd.from_arrow(t).repartition(3), "id", "name", k=k
        ).to_pandas()
        g = set(zip(got["id_a"], got["id_b"], got["dist"]))
        want = set()
        for (i, a), (j, b) in itertools.combinations(enumerate(strs), 2):
            d = lev(a.lower(), b.lower())
            if d <= k:
                want.add((i, j, d))
        assert g == want, (k, len(g ^ want))

    # hot-gram guard raises loudly
    hot = pa.table({
        "id": pa.array(np.arange(50), pa.int64()),
        "name": pa.array(["aaaaaaaaaa"] * 50, pa.string()),
    })
    with pytest.raises(Exception, match="max_gram_group"):
        editdist_join_qgram(
            rd.from_arrow(hot), "id", "name", k=1, max_gram_group=10
        ).to_pandas()


def test_markov_transitions_pins(ray_session):
    """r5: per-key bigram counts — key boundaries never pair, NULL
    states drop, tiebreak orders equal timestamps."""
    import ray.data as rd

    from georay import ops

    t = pa.table({
        "u": pa.array([1, 1, 1, 2, 2, 3], pa.int64()),
        "ts": pa.array([1, 2, 3, 1, 2, 1], pa.int64()),
        "e": pa.array(["a", "b", "a", "a", None, "c"], pa.string()),
        "id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
    })
    out = ops.markov_transitions(
        rd.from_arrow(t), key="u", ts="ts", state_col="e",
        order_tiebreak="id",
    ).to_pandas()
    got = {(r.from_state, r.to_state): r.c for r in out.itertuples()}
    # user1: a->b, b->a; user2's pair has a NULL end (drops); user3 lone
    assert got == {("a", "b"): 1, ("b", "a"): 1}

    # NULL keys form ONE partition, as under the SQL twin's PARTITION BY
    from georay import tpch

    ev = pa.table({
        "user_id": pa.array([None, 1, None, 1, None, 2, None, 2], pa.int64()),
        "ts": pa.array([5, 1, 2, 2, 9, 1, 2, 3], pa.int64()),
        "event_id": pa.array([1, 2, 3, 4, 5, 6, 7, 8], pa.int64()),
        "event_type": pa.array(["a", "b", "c", "a", "b", "c", "a", "a"]),
    })
    out = ops.markov_transitions(
        rd.from_arrow(ev), key="user_id", ts="ts", state_col="event_type",
        order_tiebreak="event_id",
    ).to_pandas()
    got = {(r.from_state, r.to_state): r.c for r in out.itertuples()}
    events = ev  # noqa: F841 — the table DuckDB's SQL reads
    ref = duckdb.sql(tpch.SQL_MARKOV).df()
    want = {(r.from_state, r.to_state): r.c for r in ref.itertuples()}
    # NULL-key run by (ts, event_id): c -> a -> a -> b; u1: b -> a; u2: c -> a
    assert want == {("c", "a"): 2, ("a", "a"): 1, ("a", "b"): 1, ("b", "a"): 1}
    assert got == want
