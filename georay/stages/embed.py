"""Similarity search over embedding columns (``list<float>``).

- Brute-force cosine top-k: the baseline — broadcast query matrix, one
  numpy matmul per batch, per-batch partial top-k, tiny final merge.
- IVF (inverted-file) ANN: k-means centroids from a driver-side sample,
  per-batch cluster assignment, probe the nearest ``n_probe`` clusters
  only — the scale path (cuts the scanned fraction to n_probe/n_list).
- Hyperplane-LSH near-dup: random-projection sign buckets → candidate
  pairs → exact cosine verification.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from georay import exchange
from georay.exchange import co_shuffle


def _embedding_matrix(batch: pa.Table, col: str = "embedding") -> np.ndarray:
    arr = batch[col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    dim = len(arr[0])
    flat = arr.flatten().to_numpy(zero_copy_only=False)
    return flat.reshape(-1, dim).astype(np.float64)


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.maximum(n, 1e-12)


def ann_brute_topk(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    query_ids: np.ndarray,
    k: int = 5,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    exclude_self: bool = True,
) -> pa.Table:
    """Exact cosine top-k of each query against the whole dataset.

    Per-batch: one matmul + per-query partial top-k (≤ k rows per query
    per batch leave the map stage); final merge sorts the tiny partial
    set. Ties broken by id ascending — deterministic.
    """
    qn = _normalize(np.asarray(queries, dtype=np.float64))
    q_ref = exchange.broadcast((qn, np.asarray(query_ids)))

    def partial(batch: pa.Table) -> pa.Table:
        q, qids = q_ref.get()
        m = _normalize(_embedding_matrix(batch, emb_col))
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        sims = m @ q.T  # (n, nq)
        take = min(k + (1 if exclude_self else 0), m.shape[0])
        top = np.argpartition(-sims, take - 1, axis=0)[:take]  # (take, nq)
        out_q, out_id, out_sim = [], [], []
        for j in range(q.shape[0]):
            out_q.append(np.full(take, qids[j]))
            out_id.append(ids[top[:, j]])
            out_sim.append(sims[top[:, j], j])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                id_col: pa.array(np.concatenate(out_id)),
                "sim": pa.array(np.concatenate(out_sim)),
            }
        )

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).take_all()
    import pandas as pd

    df = pd.DataFrame(parts)
    if exclude_self:
        df = df[df["query_id"] != df[id_col]]
    df = df.sort_values(["query_id", "sim", id_col], ascending=[True, False, True])
    df["rank"] = df.groupby("query_id").cumcount() + 1
    df = df[df["rank"] <= k].reset_index(drop=True)
    return pa.Table.from_pandas(df, preserve_index=False)


# ---------------------------------------------------------------- IVF ANN

def kmeans_centroids(
    vecs: np.ndarray, n_list: int = 16, iters: int = 10, seed: int = 3
) -> np.ndarray:
    """Plain Lloyd k-means on normalized vectors — deterministic (fixed
    seed + fixed sample order). Runs driver-side over a BOUNDED training
    sample, never the full table."""
    v = _normalize(np.asarray(vecs, dtype=np.float64))
    rng = np.random.default_rng(seed)
    cent = v[rng.choice(v.shape[0], size=min(n_list, v.shape[0]), replace=False)]
    for _ in range(iters):
        assign = np.argmax(v @ cent.T, axis=1)
        for c in range(cent.shape[0]):
            m = assign == c
            if np.any(m):
                cent[c] = v[m].mean(axis=0)
        cent = _normalize(cent)
    return cent


def ivf_ann_topk(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    query_ids: np.ndarray,
    k: int = 5,
    n_list: int = 16,
    n_probe: int = 4,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    train_sample: int = 4096,
    exclude_self: bool = True,
    train: str = "sample",
    centroids: np.ndarray | None = None,
) -> pa.Table:
    """IVF ANN as a streaming Dataset pipeline (the scale path):

    - TRAIN: k-means centroids from a bounded driver-side sample
      (``ds.limit(train_sample)``) — o(1) w.r.t. table size; or
      ``train="distributed"`` to run full-table Lloyd iterations via
      ``kmeans_fit`` (combine-tree partials, corpus never concentrates).
    - BROADCAST: centroids + per-query probe masks ship once via
      ``exchange.broadcast`` (one fetch per worker process).
    - SEARCH: each batch assigns its vectors to centroids with one
      matmul and scores only the vectors landing in a probed cluster;
      ≤ k partial rows per (query, batch) leave the map stage.
    - MERGE: tiny driver-side sort over the partial top-k rows.

    The full embedding table is never materialized. Approximate — the
    scanned fraction is ~n_probe/n_list; recall is pinned by tests and
    the ``ivf_ann`` driver query's recall-vs-brute oracle."""
    if centroids is not None:
        cent = np.asarray(centroids, np.float64)
    elif train == "distributed":
        # full-table Lloyd over combine-tree partials (georay k-means);
        # init from the sample trainer so both paths share a seed
        sample = ds.limit(int(train_sample)).to_pandas()
        train_vecs = np.stack(sample[emb_col].to_numpy()).astype(np.float64)
        init = kmeans_centroids(train_vecs, n_list=n_list, iters=1)
        cent = _normalize(
            kmeans_fit(ds, k=init.shape[0], n_iter=5, col=emb_col,
                       init_centers=init, id_col=id_col)
        )
    else:
        sample = ds.limit(int(train_sample)).to_pandas()
        train_vecs = np.stack(sample[emb_col].to_numpy()).astype(np.float64)
        cent = kmeans_centroids(train_vecs, n_list=n_list)

    qn = _normalize(np.asarray(queries, dtype=np.float64))
    nq = qn.shape[0]
    csims = qn @ cent.T
    probe = np.argsort(-csims, axis=1)[:, : min(n_probe, cent.shape[0])]
    probe_mask = np.zeros((cent.shape[0], nq), dtype=bool)
    for j in range(nq):
        probe_mask[probe[j], j] = True
    ref = exchange.broadcast((qn, np.asarray(query_ids), cent, probe_mask))

    def partial(batch: pa.Table) -> pa.Table:
        q, qids, c, pm = ref.get()
        m = _normalize(_embedding_matrix(batch, emb_col))
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        assign = np.argmax(m @ c.T, axis=1)
        member = pm[assign]  # (n, nq) — vector i is in a probed cluster of query j
        sims = np.where(member, m @ q.T, -np.inf)
        if exclude_self:
            # match ann_brute_topk semantics: a query drawn from the table
            # must not return itself
            sims = np.where(ids[:, None] == qids[None, :], -np.inf, sims)
        take = min(k, m.shape[0])
        top = np.argpartition(-sims, take - 1, axis=0)[:take]  # (take, nq)
        out_q, out_id, out_sim = [], [], []
        for j in range(q.shape[0]):
            s = sims[top[:, j], j]
            keep = np.isfinite(s)
            out_q.append(np.full(int(keep.sum()), qids[j]))
            out_id.append(ids[top[:, j][keep]])
            out_sim.append(s[keep])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                id_col: pa.array(np.concatenate(out_id)),
                "sim": pa.array(np.concatenate(out_sim)),
            }
        )

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).take_all()
    import pandas as pd

    df = pd.DataFrame(parts)
    if len(df) == 0:
        return pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                id_col: pa.array([], pa.int64()),
                "sim": pa.array([], pa.float64()),
            }
        )
    df = df.sort_values(["query_id", "sim", id_col], ascending=[True, False, True])
    df["rank"] = df.groupby("query_id").cumcount() + 1
    df = df[df["rank"] <= k].drop(columns=["rank"]).reset_index(drop=True)
    return pa.Table.from_pandas(df, preserve_index=False)


# -------------------------------------------------------- cosine near-dup

def embedding_neardup_pairs(
    ds: ray.data.Dataset,
    threshold: float = 0.95,
    n_planes: int = 12,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    seed: int = 11,
) -> ray.data.Dataset:
    """(id_a, id_b, sim) pairs with cosine ≥ threshold, as a Dataset.

    Random-hyperplane signature buckets generate candidates (vectors with
    equal sign patterns); exact cosine verifies. Near-identical vectors
    collide with high probability; recall grows with fewer planes /
    multiple tables (documented approximation).
    """
    def sig_batch(batch: pa.Table) -> pa.Table:
        m = _normalize(_embedding_matrix(batch, emb_col))
        # fresh generator per call → identical planes in EVERY batch/task
        planes = np.random.default_rng(seed).standard_normal((m.shape[1], n_planes))
        bits = (m @ planes) > 0
        sig = np.zeros(m.shape[0], dtype=np.int64)
        for b in range(n_planes):
            sig |= bits[:, b].astype(np.int64) << b
        return pa.table(
            {
                id_col: batch[id_col],
                "bucket": pa.array(sig),
                emb_col: batch[emb_col],
            }
        )

    sigs = ds.map_batches(sig_batch, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)

    def pairs_of_bucket(group: pa.Table) -> pa.Table:
        """One bucket's candidate pairs with the adjacent-W pairing cap
        (same device as the MinHash/SimHash banders, dedup.py): sort by
        id, pair element i with i+1 … i+W only. A degenerate bucket of m
        near-identical vectors yields ≤ m·W pairs (not m²/2) while the
        verified pairs still chain every member into one connected
        component. Row-wise dot products — no m×m matrix."""
        empty = pa.table(
            {
                "id_a": pa.array([], pa.int64()),
                "id_b": pa.array([], pa.int64()),
                "sim": pa.array([], pa.float64()),
            }
        )
        n = len(group)
        if n < 2:
            return empty
        m = _normalize(_embedding_matrix(group, emb_col))
        ids = group[id_col].to_numpy(zero_copy_only=False)
        # content-major sort (id tie-break): identical vectors become
        # ADJACENT, so exact duplicates always yield a direct sim-1.0
        # pair under the W cap — deterministic recall for exact dups
        # (the embed_planted oracle keys on this)
        order = np.lexsort((ids,) + tuple(m[:, c] for c in range(m.shape[1] - 1, -1, -1)))
        ids_s, m_s = ids[order], m[order]
        W = 50
        a_parts, b_parts, s_parts = [], [], []
        for w in range(1, min(W, n - 1) + 1):
            sims = np.einsum("ij,ij->i", m_s[:-w], m_s[w:])
            keep = sims >= threshold
            if np.any(keep):
                a_parts.append(ids_s[:-w][keep])
                b_parts.append(ids_s[w:][keep])
                s_parts.append(sims[keep])
        if not a_parts:
            return empty
        a = np.concatenate(a_parts)
        b = np.concatenate(b_parts)
        return pa.table(
            {
                "id_a": pa.array(np.minimum(a, b), pa.int64()),
                "id_b": pa.array(np.maximum(a, b), pa.int64()),
                "sim": pa.array(np.concatenate(s_parts)),
            }
        )

    pairs = co_shuffle(sigs, "bucket", pairs_of_bucket, coalesce=False)
    # cross-bucket duplicates of a pair carry the IDENTICAL exact cosine,
    # so a distributed max-aggregate IS the dedup — the pair stream never
    # lands on the driver (combine tree; distinct pairs are the bounded
    # near-dup set)
    from georay import ops

    return ops.tree_reduce(pairs, ["id_a", "id_b"], {"sim": "sim"}, ufunc=np.maximum)


def kmeans_assign(
    ds: ray.data.Dataset,
    centers: np.ndarray,
    col: str = "embedding",
    id_col: str = "vec_id",
) -> ray.data.Dataset:
    """Nearest-center assignment (the k-means E-step) as a streaming
    stage: centers are ``exchange.broadcast`` once; each batch computes DIRECT
    squared Euclidean distances (``(x-c)²`` summed — not the expanded
    dot-product form, so near-duplicate points keep full precision and
    the argmin matches SQL ``list_distance`` ordering) and takes the
    lowest-distance center, ties to the lowest center id (numpy argmin's
    first-hit rule).

    Output: (id_col, center_id int64)."""
    c64 = np.ascontiguousarray(np.asarray(centers, dtype=np.float64))
    ref = exchange.broadcast(c64)

    def assign(batch: pa.Table) -> pa.Table:
        c = ref.get()
        x = _embedding_matrix(batch, col)
        # (B, k) direct distances; B·k·d floats per batch is bounded by
        # the block size (k is small by construction)
        d2 = ((x[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        return pa.table(
            {
                id_col: batch[id_col],
                "center_id": pa.array(np.argmin(d2, axis=1).astype(np.int64)),
            }
        )

    return ds.map_batches(
        assign, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def kmeans_fit(
    ds: ray.data.Dataset,
    k: int,
    n_iter: int = 5,
    col: str = "embedding",
    init_centers: np.ndarray | None = None,
    init_ids: int | None = None,
    id_col: str = "vec_id",
) -> np.ndarray:
    """DISTRIBUTED Lloyd k-means over the full table (the scale twin of
    the sample-trained ``kmeans_centroids``): per iteration, one
    streaming pass assigns each batch to the broadcast centers and emits
    k partial rows (center_id, count, per-dim sums as columns); a
    combine tree merges them and the driver updates k×d numbers — the
    corpus never concentrates anywhere. Deterministic: ties to the
    lowest center id; empty clusters keep their previous center.

    ``init_centers`` (k,d) or ``init_ids`` (= the rows with
    ``id_col < init_ids`` — a deterministic, SQL-replicable init).
    Returns the (k, d) float64 centers after ``n_iter`` E/M rounds.
    """
    from georay import ops as _ops

    if init_centers is None:
        if init_ids is None:
            init_ids = k
        import pyarrow.compute as pc

        first = ds.filter(
            expr=f"{id_col} < {init_ids}"
        ).to_pandas().sort_values(id_col)
        centers = np.stack(
            [np.asarray(v, dtype=np.float64) for v in first[col]]
        )[:k]
    else:
        centers = np.ascontiguousarray(np.asarray(init_centers, dtype=np.float64))
    kk, d = centers.shape
    sum_cols = [f"s{i}" for i in range(d)]

    for _ in range(n_iter):
        ref = exchange.broadcast(centers)

        def partial(batch: pa.Table) -> pa.Table:
            c = ref.get()
            x = _embedding_matrix(batch, col)
            d2 = ((x[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
            a = np.argmin(d2, axis=1)
            sums = np.zeros((kk, d), dtype=np.float64)
            np.add.at(sums, a, x)
            cnt = np.bincount(a, minlength=kk).astype(np.int64)
            cols = {
                "center_id": pa.array(np.arange(kk, dtype=np.int64)),
                "n": pa.array(cnt),
            }
            for i, name in enumerate(sum_cols):
                cols[name] = pa.array(sums[:, i])
            return pa.table(cols)

        parts = ds.map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
        )
        merged = _ops.tree_sum(
            parts, "center_id",
            {**{c: c for c in sum_cols}, "n": "n"},
            int_cols=("n",),
        ).to_pandas().sort_values("center_id")
        n = merged["n"].to_numpy()
        sums = merged[sum_cols].to_numpy()
        nz = n > 0
        centers = centers.copy()
        centers[nz] = sums[nz] / n[nz, None]
    return centers


# ------------------------------------------------- product quantization

def pq_train(
    train_vecs: np.ndarray, m: int = 8, ks: int = 16, iters: int = 10
) -> np.ndarray:
    """PQ codebooks ``(m, ks, d/m)``: the vector space is split into
    ``m`` subspaces and each gets its own ``ks``-centroid Euclidean
    k-means, trained driver-side on a BOUNDED sample (o(1) in table
    size, like IVF training). Deterministic: init = first ``ks``
    sample rows per subspace, plain Lloyd. Vectors are normalized
    first, so PQ codes approximate the COSINE geometry the rest of the
    embedding family uses."""
    v = _normalize(np.asarray(train_vecs, dtype=np.float64))
    d = v.shape[1]
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    sub = d // m
    books = np.zeros((m, min(ks, v.shape[0]), sub))
    for s in range(m):
        x = v[:, s * sub:(s + 1) * sub]
        c = x[: books.shape[1]].copy()
        for _ in range(iters):
            d2 = ((x[:, None, :] - c[None, :, :]) ** 2).sum(-1)
            a = np.argmin(d2, axis=1)
            sums = np.zeros_like(c)
            np.add.at(sums, a, x)
            cnt = np.bincount(a, minlength=c.shape[0]).astype(np.float64)
            nz = cnt > 0
            c[nz] = sums[nz] / cnt[nz, None]  # empty cells keep position
        books[s] = c
    return books


def _pq_codes(mat: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(n, m) uint8 codes: per subspace, the nearest codebook entry by
    Euclidean distance (argmin over a (n, ks) distance matrix — one
    matmul-shaped op per subspace, no per-row Python)."""
    m, ks, sub = books.shape
    n = mat.shape[0]
    codes = np.zeros((n, m), dtype=np.uint8)
    for s in range(m):
        x = mat[:, s * sub:(s + 1) * sub]
        b = books[s]
        # |x-c|^2 = |x|^2 - 2 x.c + |c|^2 ; |x|^2 constant per row
        d2 = (b * b).sum(1)[None, :] - 2.0 * (x @ b.T)
        codes[:, s] = np.argmin(d2, axis=1).astype(np.uint8)
    return codes


def pq_encode(
    ds: ray.data.Dataset,
    books: np.ndarray,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    keep_embedding: bool = True,
) -> ray.data.Dataset:
    """Streaming PQ encoder: adds a ``pq_code`` fixed-size-list<uint8>
    column (m bytes per vector — 16× smaller than 32-dim float32).
    Codebooks broadcast once via ``exchange.broadcast``. With
    ``keep_embedding=False`` the output carries ONLY (id, code): the
    shape a 100-TB index shard stores."""
    ref = exchange.broadcast(books)
    mm = int(books.shape[0])

    def fn(batch: pa.Table) -> pa.Table:
        b = ref.get()
        mat = _normalize(_embedding_matrix(batch, emb_col))
        codes = _pq_codes(mat, b)
        code_arr = pa.FixedSizeListArray.from_arrays(
            pa.array(codes.reshape(-1), pa.uint8()), mm
        )
        cols = {id_col: batch[id_col], "pq_code": code_arr}
        if keep_embedding:
            cols[emb_col] = batch[emb_col]
        return pa.table(cols)

    return ds.map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def pq_ann_topk(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    query_ids: np.ndarray,
    k: int = 5,
    m: int = 8,
    ks: int = 16,
    rerank: int | None = None,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    train_sample: int = 4096,
    exclude_self: bool = True,
) -> pa.Table:
    """PQ ANN with asymmetric distance computation (ADC) + exact
    re-rank — the memory-scale path of the ANN family (IVF cuts the
    scanned FRACTION; PQ cuts the BYTES per scanned vector):

    - TRAIN driver-side on a bounded sample (``pq_train``).
    - ENCODE per batch (``pq_encode`` plumbing — one argmin per
      subspace).
    - SEARCH: per query, an ``(m, ks)`` look-up table of subvector dot
      products; approx sim = sum of m LUT gathers per code — no float
      vector is touched. The ADC top-``rerank`` (default 4k) shortlist
      per (query, batch) is re-scored EXACTLY against the batch's own
      float vectors, and ≤ k rows per (query, batch) leave the stage.
    - MERGE: tiny driver-side sort, identical to IVF/brute.

    At 100 TB the codes column (m bytes/vector) is what a probe shard
    holds in RAM; the exact re-rank reads only the shortlist's float
    rows. Recall is pinned by tests + the ``pq_ann`` driver query's
    recall-vs-brute oracle."""
    sample = ds.limit(int(train_sample)).to_pandas()
    train_vecs = np.stack(sample[emb_col].to_numpy()).astype(np.float64)
    books = pq_train(train_vecs, m=m, ks=ks)
    qn = _normalize(np.asarray(queries, dtype=np.float64))
    nq = qn.shape[0]
    mm, kk, sub = books.shape
    # luts[q, s, c] = dot(q_sub_s, book[s][c]);  ADC sim = sum_s lut gather
    luts = np.einsum("qsd,scd->qsc", qn.reshape(nq, mm, sub), books)
    R = int(rerank) if rerank is not None else 4 * k
    ref = exchange.broadcast((qn, np.asarray(query_ids), books, luts))

    def partial(batch: pa.Table) -> pa.Table:
        q, qids, b, lt = ref.get()
        mat = _normalize(_embedding_matrix(batch, emb_col))
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        codes = _pq_codes(mat, b)  # (n, m)
        # gathered[n, s, q] -> ADC sims (n, q)
        lt_t = lt.transpose(1, 2, 0)  # (m, ks, nq)
        sims = lt_t[np.arange(mm)[None, :], codes].sum(axis=1)
        if exclude_self:
            sims = np.where(ids[:, None] == qids[None, :], -np.inf, sims)
        n = mat.shape[0]
        take = min(R, n)
        short = np.argpartition(-sims, take - 1, axis=0)[:take]  # (take, nq)
        out_q, out_id, out_sim = [], [], []
        for j in range(q.shape[0]):
            cand = short[:, j]
            cand = cand[np.isfinite(sims[cand, j])]
            if cand.shape[0] == 0:
                continue
            exact = mat[cand] @ q[j]  # exact re-rank of the shortlist
            order = np.lexsort((ids[cand], -exact))[: min(k, cand.shape[0])]
            out_q.append(np.full(order.shape[0], qids[j]))
            out_id.append(ids[cand][order])
            out_sim.append(exact[order])
        if not out_q:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    id_col: pa.array([], pa.int64()),
                    "sim": pa.array([], pa.float64()),
                }
            )
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                id_col: pa.array(np.concatenate(out_id)),
                "sim": pa.array(np.concatenate(out_sim)),
            }
        )

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).take_all()
    import pandas as pd

    df = pd.DataFrame(parts)
    if len(df) == 0:
        return pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                id_col: pa.array([], pa.int64()),
                "sim": pa.array([], pa.float64()),
            }
        )
    df = df.sort_values(["query_id", "sim", id_col], ascending=[True, False, True])
    df["rank"] = df.groupby("query_id").cumcount() + 1
    df = df[df["rank"] <= k].drop(columns=["rank"]).reset_index(drop=True)
    return pa.Table.from_pandas(df, preserve_index=False)


# ----------------------------------------------------------------- PCA

def gram_quantized(
    ds: ray.data.Dataset,
    emb_col: str = "embedding",
    scale_bits: int = 20,
) -> ray.data.Dataset:
    """Quantized-integer Gram matrix of an embedding column, long-form
    ``(i, j, g)`` for i ≤ j, plus coordinate sums ``(i, -1, Σxq_i)`` and
    the row count ``(-1, -1, n)`` — everything a driver-side covariance/
    PCA needs, in ONE streaming pass.

    Vectors are quantized ``xq = floor(x · 2^scale_bits)`` — float32 →
    float64 is exact, the power-of-two scale is exact, floor is
    deterministic — so partial Gram sums are EXACT int64 (order-free,
    engine-independent) and the SQL oracle hash-matches. Bound: |x| ≤
    0.5, d=64, rows ≤ 2^23 keeps Σ|xq_i·xq_j| < 2^63 (raise scale_bits
    only with that bound in mind; at petascale drop to float partials
    and give up the exactness gate). Per-batch work is one d×d int
    matmul; partials (d² rows) merge through the combine tree — the
    table never shuffles."""
    from georay.ops import tree_sum

    def partial(batch: pa.Table) -> pa.Table:
        x = _embedding_matrix(batch, emb_col)
        xq = np.floor(x * float(1 << scale_bits)).astype(np.int64)
        d = xq.shape[1]
        g = xq.T @ xq
        iu, ju = np.triu_indices(d)
        s = xq.sum(axis=0)
        i = np.concatenate([iu, np.arange(d), [-1]])
        j = np.concatenate([ju, np.full(d, -1), [-1]])
        v = np.concatenate([g[iu, ju], s, [xq.shape[0]]])
        return pa.table(
            {
                "i": pa.array(i, pa.int64()),
                "j": pa.array(j, pa.int64()),
                "partial_g": pa.array(v, pa.int64()),
            }
        )

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return tree_sum(parts, ["i", "j"], {"partial_g": "g"}, int_cols=("partial_g",))


def pca_fit(
    ds: ray.data.Dataset,
    n_components: int = 8,
    emb_col: str = "embedding",
    scale_bits: int = 20,
) -> dict:
    """Distributed PCA fit: the exact quantized Gram/sums/count from
    ``gram_quantized`` (one streaming pass), then a d×d driver-side
    eigendecomposition — the classic covariance-method split: O(d²)
    state per batch, O(d³) once on the driver, never materializing the
    table. Returns ``{"mean", "components" (d,k), "explained_variance",
    "scale"}`` in ORIGINAL units. Deterministic: sign fixed so each
    component's largest-|coeff| entry is positive."""
    tbl = exchange.collect(gram_quantized(ds, emb_col, scale_bits))
    i = tbl["i"].to_numpy(zero_copy_only=False)
    j = tbl["j"].to_numpy(zero_copy_only=False)
    g = tbl["g"].to_numpy(zero_copy_only=False)
    n = int(g[(i == -1) & (j == -1)][0])
    smask = (j == -1) & (i >= 0)
    d = int(smask.sum())
    s = np.zeros(d)
    s[i[smask]] = g[smask]
    gm = np.zeros((d, d))
    umask = (i >= 0) & (j >= 0)
    gm[i[umask], j[umask]] = g[umask]
    gm[j[umask], i[umask]] = g[umask]
    scale = float(1 << scale_bits)
    mean_q = s / n
    cov = (gm - np.outer(s, s) / n) / (n - 1) / (scale * scale)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:n_components]
    comps = evecs[:, order]
    flip = np.sign(comps[np.abs(comps).argmax(axis=0), np.arange(comps.shape[1])])
    comps = comps * np.where(flip == 0, 1.0, flip)
    return {
        "mean": mean_q / scale,
        "components": comps,
        "explained_variance": evals[order],
        "scale": scale,
    }


def pca_project(
    ds: ray.data.Dataset,
    model: dict,
    emb_col: str = "embedding",
    out_col: str = "pc",
) -> ray.data.Dataset:
    """Project embeddings onto fitted components: one broadcast of the
    (d,k) matrix via ``exchange.broadcast``, one matmul per batch — stateless,
    shuffle-free, streaming."""
    ref = exchange.broadcast((model["mean"], model["components"]))

    def fn(batch: pa.Table) -> pa.Table:
        mean, comps = ref.get()
        x = _embedding_matrix(batch, emb_col)
        p = (x - mean) @ comps
        k = p.shape[1]
        arr = pa.FixedSizeListArray.from_arrays(
            pa.array(p.reshape(-1), pa.float64()), k
        )
        return batch.append_column(out_col, arr)

    return ds.map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )

# -------------------------------------------- partitioned IVF index (pruned I/O)

def _ivf_load_centroids(index_dir: str) -> np.ndarray:
    """Load the immutable centroid sidecar (row order == list_id)."""
    import os

    import pyarrow.parquet as pq

    ct = pq.read_table(os.path.join(index_dir, "_ivf_centroids.parquet"))
    return np.stack(
        [np.asarray(v, dtype=np.float64) for v in ct["centroid"].to_pylist()]
    )


def _ivf_assign_write(
    cent: np.ndarray,
    ds: ray.data.Dataset,
    out_dir: str,
    emb_col: str,
) -> None:
    """Assign each vector to its nearest centroid (argmax dot on the
    normalized matrix — the ONE assignment rule shared by build, append
    and the masking scan) and write partitioned by list id."""
    ref = exchange.broadcast(cent)

    def assign(batch: pa.Table) -> pa.Table:
        c = ref.get()
        m = _normalize(_embedding_matrix(batch, emb_col))
        if m.shape[1] != c.shape[1]:
            raise ValueError(
                f"ivf: embedding dim {m.shape[1]} != index dim {c.shape[1]}"
            )
        lid = np.argmax(m @ c.T, axis=1).astype(np.int64)
        return batch.append_column("list_id", pa.array(lid, pa.int64()))

    ds.map_batches(
        assign, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).write_parquet(out_dir, partition_cols=["list_id"])


def ivf_build_index(
    ds: ray.data.Dataset,
    out_dir: str,
    n_list: int = 16,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    train_sample: int = 4096,
) -> np.ndarray:
    """Build a PHYSICALLY PARTITIONED IVF index: train centroids (same
    bounded-sample Lloyd as ``ivf_ann_topk``), assign every vector to
    its inverted list in one streaming pass, and write the table
    partitioned by ``list_id`` (one parquet directory per list, the
    ``write_spatial`` sink shape) plus a tiny sidecar centroid table.

    This is what makes IVF pay at 100 TB: ``ivf_ann_topk`` masks
    non-probed clusters but still READS every block; a search against
    this index opens ONLY the probed partitions, so I/O scales with
    n_probe/n_list, not table size. Returns the centroids."""
    import os

    import pyarrow.parquet as pq

    sample = ds.limit(int(train_sample)).to_pandas()
    train_vecs = np.stack(sample[emb_col].to_numpy()).astype(np.float64)
    cent = kmeans_centroids(train_vecs, n_list=n_list)
    _ivf_assign_write(cent, ds, out_dir, emb_col)
    pq.write_table(
        pa.table(
            {
                "list_id": pa.array(np.arange(cent.shape[0]), pa.int64()),
                "centroid": pa.array(list(cent), pa.list_(pa.float64())),
            }
        ),
        os.path.join(out_dir, "_ivf_centroids.parquet"),
    )
    return cent


def ivf_append_index(
    index_dir: str,
    ds: ray.data.Dataset,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> None:
    """INCREMENTAL IVF maintenance (the ANN sibling of
    ``pipeline.postings_append``): assign NEW vectors to the index's
    EXISTING centroids (sidecar — centroids are immutable after build,
    standard IVF practice) and write them as additional parquet files
    into the matching ``list_id=`` partitions. The base index is never
    re-read; ``ivf_search_index`` picks up delta files with no reader
    change, and results stay bit-equal to the masking scan under the
    same centroids. Re-train + rebuild when drift degrades recall —
    append keeps the partition-pruning contract, not centroid
    optimality. APPEND-ONLY: re-adding an id duplicates it."""
    import glob
    import os

    import pyarrow.parquet as pq

    cent = _ivf_load_centroids(index_dir)
    # validate the delta against the BASE schema (the postings_append
    # convention): a mismatched id type or embedding layout would write
    # fine and corrupt every later search instead of raising here
    base_files = sorted(
        glob.glob(os.path.join(index_dir, "list_id=*", "*.parquet"))
    )
    if base_files:
        base_schema = pq.read_schema(base_files[0])
        d_schema = ds.schema().base_schema
        for cname in (id_col, emb_col):
            if base_schema.field(cname).type != d_schema.field(cname).type:
                raise ValueError(
                    f"ivf_append_index: {cname} type "
                    f"{d_schema.field(cname).type} != indexed "
                    f"{base_schema.field(cname).type}"
                )
    _ivf_assign_write(cent, ds, index_dir, emb_col)


def ivf_search_index(
    index_dir: str,
    queries: np.ndarray,
    query_ids: np.ndarray,
    k: int = 5,
    n_probe: int = 4,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    exclude_self: bool = True,
    return_stats: bool = False,
):
    """Partition-PRUNED IVF search against an ``ivf_build_index`` index:
    load the sidecar centroids (o(n_list)), compute each query's probe
    lists, and ``read_parquet`` ONLY the union of probed partitions —
    non-probed lists never leave storage. Scoring masks per query by the
    stored ``list_id`` column (hive-inferred from the path), so results
    are bit-equal to ``ivf_ann_topk`` under the same centroids.

    ``return_stats=True`` additionally returns
    ``{"lists_scanned", "lists_total", "bytes_scanned", "bytes_total"}``.
    """
    import glob
    import os

    import pyarrow.parquet as pq

    cent = _ivf_load_centroids(index_dir)
    qn = _normalize(np.asarray(queries, dtype=np.float64))
    nq = qn.shape[0]
    csims = qn @ cent.T
    probe = np.argsort(-csims, axis=1)[:, : min(n_probe, cent.shape[0])]
    probe_mask = np.zeros((cent.shape[0], nq), dtype=bool)
    for j in range(nq):
        probe_mask[probe[j], j] = True
    probed_lists = sorted({int(l) for row in probe for l in row})

    def list_files(lid: int) -> list[str]:
        return sorted(glob.glob(os.path.join(index_dir, f"list_id={lid}", "*.parquet")))

    files = [f for lid in probed_lists for f in list_files(lid)]
    all_files = sorted(glob.glob(os.path.join(index_dir, "list_id=*", "*.parquet")))
    empty = pa.table(
        {
            "query_id": pa.array([], pa.int64()),
            id_col: pa.array([], pa.int64()),
            "sim": pa.array([], pa.float64()),
        }
    )
    stats = {
        "lists_scanned": len(probed_lists),
        "lists_total": len(
            {os.path.basename(os.path.dirname(f)) for f in all_files}
        ),
        "bytes_scanned": int(sum(os.path.getsize(f) for f in files)),
        "bytes_total": int(sum(os.path.getsize(f) for f in all_files)),
    }
    if not files:
        return (empty, stats) if return_stats else empty

    import ray.data as rd

    ds = rd.read_parquet(files)
    ref = exchange.broadcast((qn, np.asarray(query_ids), probe_mask))

    def partial(batch: pa.Table) -> pa.Table:
        q, qids, pm = ref.get()
        m = _normalize(_embedding_matrix(batch, emb_col))
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        lid = batch["list_id"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        member = pm[lid]  # (n, nq)
        sims = np.where(member, m @ q.T, -np.inf)
        if exclude_self:
            sims = np.where(ids[:, None] == qids[None, :], -np.inf, sims)
        take = min(k, m.shape[0])
        top = np.argpartition(-sims, take - 1, axis=0)[:take]
        out_q, out_id, out_sim = [], [], []
        for j in range(q.shape[0]):
            s = sims[top[:, j], j]
            keep = np.isfinite(s)
            out_q.append(np.full(int(keep.sum()), qids[j]))
            out_id.append(ids[top[:, j][keep]])
            out_sim.append(s[keep])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q)),
                id_col: pa.array(np.concatenate(out_id)),
                "sim": pa.array(np.concatenate(out_sim)),
            }
        )

    parts = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).take_all()
    import pandas as pd

    df = pd.DataFrame(parts)
    if len(df) == 0:
        return (empty, stats) if return_stats else empty
    df = df.sort_values(["query_id", "sim", id_col], ascending=[True, False, True])
    df["rank"] = df.groupby("query_id").cumcount() + 1
    df = df[df["rank"] <= k].drop(columns=["rank"]).reset_index(drop=True)
    out = pa.Table.from_pandas(df, preserve_index=False)
    return (out, stats) if return_stats else out
