"""Event-log and graph analytics over Ray Data.

The reference engine (geoarrow-r) has no event or graph layer; these
operators extend the engine the same way the temporal/window families do
— every stage is a vectorized Arrow batch transform, wide steps are the
ONE hash-bucket shuffle per logical pass the partitioned joins use, and
every output is SQL-expressible so the driver's DuckDB oracle pins it
bit-for-bit.

Scale notes per operator live on their docstrings; the common pattern:
per-user / per-node state never leaves its hash bucket, so each operator
is one `exchange.co_shuffle` over vectorized sort+reduceat work,
not per-entity Python.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from georay import exchange
from georay.exchange import co_shuffle
from georay.index import _ragged_ranges
from georay.ops import _group_reduce, tree_sum

INT64_MAX = np.iinfo(np.int64).max


def _group_starts(*key_arrs: np.ndarray, group_keys: int | None = None):
    """(order, starts, gid): lexsort the rows by ALL key columns, then
    group boundaries over the first ``group_keys`` of them (default all)
    — e.g. ``(user, ts, group_keys=1)`` = per-user groups, ts-sorted
    within. ``gid`` is the per-row group id in sorted order."""
    n = key_arrs[0].shape[0]
    order = np.lexsort(tuple(reversed(key_arrs)))
    first = np.zeros(n, dtype=bool)
    if n:
        first[0] = True
    for k in key_arrs[: group_keys if group_keys is not None else len(key_arrs)]:
        ks = k[order]
        first[1:] |= ks[1:] != ks[:-1]
    starts = np.nonzero(first)[0]
    gid = np.cumsum(first) - 1
    return order, starts, gid


def funnel(
    ds: ray.data.Dataset,
    user_col: str,
    ts_col: str,
    type_col: str,
    steps: list[str],
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Ordered conversion funnel: how many users performed ``steps[0]``,
    then ``steps[1]`` STRICTLY LATER, then ``steps[2]`` strictly later
    than that, … Returns ``(step int64 1-based, step_name, n_users)``.

    One shuffle: users are hash-bucketed (a user's whole history lands
    in one bucket), each bucket resolved by one lexsort + |steps|
    masked ``minimum.reduceat`` passes — per-user chained first-times
    with zero per-row Python. Partial step counts merge through the
    combine tree. SQL twin: chained ``MIN(ts) ... WHERE ts > prev``
    joins."""
    proj = ds.select_columns([user_col, ts_col, type_col])

    def per_bucket(group: pa.Table) -> pa.Table:
        u = group[user_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        typ = group[type_col]
        typ = typ.combine_chunks() if isinstance(typ, pa.ChunkedArray) else typ
        order, starts, gid = _group_starts(u)
        ts_s, gid_s = ts[order], gid
        counts = np.zeros(len(steps), dtype=np.int64)
        n_groups = starts.shape[0]
        t_prev = np.full(n_groups, np.int64(-INT64_MAX), dtype=np.int64)
        code = pc.index_in(typ, value_set=pa.array(steps, pa.string()))
        code = pc.fill_null(code, -1).to_numpy(zero_copy_only=False)[order]
        for s in range(len(steps)):
            mask = (code == s) & (ts_s > t_prev[gid_s])
            vals = np.where(mask, ts_s, INT64_MAX)
            t_s = (
                np.minimum.reduceat(vals, starts)
                if n_groups
                else np.empty(0, np.int64)
            )
            counts[s] = int((t_s != INT64_MAX).sum())
            t_prev = t_s
        return pa.table(
            {
                "step": pa.array(np.arange(1, len(steps) + 1), pa.int64()),
                "partial_n": pa.array(counts, pa.int64()),
            }
        )

    parts = co_shuffle(proj, user_col, per_bucket, n_buckets=n_buckets, coalesce=True)
    merged = tree_sum(
        parts, ["step"], {"partial_n": "n_users"}, int_cols=("partial_n",)
    )
    names = pa.array(steps, pa.string())

    def add_names(batch: pa.Table) -> pa.Table:
        if "step" not in batch.column_names:
            # empty input: no bucket ever emitted partials (empty blocks
            # can arrive schema-less) — typed empty result
            return pa.table(
                {
                    "step": pa.array([], pa.int64()),
                    "n_users": pa.array([], pa.int64()),
                    "step_name": pa.array([], pa.string()),
                }
            )
        idx = batch["step"].to_numpy(zero_copy_only=False) - 1
        return batch.append_column("step_name", names.take(pa.array(idx)))

    return merged.map_batches(
        add_names, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def cohort_retention(
    ds: ray.data.Dataset,
    user_col: str,
    ts_col: str,
    period_us: int,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Cohort retention matrix: users are cohorted by the period of
    their FIRST event (``epoch_us // period_us``, epochs assumed ≥ 0)
    and counted once per (cohort, period-offset) they were active in.
    Returns ``(cohort int64, offset int64, n_users int64)``.

    One shuffle: a user's history is confined to its hash bucket, so
    per-bucket first-event periods, offsets, and the user-distinct
    (cohort, offset) pairs all come from one lexsort — a user counted
    in a bucket is counted nowhere else, making the partial counts
    globally exact. Combine-tree merge; the event log itself never
    re-shuffles."""
    proj = ds.select_columns([user_col, ts_col])
    per_us = np.int64(period_us)

    def per_bucket(group: pa.Table) -> pa.Table:
        u = group[user_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        order, starts, gid = _group_starts(u, ts, group_keys=1)
        period = ts[order] // per_us
        n = period.shape[0]
        if n == 0:
            return pa.table(
                {
                    "cohort": pa.array([], pa.int64()),
                    "offset": pa.array([], pa.int64()),
                    "partial_n": pa.array([], pa.int64()),
                }
            )
        cohort = period[starts][gid]
        offset = period - cohort
        # ts-sorted within user ⇒ offset is non-decreasing: distinct
        # (user, offset) = first occurrences
        first = np.zeros(n, dtype=bool)
        first[starts] = True
        first[1:] |= offset[1:] != offset[:-1]
        ks, vs = _group_reduce(
            [cohort[first], offset[first]],
            {"partial_n": np.ones(int(first.sum()), np.int64)},
        )
        return pa.table(
            {
                "cohort": pa.array(ks[0], pa.int64()),
                "offset": pa.array(ks[1], pa.int64()),
                "partial_n": pa.array(vs["partial_n"], pa.int64()),
            }
        )

    parts = co_shuffle(proj, user_col, per_bucket, n_buckets=n_buckets, coalesce=True)
    return tree_sum(
        parts, ["cohort", "offset"], {"partial_n": "n_users"},
        int_cols=("partial_n",),
    )


# ----------------------------------------------------------------- graphs


def _pairs_within_groups(starts: np.ndarray, n: int):
    """(i, j) global index pairs (i < j positionally) within each sorted
    group given group start offsets over ``n`` rows. Vectorized via the
    marker-cumsum ragged enumerator; output size Σ m·(m−1)/2."""
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    gstart = np.zeros(n, dtype=np.int64)
    gstart[starts] = starts
    np.maximum.accumulate(gstart, out=gstart)
    within = np.arange(n, dtype=np.int64) - gstart
    owner, t = _ragged_ranges(within)  # element repeated (its within-pos) times
    j = owner
    i = gstart[owner] + t
    return i, j


def cooccurrence_edges(
    ds: ray.data.Dataset,
    group_col: str,
    item_col: str,
    n_buckets: int = 64,
    max_group_size: int | None = None,
    min_support: int = 1,
    keep_support: bool = False,
) -> ray.data.Dataset:
    """Distinct undirected co-occurrence edges ``(a < b)`` between items
    sharing a group (market-basket / co-purchase graph), with SUPPORT
    filtering: keep an edge only if the pair co-occurs in at least
    ``min_support`` distinct groups — the standard basket threshold, and
    the sparsifier that keeps downstream triangle/wedge work bounded
    (random co-occurrence is support-1; support ≥ 2 keeps signal).

    One wide pass: (1) groups hash-bucketed, per-bucket item lists
    deduped and expanded to pairs with one lexsort + the ragged pair
    enumerator (zero per-group Python — a pair occurrence per distinct
    group is counted at most once); (2) pair-occurrence counts merge
    through the combine tree (the distinct pairs must fit one worker)
    and the support filter drops the long random tail.
    Groups larger than ``max_group_size`` are DROPPED (their pair count
    is quadratic — replicate in SQL with ``HAVING count(*) <= cap``)."""
    proj = ds.select_columns([group_col, item_col])

    def per_bucket(group: pa.Table) -> pa.Table:
        g = group[group_col].to_numpy(zero_copy_only=False).astype(np.int64)
        it = group[item_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order, starts, gid = _group_starts(g, it)
        g_s, it_s = g[order], it[order]
        n = g_s.shape[0]
        # distinct items per group
        keep = np.zeros(n, dtype=bool)
        if n:
            keep[0] = True
            keep[1:] = (g_s[1:] != g_s[:-1]) | (it_s[1:] != it_s[:-1])
        g_d, it_d = g_s[keep], it_s[keep]
        m = g_d.shape[0]
        first = np.zeros(m, dtype=bool)
        if m:
            first[0] = True
            first[1:] = g_d[1:] != g_d[:-1]
        starts_d = np.nonzero(first)[0]
        if max_group_size is not None and m:
            sizes = np.diff(np.append(starts_d, m))
            gid_d = np.cumsum(first) - 1
            ok = sizes[gid_d] <= max_group_size
            g_d, it_d = g_d[ok], it_d[ok]
            m = g_d.shape[0]
            first = np.zeros(m, dtype=bool)
            if m:
                first[0] = True
                first[1:] = g_d[1:] != g_d[:-1]
            starts_d = np.nonzero(first)[0]
        i, j = _pairs_within_groups(starts_d, m)
        ks, vs = _group_reduce(
            [it_d[i], it_d[j]], {"partial_n": np.ones(i.shape[0], np.int64)}
        )
        return pa.table(
            {
                "a": pa.array(ks[0], pa.int64()),
                "b": pa.array(ks[1], pa.int64()),
                "partial_n": pa.array(vs["partial_n"], pa.int64()),
            }
        )

    pairs = co_shuffle(proj, group_col, per_bucket, n_buckets=n_buckets, coalesce=True)
    counted = tree_sum(
        pairs, ["a", "b"], {"partial_n": "support"}, int_cols=("partial_n",)
    )
    if min_support > 1:
        counted = counted.filter(
            expr=f"support >= {int(min_support)}"
        )
    if keep_support:
        return counted
    return counted.select_columns(["a", "b"])


def item_similarity_topk(
    ds: ray.data.Dataset,
    group_col: str,
    item_col: str,
    k: int = 3,
    min_support: int = 2,
    scale_bits: int = 20,
    max_group_size: int | None = None,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Item-item collaborative similarity (the classic co-occurrence
    recommender): for every item, its ``k`` most-similar items by
    bipartite cosine over the (group, item) incidence —
    ``cos²(a,b) = sup(a,b)² / (n_a·n_b)`` with ``sup`` = co-occurring
    distinct groups and ``n_x`` = distinct groups containing x.
    Squaring keeps the score integer-exact:
    ``score_q = trunc(sup²·2^scale_bits / (n_a·n_b))`` is
    order-isomorphic to cosine (both sides nonnegative), so ranking,
    ties (score DESC, neighbor ASC) and therefore the SQL twin are
    bit-deterministic. Returns directed ``(src, dst, score_q)``, ≤ k
    rows per src.

    Plan: pair supports ride the co-occurrence bucket plan
    (one group-hash shuffle + combine tree); per-item group counts are
    one more combine-tree pass and broadcast as an o(items) lookup
    (dimension-table bound, same as the label broadcasts); scoring is
    a vectorized int64 batch map with an explicit overflow guard; the
    final per-item cut reuses ``group_top_k``'s map-side-pruned
    shuffle."""
    from georay.ops import group_top_k

    pairs = cooccurrence_edges(
        ds, group_col, item_col, n_buckets=n_buckets,
        max_group_size=max_group_size, min_support=min_support,
        keep_support=True,
    )
    proj = ds.select_columns([group_col, item_col])

    def occ_bucket(group: pa.Table) -> pa.Table:
        g = group[group_col].to_numpy(zero_copy_only=False).astype(np.int64)
        it = group[item_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((it, g))
        g_s, it_s = g[order], it[order]
        n = g_s.shape[0]
        keep = np.zeros(n, dtype=bool)
        if n:
            keep[0] = True
            keep[1:] = (g_s[1:] != g_s[:-1]) | (it_s[1:] != it_s[:-1])
        ks, vs = _group_reduce(
            [it_s[keep]], {"partial_n": np.ones(int(keep.sum()), np.int64)}
        )
        return pa.table(
            {
                "item": pa.array(ks[0], pa.int64()),
                "partial_n": pa.array(vs["partial_n"], pa.int64()),
            }
        )

    occ = tree_sum(
        co_shuffle(proj, group_col, occ_bucket, n_buckets=n_buckets, coalesce=True),
        ["item"], {"partial_n": "n_g"}, int_cols=("partial_n",),
    ).to_pandas()
    if "item" not in occ.columns:  # empty input (Ray 2.49 schema loss)
        return ray.data.from_arrow(
            pa.table(
                {
                    "src": pa.array([], pa.int64()),
                    "dst": pa.array([], pa.int64()),
                    "score_q": pa.array([], pa.int64()),
                }
            )
        )
    items = occ["item"].to_numpy().astype(np.int64)
    ng = occ["n_g"].to_numpy().astype(np.int64)
    order = np.argsort(items)
    items, ng = items[order], ng[order]
    occ_ref = exchange.broadcast((items, ng))
    shift = int(scale_bits)

    def score(batch: pa.Table) -> pa.Table:
        it, n_g = occ_ref.get()
        a = batch["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        sup = batch["support"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        s2 = np.concatenate([sup, sup])
        if s2.size and int(s2.max()) ** 2 << shift >= 2**63:
            raise OverflowError(
                "item_similarity_topk: sup²·2^scale_bits exceeds int64 — "
                "lower scale_bits"
            )
        na = n_g[np.searchsorted(it, src)]
        nb = n_g[np.searchsorted(it, dst)]
        sq = (s2 * s2 << shift) // (na * nb)
        return pa.table(
            {
                "src": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
                "score_q": pa.array(sq, pa.int64()),
            }
        )

    scored = pairs.map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return group_top_k(
        scored, "src", ["score_q", "dst"], k, descending=[True, False]
    )


def link_prediction_cn(
    edges: ray.data.Dataset,
    min_cn: int = 2,
    n_buckets: int = 64,
    max_degree: int | None = None,
    score_alias: str = "cn",
) -> ray.data.Dataset:
    """Common-neighbor link prediction over an undirected distinct
    ``(a < b)`` edge list: every NON-adjacent pair at distance 2 with
    ``|N(x) ∩ N(y)| ≥ min_cn``, scored by that count — the classic
    CN baseline (Liben-Nowell & Kleinberg 2003). Two wide ops total:

    1. wedge counting = co-occurrence over the (node → neighbor)
       incidence (each edge contributes both directions), reusing
       ``cooccurrence_edges``'s one bucket co-shuffle + ragged pair
       expansion + combine tree — per-pair counts ARE the CN scores;
    2. existing edges removed with the partitioned composite-key anti
       join (keys-only shuffle on the right).

    Wedge volume is Σ_v deg(v)² — inherent to exact CN. ``max_degree``
    is the documented scale lever: super-hub nodes are dropped from
    wedge generation (the same W-cap convention the minhash banding
    stage uses); replicate in an oracle with a degree-capped incidence.
    """
    from georay import ops

    def incidence(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "v": pa.array(np.concatenate([a, b]), pa.int64()),
                "n": pa.array(np.concatenate([b, a]), pa.int64()),
            }
        )

    inc = edges.map_batches(
        incidence, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    )
    cand = cooccurrence_edges(
        inc, "v", "n", n_buckets=n_buckets, max_group_size=max_degree,
        min_support=min_cn, keep_support=True,
    )
    if score_alias != "support":
        cand = cand.map_batches(
            lambda b: b.rename_columns(
                [score_alias if n == "support" else n for n in b.column_names]
            ),
            batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
        )
    # schema anchor: a zero-candidate run drops every block (Ray 2.49
    # discards empty blocks, so cand.schema() degrades to None and the
    # downstream join cannot type its empty result — ROUND_NOTES quirk).
    # Union with a typed 0-row dataset keeps the schema without
    # materializing or adding a barrier. (Block-level rename above, not
    # Dataset.rename_columns: the lazy projection and the union anchor
    # disagree about which schema the join's key stage sees.)
    anchor = ray.data.from_arrow(
        pa.table(
            {
                "a": pa.array([], pa.int64()),
                "b": pa.array([], pa.int64()),
                score_alias: pa.array([], pa.int64()),
            }
        )
    )
    cand = anchor.union(cand)
    return ops.equi_join_partitioned(
        cand, edges.select_columns(["a", "b"]), on=["a", "b"], how="anti",
        n_buckets=n_buckets,
    )


def degree_distribution(
    edges: ray.data.Dataset, n_buckets: int = 64
) -> ray.data.Dataset:
    """Degree histogram of an undirected ``(a, b)`` edge list:
    ``(degree int64, n_nodes int64)``. Two combine-tree aggregations of
    partials (node→degree, degree→count) — the edge list itself never
    shuffles; only vocabulary-sized partial tables move."""
    degrees = degree_table(edges)

    def deg_counts(batch: pa.Table) -> pa.Table:
        d = batch["degree"].to_numpy(zero_copy_only=False).astype(np.int64)
        ks, vs = _group_reduce([d], {"partial_n": np.ones(d.shape[0], np.int64)})
        return pa.table(
            {
                "degree": pa.array(ks[0], pa.int64()),
                "partial_n": pa.array(vs["partial_n"], pa.int64()),
            }
        )

    parts2 = degrees.map_batches(
        deg_counts, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    return tree_sum(parts2, ["degree"], {"partial_n": "n_nodes"},
                    int_cols=("partial_n",))


def triangle_count(
    edges: ray.data.Dataset,
    n_buckets: int = 64,
    local_edge_cutoff: int = 100_000,
    degree_strategy: str = "broadcast",
) -> ray.data.Dataset:
    """Exact triangle count of an undirected distinct ``(a, b)`` edge
    list, as a 1-row ``(n_triangles int64)`` table.

    Degree-ordered node-iterator (the MapReduce-classic plan): every
    edge is oriented from its lower-(degree, id) endpoint to the higher,
    bounding out-degrees by O(√m) so total wedges are O(m^1.5) even on
    power-law graphs — the id-ordered variant is quadratic at hub nodes.
    Plan: (1) degree table via combine tree (edge list doesn't move);
    (2) the orientation pass attaches ``deg_dst`` to every oriented edge
    so the wedge stage needs NO degree table at all; (3) wedges
    generated per oriented source bucket; (4) wedges ∩ edges counted by
    one co-partitioned hash-bucket probe. The triangle COUNT is
    orientation-invariant, so the SQL oracle may use the simple
    ``a<b`` 3-way self-join.

    ``degree_strategy``: how step (2) reads degrees —

    - ``"broadcast"`` (default): degree table collected once and
      ``exchange.broadcast`` (searchsorted per batch; node table ≪ edge bytes).
    - ``"partitioned"``: degrees attached by TWO hash-bucket co-shuffle
      joins (``_attach_lookup`` by ``a`` then by ``b``) — the node
      table never lands on the driver; the billion-node scale path.
    """
    # small-edge-list fast path (same policy as connected_components):
    # the support-filtered edge list is usually o(the node table this
    # function materializes for broadcast anyway). Below the cutoff run
    # the IDENTICAL degree-ordered algorithm locally — every distributed
    # round here is pure scheduling barrier, not data. Cutoff keeps the
    # O(m^1.5) wedge array within one worker's heap.
    edges = edges.materialize()  # count + (fast path | 4 downstream scans)
    n_edges = edges.count()
    if n_edges <= local_edge_cutoff:
        if n_edges == 0:
            return ray.data.from_arrow(
                pa.table({"n_triangles": pa.array([0], pa.int64())})
            )
        t = exchange.collect(edges)
        a = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        total = _triangle_count_local(a, b)
        return ray.data.from_arrow(
            pa.table({"n_triangles": pa.array([total], pa.int64())})
        )

    degrees = degree_table(edges)

    if degree_strategy == "partitioned":
        # node table never on the driver: two co-shuffle joins attach
        # deg(a) then deg(b), a stateless pass orients
        with_da = _attach_lookup(
            edges, ["a", "b"], "a", degrees, "node", "degree", "da", n_buckets
        )
        with_db = _attach_lookup(
            with_da, ["a", "b", "da"], "b", degrees, "node", "degree", "db",
            n_buckets,
        )

        def orient_attached(batch: pa.Table) -> pa.Table:
            a = batch["a"].to_numpy(zero_copy_only=False)
            b = batch["b"].to_numpy(zero_copy_only=False)
            da = batch["da"].to_numpy(zero_copy_only=False)
            db = batch["db"].to_numpy(zero_copy_only=False)
            fwd = (da < db) | ((da == db) & (a < b))
            return pa.table(
                {
                    "src": pa.array(np.where(fwd, a, b), pa.int64()),
                    "dst": pa.array(np.where(fwd, b, a), pa.int64()),
                    "deg_dst": pa.array(np.where(fwd, db, da), pa.int64()),
                }
            )

        oriented = with_db.map_batches(
            orient_attached, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        )
    else:
        tbl = exchange.collect(degrees)
        nodes = tbl["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        degs = tbl["degree"].to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.argsort(nodes, kind="stable")
        deg_ref = exchange.broadcast((nodes[o], degs[o]))

        def orient(batch: pa.Table) -> pa.Table:
            ns, dg = deg_ref.get()
            a = batch["a"].to_numpy(zero_copy_only=False).astype(np.int64)
            b = batch["b"].to_numpy(zero_copy_only=False).astype(np.int64)
            da = dg[np.searchsorted(ns, a)]
            db = dg[np.searchsorted(ns, b)]
            fwd = (da < db) | ((da == db) & (a < b))
            return pa.table(
                {
                    "src": pa.array(np.where(fwd, a, b), pa.int64()),
                    "dst": pa.array(np.where(fwd, b, a), pa.int64()),
                    "deg_dst": pa.array(np.where(fwd, db, da), pa.int64()),
                }
            )

        oriented = edges.map_batches(
            orient, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
        )

    # wedges from each source's out-neighborhood; key them like edges so
    # the final probe co-partitions wedges with oriented edges. Wedge
    # orientation reads the ATTACHED deg_dst — no degree table here.
    def wedges_per_bucket(group: pa.Table) -> pa.Table:
        s = group["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = group["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        dd = group["deg_dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        order, starts, gid = _group_starts(s, d, group_keys=1)
        s_s, d_s, dd_s = s[order], d[order], dd[order]
        i, j = _pairs_within_groups(starts, s_s.shape[0])
        # orient the wedge pair by the GLOBAL edge orientation so it
        # matches a stored (src,dst) edge
        v, w = d_s[i], d_s[j]
        dv, dw = dd_s[i], dd_s[j]
        fwd = (dv < dw) | ((dv == dw) & (v < w))
        return pa.table(
            {
                "src": pa.array(np.where(fwd, v, w), pa.int64()),
                "dst": pa.array(np.where(fwd, w, v), pa.int64()),
            }
        )

    wedges = co_shuffle(oriented, "src", wedges_per_bucket, n_buckets=n_buckets, coalesce=True)

    def tag(which: int):
        def fn(batch: pa.Table) -> pa.Table:
            # physical projection (schema-safe under Ray 2.49's logical
            # select quirk) so both union sides are exactly (src, dst,
            # _is_edge)
            return pa.table(
                {
                    "src": batch["src"],
                    "dst": batch["dst"],
                    "_is_edge": pa.array(np.full(len(batch), which, np.int8)),
                }
            )

        return fn

    unioned = oriented.map_batches(
        tag(1), batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).union(
        wedges.map_batches(
            tag(0), batch_format="pyarrow", zero_copy_batch=True, batch_size=None
        )
    )

    def count_matches(group: pa.Table) -> pa.Table:
        s = group["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = group["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        e = group["_is_edge"].to_numpy(zero_copy_only=False).astype(np.int64)
        order, starts, gid = _group_starts(s, d)
        e_s = e[order]
        # within each (src,dst) group: wedge instances × edge flag (0/1)
        n_groups = starts.shape[0]
        if n_groups == 0:
            total = 0
        else:
            sums = np.add.reduceat(e_s, starts)  # edges per key (0 or 1)
            cnts = np.diff(np.append(starts, e_s.shape[0]))
            total = int(((cnts - sums) * sums).sum())
        return pa.table({"partial_n": pa.array([total], pa.int64())})

    parts = co_shuffle(
        unioned, ["src", "dst"], count_matches, n_buckets=n_buckets, coalesce=True
    )

    def merge(batch: pa.Table) -> pa.Table:
        v = batch["partial_n"].to_numpy(zero_copy_only=False)
        return pa.table({"n_triangles": pa.array([int(v.sum())], pa.int64())})

    return exchange.gather(parts, merge)


def degree_table(edges: ray.data.Dataset) -> ray.data.Dataset:
    """(node, degree) from a distinct undirected edge list — combine-tree
    aggregation of per-batch endpoint counts (edge list never shuffles)."""

    def endpoint_counts(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        node = np.concatenate([a, b])
        ks, vs = _group_reduce(
            [node], {"partial_deg": np.ones(node.shape[0], np.int64)}
        )
        return pa.table(
            {
                "node": pa.array(ks[0], pa.int64()),
                "partial_deg": pa.array(vs["partial_deg"], pa.int64()),
            }
        )

    parts = edges.map_batches(
        endpoint_counts, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    )
    return tree_sum(parts, ["node"], {"partial_deg": "degree"},
                    int_cols=("partial_deg",))


def _lpa_mode_pick(node: np.ndarray, lab: np.ndarray, cnt: np.ndarray):
    """Per-node modal label from (node, label, count) rows: max count,
    ties to the SMALLER label. Returns (nodes, labels) — one row per
    distinct node."""
    order = np.lexsort((lab, -cnt, node))
    nn, ll = node[order], lab[order]
    first = np.ones(nn.shape[0], bool)
    first[1:] = nn[1:] != nn[:-1]
    return nn[first], ll[first]


def label_propagation(
    edges: ray.data.Dataset,
    rounds: int = 3,
    local_edge_cutoff: int = 2_000_000,
    broadcast_edge_cutoff: int = 2_000_000,
) -> ray.data.Dataset:
    """Synchronous deterministic label propagation (community
    detection) over an undirected distinct ``(a, b)`` edge list: labels
    initialize to the node id; each round EVERY node simultaneously
    adopts the most frequent label among its neighbors, ties broken by
    the SMALLER label — the deterministic variant of LPA's random
    tie-break, so a chained-CTE SQL twin reproduces it bit-for-bit.
    ``rounds`` is fixed (sync LPA can oscillate on bipartite cores;
    a fixed round count is the standard budget and what the oracle
    pins).

    Plan per round (broadcast): the o(nodes) label table is broadcast
    via ``exchange.broadcast``; ONE streaming pass over the edge list emits
    per-batch partial (dst, neighbor-label) counts into the combine
    tree, and the modal pick folds driver-side on the merged count
    table (≤ one row per distinct (node, neighbor-label) — bounded by
    2·|edges|, the same order as the edge list a distributed pick
    would shuffle). The edge list is read ``rounds`` times — pass a
    materialized Dataset. Below ``local_edge_cutoff`` the identical
    integer iteration runs in-memory (policy of ``pagerank`` /
    ``connected_components``).

    AUTO-SWITCH (r5, the movement_report dwell-gate pattern): above
    ``broadcast_edge_cutoff`` edges the call DELEGATES to
    ``label_propagation_partitioned`` — the broadcast plan's driver-
    held merged count table grows with 2·|edges| (4.4 GiB at 20M
    edges) and the measured crossover is ≈2M edges (broadcast/
    partitioned seconds: 9.9/9.2 at 2M, 25.1/11.2 at 5M, 54.7/11.8 at
    10M, 32 cpus). All three plans are pinned identical by pytest.
    Returns ``(node, label)``."""
    edges = edges.materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return ray.data.from_arrow(
            pa.table({"node": pa.array([], pa.int64()),
                      "label": pa.array([], pa.int64())})
        )
    if n_edges > max(local_edge_cutoff, broadcast_edge_cutoff):
        return label_propagation_partitioned(edges, rounds=rounds)
    if n_edges <= local_edge_cutoff:
        t = exchange.collect(edges)
        a = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        nodes = np.unique(np.concatenate([a, b]))
        s = np.searchsorted(nodes, np.concatenate([a, b]))
        d = np.searchsorted(nodes, np.concatenate([b, a]))
        lab = nodes.copy()
        for _ in range(rounds):
            nl = lab[s]
            (gd, gl), outs = _group_reduce(
                [d, nl], {"c": np.ones(d.shape[0], np.int64)}
            )
            un, ul = _lpa_mode_pick(gd, gl, outs["c"])
            nxt = lab.copy()
            nxt[un] = ul  # un indexes nodes[] (d is positional)
            lab = nxt
        return ray.data.from_arrow(
            pa.table({"node": pa.array(nodes, pa.int64()),
                      "label": pa.array(lab, pa.int64())})
        )

    # distributed: driver-held o(nodes) labels, one edge pass per round
    nodet = degree_table(edges).to_pandas()
    nodes = np.sort(nodet["node"].to_numpy().astype(np.int64))
    lab = nodes.copy()
    for _ in range(rounds):
        lab_ref = exchange.broadcast((nodes, lab))

        def count_partial(batch: pa.Table) -> pa.Table:
            ns, ls = lab_ref.get()
            a = batch["a"].to_numpy(zero_copy_only=False).astype(np.int64)
            b = batch["b"].to_numpy(zero_copy_only=False).astype(np.int64)
            dst = np.concatenate([b, a])
            nl = ls[np.searchsorted(ns, np.concatenate([a, b]))]
            (gd, gl), outs = _group_reduce(
                [dst, nl], {"partial_c": np.ones(dst.shape[0], np.int64)}
            )
            return pa.table(
                {
                    "node": pa.array(gd, pa.int64()),
                    "lab": pa.array(gl, pa.int64()),
                    "partial_c": pa.array(outs["partial_c"], pa.int64()),
                }
            )

        merged = tree_sum(
            edges.map_batches(
                count_partial, batch_format="pyarrow", zero_copy_batch=True,
                batch_size=None,
            ),
            ["node", "lab"], {"partial_c": "c"}, int_cols=("partial_c",),
        ).to_pandas()
        un, ul = _lpa_mode_pick(
            merged["node"].to_numpy().astype(np.int64),
            merged["lab"].to_numpy().astype(np.int64),
            merged["c"].to_numpy().astype(np.int64),
        )
        nxt = lab.copy()
        nxt[np.searchsorted(nodes, un)] = ul
        lab = nxt
    return ray.data.from_arrow(
        pa.table({"node": pa.array(nodes, pa.int64()),
                  "label": pa.array(lab, pa.int64())})
    )


# ------------------------------------------------------------ superstep engine

# Row kinds in a superstep: a program's edge rows (keyed by source), its
# state rows (one per node), the messages between them, and rows that
# only say their node exists (a directed edge's head).
_EDGE, _STATE, _MSG, _NODE = 0, 1, 2, 3


def _rows(node: np.ndarray, kind: int, a: np.ndarray, b=None) -> pa.Table:
    """Superstep rows in the one layout every side shares: ``node`` is
    the key each superstep buckets on, ``kind`` one of the row kinds
    above, ``a`` and ``b`` the program's two int64 values."""
    n = node.shape[0]
    return pa.table({
        "node": pa.array(node, pa.int64()),
        "kind": pa.array(np.full(n, kind, np.int8)),
        "a": pa.array(a, pa.int64()),
        "b": pa.array(np.zeros(n, np.int64) if b is None else b, pa.int64()),
    })


def _columns(group: pa.Table) -> tuple[np.ndarray, ...]:
    """``(node, kind, a, b)`` of a superstep group as NumPy arrays."""
    return tuple(
        group[c].to_numpy(zero_copy_only=False) for c in ("node", "kind", "a", "b")
    )


def _state(node, kind, *vals) -> tuple[np.ndarray, ...]:
    """The group's ``_STATE`` rows sorted by node: ``(node, *vals)``."""
    s = kind == _STATE
    order = np.argsort(node[s])
    return tuple(v[s][order] for v in (node, *vals))


def _edge_rows(
    edges: ray.data.Dataset,
    id_a: str = "a",
    id_b: str = "b",
    weight_fn=None,
    directed: bool = False,
) -> ray.data.Dataset:
    """The static edge side of a superstep program, materialized once:
    one ``_EDGE`` row per direction an edge is followed in (both unless
    ``directed``), keyed by its source, with ``a`` = destination and
    ``b`` = ``weight_fn(a, b)`` (0 without one). A directed edge also
    gives its head a ``_NODE`` row, so superstep 0 sees pure sinks."""

    def to_rows(batch: pa.Table) -> pa.Table:
        a = batch[id_a].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch[id_b].to_numpy(zero_copy_only=False).astype(np.int64)
        w = (
            np.zeros(a.shape[0], np.int64) if weight_fn is None
            else np.asarray(weight_fn(a, b), dtype=np.int64)
        )
        if directed:
            return pa.concat_tables([_rows(a, _EDGE, b, w), _rows(b, _NODE, a)])
        return _rows(
            np.concatenate([a, b]), _EDGE, np.concatenate([b, a]),
            np.concatenate([w, w]),
        )

    return edges.map_batches(
        to_rows, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).materialize()


def _supersteps(
    program, edges=None, rows=None, *, n_buckets: int
) -> ray.data.Dataset:
    """Run a vertex program (Pregel, run as dataflow as in GraphX) and
    return the rows of its last superstep.

    A superstep is ONE node-keyed ``co_shuffle`` of the carried ``rows``
    (the program's state plus the messages the last superstep sent)
    with the static ``edges`` rows, materialized once. Inside a bucket a
    node's state, its out-edges and the messages addressed to it meet,
    so ``program.step(i, group)`` applies the messages, updates the
    state and sends the next messages in one vectorized call. Superstep
    0 sees the initial ``rows`` (if any) and ``edges`` (if any).

    ``program.halt(i, n_rows)`` decides from the round's row count, read
    from the materialized blocks' metadata, so the termination test
    costs no execution: the shortest-path program compares it with the
    node count superstep 0 measures (equal means no message is in
    flight), the components program with the count of a star forest."""
    for i in itertools.count():
        sides = [s for s in (rows, edges) if s is not None]
        rows = co_shuffle(
            sides, "node", functools.partial(program.step, i),
            n_buckets=n_buckets, coalesce=False,
        ).materialize()
        if program.halt(i, rows.count()):
            return rows


class _LabelPropagation:
    """``label_propagation_partitioned`` as a superstep program. State
    rows are ``(node, label)``; a message is ``(dst, label, count)``:
    how many of one bucket's nodes with that label border ``dst``.

    Superstep 0 labels every node with its own id; superstep r applies
    round r, the modal label of the messages (``_lpa_mode_pick``: count
    DESC, label ASC). Supersteps 0..rounds-1 send every node's label
    along its edges."""

    def __init__(self, rounds):
        self.rounds = rounds

    def step(self, i: int, group: pa.Table) -> pa.Table:
        node, kind, a, b = _columns(group)
        e = kind == _EDGE
        if i == 0:
            nodes = np.unique(node[e])
            label = nodes
        else:
            nodes, label = _state(node, kind, a)
            m = kind == _MSG
            (mn, ml), c = _group_reduce([node[m], a[m]], {"c": b[m]})
            won, wl = _lpa_mode_pick(mn, ml, c["c"])
            label = label.copy()
            label[np.searchsorted(nodes, won)] = wl
        out = [_rows(nodes, _STATE, label)]
        if i < self.rounds:
            at = np.searchsorted(nodes, node[e])
            (dst, dl), c = _group_reduce(
                [a[e], label[at]], {"c": np.ones(at.shape[0], np.int64)}
            )
            out.append(_rows(dst, _MSG, dl, c["c"]))
        return pa.concat_tables(out)

    def halt(self, i: int, n_rows: int) -> bool:
        return i == self.rounds


def label_propagation_partitioned(
    edges: ray.data.Dataset,
    rounds: int = 3,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Billion-node twin of ``label_propagation``: labels NEVER land on
    the driver. It is the ``_LabelPropagation`` superstep program: per
    round ONE node-keyed co-shuffle, in which each bucket holds its
    nodes' labels, their edges and the (dst, label, count) messages
    addressed to them, applies the modal pick and sends the new labels
    on (``rounds + 1`` co-shuffles in all), every table o(its bucket),
    no global aggregate. Identical deterministic dynamics, same
    unrolled-CTE oracle."""
    sym = _edge_rows(edges)
    if sym.count() == 0:
        return ray.data.from_arrow(
            pa.table({"node": pa.array([], pa.int64()),
                      "label": pa.array([], pa.int64())})
        )
    out = _supersteps(_LabelPropagation(rounds), sym, n_buckets=n_buckets)
    return out.map_batches(
        lambda t: pa.table({"node": t["node"], "label": t["a"]}),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )


def modularity(
    edges: ray.data.Dataset,
    labels: ray.data.Dataset,
) -> ray.data.Dataset:
    """Newman modularity of a node partition over an undirected
    distinct ``(a, b)`` edge list, EXACT: one row
    ``(m_edges, q_num)`` with ``Q = q_num / (4m²)`` —
    ``q_num = Σ_c (4m·e_c − d_c²)`` where ``e_c`` counts
    intra-community edges and ``d_c`` sums member degrees (the
    integerized ``Σ_c (e_c/m − (d_c/2m)²)``; the 4m² factor clears both
    denominators, so the SQL twin is bit-identical). The standard
    quality gate for any community assignment (``label_propagation``,
    components, externally supplied).

    Plan: the o(nodes) label table broadcasts via ``exchange.broadcast``; ONE
    streaming pass over the edge list emits per-batch partial
    ``(community, intra-edge count, degree sum)`` rows into the combine
    tree; the final Σ_c fold runs driver-side in arbitrary-precision
    ints over the o(communities) table."""
    labt = labels.to_pandas()
    if "node" not in labt.columns or len(labt) == 0:
        # empty labels (Ray 2.49 drops columns at 0 rows): valid only
        # with an empty edge list — fall through to the m == 0 raise
        nodes = np.empty(0, np.int64)
        labs = np.empty(0, np.int64)
    else:
        nodes = labt["node"].to_numpy().astype(np.int64)
        labs = labt["label"].to_numpy().astype(np.int64)
        order = np.argsort(nodes)
        nodes, labs = nodes[order], labs[order]
    lab_ref = exchange.broadcast((nodes, labs))

    def partial(batch: pa.Table) -> pa.Table:
        ns, ls = lab_ref.get()
        a = batch["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        ca = ls[np.searchsorted(ns, a)]
        cb = ls[np.searchsorted(ns, b)]
        comm = np.concatenate([ca, cb])
        intra = np.concatenate(
            [(ca == cb).astype(np.int64), np.zeros(cb.shape[0], np.int64)]
        )
        ks, vs = _group_reduce(
            [comm],
            {
                "partial_m": np.concatenate(
                    [np.ones(ca.shape[0], np.int64), np.zeros(cb.shape[0], np.int64)]
                ),
                "partial_e": intra,
                "partial_d": np.ones(comm.shape[0], np.int64),
            },
        )
        return pa.table(
            {
                "comm": pa.array(ks[0], pa.int64()),
                "partial_m": pa.array(vs["partial_m"], pa.int64()),
                "partial_e": pa.array(vs["partial_e"], pa.int64()),
                "partial_d": pa.array(vs["partial_d"], pa.int64()),
            }
        )

    merged = tree_sum(
        edges.map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
        ),
        ["comm"],
        {"partial_m": "m_c", "partial_e": "e_c", "partial_d": "d_c"},
        int_cols=("partial_m", "partial_e", "partial_d"),
    ).to_pandas()
    m = 0 if "m_c" not in merged.columns else int(merged["m_c"].sum())
    if m == 0:
        raise ValueError("modularity: empty edge list")
    q_num = sum(
        4 * m * int(e) - int(d) * int(d)
        for e, d in zip(merged["e_c"].to_numpy(), merged["d_c"].to_numpy())
    )
    if not (-(2**63) <= q_num < 2**63):
        raise OverflowError("modularity: q_num exceeds int64")
    return ray.data.from_arrow(
        pa.table(
            {
                "m_edges": pa.array([m], pa.int64()),
                "q_num": pa.array([int(q_num)], pa.int64()),
            }
        )
    )


def pagerank(
    edges: ray.data.Dataset,
    n_iter: int = 3,
    damping_num: int = 85,
    damping_den: int = 100,
    scale_bits: int = 30,
    local_edge_cutoff: int = 2_000_000,
    seeds: np.ndarray | None = None,
) -> ray.data.Dataset:
    """Integer-exact PageRank over an undirected ``(a, b)`` edge list
    (symmetrized to a directed graph), ``n_iter`` fixed power
    iterations. Ranks live in fixed-point units of ``2^-scale_bits``
    and EVERY operation is integer (init ``2^s // n``, per-edge
    contribution ``rank // deg``, update ``base + (85·Σ) // 100``) — no
    float summation order, no transcendentals — so a chained-CTE SQL
    twin reproduces the result bit-for-bit. The usual float PageRank is
    this with the quantization dropped.

    Plan per iteration: per-node contributions (rank // deg) are
    computed driver-side on the o(nodes) label table and broadcast via
    ``exchange.broadcast``; ONE streaming pass over the edge list emits per-batch
    partial destination sums that merge through the combine tree. The
    edge list never shuffles and is read ``n_iter`` times — pass a
    materialized edge Dataset. Node table fits the driver (same bound
    as ``triangle_count``); at billion-node scale swap the broadcast
    for the partitioned equality join.

    ``seeds`` — optional node ids for PERSONALIZED PageRank: the
    teleport mass (both the init vector and the per-iteration base)
    concentrates uniformly on the seed set instead of all nodes —
    random walk with restart, the standard graph-proximity ranking for
    recommendations. Seeds absent from the graph are ignored; an empty
    effective seed set raises. Identical integer arithmetic, so the
    chained-CTE twin extends with one CASE.

    Returns ``(node int64, rank_q int64)``; Σ rank_q ≈ 2^scale_bits
    (floor losses make it slightly less). Below ``local_edge_cutoff``
    edges the identical integer iteration runs in-memory (same policy
    as connected_components: the edge list is already o(the node table
    this function materializes), and each distributed round is pure
    scheduling barrier at that size)."""
    def _base_and_init(nodes_sorted: np.ndarray):
        n = nodes_sorted.shape[0]
        scale = 1 << scale_bits
        if seeds is None:
            base = np.full(
                n,
                ((damping_den - damping_num) * scale) // (damping_den * n),
                np.int64,
            )
            rank0 = np.full(n, scale // n, np.int64)
        else:
            sd = np.unique(np.asarray(seeds, np.int64))
            sd = sd[np.isin(sd, nodes_sorted)]
            if sd.size == 0:
                raise ValueError("pagerank: no seed node present in the graph")
            pos = np.searchsorted(nodes_sorted, sd)
            base = np.zeros(n, np.int64)
            base[pos] = (
                (damping_den - damping_num) * scale
            ) // (damping_den * sd.size)
            rank0 = np.zeros(n, np.int64)
            rank0[pos] = scale // sd.size
        return base, rank0

    edges = edges.materialize()  # count + (local pull | n_iter scans)
    n_edges = edges.count()
    if n_edges <= local_edge_cutoff:
        if n_edges == 0:
            return ray.data.from_arrow(
                pa.table({"node": pa.array([], pa.int64()),
                          "rank_q": pa.array([], pa.int64())})
            )
        t = exchange.collect(edges)
        a = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        if a.shape[0] == 0:
            return ray.data.from_arrow(
                pa.table({"node": pa.array([], pa.int64()),
                          "rank_q": pa.array([], pa.int64())})
            )
        nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
        ia, ib = inv[: a.shape[0]], inv[a.shape[0]:]
        n = nodes.shape[0]
        deg = np.bincount(ia, minlength=n) + np.bincount(ib, minlength=n)
        base_q, rank = _base_and_init(nodes)
        for _ in range(n_iter):
            contrib = rank // deg
            sums = np.bincount(ib, weights=contrib[ia].astype(np.float64),
                               minlength=n)
            sums += np.bincount(ia, weights=contrib[ib].astype(np.float64),
                                minlength=n)
            # float64 bincount is exact: contributions are < 2^30 and a
            # node's incoming sum < 2^scale_bits ≪ 2^53
            rank = base_q + (damping_num * sums.astype(np.int64)) // damping_den
        return ray.data.from_arrow(
            pa.table({"node": pa.array(nodes, pa.int64()),
                      "rank_q": pa.array(rank, pa.int64())})
        )

    degs = degree_table(edges)
    tbl = exchange.collect(degs)
    nodes = tbl["node"].to_numpy(zero_copy_only=False).astype(np.int64)
    deg = tbl["degree"].to_numpy(zero_copy_only=False).astype(np.int64)
    o = np.argsort(nodes, kind="stable")
    nodes, deg = nodes[o], deg[o]
    n = nodes.shape[0]
    if n == 0:
        return ray.data.from_arrow(
            pa.table({"node": pa.array([], pa.int64()),
                      "rank_q": pa.array([], pa.int64())})
        )
    base_q, rank = _base_and_init(nodes)

    for _ in range(n_iter):
        contrib = rank // deg
        ref = exchange.broadcast((nodes, contrib))

        def emit(batch: pa.Table, _ref=ref) -> pa.Table:
            ns, cv = _ref.get()
            a = batch["a"].to_numpy(zero_copy_only=False).astype(np.int64)
            b = batch["b"].to_numpy(zero_copy_only=False).astype(np.int64)
            dst = np.concatenate([b, a])
            src = np.concatenate([a, b])
            c = cv[np.searchsorted(ns, src)]
            ks, vs = _group_reduce([dst], {"partial_c": c})
            return pa.table(
                {
                    "node": pa.array(ks[0], pa.int64()),
                    "partial_c": pa.array(vs["partial_c"], pa.int64()),
                }
            )

        sums_ds = tree_sum(
            edges.map_batches(
                emit, batch_format="pyarrow", zero_copy_batch=True,
                batch_size=None,
            ),
            ["node"], {"partial_c": "c"}, int_cols=("partial_c",),
        )
        st = exchange.collect(sums_ds)
        c_nodes = st["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        c_sums = st["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        sums = np.zeros(n, dtype=np.int64)
        sums[np.searchsorted(nodes, c_nodes)] = c_sums
        rank = base_q + (damping_num * sums) // damping_den

    return ray.data.from_arrow(
        pa.table(
            {"node": pa.array(nodes, pa.int64()),
             "rank_q": pa.array(rank, pa.int64())}
        )
    )


def ktruss_edges(
    edges: ray.data.Dataset,
    k: int,
    rounds: int = 3,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Fixed-round k-truss peeling: each round computes every surviving
    edge's triangle support on the CURRENT edge set (``edge_jaccard``'s
    two bounded co-shuffles) and drops edges with support < k−2; after
    ``rounds`` rounds the surviving ``(a, b)`` set is returned (with
    rounds ≥ the peel depth this is the exact k-truss — the same
    fixed-round budget ``kcore_peel`` uses, and what the unrolled SQL
    twin pins). The cohesive-subgraph detector one level stronger than
    k-core: every surviving edge sits in ≥ k−2 triangles of survivors.
    No driver state — the edge set stays a Dataset between rounds; the
    driver sees one count per round (the loop guard)."""
    cur = edges.materialize()
    for _ in range(rounds):
        if cur.count() == 0:
            break
        sup = edge_jaccard(cur, n_buckets=n_buckets)
        cur = (
            sup.filter(expr=f"common >= {int(k) - 2}")
            .select_columns(["a", "b"])
            .materialize()
        )
    return cur


def pagerank_weighted(
    edges: ray.data.Dataset,
    weight_fn,
    n_iter: int = 3,
    damping_num: int = 85,
    damping_den: int = 100,
    scale_bits: int = 30,
    local_edge_cutoff: int = 2_000_000,
) -> ray.data.Dataset:
    """Edge-WEIGHTED PageRank: a node splits its rank among neighbors
    proportionally to edge weight — per directed edge u→v the
    contribution is ``(rank_u · w_uv) // wdeg_u`` with
    ``wdeg_u = Σ_v w_uv`` (integer floor per EDGE, so the chained-CTE
    SQL twin is bit-identical). ``weight_fn(a, b) -> int64`` must be
    symmetric, positive and derived from the endpoint ids (sssp's
    convention — ship a weight column via a wrapper when edges carry
    one). Same two plans as ``pagerank``: in-memory under the cutoff,
    else per-iteration streaming edge pass + combine tree with the
    o(nodes) (rank, wdeg) table broadcast."""
    edges = edges.materialize()
    n_edges = edges.count()
    empty = pa.table(
        {"node": pa.array([], pa.int64()), "rank_q": pa.array([], pa.int64())}
    )
    if n_edges == 0:
        return ray.data.from_arrow(empty)
    scale = 1 << scale_bits
    if n_edges <= local_edge_cutoff:
        t = exchange.collect(edges)
        a = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        if a.shape[0] == 0:
            return ray.data.from_arrow(empty)
        w = np.asarray(weight_fn(a, b), np.int64)
        if w.min() <= 0:
            raise ValueError("pagerank_weighted: weights must be positive")
        nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
        ia, ib = inv[: a.shape[0]], inv[a.shape[0]:]
        n = nodes.shape[0]
        wdeg = (
            np.bincount(ia, weights=w.astype(np.float64), minlength=n)
            + np.bincount(ib, weights=w.astype(np.float64), minlength=n)
        ).astype(np.int64)
        base_q = ((damping_den - damping_num) * scale) // (damping_den * n)
        rank = np.full(n, scale // n, dtype=np.int64)
        for _ in range(n_iter):
            ca = (rank[ia] * w) // wdeg[ia]  # u=a → v=b
            cb = (rank[ib] * w) // wdeg[ib]  # u=b → v=a
            sums = np.bincount(ib, weights=ca.astype(np.float64), minlength=n)
            sums += np.bincount(ia, weights=cb.astype(np.float64), minlength=n)
            rank = base_q + (damping_num * sums.astype(np.int64)) // damping_den
        return ray.data.from_arrow(
            pa.table({"node": pa.array(nodes, pa.int64()),
                      "rank_q": pa.array(rank, pa.int64())})
        )

    # distributed: o(nodes) (rank, wdeg) broadcast per iteration
    def wdeg_partial(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        w = np.asarray(weight_fn(a, b), np.int64)
        node = np.concatenate([a, b])
        ks, vs = _group_reduce(
            [node], {"partial_w": np.concatenate([w, w])}
        )
        return pa.table(
            {
                "node": pa.array(ks[0], pa.int64()),
                "partial_w": pa.array(vs["partial_w"], pa.int64()),
            }
        )

    degt = tree_sum(
        edges.map_batches(wdeg_partial, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None),
        ["node"], {"partial_w": "wdeg"}, int_cols=("partial_w",),
    ).to_pandas()
    nodes = degt["node"].to_numpy().astype(np.int64)
    wdeg = degt["wdeg"].to_numpy().astype(np.int64)
    o = np.argsort(nodes, kind="stable")
    nodes, wdeg = nodes[o], wdeg[o]
    n = nodes.shape[0]
    base_q = ((damping_den - damping_num) * scale) // (damping_den * n)
    rank = np.full(n, scale // n, dtype=np.int64)
    for _ in range(n_iter):
        ref = exchange.broadcast((nodes, rank, wdeg))

        def emit(batch: pa.Table, _ref=ref) -> pa.Table:
            ns, rk, wd = _ref.get()
            a = batch["a"].to_numpy(zero_copy_only=False).astype(np.int64)
            b = batch["b"].to_numpy(zero_copy_only=False).astype(np.int64)
            w = np.asarray(weight_fn(a, b), np.int64)
            pa_ = np.searchsorted(ns, a)
            pb_ = np.searchsorted(ns, b)
            ca = (rk[pa_] * w) // wd[pa_]
            cb = (rk[pb_] * w) // wd[pb_]
            dst = np.concatenate([b, a])
            ks, vs = _group_reduce(
                [dst], {"partial_c": np.concatenate([ca, cb])}
            )
            return pa.table(
                {
                    "node": pa.array(ks[0], pa.int64()),
                    "partial_c": pa.array(vs["partial_c"], pa.int64()),
                }
            )

        st = tree_sum(
            edges.map_batches(emit, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None),
            ["node"], {"partial_c": "c"}, int_cols=("partial_c",),
        ).to_pandas()
        sums = np.zeros(n, dtype=np.int64)
        sums[np.searchsorted(nodes, st["node"].to_numpy().astype(np.int64))] = (
            st["c"].to_numpy().astype(np.int64)
        )
        rank = base_q + (damping_num * sums) // damping_den
    return ray.data.from_arrow(
        pa.table({"node": pa.array(nodes, pa.int64()),
                  "rank_q": pa.array(rank, pa.int64())})
    )


def _triangle_count_local(a: np.ndarray, b: np.ndarray) -> int:
    """Exact triangle count of a distinct (a<b) edge list, in-memory —
    the same degree-ordered node-iterator as the distributed plan, all
    numpy: orient by (degree, id), enumerate out-neighbor pairs with the
    ragged pair enumerator, membership-test wedges against the oriented
    edge set via one sorted searchsorted."""
    if a.shape[0] == 0:
        return 0
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    ia, ib = inv[: a.shape[0]], inv[a.shape[0]:]
    deg = np.bincount(ia, minlength=nodes.shape[0]) + np.bincount(
        ib, minlength=nodes.shape[0]
    )
    # total order: (degree, node index)
    rank = np.lexsort((np.arange(nodes.shape[0]), deg))
    order_of = np.empty_like(rank)
    order_of[rank] = np.arange(rank.shape[0])
    oa, ob = order_of[ia], order_of[ib]
    src = np.where(oa < ob, oa, ob)
    dst = np.where(oa < ob, ob, oa)
    # sort by (src, dst) for grouped pair enumeration + membership probe
    o = np.lexsort((dst, src))
    src, dst = src[o], dst[o]
    first = np.ones(src.shape[0], dtype=bool)
    first[1:] = src[1:] != src[:-1]
    starts = np.nonzero(first)[0]
    i, j = _pairs_within_groups(starts, src.shape[0])
    if i.shape[0] == 0:
        return 0
    v, w = dst[i], dst[j]
    lo, hi = np.minimum(v, w), np.maximum(v, w)
    n = np.int64(nodes.shape[0])
    ekey = src.astype(np.int64) * n + dst
    wkey = lo.astype(np.int64) * n + hi
    ekey.sort()
    pos = np.searchsorted(ekey, wkey)
    pos = np.clip(pos, 0, ekey.shape[0] - 1)
    return int((ekey[pos] == wkey).sum())


def _rectangle_count_local(a: np.ndarray, b: np.ndarray) -> int:
    """Exact 4-cycle (rectangle) count of a distinct (a<b) edge list,
    in-memory: enumerate wedges (u, mid, w) from sorted adjacency, count
    wedge multiplicity t per unordered endpoint pair, and sum C(t, 2).
    Each rectangle {u, m1, w, m2} is seen at BOTH diagonal pairs
    ((u,w) and (m1,m2)), hence the final halving."""
    if a.shape[0] == 0:
        return 0
    src = np.concatenate([a, b]).astype(np.int64)
    dst = np.concatenate([b, a]).astype(np.int64)
    o = np.lexsort((dst, src))
    s, d = src[o], dst[o]
    first = np.ones(s.shape[0], dtype=bool)
    first[1:] = s[1:] != s[:-1]
    starts = np.nonzero(first)[0]
    i, j = _pairs_within_groups(starts, s.shape[0])
    if i.shape[0] == 0:
        return 0
    # dst ascending within each src group and i < j ⇒ d[i] < d[j]
    _, vs = _group_reduce(
        [d[i], d[j]], {"t": np.ones(i.shape[0], np.int64)}
    )
    t = vs["t"]
    return int((t * (t - 1) // 2).sum() // 2)


def rectangle_count(
    edges: ray.data.Dataset,
    n_buckets: int = 64,
    local_edge_cutoff: int = 100_000,
) -> ray.data.Dataset:
    """Exact 4-cycle (rectangle / quadrilateral) count of an undirected
    distinct ``(a, b)`` edge list, as a 1-row ``(n_rectangles int64)``
    table — the bipartite-cohesion ("butterfly") metric generalized to
    unipartite graphs.

    Identity: rectangles = Σ_{u<w} C(t_uw, 2) / 2 where ``t_uw`` is the
    number of length-2 paths (wedges) between endpoints u and w; each
    4-cycle contributes one C(2,2) at EACH of its two diagonal pairs,
    hence the halving. Plan: (1) symmetrize edges into adjacency rows
    keyed by the wedge MID node and hash-bucket co-shuffle on mid, so
    each bucket enumerates its mids' neighbor pairs with the ragged
    pair enumerator (zero per-node Python); (2) wedge multiplicities
    merge through the combine tree; (3) per-batch partial Σ C(t,2)
    reduces to one int64. Total wedge volume is Σ deg(mid)² — fine on
    support-filtered co-occurrence graphs; for power-law inputs cap hub
    degrees upstream (``cooccurrence_edges(max_group_size=...)``) or
    sparsify before counting. Count is orientation-invariant, so the
    SQL oracle may use the plain symmetric wedge self-join."""
    from georay.ops import tree_reduce

    edges = edges.materialize()
    n_edges = edges.count()
    if n_edges <= local_edge_cutoff:
        if n_edges == 0:
            return ray.data.from_arrow(
                pa.table({"n_rectangles": pa.array([0], pa.int64())})
            )
        t = exchange.collect(edges)
        a = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        return ray.data.from_arrow(
            pa.table(
                {"n_rectangles": pa.array(
                    [_rectangle_count_local(a, b)], pa.int64()
                )}
            )
        )

    def symmetrize(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "mid": pa.array(np.concatenate([a, b]), pa.int64()),
                "nbr": pa.array(np.concatenate([b, a]), pa.int64()),
            }
        )

    adj = edges.map_batches(
        symmetrize, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    )

    def per_mid_wedges(group: pa.Table) -> pa.Table:
        m = group["mid"].to_numpy(zero_copy_only=False)
        nb = group["nbr"].to_numpy(zero_copy_only=False)
        order, starts, _ = _group_starts(m, nb, group_keys=1)
        nb_s = nb[order]
        i, j = _pairs_within_groups(starts, nb_s.shape[0])
        if i.shape[0] == 0:
            return pa.table(
                {
                    "u": pa.array([], pa.int64()),
                    "w": pa.array([], pa.int64()),
                    "partial_t": pa.array([], pa.int64()),
                }
            )
        ks, vs = _group_reduce(
            [nb_s[i], nb_s[j]], {"partial_t": np.ones(i.shape[0], np.int64)}
        )
        return pa.table(
            {
                "u": pa.array(ks[0], pa.int64()),
                "w": pa.array(ks[1], pa.int64()),
                "partial_t": pa.array(vs["partial_t"], pa.int64()),
            }
        )

    wedges = co_shuffle(adj, "mid", per_mid_wedges, n_buckets=n_buckets, coalesce=True)
    t_tbl = tree_sum(wedges, ["u", "w"], {"partial_t": "t"},
                     int_cols=("partial_t",))

    def choose2_partial(batch: pa.Table) -> pa.Table:
        t = batch["t"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "one": pa.array([1], pa.int64()),
                "partial_c": pa.array([int((t * (t - 1) // 2).sum())],
                                      pa.int64()),
            }
        )

    tot = tree_reduce(
        t_tbl.map_batches(
            choose2_partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["one"], {"partial_c": "c"},
    ).materialize()  # 1 row; typed empty-wedge guard below
    if tot.count() == 0:
        return ray.data.from_arrow(
            pa.table({"n_rectangles": pa.array([0], pa.int64())})
        )

    def finish(batch: pa.Table) -> pa.Table:
        c = batch["c"].to_numpy(zero_copy_only=False)
        val = int(c[0]) // 2 if c.shape[0] else 0
        return pa.table({"n_rectangles": pa.array([val], pa.int64())})

    return tot.map_batches(
        finish, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


# ------------------------------------------------- trajectories / OD

def line_density(
    ds: ray.data.Dataset,
    user_col: str,
    ts_col: str,
    ix_col: str,
    iy_col: str,
    x_origin: int,
    y_origin: int,
    cell_units: int,
    nx: int,
    ny: int,
    tiebreak_col: str | None = None,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Line-density raster: per grid cell, the number of trajectory
    LEGS (consecutive per-entity fixes) whose closed segment intersects
    the closed cell box — the road-usage / corridor heat map every
    movement pipeline draws. EXACT: coordinates are INTEGER lattice
    units (caller scales lon/lat), the finite grid is
    ``[x_origin + cell_units·gx, ...] × nx × ny`` cells, and the
    intersection test is bbox overlap + the separating-line corner
    test (all four cell corners strictly on one side of the leg's
    carrier line ⇒ miss) — pure int64 comparisons, replicated verbatim
    in the SQL twin (boundary touches COUNT on both sides; a
    zero-length leg counts its containing cell).

    Plan: one user-bucket co-shuffle orders fixes into legs; each leg
    ragged-expands to its bbox cell cover (±1 ring so boundary-touch
    cells enter the exact predicate) vectorized; per-batch (gx, gy)
    count partials merge through the combine tree. Candidate volume is
    Σ per-leg bbox cover — bounded by leg LENGTH in cells, so keep the
    grid resolution coarse enough that typical legs span O(1–100)
    cells (at 100 TB, legs are short relative to any sane raster)."""
    cols = [user_col, ts_col, ix_col, iy_col] + (
        [tiebreak_col] if tiebreak_col else []
    )
    proj = ds.select_columns(cols)
    cu = int(cell_units)
    ox, oy = int(x_origin), int(y_origin)

    def per_bucket(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "gx": pa.array([], pa.int64()),
                "gy": pa.array([], pa.int64()),
                "partial_n": pa.array([], pa.int64()),
            }
        )
        u = group[user_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if u.shape[0] == 0:
            return empty
        ts = group[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keys = [u, ts]
        if tiebreak_col:
            keys.append(
                group[tiebreak_col].to_numpy(zero_copy_only=False).astype(np.int64)
            )
        order, starts, _ = _group_starts(*keys, group_keys=1)
        ix = group[ix_col].to_numpy(zero_copy_only=False).astype(np.int64)[order]
        iy = group[iy_col].to_numpy(zero_copy_only=False).astype(np.int64)[order]
        n = ix.shape[0]
        first = np.zeros(n, dtype=bool)
        first[starts] = True
        keep_leg = ~first
        x1 = np.empty(n, np.int64); y1 = np.empty(n, np.int64)
        x1[1:] = ix[:-1]; y1[1:] = iy[:-1]
        x2, y2 = ix[keep_leg], iy[keep_leg]
        x1, y1 = x1[keep_leg], y1[keep_leg]
        if x1.shape[0] == 0:
            return empty
        bx0 = np.minimum(x1, x2); bx1 = np.maximum(x1, x2)
        by0 = np.minimum(y1, y2); by1 = np.maximum(y1, y2)
        gx0 = np.floor_divide(bx0 - ox, cu) - 1
        gx1 = np.floor_divide(bx1 - ox, cu) + 1
        gy0 = np.floor_divide(by0 - oy, cu) - 1
        gy1 = np.floor_divide(by1 - oy, cu) + 1
        np.clip(gx0, 0, nx - 1, out=gx0); np.clip(gx1, 0, nx - 1, out=gx1)
        np.clip(gy0, 0, ny - 1, out=gy0); np.clip(gy1, 0, ny - 1, out=gy1)
        ngx = gx1 - gx0 + 1
        ngy = gy1 - gy0 + 1
        ncell = ngx * ngy
        tot = int(ncell.sum())
        if tot == 0:
            return empty
        li = np.repeat(np.arange(x1.shape[0]), ncell)
        k = np.arange(tot) - np.repeat(np.cumsum(ncell) - ncell, ncell)
        gy_n = ngy[li]
        gx = gx0[li] + k // gy_n
        gy = gy0[li] + k % gy_n
        cx0 = ox + cu * gx; cx1 = cx0 + cu
        cy0 = oy + cu * gy; cy1 = cy0 + cu
        lx1, ly1, lx2, ly2 = x1[li], y1[li], x2[li], y2[li]
        ok = (
            (np.minimum(lx1, lx2) <= cx1) & (np.maximum(lx1, lx2) >= cx0)
            & (np.minimum(ly1, ly2) <= cy1) & (np.maximum(ly1, ly2) >= cy0)
        )
        dx = lx2 - lx1; dy = ly2 - ly1
        c00 = dx * (cy0 - ly1) - dy * (cx0 - lx1)
        c01 = dx * (cy0 - ly1) - dy * (cx1 - lx1)
        c10 = dx * (cy1 - ly1) - dy * (cx0 - lx1)
        c11 = dx * (cy1 - ly1) - dy * (cx1 - lx1)
        sep = ((c00 > 0) & (c01 > 0) & (c10 > 0) & (c11 > 0)) | (
            (c00 < 0) & (c01 < 0) & (c10 < 0) & (c11 < 0)
        )
        ok &= ~sep
        if not ok.any():
            return empty
        ks, vs = _group_reduce(
            [gx[ok], gy[ok]], {"partial_n": np.ones(int(ok.sum()), np.int64)}
        )
        return pa.table(
            {
                "gx": pa.array(ks[0], pa.int64()),
                "gy": pa.array(ks[1], pa.int64()),
                "partial_n": pa.array(vs["partial_n"], pa.int64()),
            }
        )

    parts = co_shuffle(proj, user_col, per_bucket, n_buckets=n_buckets, coalesce=True)
    return tree_sum(parts, ["gx", "gy"], {"partial_n": "n_legs"},
                    int_cols=("partial_n",))


def trajectory_stats(
    ds: ray.data.Dataset,
    user_col: str,
    ts_col: str,
    lon_col: str,
    lat_col: str,
    tiebreak_col: str | None = None,
    scale_bits: int = 20,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Per-entity movement statistics over a timestamped point stream:
    ``(user, n_points, path_q, net_q)`` where path = Σ planar leg
    lengths between consecutive fixes and net = start→end displacement.

    Each leg is ``sqrt(dx² + dy²)`` — IEEE sqrt is CORRECTLY ROUNDED
    (verified bit-equal numpy vs DuckDB on this host), so quantizing
    each leg to ``floor(leg · 2^scale_bits + 0.5)`` is deterministic
    and the per-user int64 sums are order-free → the SQL LAG twin
    hash-matches exactly. (A float sum of haversine legs would be both
    summation-order dependent AND asin-ulp fragile; use planar degrees
    for the oracle gate, haversine for the geodesic variant.)

    One user-bucket shuffle; per-bucket one lexsort + vectorized diffs."""
    cols = [user_col, ts_col, lon_col, lat_col] + (
        [tiebreak_col] if tiebreak_col else []
    )
    proj = ds.select_columns(cols)
    scale = float(1 << scale_bits)

    def per_bucket(group: pa.Table) -> pa.Table:
        u = group[user_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keys = [u, ts]
        if tiebreak_col:
            keys.append(
                group[tiebreak_col].to_numpy(zero_copy_only=False).astype(np.int64)
            )
        order, starts, gid = _group_starts(*keys, group_keys=1)
        lon = group[lon_col].to_numpy(zero_copy_only=False)[order]
        lat = group[lat_col].to_numpy(zero_copy_only=False)[order]
        n = lon.shape[0]
        if n == 0:
            return pa.table(
                {
                    user_col: pa.array([], pa.int64()),
                    "n_points": pa.array([], pa.int64()),
                    "path_q": pa.array([], pa.int64()),
                    "net_q": pa.array([], pa.int64()),
                }
            )
        first = np.zeros(n, dtype=bool)
        first[starts] = True
        dx = np.empty(n)
        dy = np.empty(n)
        dx[1:] = lon[1:] - lon[:-1]
        dy[1:] = lat[1:] - lat[:-1]
        dx[first] = 0.0
        dy[first] = 0.0
        leg_q = np.floor(np.sqrt(dx * dx + dy * dy) * scale + 0.5).astype(np.int64)
        path = np.add.reduceat(leg_q, starts)
        ends = np.append(starts[1:], n) - 1
        ndx = lon[ends] - lon[starts]
        ndy = lat[ends] - lat[starts]
        net = np.floor(np.sqrt(ndx * ndx + ndy * ndy) * scale + 0.5).astype(np.int64)
        counts = np.diff(np.append(starts, n))
        return pa.table(
            {
                user_col: pa.array(u[order][starts], pa.int64()),
                "n_points": pa.array(counts, pa.int64()),
                "path_q": pa.array(path, pa.int64()),
                "net_q": pa.array(net, pa.int64()),
            }
        )

    return co_shuffle(proj, user_col, per_bucket, n_buckets=n_buckets, coalesce=True)


def hausdorff_pairs(
    ds: ray.data.Dataset,
    user_col: str,
    ts_col: str,
    lon_col: str,
    lat_col: str,
    group_fn,
    tiebreak_col: str | None = None,
    scale_bits: int = 20,
    n_buckets: int = 64,
    n_chunks: int = 4,
) -> ray.data.Dataset:
    """Discrete Hausdorff distance between every PAIR of entity point
    sets that share a group (e.g. the coarse grid cell of each entity's
    first fix): ``(user_a, user_b, hausdorff_q)`` with a < b, distance
    quantized to ``floor(h · 2^scale_bits + 0.5)``.

    The trajectory-similarity join: Hausdorff is a SET distance, so no
    ordering ships — stage 1 hash-bucket co-shuffles points by entity
    and packs each entity into ONE row (entity, group, lon list, lat
    list), where group = ``group_fn(first_lon, first_lat)`` on the
    (ts, tiebreak)-min fix; NULL/NaN fixes drop (the movement-family
    convention). Stage 2 splits each group's PROBE entities over
    ``n_chunks`` tasks (references replicate — packed tracks are tiny
    next to the point table), computes the DIRECTED h(a→b)² per chunk
    vectorized (one (n_a × N_refs) squared-distance block per entity,
    segmented column minima via ``np.minimum.reduceat``, row-max), and
    a max-merge combine tree folds the two directed halves of each
    unordered pair. Exactness: max/min over identically-computed
    doubles plus one correctly-rounded sqrt at the end, so the SQL
    cross-join twin hash-matches bit-for-bit.

    Partitioning assumption (SCALING.md): one entity's track fits a
    row, and one GROUP's packed REFERENCE set fits a task (probe work
    splits across ``group × n_chunks`` tasks, so parallelism is not
    capped by the group count). All-pairs cost is per group, never
    global."""
    scale = float(1 << scale_bits)
    proj = ds.select_columns(
        [user_col, ts_col, lon_col, lat_col]
        + ([tiebreak_col] if tiebreak_col else [])
    )

    def pack(group: pa.Table) -> pa.Table:
        # NULL/NaN fixes drop (the movement-family convention — a set
        # distance needs real positions; NaN would poison min/max)
        fx = group[lon_col].to_numpy(zero_copy_only=False).astype(np.float64)
        fy = group[lat_col].to_numpy(zero_copy_only=False).astype(np.float64)
        fin = np.isfinite(fx) & np.isfinite(fy)
        if not fin.all():
            group = group.filter(pa.array(fin))
        u = group[user_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keys = [u, ts]
        if tiebreak_col:
            keys.append(
                group[tiebreak_col].to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
        order, starts, _ = _group_starts(*keys, group_keys=1)
        lon = group[lon_col].to_numpy(zero_copy_only=False)[order]
        lat = group[lat_col].to_numpy(zero_copy_only=False)[order]
        n = lon.shape[0]
        if n == 0:
            return pa.table(
                {
                    "user": pa.array([], pa.int64()),
                    "grp": pa.array([], pa.int64()),
                    "lons": pa.array([], pa.list_(pa.float64())),
                    "lats": pa.array([], pa.list_(pa.float64())),
                }
            )
        grp = np.asarray(
            group_fn(lon[starts], lat[starts]), dtype=np.int64
        )
        offsets = np.append(starts, n).astype(np.int32)
        return pa.table(
            {
                "user": pa.array(u[order][starts], pa.int64()),
                "grp": pa.array(grp, pa.int64()),
                "lons": pa.ListArray.from_arrays(offsets, pa.array(lon)),
                "lats": pa.ListArray.from_arrays(offsets, pa.array(lat)),
            }
        )

    packed = co_shuffle(proj, user_col, pack, n_buckets=n_buckets, coalesce=True)

    nchunk = max(1, int(n_chunks))

    def fan_out(batch: pa.Table) -> pa.Table:
        # each entity: PROBE row in its own chunk, REFERENCE row in all
        u = batch["user"].to_numpy(zero_copy_only=False)
        cid = (u.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
               >> np.uint64(32)).astype(np.int64) % nchunk
        parts = []
        probe = batch.append_column(
            "chunk", pa.array(cid, pa.int64())
        ).append_column(
            "role", pa.array(np.zeros(len(batch), np.int64))
        )
        parts.append(probe)
        for j in range(nchunk):
            parts.append(
                batch.append_column(
                    "chunk", pa.array(np.full(len(batch), j, np.int64))
                ).append_column(
                    "role", pa.array(np.ones(len(batch), np.int64))
                )
            )
        return pa.concat_tables(parts)

    fanned = packed.map_batches(
        fan_out, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    )

    def directed_chunk(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "user_a": pa.array([], pa.int64()),
                "user_b": pa.array([], pa.int64()),
                "partial_h": pa.array([], pa.float64()),
            }
        )
        g = group["grp"].to_numpy(zero_copy_only=False)
        ck = group["chunk"].to_numpy(zero_copy_only=False)
        role = group["role"].to_numpy(zero_copy_only=False)
        u = group["user"].to_numpy(zero_copy_only=False).astype(np.int64)
        lons = group["lons"].combine_chunks()
        lats = group["lats"].combine_chunks()
        if isinstance(lons, pa.ChunkedArray):
            lons = lons.chunk(0) if lons.num_chunks else pa.array(
                [], pa.list_(pa.float64()))
            lats = lats.chunk(0) if lats.num_chunks else pa.array(
                [], pa.list_(pa.float64()))
        flat_lon = np.asarray(lons.values)
        flat_lat = np.asarray(lats.values)
        offs = np.asarray(lons.offsets)
        out_a, out_b, out_h = [], [], []
        # (grp, chunk) segments via lexsort boundaries — no composite
        # id arithmetic (full-range int64 grp ids must not overflow)
        seg_order = np.lexsort((ck, g))
        gs, cs = g[seg_order], ck[seg_order]
        nseg = gs.shape[0]
        first = np.ones(nseg, dtype=bool)
        if nseg:
            first[1:] = (gs[1:] != gs[:-1]) | (cs[1:] != cs[:-1])
        seg_starts = np.nonzero(first)[0]
        seg_ends = np.append(seg_starts[1:], nseg)
        for s0, s1 in zip(seg_starts, seg_ends):
            rows = seg_order[s0:s1]
            refs = rows[role[rows] == 1]
            probes = rows[role[rows] == 0]
            if refs.shape[0] < 2 or probes.shape[0] == 0:
                continue
            rsegs = [np.arange(offs[r], offs[r + 1]) for r in refs]
            ridx = np.concatenate(rsegs)
            P = np.column_stack([flat_lon[ridx], flat_lat[ridx]])
            sizes = np.array([x.shape[0] for x in rsegs], dtype=np.int64)
            rstarts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
            ru = u[refs]
            order_p = probes[np.argsort(u[probes], kind="stable")]
            # per-entity distance blocks on purpose: a (track × N_ref)
            # block fits L2, so the column-reduceat streams from cache —
            # batching multiple probes into one big block measured 3×
            # SLOWER (51 MB blocks go memory-bound). Parallelism comes
            # from the (group × chunk) task grid, not block size.
            for a in order_p:
                A = np.column_stack(
                    [flat_lon[offs[a]:offs[a + 1]],
                     flat_lat[offs[a]:offs[a + 1]]]
                )
                dx = A[:, 0:1] - P[:, 0][None, :]
                dy = A[:, 1:2] - P[:, 1][None, :]
                D = dx * dx + dy * dy
                mins = np.minimum.reduceat(D, rstarts, axis=1)
                h_row = mins.max(axis=0)  # directed h(a -> each ref)²
                keep = ru != u[a]
                out_a.append(np.full(int(keep.sum()), u[a], np.int64))
                out_b.append(ru[keep])
                out_h.append(h_row[keep])
        if not out_a:
            return empty
        ua = np.concatenate(out_a)
        ub = np.concatenate(out_b)
        hh = np.concatenate(out_h)
        lo = np.minimum(ua, ub)
        hi = np.maximum(ua, ub)
        return pa.table(
            {
                "user_a": pa.array(lo, pa.int64()),
                "user_b": pa.array(hi, pa.int64()),
                "partial_h": pa.array(hh, pa.float64()),
            }
        )

    from georay.ops import tree_reduce

    directed = co_shuffle(
        fanned, ["grp", "chunk"], directed_chunk, n_buckets=n_buckets,
        coalesce=True,
    )
    merged = tree_reduce(
        directed, ["user_a", "user_b"], {"partial_h": "h2"},
        ufunc={"partial_h": np.maximum},
    )

    def finish(batch: pa.Table) -> pa.Table:
        h2 = batch["h2"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "user_a": batch["user_a"],
                "user_b": batch["user_b"],
                "hausdorff_q": pa.array(
                    np.floor(np.sqrt(h2) * scale + 0.5).astype(np.int64)
                ),
            }
        )

    return merged.map_batches(
        finish, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    )


def trajectory_clip_rect(
    ds: ray.data.Dataset,
    user_col: str,
    ts_col: str,
    lon_col: str,
    lat_col: str,
    rect: tuple[float, float, float, float],
    tiebreak_col: str | None = None,
    scale_bits: int = 20,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Per-entity track length INSIDE an axis-aligned rectangle
    (geofence dwell distance): each consecutive-fix leg is clipped to
    ``rect = (xmin, ymin, xmax, ymax)`` with the parametric slab method
    (per-axis entry/exit t, intersected and clamped to [0,1]), and the
    clipped lengths sum per user — ``(user, n_points, clip_q)``.

    Every arithmetic step (division, LEAST/GREATEST clamping, sqrt,
    final ``floor(len·frac·2^scale_bits + 0.5)``) is an IEEE
    correctly-rounded double op replicated term-for-term in the SQL
    twin, so the int64 per-user sums are order-free and hash-exact.
    Degenerate axis-parallel legs (``dx == 0`` resp. ``dy == 0``) take
    the inside/outside CASE branch instead of dividing. Same dataflow
    as ``trajectory_stats``: one user-bucket shuffle, per-bucket
    lexsort + fully vectorized clip."""
    xmin, ymin, xmax, ymax = (float(v) for v in rect)
    cols = [user_col, ts_col, lon_col, lat_col] + (
        [tiebreak_col] if tiebreak_col else []
    )
    proj = ds.select_columns(cols)
    scale = float(1 << scale_bits)

    def per_bucket(group: pa.Table) -> pa.Table:
        u = group[user_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keys = [u, ts]
        if tiebreak_col:
            keys.append(
                group[tiebreak_col].to_numpy(zero_copy_only=False).astype(np.int64)
            )
        order, starts, gid = _group_starts(*keys, group_keys=1)
        lon = group[lon_col].to_numpy(zero_copy_only=False)[order]
        lat = group[lat_col].to_numpy(zero_copy_only=False)[order]
        n = lon.shape[0]
        if n == 0:
            return pa.table(
                {
                    user_col: pa.array([], pa.int64()),
                    "n_points": pa.array([], pa.int64()),
                    "clip_q": pa.array([], pa.int64()),
                }
            )
        first = np.zeros(n, dtype=bool)
        first[starts] = True
        x0 = np.empty(n); y0 = np.empty(n)
        x0[1:] = lon[:-1]; y0[1:] = lat[:-1]
        x0[first] = lon[first]; y0[first] = lat[first]
        dx = lon - x0
        dy = lat - y0
        zx = dx == 0.0
        zy = dy == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ta = (xmin - x0) / dx
            tb = (xmax - x0) / dx
            ua = (ymin - y0) / dy
            ub = (ymax - y0) / dy
        lo_x = np.where(zx, 0.0, np.minimum(ta, tb))
        hi_x = np.where(zx, 1.0, np.maximum(ta, tb))
        lo_y = np.where(zy, 0.0, np.minimum(ua, ub))
        hi_y = np.where(zy, 1.0, np.maximum(ua, ub))
        empty = (zx & ((x0 < xmin) | (x0 > xmax))) | (
            zy & ((y0 < ymin) | (y0 > ymax))
        )
        t0 = np.maximum(0.0, np.maximum(lo_x, lo_y))
        t1 = np.minimum(1.0, np.minimum(hi_x, hi_y))
        frac = np.where(empty, 0.0, np.maximum(0.0, t1 - t0))
        frac[first] = 0.0
        clip = np.sqrt(dx * dx + dy * dy) * frac
        clip_q = np.floor(clip * scale + 0.5).astype(np.int64)
        path = np.add.reduceat(clip_q, starts)
        counts = np.diff(np.append(starts, n))
        return pa.table(
            {
                user_col: pa.array(u[order][starts], pa.int64()),
                "n_points": pa.array(counts, pa.int64()),
                "clip_q": pa.array(path, pa.int64()),
            }
        )

    return co_shuffle(proj, user_col, per_bucket, n_buckets=n_buckets, coalesce=True)


def zone_dwell_time(
    ds: ray.data.Dataset,
    user_col: str,
    ts_col: str,
    lon_col: str,
    lat_col: str,
    rect: tuple[float, float, float, float],
    tiebreak_col: str | None = None,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Per-entity TIME spent inside an axis-aligned rectangle
    (geofence dwell TIME — the temporal sibling of
    ``trajectory_clip_rect``'s dwell distance): each leg's in-rect
    parameter fraction (identical slab clip) scales the leg's elapsed
    microseconds under the linear-motion assumption, and
    ``floor(dt_us·frac + 0.5)`` sums per user —
    ``(user, n_points, dwell_us)``. The fraction arithmetic and the
    final rounding are the clip twin's IEEE ops replicated
    term-for-term in SQL (dt is an exact int64 of microseconds), so
    the per-user sums are order-free and hash-exact. One user-bucket
    shuffle, fully vectorized."""
    xmin, ymin, xmax, ymax = (float(v) for v in rect)
    cols = [user_col, ts_col, lon_col, lat_col] + (
        [tiebreak_col] if tiebreak_col else []
    )
    proj = ds.select_columns(cols)

    def per_bucket(group: pa.Table) -> pa.Table:
        u = group[user_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keys = [u, ts]
        if tiebreak_col:
            keys.append(
                group[tiebreak_col].to_numpy(zero_copy_only=False).astype(np.int64)
            )
        order, starts, _gid = _group_starts(*keys, group_keys=1)
        lon = group[lon_col].to_numpy(zero_copy_only=False)[order]
        lat = group[lat_col].to_numpy(zero_copy_only=False)[order]
        tss = ts[order]
        n = lon.shape[0]
        if n == 0:
            return pa.table(
                {
                    user_col: pa.array([], pa.int64()),
                    "n_points": pa.array([], pa.int64()),
                    "dwell_us": pa.array([], pa.int64()),
                }
            )
        first = np.zeros(n, dtype=bool)
        first[starts] = True
        x0 = np.empty(n); y0 = np.empty(n)
        x0[1:] = lon[:-1]; y0[1:] = lat[:-1]
        x0[first] = lon[first]; y0[first] = lat[first]
        t_prev = np.empty(n, np.int64)
        t_prev[1:] = tss[:-1]
        t_prev[first] = tss[first]
        dt = tss - t_prev
        dx = lon - x0
        dy = lat - y0
        zx = dx == 0.0
        zy = dy == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ta = (xmin - x0) / dx
            tb = (xmax - x0) / dx
            ua = (ymin - y0) / dy
            ub = (ymax - y0) / dy
        lo_x = np.where(zx, 0.0, np.minimum(ta, tb))
        hi_x = np.where(zx, 1.0, np.maximum(ta, tb))
        lo_y = np.where(zy, 0.0, np.minimum(ua, ub))
        hi_y = np.where(zy, 1.0, np.maximum(ua, ub))
        emptym = (zx & ((x0 < xmin) | (x0 > xmax))) | (
            zy & ((y0 < ymin) | (y0 > ymax))
        )
        t0 = np.maximum(0.0, np.maximum(lo_x, lo_y))
        t1 = np.minimum(1.0, np.minimum(hi_x, hi_y))
        frac = np.where(emptym, 0.0, np.maximum(0.0, t1 - t0))
        frac[first] = 0.0
        dwell = np.floor(dt.astype(np.float64) * frac + 0.5).astype(np.int64)
        total = np.add.reduceat(dwell, starts)
        counts = np.diff(np.append(starts, n))
        return pa.table(
            {
                user_col: pa.array(u[order][starts], pa.int64()),
                "n_points": pa.array(counts, pa.int64()),
                "dwell_us": pa.array(total, pa.int64()),
            }
        )

    return co_shuffle(proj, user_col, per_bucket, n_buckets=n_buckets, coalesce=True)


def trajectory_clip_stats(
    ds: ray.data.Dataset,
    user_col: str,
    ts_col: str,
    lon_col: str,
    lat_col: str,
    rect: tuple[float, float, float, float],
    tiebreak_col: str | None = None,
    scale_bits: int = 20,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Fused ``trajectory_stats`` + ``trajectory_clip_rect``:
    ``(user, n_points, path_q, clip_q)`` from ONE user-bucket shuffle —
    the legs, the slab clip, and both quantized sums share a single
    lexsort, so a dwell-fraction gate costs one wide op instead of two
    shuffles plus a join. Arithmetic identical to the two separate ops
    (their SQL twins compose unchanged)."""
    xmin, ymin, xmax, ymax = (float(v) for v in rect)
    cols = [user_col, ts_col, lon_col, lat_col] + (
        [tiebreak_col] if tiebreak_col else []
    )
    proj = ds.select_columns(cols)
    scale = float(1 << scale_bits)

    def per_bucket(group: pa.Table) -> pa.Table:
        u = group[user_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keys = [u, ts]
        if tiebreak_col:
            keys.append(
                group[tiebreak_col].to_numpy(zero_copy_only=False).astype(np.int64)
            )
        order, starts, gid = _group_starts(*keys, group_keys=1)
        lon = group[lon_col].to_numpy(zero_copy_only=False)[order]
        lat = group[lat_col].to_numpy(zero_copy_only=False)[order]
        n = lon.shape[0]
        if n == 0:
            return pa.table(
                {
                    user_col: pa.array([], pa.int64()),
                    "n_points": pa.array([], pa.int64()),
                    "path_q": pa.array([], pa.int64()),
                    "clip_q": pa.array([], pa.int64()),
                }
            )
        first = np.zeros(n, dtype=bool)
        first[starts] = True
        x0 = np.empty(n); y0 = np.empty(n)
        x0[1:] = lon[:-1]; y0[1:] = lat[:-1]
        x0[first] = lon[first]; y0[first] = lat[first]
        dx = lon - x0
        dy = lat - y0
        leg = np.sqrt(dx * dx + dy * dy)
        leg_q = np.floor(leg * scale + 0.5).astype(np.int64)
        leg_q[first] = 0
        zx = dx == 0.0
        zy = dy == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ta = (xmin - x0) / dx
            tb = (xmax - x0) / dx
            ua = (ymin - y0) / dy
            ub = (ymax - y0) / dy
        lo_x = np.where(zx, 0.0, np.minimum(ta, tb))
        hi_x = np.where(zx, 1.0, np.maximum(ta, tb))
        lo_y = np.where(zy, 0.0, np.minimum(ua, ub))
        hi_y = np.where(zy, 1.0, np.maximum(ua, ub))
        empty = (zx & ((x0 < xmin) | (x0 > xmax))) | (
            zy & ((y0 < ymin) | (y0 > ymax))
        )
        t0 = np.maximum(0.0, np.maximum(lo_x, lo_y))
        t1 = np.minimum(1.0, np.minimum(hi_x, hi_y))
        frac = np.where(empty, 0.0, np.maximum(0.0, t1 - t0))
        frac[first] = 0.0
        clip_q = np.floor(leg * frac * scale + 0.5).astype(np.int64)
        return pa.table(
            {
                user_col: pa.array(u[order][starts], pa.int64()),
                "n_points": pa.array(np.diff(np.append(starts, n)), pa.int64()),
                "path_q": pa.array(np.add.reduceat(leg_q, starts), pa.int64()),
                "clip_q": pa.array(np.add.reduceat(clip_q, starts), pa.int64()),
            }
        )

    return co_shuffle(proj, user_col, per_bucket, n_buckets=n_buckets, coalesce=True)


def trajectory_midpoint(
    ds: ray.data.Dataset,
    user_col: str,
    ts_col: str,
    lon_col: str,
    lat_col: str,
    tiebreak_col: str | None = None,
    scale_bits: int = 20,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Per-entity point at HALF the cumulative path length (linear
    interpolation along the track) — ``(user, mid_x_q, mid_y_q)``.

    Legs quantize to int64 FIRST (``floor(leg·2^scale_bits + 0.5)``),
    so the running sum is integer and therefore independent of the SQL
    window implementation's addition order (a float running sum would
    diverge from DuckDB's segment-tree accumulation). The target is
    ``total // 2`` in exact integer arithmetic; the carrying leg is the
    first with ``leg_q > 0 AND cum_q >= target``, and the within-leg
    fraction ``(target - (cum_q - leg_q)) / leg_q`` plus the final lerp
    are IEEE double ops replicated term-for-term in SQL. Zero-length
    tracks (single fix / stationary) emit their first fix. Same
    dataflow as ``trajectory_stats``: one user-bucket shuffle,
    per-bucket lexsort + segmented vectorized scan."""
    cols = [user_col, ts_col, lon_col, lat_col] + (
        [tiebreak_col] if tiebreak_col else []
    )
    proj = ds.select_columns(cols)
    scale = float(1 << scale_bits)

    def per_bucket(group: pa.Table) -> pa.Table:
        u = group[user_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keys = [u, ts]
        if tiebreak_col:
            keys.append(
                group[tiebreak_col].to_numpy(zero_copy_only=False).astype(np.int64)
            )
        order, starts, gid = _group_starts(*keys, group_keys=1)
        lon = group[lon_col].to_numpy(zero_copy_only=False)[order]
        lat = group[lat_col].to_numpy(zero_copy_only=False)[order]
        n = lon.shape[0]
        if n == 0:
            return pa.table(
                {
                    user_col: pa.array([], pa.int64()),
                    "mid_x_q": pa.array([], pa.int64()),
                    "mid_y_q": pa.array([], pa.int64()),
                }
            )
        first = np.zeros(n, dtype=bool)
        first[starts] = True
        dx = np.empty(n); dy = np.empty(n)
        dx[1:] = lon[1:] - lon[:-1]
        dy[1:] = lat[1:] - lat[:-1]
        dx[first] = 0.0
        dy[first] = 0.0
        leg_q = np.floor(np.sqrt(dx * dx + dy * dy) * scale + 0.5).astype(np.int64)
        c = np.cumsum(leg_q)
        base = c[starts] - leg_q[starts]
        cum = c - base[gid]
        ends = np.append(starts[1:], n) - 1
        tot = cum[ends]
        target = tot // 2
        hit = (leg_q > 0) & (cum >= target[gid])
        idx = np.where(hit, np.arange(n), n)
        sel = np.minimum.reduceat(idx, starts)
        moved = tot > 0
        out_x = np.empty(starts.shape[0])
        out_y = np.empty(starts.shape[0])
        if np.any(moved):
            i = sel[moved]
            s = (target[moved] - (cum[i] - leg_q[i])).astype(np.float64) / leg_q[
                i
            ].astype(np.float64)
            out_x[moved] = lon[i - 1] + s * (lon[i] - lon[i - 1])
            out_y[moved] = lat[i - 1] + s * (lat[i] - lat[i - 1])
        still = ~moved
        out_x[still] = lon[starts[still]]
        out_y[still] = lat[starts[still]]
        return pa.table(
            {
                user_col: pa.array(u[order][starts], pa.int64()),
                "mid_x_q": pa.array(
                    np.floor(out_x * scale + 0.5).astype(np.int64), pa.int64()
                ),
                "mid_y_q": pa.array(
                    np.floor(out_y * scale + 0.5).astype(np.int64), pa.int64()
                ),
            }
        )

    return co_shuffle(proj, user_col, per_bucket, n_buckets=n_buckets, coalesce=True)


def lttb_downsample(
    ds: ray.data.Dataset,
    key_col: str,
    ts_col: str,
    value_col: str,
    n_out: int,
    tiebreak_col: str | None = None,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Largest-Triangle-Three-Buckets downsampling per key: reduce each
    key's time series to ``n_out`` points while preserving visual shape
    (spikes and inflections survive; the classic dashboard/telemetry
    compressor). First and last point always survive; each interior
    bucket keeps the point maximizing the triangle area with the
    previously-kept point and the next bucket's centroid.

    One key-hash bucket shuffle; per series the bucket loop is Python
    O(n_out) with a vectorized area scan per bucket (the LTTB
    recurrence is inherently sequential — each pick depends on the
    previous). Series with ≤ n_out points pass through unchanged.
    Pinned by unit tests (spike survival, passthrough, endpoint
    invariants) — the data-dependent pick chain has no SQL form."""
    if n_out < 3:
        raise ValueError("lttb_downsample: n_out must be ≥ 3")
    cols = [key_col, ts_col, value_col] + (
        [tiebreak_col] if tiebreak_col else []
    )
    proj = ds.select_columns(cols)

    def lttb_one(ts: np.ndarray, v: np.ndarray) -> np.ndarray:
        n = ts.shape[0]
        if n <= n_out:
            return np.arange(n)
        # n_out-2 interior buckets over points 1..n-2
        edges = np.linspace(1, n - 1, n_out - 1).astype(np.int64)
        keep = np.empty(n_out, np.int64)
        keep[0] = 0
        a = 0
        for b in range(n_out - 2):
            lo, hi = edges[b], edges[b + 1]
            nlo, nhi = edges[b + 1], (n if b == n_out - 3 else edges[b + 2])
            cx = ts[nlo:nhi].mean()
            cy = v[nlo:nhi].mean()
            # area of triangle (a, candidate, centroid) ∝ |cross product|
            area = np.abs(
                (ts[a] - cx) * (v[lo:hi] - v[a])
                - (ts[a] - ts[lo:hi]) * (cy - v[a])
            )
            a = lo + int(np.argmax(area))
            keep[b + 1] = a
        keep[-1] = n - 1
        return keep

    def per_bucket(group: pa.Table) -> pa.Table:
        k = group[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keys = [k, ts]
        if tiebreak_col:
            keys.append(
                group[tiebreak_col].to_numpy(zero_copy_only=False).astype(np.int64)
            )
        order, starts, gid = _group_starts(*keys, group_keys=1)
        v = group[value_col].to_numpy(zero_copy_only=False)[order]
        tss = ts[order].astype(np.float64)
        ends = np.append(starts[1:], k.shape[0])
        picks = [
            s + lttb_one(tss[s:e], v[s:e].astype(np.float64))
            for s, e in zip(starts, ends)
        ]
        sel = np.concatenate(picks) if picks else np.empty(0, np.int64)
        return group.take(pa.array(order[sel]))

    return co_shuffle(proj, key_col, per_bucket, n_buckets=n_buckets, coalesce=True)


def movement_rose(
    ds: ray.data.Dataset,
    user_col: str,
    ts_col: str,
    lon_col: str,
    lat_col: str,
    tiebreak_col: str | None = None,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Per-entity compass rose: counts of movement legs per 45° octant
    — ``(user, octant 0..7, n)``, octant 0 = east-northeast spoke,
    counterclockwise. The sector decision is PURE COMPARISONS on
    (dx, dy) — no atan2, whose last-ulp rounding ANSI SQL does not
    pin — via an ordered first-match condition chain replicated as a
    SQL CASE chain, so boundary legs (exact diagonals, axis-parallel)
    land in the same octant on both engines. Zero-length legs and each
    track's first fix are excluded. Same dataflow as
    ``trajectory_stats``; per-user partial counts merge in the
    grouped aggregate downstream (the bucket shuffle already
    co-locates a user's whole track, so counts here are final)."""
    cols = [user_col, ts_col, lon_col, lat_col] + (
        [tiebreak_col] if tiebreak_col else []
    )
    proj = ds.select_columns(cols)

    def per_bucket(group: pa.Table) -> pa.Table:
        u = group[user_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keys = [u, ts]
        if tiebreak_col:
            keys.append(
                group[tiebreak_col].to_numpy(zero_copy_only=False).astype(np.int64)
            )
        order, starts, gid = _group_starts(*keys, group_keys=1)
        lon = group[lon_col].to_numpy(zero_copy_only=False)[order]
        lat = group[lat_col].to_numpy(zero_copy_only=False)[order]
        n = lon.shape[0]
        empty = pa.table(
            {
                user_col: pa.array([], pa.int64()),
                "octant": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
            }
        )
        if n == 0:
            return empty
        first = np.zeros(n, dtype=bool)
        first[starts] = True
        dx = np.empty(n); dy = np.empty(n)
        dx[1:] = lon[1:] - lon[:-1]
        dy[1:] = lat[1:] - lat[:-1]
        dx[first] = 0.0
        dy[first] = 0.0
        moving = ~first & ((dx != 0.0) | (dy != 0.0))
        if not np.any(moving):
            return empty
        dx = dx[moving]; dy = dy[moving]
        octant = np.select(
            [
                (dx > 0) & (dy >= 0) & (dx >= dy),
                (dy > 0) & (dx >= 0),
                (dy > 0) & (-dx <= dy),
                (dy >= 0),
                (dx < 0) & (-dx >= -dy),
                (dx <= 0),
                (dx > 0) & (dx <= -dy),
            ],
            [0, 1, 2, 3, 4, 5, 6],
            default=7,
        ).astype(np.int64)
        uu = u[order][moving]
        ks, vs = _agg_pairs(uu, octant)
        return pa.table(
            {
                user_col: pa.array(ks[0], pa.int64()),
                "octant": pa.array(ks[1], pa.int64()),
                "n": pa.array(vs, pa.int64()),
            }
        )

    return co_shuffle(proj, user_col, per_bucket, n_buckets=n_buckets, coalesce=True)


def _agg_pairs(a: np.ndarray, b: np.ndarray):
    """Grouped count over two int64 key arrays: ([keys_a, keys_b], counts)."""
    order = np.lexsort((b, a))
    sa = a[order]; sb = b[order]
    new = np.ones(sa.shape[0], bool)
    new[1:] = (sa[1:] != sa[:-1]) | (sb[1:] != sb[:-1])
    starts = np.nonzero(new)[0]
    counts = np.diff(np.append(starts, sa.shape[0]))
    return [sa[starts], sb[starts]], counts


def _dp_keep(x: np.ndarray, y: np.ndarray, eps2: float) -> np.ndarray:
    """Douglas–Peucker keep mask for ONE track (segment-distance
    variant: deviation measured to the clamped anchor chord, robust
    for backtracking tracks). Iterative explicit stack, vectorized
    max-deviation scan per split — Python work is O(retained points),
    numpy work O(n log n) expected."""
    n = x.shape[0]
    keep = np.zeros(n, bool)
    if n == 0:
        return keep
    keep[0] = keep[-1] = True
    stack = [(0, n - 1)]
    while stack:
        i, j = stack.pop()
        if j <= i + 1:
            continue
        dx = x[j] - x[i]
        dy = y[j] - y[i]
        L2 = dx * dx + dy * dy
        sx = x[i + 1:j]
        sy = y[i + 1:j]
        if L2 == 0.0:
            d2 = (sx - x[i]) ** 2 + (sy - y[i]) ** 2
        else:
            t = np.clip(((sx - x[i]) * dx + (sy - y[i]) * dy) / L2, 0.0, 1.0)
            d2 = (sx - (x[i] + t * dx)) ** 2 + (sy - (y[i] + t * dy)) ** 2
        m = int(np.argmax(d2))
        if d2[m] > eps2:
            k = i + 1 + m
            keep[k] = True
            stack.append((i, k))
            stack.append((k, j))
    return keep


def simplify_tracks(
    ds: ray.data.Dataset,
    user_col: str,
    ts_col: str,
    lon_col: str,
    lat_col: str,
    epsilon: float,
    tiebreak_col: str | None = None,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Per-entity Douglas–Peucker polyline simplification: drop every
    fix that deviates less than ``epsilon`` from the chord between its
    surviving neighbors (classic trajectory compression — keeps turn
    points, drops straight-run filler). Output = the INPUT rows of the
    retained fixes (first and last fix of every entity always survive).

    Same dataflow as the other trajectory ops: one user-bucket shuffle;
    per bucket, a lexsort then one `_dp_keep` recursion per track —
    inherently per-feature (the split choice is data-dependent), like
    the reference's per-feature geometry visitors; everything inside a
    split is vectorized. Not SQL-expressible (recursive), so pinned by
    hand-built unit tests rather than an oracle entry."""
    cols = [user_col, ts_col, lon_col, lat_col] + (
        [tiebreak_col] if tiebreak_col else []
    )
    proj = ds.select_columns(cols)
    eps2 = float(epsilon) * float(epsilon)

    def per_bucket(group: pa.Table) -> pa.Table:
        u = group[user_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keys = [u, ts]
        if tiebreak_col:
            keys.append(
                group[tiebreak_col].to_numpy(zero_copy_only=False).astype(np.int64)
            )
        order, starts, gid = _group_starts(*keys, group_keys=1)
        lon = group[lon_col].to_numpy(zero_copy_only=False)[order]
        lat = group[lat_col].to_numpy(zero_copy_only=False)[order]
        n = lon.shape[0]
        keep = np.zeros(n, bool)
        ends = np.append(starts[1:], n)
        for s, e in zip(starts, ends):
            keep[s:e] = _dp_keep(lon[s:e], lat[s:e], eps2)
        return group.take(pa.array(order[keep]))

    return co_shuffle(proj, user_col, per_bucket, n_buckets=n_buckets, coalesce=True)


def od_matrix(
    ds: ray.data.Dataset,
    user_col: str,
    ts_col: str,
    cell_col: str,
    tiebreak_col: str | None = None,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Origin–destination matrix: counts of consecutive-fix transitions
    between cells across all entities — ``(cell_from, cell_to, n)``,
    self-transitions included. One user-bucket shuffle (a user's track
    never splits), per-bucket lexsort + shifted compare, partial counts
    through the combine tree. SQL twin: LAG over (user ORDER BY ts)."""
    cols = [user_col, ts_col, cell_col] + ([tiebreak_col] if tiebreak_col else [])
    proj = ds.select_columns(cols)

    def per_bucket(group: pa.Table) -> pa.Table:
        u = group[user_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = group[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        keys = [u, ts]
        if tiebreak_col:
            keys.append(
                group[tiebreak_col].to_numpy(zero_copy_only=False).astype(np.int64)
            )
        order, starts, gid = _group_starts(*keys, group_keys=1)
        cell = group[cell_col].to_numpy(zero_copy_only=False).astype(np.int64)[order]
        n = cell.shape[0]
        if n == 0:
            return pa.table(
                {
                    "cell_from": pa.array([], pa.int64()),
                    "cell_to": pa.array([], pa.int64()),
                    "partial_n": pa.array([], pa.int64()),
                }
            )
        first = np.zeros(n, dtype=bool)
        first[starts] = True
        keep = ~first
        frm = np.empty(n, dtype=np.int64)
        frm[1:] = cell[:-1]
        ks, vs = _group_reduce(
            [frm[keep], cell[keep]],
            {"partial_n": np.ones(int(keep.sum()), np.int64)},
        )
        return pa.table(
            {
                "cell_from": pa.array(ks[0], pa.int64()),
                "cell_to": pa.array(ks[1], pa.int64()),
                "partial_n": pa.array(vs["partial_n"], pa.int64()),
            }
        )

    parts = co_shuffle(proj, user_col, per_bucket, n_buckets=n_buckets, coalesce=True)
    return tree_sum(
        parts, ["cell_from", "cell_to"], {"partial_n": "n"},
        int_cols=("partial_n",),
    )


# ------------------------------------------------------- convex hulls

def _convex_hull_xy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the convex hull in counter-clockwise order (Andrew's
    monotone chain; collinear points dropped). O(n log n) per group."""
    n = x.shape[0]
    order = np.lexsort((y, x))
    pts = np.arange(n)[order]

    def half(indices):
        out: list[int] = []
        for i in indices:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                cross = (x[a] - x[o]) * (y[i] - y[o]) - (y[a] - y[o]) * (x[i] - x[o])
                if cross <= 0:
                    out.pop()
                else:
                    break
            out.append(i)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1], dtype=np.int64)


def grouped_convex_hull(
    ds: ray.data.Dataset,
    key_col: str,
    lon_col: str,
    lat_col: str,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Per-group convex hull (dissolve-to-hull): ``(key, hull_wkt,
    n_vertices, area)`` — hull as a closed CCW POLYGON through the
    engine's own native builder + WKT writer, shoelace area.

    One key-bucket shuffle; within a bucket groups are separated by one
    lexsort, then each group runs monotone chain (O(m log m); the
    per-group Python loop is over GROUPS, sized for coarse keys —
    regions, flags, coarse cells. No SQL twin exists for hulls, so this
    is pinned by geometry pytest invariants (hull ⊆ input, all points
    inside, known-square case) rather than the oracle gate."""
    from georay.codecs import native, wkt
    from georay.types import GeoType

    proj = ds.select_columns([key_col, lon_col, lat_col])

    def per_bucket(group: pa.Table) -> pa.Table:
        k = group[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        x = group[lon_col].to_numpy(zero_copy_only=False)
        y = group[lat_col].to_numpy(zero_copy_only=False)
        order, starts, gid = _group_starts(k)
        xs, ys, ks = x[order], y[order], k[order]
        n = xs.shape[0]
        keys_out: list[int] = []
        wkts: list[str] = []
        nv: list[int] = []
        areas: list[float] = []
        bounds = np.append(starts, n)
        for gi in range(starts.shape[0]):
            lo, hi = bounds[gi], bounds[gi + 1]
            gx, gy = xs[lo:hi], ys[lo:hi]
            hull = _convex_hull_xy(gx, gy)
            if hull.shape[0] < 3:
                # degenerate (point/segment): emit an empty polygon
                keys_out.append(int(ks[lo]))
                wkts.append("POLYGON EMPTY")
                nv.append(int(hull.shape[0]))
                areas.append(0.0)
                continue
            hx, hy = gx[hull], gy[hull]
            ring = np.column_stack(
                [np.append(hx, hx[0]), np.append(hy, hy[0])]
            )
            geo = GeoType.polygon()
            arr = native.build_nested(
                ring,
                [np.array([0, 1]), np.array([0, ring.shape[0]])],
                geo,
            )
            wkts.append(wkt.encode(arr, geo)[0].as_py())
            keys_out.append(int(ks[lo]))
            nv.append(int(hull.shape[0]))
            areas.append(
                float(
                    0.5
                    * np.abs(
                        np.dot(hx, np.roll(hy, -1)) - np.dot(hy, np.roll(hx, -1))
                    )
                )
            )
        return pa.table(
            {
                key_col: pa.array(keys_out, pa.int64()),
                "hull_wkt": pa.array(wkts, pa.string()),
                "n_vertices": pa.array(nv, pa.int64()),
                "area": pa.array(areas, pa.float64()),
            }
        )

    return co_shuffle(proj, key_col, per_bucket, n_buckets=n_buckets, coalesce=True)

def grouped_hull_stats(
    ds: ray.data.Dataset,
    key_col: str,
    x_col: str,
    y_col: str,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Per-group convex-hull DERIVED SCALARS over integer-grid coords:
    ``(key, n_vertices, area2, perim_q)`` — the oracle-friendly twin of
    ``grouped_convex_hull`` (whose WKT output has no SQL equivalent).

    Semantics (over the group's DISTINCT points, so duplicated inputs
    cannot double-count a corner):

    - ``n_vertices``: strict hull corners (collinear boundary points
      dropped — Andrew chain with ``cross <= 0`` pop); a single point
      gives 0, an all-collinear group gives 2 (the chain's endpoints).
    - ``area2``: twice the signed CCW shoelace area — exact when coords
      are integers (|cross| sums < 2^53 stay integer in float64).
    - ``perim_q``: per-edge Euclidean lengths quantized to
      ``floor(len * 1e6 + 0.5)`` int64 THEN summed, so the total is
      association-free and bit-replicable in SQL (sqrt is correctly
      rounded for integer squared lengths on this host — see
      trajectory_stats).

    Same bucket-shuffle shape as grouped_convex_hull: one key-bucket
    groupby; the per-group Python loop is over GROUPS (coarse keys).
    """
    proj = ds.select_columns([key_col, x_col, y_col])

    def per_bucket(group: pa.Table) -> pa.Table:
        k = group[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        x = group[x_col].to_numpy(zero_copy_only=False).astype(np.float64)
        y = group[y_col].to_numpy(zero_copy_only=False).astype(np.float64)
        order, starts, gid = _group_starts(k)
        xs, ys, ks = x[order], y[order], k[order]
        n = xs.shape[0]
        keys_out: list[int] = []
        nv: list[int] = []
        area2: list[int] = []
        perim: list[int] = []
        bounds = np.append(starts, n)
        for gi in range(starts.shape[0]):
            lo, hi = bounds[gi], bounds[gi + 1]
            pts = np.unique(
                np.column_stack([xs[lo:hi], ys[lo:hi]]), axis=0
            )
            gx, gy = pts[:, 0], pts[:, 1]
            keys_out.append(int(ks[lo]))
            if gx.shape[0] == 1:
                nv.append(0)
                area2.append(0)
                perim.append(0)
                continue
            hull = _convex_hull_xy(gx, gy)
            if hull.shape[0] < 3:
                nv.append(2)
                area2.append(0)
                perim.append(0)
                continue
            hx, hy = gx[hull], gy[hull]
            nx, ny = np.roll(hx, -1), np.roll(hy, -1)
            a2 = float(np.dot(hx, ny) - np.dot(hy, nx))
            legs = np.sqrt((nx - hx) ** 2 + (ny - hy) ** 2)
            pq = int(np.floor(legs * 1e6 + 0.5).astype(np.int64).sum())
            nv.append(int(hull.shape[0]))
            area2.append(int(a2))
            perim.append(pq)
        return pa.table(
            {
                key_col: pa.array(keys_out, pa.int64()),
                "n_vertices": pa.array(nv, pa.int64()),
                "area2": pa.array(area2, pa.int64()),
                "perim_q": pa.array(perim, pa.int64()),
            }
        )

    return co_shuffle(proj, key_col, per_bucket, n_buckets=n_buckets, coalesce=True)

def _attach_lookup(
    ds: ray.data.Dataset,
    cols: list[str],
    key_col: str,
    lk_ds: ray.data.Dataset,
    lk_key: str,
    lk_val: str,
    out_col: str,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Attach ``lk_val`` (looked up by ``key_col = lk_key``) to every row
    of ``ds`` via a hash-bucket CO-SHUFFLE — both sides sharded by
    ``hash(key) % n_buckets``, no driver materialization, no broadcast.
    The partitioned-equality-join primitive the graph family uses when
    the lookup table (e.g. node degrees) exceeds the broadcast cutoff.
    All named columns must be int64; every key must be present in the
    lookup (callers pass complete node tables)."""
    ki = cols.index(key_col)

    def tag_main(batch: pa.Table) -> pa.Table:
        out = {"kind": pa.array(np.ones(len(batch), np.int8))}
        for i, c in enumerate(cols):
            out[f"c{i}"] = batch[c].cast(pa.int64())
        out["v"] = pa.array(np.zeros(len(batch), np.int64))
        return pa.table(out)

    def tag_lk(batch: pa.Table) -> pa.Table:
        out = {"kind": pa.array(np.zeros(len(batch), np.int8))}
        for i, c in enumerate(cols):
            out[f"c{i}"] = (
                batch[lk_key].cast(pa.int64()) if i == ki
                else pa.array(np.zeros(len(batch), np.int64))
            )
        out["v"] = batch[lk_val].cast(pa.int64())
        return pa.table(out)

    sides = [
        d.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True,
                      batch_size=None)
        for d, tag in ((ds, tag_main), (lk_ds, tag_lk))
    ]

    def attach(group: pa.Table) -> pa.Table:
        kind = group["kind"].to_numpy(zero_copy_only=False)
        is_lk = kind == 0
        keys = group[f"c{ki}"].to_numpy(zero_copy_only=False).astype(np.int64)
        vals = group["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        lk, lv = keys[is_lk], vals[is_lk]
        order = np.argsort(lk, kind="stable")
        lk, lv = lk[order], lv[order]
        main = ~is_lk
        out = {}
        for i, c in enumerate(cols):
            out[c] = pa.array(
                group[f"c{i}"].to_numpy(zero_copy_only=False)[main], pa.int64()
            )
        mk = keys[main]
        # callers rely on complete-lookup semantics: a main key missing
        # from the lookup side must raise, not read a neighbor's value
        # (searchsorted returns the insertion point on a miss) or fall
        # back to the key itself when a bucket has no lookup rows.
        pos = np.searchsorted(lk, mk) if lk.size else np.zeros(mk.shape, np.int64)
        if not lk.size or np.any(lk[np.minimum(pos, lk.size - 1)] != mk):
            if mk.size:
                raise KeyError(
                    "_attach_lookup: main key missing from lookup table "
                    "(callers must pass a complete lookup)"
                )
        out[out_col] = pa.array(
            lv[pos] if lk.size else mk.astype(np.int64), pa.int64()
        )
        return pa.table(out)

    return co_shuffle(sides, f"c{ki}", attach, n_buckets=n_buckets, coalesce=False)


class _PageRank:
    """``pagerank_partitioned`` as a superstep program. State rows are
    ``(node, degree, rank)``; a message is a destination's summed
    ``rank // degree`` share from one bucket.

    Superstep 0 counts each node's edge rows (its degree; a bucket holds
    every edge of its sources) and sends one message per edge row, the
    source's degree, so its row count less the edge rows is the node
    count n. Superstep i ≥ 1 applies damped power iteration i, to the
    start rank ``scale // n`` at i = 1, and sends shares while
    i < ``n_iter``."""

    def __init__(self, n_iter, damping_num, damping_den, scale_bits,
                 n_edge_rows):
        self.n_iter, self.num, self.den = n_iter, damping_num, damping_den
        self.scale, self.n_edge_rows = 1 << scale_bits, n_edge_rows
        self.n_nodes = None

    def step(self, i: int, group: pa.Table) -> pa.Table:
        node, kind, a, _ = _columns(group)
        e = kind == _EDGE
        if i == 0:
            nodes, deg = np.unique(node, return_counts=True)
            out = [_rows(nodes, _STATE, deg)]
            if self.n_iter:
                out.append(_rows(a, _MSG, deg[np.searchsorted(nodes, node)]))
            return pa.concat_tables(out)
        nodes, deg = _state(node, kind, a)
        start = self.scale // self.n_nodes
        if self.n_iter == 0:
            rank = np.full(nodes.shape[0], start, np.int64)
        else:
            m = kind == _MSG
            s = np.zeros(nodes.shape[0], np.int64)
            share = start // a[m] if i == 1 else a[m]
            np.add.at(s, np.searchsorted(nodes, node[m]), share)
            base_q = ((self.den - self.num) * self.scale) // (self.den * self.n_nodes)
            rank = base_q + (self.num * s) // self.den
        out = [_rows(nodes, _STATE, deg, rank)]
        if i < self.n_iter:
            at = np.searchsorted(nodes, node[e])
            (dst,), share = _group_reduce([a[e]], {"s": rank[at] // deg[at]})
            out.append(_rows(dst, _MSG, share["s"]))
        return pa.concat_tables(out)

    def halt(self, i: int, n_rows: int) -> bool:
        if i == 0:
            self.n_nodes = n_rows - (self.n_edge_rows if self.n_iter else 0)
        return i == max(self.n_iter, 1)


def pagerank_partitioned(
    edges: ray.data.Dataset,
    n_iter: int = 3,
    damping_num: int = 85,
    damping_den: int = 100,
    scale_bits: int = 30,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Partitioned-state twin of ``pagerank``: the (node, degree, rank)
    table is never collected on the driver or broadcast. It is the
    ``_PageRank`` superstep program: one node-keyed co-shuffle that
    counts degrees, then one per power iteration. Identical fixed-point
    integer
    arithmetic, so it is bit-equal to the broadcast twin and shares its
    chained-CTE SQL oracle. Driver state: one scalar (node count, for
    the teleport base), read from block metadata."""
    sym = _edge_rows(edges)
    n_edge_rows = sym.count()
    if n_edge_rows == 0:
        return ray.data.from_arrow(
            pa.table({"node": pa.array([], pa.int64()),
                      "rank_q": pa.array([], pa.int64())})
        )
    program = _PageRank(n_iter, damping_num, damping_den, scale_bits, n_edge_rows)
    return _supersteps(program, sym, n_buckets=n_buckets).map_batches(
        lambda t: pa.table({"node": t["node"], "rank_q": t["b"]}),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )


def bfs_hops(
    edges: ray.data.Dataset,
    seed_pred,
    id_a: str = "a",
    id_b: str = "b",
    max_hops: int = 3,
    local_edge_cutoff: int = 2_000_000,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Multi-source shortest-hop BFS over an undirected edge list:
    every graph node matching ``seed_pred`` (a vectorized
    ``np.ndarray[int64] -> bool mask`` — a predicate, not a collected id
    list, so the seed set never has to exist on the driver) starts at
    hop 0; output is ``(node, hops)`` for every node reachable within
    ``max_hops``, ``hops`` = minimum distance. The reachability /
    blast-radius primitive (contamination spread, influence
    neighborhoods) the rest of the graph family composes with.

    Below ``local_edge_cutoff`` edges: one driver CSR + vectorized
    level-synchronous BFS (ragged neighbor gather per level). Above:
    ``bfs_hops_partitioned`` — the label table stays distributed.
    Both plans emit identical rows; the SQL twin is a bounded-depth
    recursive CTE over (node, hop) states."""
    n_edges = edges.count()
    if n_edges > local_edge_cutoff:
        return bfs_hops_partitioned(
            edges, seed_pred, id_a=id_a, id_b=id_b, max_hops=max_hops,
            n_buckets=n_buckets,
        )
    et = exchange.collect(edges)
    a = et[id_a].to_numpy(zero_copy_only=False).astype(np.int64)
    b = et[id_b].to_numpy(zero_copy_only=False).astype(np.int64)
    src = np.concatenate([a, b])
    dst = np.concatenate([b, a])
    order = np.argsort(src, kind="stable")
    src_s, dst_s = src[order], dst[order]
    nodes = np.unique(src_s)
    hop = np.full(nodes.shape[0], -1, np.int64)
    seed_mask = np.asarray(seed_pred(nodes), bool)
    hop[seed_mask] = 0
    frontier = nodes[seed_mask]
    from georay.index import _ragged_ranges

    for h in range(1, max_hops + 1):
        if frontier.shape[0] == 0:
            break
        lo = np.searchsorted(src_s, frontier, side="left")
        hi = np.searchsorted(src_s, frontier, side="right")
        owner, within = _ragged_ranges(hi - lo)
        neigh = dst_s[lo[owner] + within] if owner.shape[0] else np.empty(0, np.int64)
        cand = np.unique(neigh)
        pos = np.searchsorted(nodes, cand)
        new = cand[hop[pos] < 0]
        hop[np.searchsorted(nodes, new)] = h
        frontier = new
    keep = hop >= 0
    return ray.data.from_arrow(
        pa.table(
            {
                "node": pa.array(nodes[keep], pa.int64()),
                "hops": pa.array(hop[keep], pa.int64()),
            }
        )
    )


def bfs_hops_partitioned(
    edges: ray.data.Dataset,
    seed_pred,
    id_a: str = "a",
    id_b: str = "b",
    max_hops: int = 3,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Distributed twin of ``bfs_hops``: the (node, hops) label table is
    NEVER collected or broadcast. It is ``sssp_partitioned`` with unit
    weights: the ``_ShortestPaths`` superstep program, one node-keyed
    co-shuffle per hop (a frontier node sends ``hops + 1`` along its
    edges, the receiving bucket keeps the smaller count), the first of
    which also seeds the table. The driver reads one row count per hop
    from block metadata. Memory per task is o(nodes / n_buckets); rounds are
    bounded by ``max_hops``. Identical rows to the broadcast twin."""
    out = sssp_partitioned(
        edges, seed_pred, lambda a, b: np.ones(a.shape[0], np.int64),
        rounds=max_hops, id_a=id_a, id_b=id_b, n_buckets=n_buckets,
    )
    return out.map_batches(
        lambda t: t.rename_columns(["node", "hops"]),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )


def ancestor_closure(
    edges: ray.data.Dataset,
    node_col: str = "node",
    parent_col: str = "parent",
    max_rounds: int = 16,
    n_buckets: int = 64,
    local_edge_cutoff: int = 2_000_000,
) -> ray.data.Dataset:
    """All (node, proper-ancestor) pairs of a forest by POINTER
    DOUBLING — O(log depth) co-shuffled join rounds instead of
    depth-many level steps: the classic BSP transitive-closure shortcut
    (hierarchy rollups, org charts, BOM explosions) Ray Data has no
    primitive for. Round ``i`` keeps two DATASETS:

      ``A_i`` — proper-ancestor pairs at distance ≤ 2^i,
      ``J_i`` — the exact-distance-2^i jump pointers;

    then ``A_{i+1} = A_i ∪ (J_i ∘ A_i)`` (ancestors at distance in
    (2^i, 2^{i+1}] are the ≤2^i-ancestors of the 2^i-th ancestor) and
    ``J_{i+1} = J_i ∘ J_i`` — each ``∘`` is ONE
    ``equi_join_partitioned`` bucket co-shuffle (inner: a jump that
    falls off a root simply drops). The driver sees only ``J``'s
    per-round count for termination; labels, pairs, and jumps all stay
    distributed. Output is O(Σ depth(v)) rows — for the random
    recursive trees used here, O(n·ln n).

    ``edges``: one row per NON-ROOT node ``(node_col, parent_col)``
    (int64). Returns (node, proper-ancestor) pairs under the column
    names ``an`` (the node) and ``aa`` (its ancestor) — fixed output
    names regardless of the input column names, like the other graph
    ops' ``n``/``c`` conventions.
    Requires acyclicity — a cycle never terminates and is cut off (and
    raised on) at ``max_rounds``.

    Below ``local_edge_cutoff`` edges the closure runs in ONE task
    (vectorized parent chasing over collected arrays) — a
    dimension-sized forest does not justify 2·log(depth) co-shuffle
    barriers (the triangle_count / pagerank local-fast-path policy;
    the twins are pinned equal by pytest with cutoff=0).
    """
    from georay.ops import equi_join_partitioned

    edges = edges.materialize()  # cutoff count + closure share one execution
    if edges.count() <= local_edge_cutoff:
        et = exchange.collect(edges)
        node = et[node_col].to_numpy(zero_copy_only=False).astype(np.int64)
        par = et[parent_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(node)
        node_s, par_s = node[order], par[order]
        if node_s.shape[0] == 0:
            return ray.data.from_arrow(
                pa.table({"an": pa.array([], pa.int64()),
                          "aa": pa.array([], pa.int64())})
            )
        if np.any(node_s[1:] == node_s[:-1]):
            raise ValueError("ancestor_closure: duplicate node rows")
        out_n, out_a = [node_s], [par_s]
        cur_n, cur_a = node_s, par_s
        for _ in range(node_s.shape[0] + 1):  # depth ≤ #non-root nodes
            pos = np.searchsorted(node_s, cur_a)
            pos_c = np.minimum(pos, node_s.shape[0] - 1)
            alive = node_s[pos_c] == cur_a  # ancestor is itself non-root
            if not alive.any():
                break
            cur_n, cur_a = cur_n[alive], par_s[pos_c[alive]]
            out_n.append(cur_n)
            out_a.append(cur_a)
        else:
            raise ValueError("ancestor_closure: cycle detected")
        return ray.data.from_arrow(
            pa.table(
                {
                    "an": pa.array(np.concatenate(out_n), pa.int64()),
                    "aa": pa.array(np.concatenate(out_a), pa.int64()),
                }
            )
        )

    def as_pairs(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "an": batch[node_col].cast(pa.int64()),
                "aa": batch[parent_col].cast(pa.int64()),
            }
        )

    anc = edges.map_batches(
        as_pairs, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    ).materialize()
    from georay.ops import tree_sum as _tree_sum

    def _node_count(batch: pa.Table) -> pa.Table:
        from georay.ops import _group_reduce

        nn = batch["an"].to_numpy(zero_copy_only=False)
        (ks,), outs = _group_reduce(
            [nn], {"c": np.ones(nn.shape[0], np.int64)}
        )
        return pa.table({"n": pa.array(ks, pa.int64()),
                         "c": pa.array(outs["c"].astype(np.int64),
                                       pa.int64())})

    from ray.data.aggregate import Max as _Max

    counts = _tree_sum(
        anc.map_batches(_node_count, batch_format="pyarrow",
                        zero_copy_batch=True, batch_size=None),
        "n", {"c": "c"}, int_cols=("c",),
    )
    mx = counts.aggregate(_Max("c", alias_name="m"))["m"]
    if mx is not None and int(mx) > 1:
        raise ValueError("ancestor_closure: duplicate node rows")
    jump = anc.map_batches(
        lambda b: pa.table({"jn": b["an"], "jj": b["aa"]}),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    ).materialize()

    for _ in range(max_rounds):
        if jump.count() == 0:
            return anc
        # A ∪ (J ∘ A): (jn, jj) ⋈ (an=jj, aa) → new pairs (jn, aa)
        new_pairs = equi_join_partitioned(
            jump, anc, on="jj", right_on="an", how="inner",
            n_buckets=n_buckets,
        ).map_batches(
            lambda b: pa.table({"an": b["jn"], "aa": b["aa"]}),
            batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
        )
        # J ∘ J: (jn, jj) ⋈ (kn=jj, kj) → (jn, kj)
        jump_r = jump.map_batches(
            lambda b: pa.table({"kn": b["jn"], "kj": b["jj"]}),
            batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
        )
        jump2 = equi_join_partitioned(
            jump, jump_r, on="jj", right_on="kn", how="inner",
            n_buckets=n_buckets,
        ).map_batches(
            lambda b: pa.table({"jn": b["jn"], "jj": b["kj"]}),
            batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
        )
        anc = anc.union(new_pairs).materialize()
        jump = jump2.materialize()
    if jump.count() != 0:
        # A covers distance <= 2^max_rounds, so a surviving jump whose
        # TARGET is a root means the closure is already complete (depth
        # exactly 2^max_rounds); only a target with further ancestors
        # proves missing pairs (deeper forest, or a cycle).
        leftover = equi_join_partitioned(
            jump, anc.map_batches(
                lambda b: pa.table({"kn": b["an"], "kj": b["aa"]}),
                batch_format="pyarrow", zero_copy_batch=True,
                batch_size=None,
            ),
            on="jj", right_on="kn", how="inner", n_buckets=n_buckets,
        )
        if leftover.count() != 0:
            raise ValueError(
                f"ancestor_closure: jump set non-empty after "
                f"{max_rounds} doubling rounds — cycle, or depth > "
                "2^max_rounds"
            )
    return anc


def leg_crossings(
    ds: ray.data.Dataset,
    key: str,
    order_cols,
    x_col: str,
    y_col: str,
    edges_q: np.ndarray,
    quantize: float = 20.0,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Border-crossing detector: per key, count trajectory LEGS
    (consecutive (order_cols)-sorted positions) that PROPERLY cross any
    fence edge in ``edges_q`` (an (E, 4) int array of quantized segment
    endpoints x1,y1,x2,y2). The crossing test is the classic pair of
    strict orientation sign flips — ``d1·d2 < 0 AND d3·d4 < 0`` with
    d = integer cross products — EXACT in int64 (no epsilon), so the
    cross-join SQL twin is bit-identical. Collinear/touching contacts
    are NOT crossings by definition (strict inequality).

    One key-hash bucket shuffle (the cusum/autocorr plan); the per-leg
    test is vectorized over an (n_legs × E) broadcast — E is the fence
    edge count, a constant. Output: (key, n_crossings) with keys that
    have ≥1 leg (single-point keys emit nothing, like SQL's LAG)."""
    from georay import ops as _ops

    order_list = [order_cols] if isinstance(order_cols, str) else list(order_cols)
    proj = ds.select_columns([key, *order_list, x_col, y_col])
    e = np.asarray(edges_q, np.int64)
    ex1, ey1, ex2, ey2 = e[:, 0], e[:, 1], e[:, 2], e[:, 3]

    _empty = pa.table(
        {key: pa.array([], pa.int64()), "n_crossings": pa.array([], pa.int64())}
    )

    def per_bucket(group: pa.Table) -> pa.Table:
        # NULL/NaN fixes drop; their neighbors become a direct leg (the
        # movement-family convention — a crossing needs real endpoints)
        fx = group[x_col].to_numpy(zero_copy_only=False).astype(np.float64)
        fy = group[y_col].to_numpy(zero_copy_only=False).astype(np.float64)
        fin = np.isfinite(fx) & np.isfinite(fy)
        if not fin.all():
            group = group.filter(pa.array(fin))
        sort_keys = [(key, "ascending")] + [(c, "ascending") for c in order_list]
        g = group.take(pc.sort_indices(group, sort_keys=sort_keys))
        k = g[key].to_numpy(zero_copy_only=False).astype(np.int64)
        if k.shape[0] < 2:
            return _empty
        qx = np.floor(
            g[x_col].to_numpy(zero_copy_only=False) * quantize + 0.5
        ).astype(np.int64)
        qy = np.floor(
            g[y_col].to_numpy(zero_copy_only=False) * quantize + 0.5
        ).astype(np.int64)
        same = k[1:] == k[:-1]
        ax, ay = qx[:-1][same], qy[:-1][same]
        bx, by = qx[1:][same], qy[1:][same]
        kk = k[1:][same]
        if kk.shape[0] == 0:
            return _empty
        # orientation cross products, legs × edges
        edx = (ex2 - ex1)[None, :]
        edy = (ey2 - ey1)[None, :]
        d1 = edx * (ay[:, None] - ey1[None, :]) - edy * (ax[:, None] - ex1[None, :])
        d2 = edx * (by[:, None] - ey1[None, :]) - edy * (bx[:, None] - ex1[None, :])
        abx = (bx - ax)[:, None]
        aby = (by - ay)[:, None]
        d3 = abx * (ey1[None, :] - ay[:, None]) - aby * (ex1[None, :] - ax[:, None])
        d4 = abx * (ey2[None, :] - ay[:, None]) - aby * (ex2[None, :] - ax[:, None])
        crossing = ((d1 * d2) < 0) & ((d3 * d4) < 0)
        per_leg = crossing.sum(axis=1).astype(np.int64)
        ks, vs = _ops._group_reduce([kk], {"n_crossings": per_leg})
        return pa.table(
            {
                key: pa.array(ks[0], pa.int64()),
                "n_crossings": pa.array(vs["n_crossings"], pa.int64()),
            }
        )

    return co_shuffle(proj, key, per_bucket, n_buckets=n_buckets, coalesce=True)


def path_self_intersections(
    ds: ray.data.Dataset,
    key: str,
    order_cols,
    x_col: str,
    y_col: str,
    quantize: float = 20.0,
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Geometry QA over trajectories: per key, how many pairs of
    NON-ADJACENT legs of the (order_cols)-sorted path PROPERLY
    intersect — the self-intersection count a routing/validity gate
    flags tangled tracks with. Proper = strict double orientation sign
    flip (``d1·d2 < 0 AND d3·d4 < 0``, integer cross products over
    ``floor(coord·quantize + 0.5)`` endpoints — EXACT in int64, no
    epsilon), so the segment self-join SQL twin is bit-identical.
    Touching / collinear overlap is NOT an intersection (strict
    inequality), and adjacent legs (sharing a vertex) are skipped.
    Emits EVERY key (zero-count rows included); NULL/NaN fixes drop
    like the rest of the movement family.

    One key-hash bucket shuffle; within a bucket, leg pairs are
    enumerated per key with the ragged pair enumerator and the
    orientation tests run on the flat pair arrays — no per-key Python.
    O(legs²) per key: trajectories, not continent-length polylines
    (cap per-key fixes upstream for adversarial inputs)."""
    from georay import ops as _ops

    order_list = [order_cols] if isinstance(order_cols, str) else list(order_cols)
    proj = ds.select_columns([key, *order_list, x_col, y_col])

    _empty = pa.table(
        {key: pa.array([], pa.int64()),
         "n_self_crossings": pa.array([], pa.int64())}
    )

    def per_bucket(group: pa.Table) -> pa.Table:
        fx = group[x_col].to_numpy(zero_copy_only=False).astype(np.float64)
        fy = group[y_col].to_numpy(zero_copy_only=False).astype(np.float64)
        fin = np.isfinite(fx) & np.isfinite(fy)
        if not fin.all():
            group = group.filter(pa.array(fin))
        sort_keys = [(key, "ascending")] + [(c, "ascending") for c in order_list]
        g = group.take(pc.sort_indices(group, sort_keys=sort_keys))
        k = g[key].to_numpy(zero_copy_only=False).astype(np.int64)
        if k.shape[0] == 0:
            return _empty
        all_keys = np.unique(k)
        totals = np.zeros(all_keys.shape[0], dtype=np.int64)
        qx = np.floor(
            g[x_col].to_numpy(zero_copy_only=False) * quantize + 0.5
        ).astype(np.int64)
        qy = np.floor(
            g[y_col].to_numpy(zero_copy_only=False) * quantize + 0.5
        ).astype(np.int64)
        same = k[1:] == k[:-1]
        ax, ay = qx[:-1][same], qy[:-1][same]
        bx, by = qx[1:][same], qy[1:][same]
        kk = k[1:][same]
        m = kk.shape[0]
        if m:
            first = np.ones(m, dtype=bool)
            first[1:] = kk[1:] != kk[:-1]
            starts = np.nonzero(first)[0]
            i, j = _pairs_within_groups(starts, m)
            nonadj = (j - i) >= 2
            i, j = i[nonadj], j[nonadj]
            if i.shape[0]:
                d1 = (bx[i] - ax[i]) * (ay[j] - ay[i]) \
                    - (by[i] - ay[i]) * (ax[j] - ax[i])
                d2 = (bx[i] - ax[i]) * (by[j] - ay[i]) \
                    - (by[i] - ay[i]) * (bx[j] - ax[i])
                d3 = (bx[j] - ax[j]) * (ay[i] - ay[j]) \
                    - (by[j] - ay[j]) * (ax[i] - ax[j])
                d4 = (bx[j] - ax[j]) * (by[i] - ay[j]) \
                    - (by[j] - ay[j]) * (bx[i] - ax[j])
                hit = ((d1 * d2) < 0) & ((d3 * d4) < 0)
                if hit.any():
                    ks, vs = _ops._group_reduce(
                        [kk[i][hit]],
                        {"n": np.ones(int(hit.sum()), np.int64)},
                    )
                    pos = np.searchsorted(all_keys, ks[0])
                    totals[pos] += vs["n"]
        return pa.table(
            {
                key: pa.array(all_keys, pa.int64()),
                "n_self_crossings": pa.array(totals, pa.int64()),
            }
        )

    return co_shuffle(proj, key, per_bucket, n_buckets=n_buckets, coalesce=True)


def kcore_peel(
    edges: ray.data.Dataset,
    k: int,
    n_rounds: int = 3,
    id_a: str = "a",
    id_b: str = "b",
    degree_strategy: str = "broadcast",
    n_buckets: int = 64,
):
    """FIXED-ROUND k-core peeling: ``n_rounds`` times, drop every node
    whose current degree is < k (and its edges), then report the
    surviving subgraph's (node, degree) table. Fixed rounds instead of
    peel-to-fixpoint keeps the SQL twin a finite chained CTE (the
    PageRank precedent) — converged graphs are simply idempotent under
    further rounds. The community-detection prefilter (dense-core
    extraction) of the graph family.

    Each round is one streaming degree pass (combine tree) + one edge
    filter. ``degree_strategy="broadcast"`` ships the surviving node
    set via ``exchange.broadcast`` (node tables are vocabulary-sized for the
    co-purchase graphs here); ``"partitioned"`` routes the survival
    flag through the two hash-bucket co-shuffles of
    ``_attach_lookup`` — the billion-node path, bit-identical."""
    from georay import ops as _ops

    cur = _rename_edges(edges, id_a, id_b)
    id_a, id_b = "a", "b"
    _empty_deg = pa.table(
        {"node": pa.array([], pa.int64()), "degree": pa.array([], pa.int64())}
    )
    from georay.ops import tree_sum as _tree_sum

    for _ in range(n_rounds):
        if degree_strategy == "partitioned":
            # FUSED round (r4 session 5): ONE node-bucket co-shuffle
            # computes each endpoint's degree in-bucket AND casts a
            # survival VOTE for its incident edges; an edge survives
            # the round iff it collects votes from BOTH endpoints
            # (votes == 2). Replaces the former degree_table + two
            # _attach_lookup co-shuffles per round — bit-identical
            # semantics (degrees from the same current edge set), half
            # the barriers. Emptiness rides the votes table.
            def symmetrize(batch: pa.Table) -> pa.Table:
                a = batch[id_a].cast(pa.int64()).to_numpy(
                    zero_copy_only=False)
                b = batch[id_b].cast(pa.int64()).to_numpy(
                    zero_copy_only=False)
                return pa.table(
                    {
                        "node": pa.array(np.concatenate([a, b]), pa.int64()),
                        "ea": pa.array(np.concatenate([a, a]), pa.int64()),
                        "eb": pa.array(np.concatenate([b, b]), pa.int64()),
                    }
                )

            def vote(group: pa.Table, _k=k) -> pa.Table:
                node = group["node"].to_numpy(zero_copy_only=False)
                ea = group["ea"].to_numpy(zero_copy_only=False)
                eb = group["eb"].to_numpy(zero_copy_only=False)
                order = np.argsort(node, kind="stable")
                ns = node[order]
                n = ns.shape[0]
                first = np.ones(n, dtype=bool)
                if n:
                    first[1:] = ns[1:] != ns[:-1]
                starts = np.nonzero(first)[0]
                sizes = np.diff(np.append(starts, n))
                deg_row = np.repeat(sizes, sizes)
                ok = deg_row >= _k
                if not ok.any():
                    return pa.table(
                        {
                            "a": pa.array([], pa.int64()),
                            "b": pa.array([], pa.int64()),
                            "partial_v": pa.array([], pa.int64()),
                        }
                    )
                ia = ea[order][ok]
                ib = eb[order][ok]
                ks, vs = _ops._group_reduce(
                    [ia, ib], {"partial_v": np.ones(ia.shape[0], np.int64)}
                )
                return pa.table(
                    {
                        "a": pa.array(ks[0], pa.int64()),
                        "b": pa.array(ks[1], pa.int64()),
                        "partial_v": pa.array(vs["partial_v"], pa.int64()),
                    }
                )

            adj = cur.map_batches(
                symmetrize, batch_format="pyarrow", zero_copy_batch=True,
                batch_size=None,
            )
            votes = _tree_sum(
                co_shuffle(adj, "node", vote, n_buckets=n_buckets, coalesce=True),
                ["a", "b"], {"partial_v": "v"}, int_cols=("partial_v",),
            ).materialize()
            if votes.count() == 0:
                return _empty_deg

            def keep_voted(batch: pa.Table) -> pa.Table:
                m = pc.equal(batch["v"], 2)
                sub = batch.filter(m)
                return pa.table({id_a: sub["a"], id_b: sub["b"]})

            cur = votes.map_batches(
                keep_voted, batch_format="pyarrow", zero_copy_batch=True,
                batch_size=None,
            )
            continue
        # a fully-peeled graph is idempotent — and EMPTY Datasets lose
        # their column schema through to_pandas in Ray 2.49
        # (parallelism-dependent; ROUND_NOTES quirk), so the empty case
        # returns a typed pyarrow Table directly (the
        # connected_components fast-path precedent). The emptiness test
        # rides the (small) degree table instead of a separate
        # full-edge count pass: zero degree rows ⟺ zero edges.
        deg = degree_table(cur).materialize()
        if deg.count() == 0:
            return _empty_deg
        # broadcast strategy: surviving node set ships once
        dt = exchange.collect(deg)
        nodes = dt["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        dd = dt["degree"].to_numpy(zero_copy_only=False).astype(np.int64)
        surv = np.sort(nodes[dd >= k])
        if surv.shape[0] == 0:  # everything peeled
            return _empty_deg
        ref = exchange.broadcast(surv)

        def keep(batch: pa.Table, _ref=ref) -> pa.Table:
            sv = _ref.get()
            a = batch[id_a].to_numpy(zero_copy_only=False).astype(np.int64)
            b = batch[id_b].to_numpy(zero_copy_only=False).astype(np.int64)
            pa_ = np.searchsorted(sv, a)
            pb_ = np.searchsorted(sv, b)
            ok_a = (pa_ < sv.shape[0]) & (
                sv[np.minimum(pa_, sv.shape[0] - 1)] == a
            )
            ok_b = (pb_ < sv.shape[0]) & (
                sv[np.minimum(pb_, sv.shape[0] - 1)] == b
            )
            return batch.filter(pa.array(ok_a & ok_b))

        cur = cur.map_batches(
            keep, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ).materialize()
    deg = degree_table(cur).materialize()
    if deg.count() == 0:
        return _empty_deg
    return deg


def _rename_edges(
    edges: ray.data.Dataset, id_a: str, id_b: str
) -> ray.data.Dataset:
    """Project an edge list to the canonical (a, b) int64 columns."""
    if id_a == "a" and id_b == "b":
        return edges
    return edges.map_batches(
        lambda t: pa.table(
            {"a": t[id_a].cast(pa.int64()), "b": t[id_b].cast(pa.int64())}
        ),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )


def degree_assortativity(
    edges: ray.data.Dataset, id_a: str = "a", id_b: str = "b"
) -> ray.data.Dataset:
    """Degree-assortativity sufficient statistics, exact: over the
    SYMMETRIZED edge list (each undirected edge contributes both
    directed pairs, the standard Newman convention), one row
    ``(n_pairs, cov_num, var_a, var_b)`` of the (deg(src), deg(dst))
    integer moments — Pearson r is ``cov_num / sqrt(var_a · var_b)``
    downstream. One streaming degree pass (combine tree), the degree
    table broadcast once via ``exchange.broadcast``, then one streaming edge pass
    folding to a single partial row per batch — the edge list never
    shuffles. Symmetry makes var_a = var_b by construction (kept
    separate anyway — the SQL twin computes both)."""
    edges = _rename_edges(edges, id_a, id_b)
    id_a, id_b = "a", "b"
    deg = degree_table(edges)
    dt = exchange.collect(deg)
    if dt.num_rows == 0 or "node" not in dt.column_names:
        # empty graph: zero pairs, zero moments (empty blocks lose the
        # column schema in Ray 2.49 — ROUND_NOTES quirk)
        return ray.data.from_arrow(
            pa.table(
                {
                    "n_pairs": pa.array([0], pa.int64()),
                    "cov_num": pa.array([0], pa.int64()),
                    "var_a": pa.array([0], pa.int64()),
                    "var_b": pa.array([0], pa.int64()),
                }
            )
        )
    nodes = dt["node"].to_numpy(zero_copy_only=False).astype(np.int64)
    dd = dt["degree"].to_numpy(zero_copy_only=False).astype(np.int64)
    o = np.argsort(nodes)
    ref = exchange.broadcast((nodes[o], dd[o]))

    def partial(batch: pa.Table) -> pa.Table:
        nd, dg = ref.get()
        a = batch[id_a].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch[id_b].to_numpy(zero_copy_only=False).astype(np.int64)
        da = dg[np.searchsorted(nd, a)]
        db = dg[np.searchsorted(nd, b)]
        # both directions
        x = np.concatenate([da, db]).astype(np.int64)
        y = np.concatenate([db, da]).astype(np.int64)
        return pa.table(
            {
                "partial_n": pa.array([x.shape[0]], pa.int64()),
                "partial_sx": pa.array([int(x.sum())], pa.int64()),
                "partial_sy": pa.array([int(y.sum())], pa.int64()),
                "partial_sxy": pa.array([int((x * y).sum())], pa.int64()),
                "partial_sxx": pa.array([int((x * x).sum())], pa.int64()),
                "partial_syy": pa.array([int((y * y).sum())], pa.int64()),
            }
        )

    parts = edges.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    tot = parts.to_pandas().sum()
    n = int(tot["partial_n"])
    sx, sy = int(tot["partial_sx"]), int(tot["partial_sy"])
    sxy = int(tot["partial_sxy"])
    sxx, syy = int(tot["partial_sxx"]), int(tot["partial_syy"])
    cov = n * sxy - sx * sy
    va = n * sxx - sx * sx
    vb = n * syy - sy * sy
    for v in (cov, va, vb):
        if not (-(2**63) <= v < 2**63):
            raise OverflowError("degree_assortativity: moment exceeds int64")
    return ray.data.from_arrow(
        pa.table(
            {
                "n_pairs": pa.array([n], pa.int64()),
                "cov_num": pa.array([cov], pa.int64()),
                "var_a": pa.array([va], pa.int64()),
                "var_b": pa.array([vb], pa.int64()),
            }
        )
    )


def edge_jaccard(
    edges: ray.data.Dataset,
    id_a: str = "a",
    id_b: str = "b",
    n_buckets: int = 64,
    ra_bits: int | None = None,
) -> ray.data.Dataset:
    """Per-edge EMBEDDEDNESS features — for every undirected edge
    (a, b): ``common`` = |N(a) ∩ N(b)| (its triangle support) and
    ``union_n`` = |N(a) ∪ N(b)|, the exact integer numerator and
    denominator of the neighborhood-Jaccard link weight used for
    link prediction and strong-tie detection.

    Plan (two bounded co-shuffles, the graph's standard
    triangle-volume data movement, no driver state): shuffle 1 keys the
    symmetrized adjacency AND each edge's two endpoint probes by
    ``hash(node)`` — each bucket emits one (a, b, nbr, side) row per
    neighbor of each endpoint; shuffle 2 keys those rows by
    ``hash(a, b)`` — inside a bucket, a lexsort on (a, b, nbr) makes
    common neighbors adjacent with differing ``side`` (adjacency rows
    are duplicate-free for a distinct edge list), and
    ``union = rows − common`` per edge because |N(a)|+|N(b)| arrive
    as one row each. Output: (a, b, common, union_n).

    ``ra_bits``: when set, adds the RESOURCE-ALLOCATION index column
    ``ra_q = Σ_{z ∈ N(a)∩N(b)} floor(2^ra_bits / deg(z))`` — the
    degree-penalized link-prediction score (Adamic-Adar family, with
    1/deg instead of 1/log deg so it stays an exact integer). The
    degree table broadcasts once (node tables are vocabulary-sized
    here)."""
    edges = _rename_edges(edges, id_a, id_b)

    deg_ref = None
    if ra_bits is not None:
        dt = exchange.collect(degree_table(edges))
        if dt.num_rows and "node" in dt.column_names:
            dn = dt["node"].to_numpy(zero_copy_only=False).astype(np.int64)
            dd = dt["degree"].to_numpy(zero_copy_only=False).astype(np.int64)
            o = np.argsort(dn)
            deg_ref = exchange.broadcast((dn[o], dd[o]))

    def msgs(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = a.shape[0]
        # adjacency rows (kind 0): node -> nbr, both directions
        node = np.concatenate([a, b])
        nbr = np.concatenate([b, a])
        # probe rows (kind 1): edge endpoint lookups; other = far end,
        # side 0 probes a's neighborhood, side 1 probes b's
        pnode = np.concatenate([a, b])
        pother = np.concatenate([b, a])
        pside = np.concatenate(
            [np.zeros(n, np.int8), np.ones(n, np.int8)]
        )
        return pa.table(
            {
                "kind": pa.array(
                    np.concatenate(
                        [np.zeros(2 * n, np.int8), np.ones(2 * n, np.int8)]
                    )
                ),
                "node": pa.array(np.concatenate([node, pnode]), pa.int64()),
                "x": pa.array(np.concatenate([nbr, pother]), pa.int64()),
                "side": pa.array(
                    np.concatenate([np.zeros(2 * n, np.int8), pside])
                ),
            }
        )

    def join_nbrs(group: pa.Table) -> pa.Table:
        kind = group["kind"].to_numpy(zero_copy_only=False)
        node = group["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        x = group["x"].to_numpy(zero_copy_only=False).astype(np.int64)
        side = group["side"].to_numpy(zero_copy_only=False).astype(np.int8)
        adj = kind == 0
        anode, anbr = node[adj], x[adj]
        o = np.argsort(anode, kind="stable")
        anode, anbr = anode[o], anbr[o]
        starts = np.searchsorted(anode, node[~adj], side="left")
        ends = np.searchsorted(anode, node[~adj], side="right")
        cnt = ends - starts
        pn, po, ps = node[~adj], x[~adj], side[~adj]
        # ragged expand: each probe emits one row per neighbor
        rep = np.repeat(np.arange(pn.shape[0]), cnt)
        # vectorized ragged range: arange over the total, rebased per probe
        tot = int(cnt.sum())
        off = np.zeros(pn.shape[0] + 1, np.int64)
        np.cumsum(cnt, out=off[1:])
        idx = np.arange(tot, dtype=np.int64) - np.repeat(off[:-1], cnt) + np.repeat(
            starts, cnt
        )
        a_out = np.where(ps[rep] == 0, pn[rep], po[rep])
        b_out = np.where(ps[rep] == 0, po[rep], pn[rep])
        return pa.table(
            {
                "a": pa.array(a_out, pa.int64()),
                "b": pa.array(b_out, pa.int64()),
                "nbr": pa.array(anbr[idx], pa.int64()),
                "side": pa.array(side[~adj][rep], pa.int8()),
            }
        )

    rows = co_shuffle(
        edges.map_batches(
            msgs, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        "node", join_nbrs, n_buckets=n_buckets, coalesce=False,
    )

    def fold(group: pa.Table) -> pa.Table:
        a = group["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = group["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        nbr = group["nbr"].to_numpy(zero_copy_only=False).astype(np.int64)
        side = group["side"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = a.shape[0]
        if n == 0:
            ecols = {
                "a": pa.array([], pa.int64()),
                "b": pa.array([], pa.int64()),
                "common": pa.array([], pa.int64()),
                "union_n": pa.array([], pa.int64()),
            }
            if ra_bits is not None:
                ecols["ra_q"] = pa.array([], pa.int64())
            return pa.table(ecols)
        order = np.lexsort((side, nbr, b, a))
        a, b, nbr, side = a[order], b[order], nbr[order], side[order]
        first = np.ones(n, bool)
        first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        # common neighbor: consecutive rows with equal (a,b,nbr) and
        # side 0 then 1 (adjacency is duplicate-free)
        same_t = np.zeros(n, bool)
        same_t[1:] = (
            (a[1:] == a[:-1]) & (b[1:] == b[:-1]) & (nbr[1:] == nbr[:-1])
        )
        starts = np.nonzero(first)[0]
        seg = np.cumsum(first) - 1
        common = np.bincount(seg[same_t], minlength=starts.shape[0])
        total = np.diff(np.append(starts, n))
        cols = {
            "a": pa.array(a[starts], pa.int64()),
            "b": pa.array(b[starts], pa.int64()),
            "common": pa.array(common.astype(np.int64)),
            "union_n": pa.array((total - common).astype(np.int64)),
        }
        if ra_bits is not None:
            ra = np.zeros(starts.shape[0], np.int64)
            if deg_ref is not None and same_t.any():
                dn, dd = deg_ref.get()
                zn = nbr[same_t]
                w = (np.int64(1) << np.int64(ra_bits)) // dd[
                    np.searchsorted(dn, zn)
                ]
                np.add.at(ra, seg[same_t], w)
            cols["ra_q"] = pa.array(ra, pa.int64())
        return pa.table(cols)

    return co_shuffle(rows, ["a", "b"], fold, n_buckets=n_buckets, coalesce=False)


def negative_edge_samples(
    edges: ray.data.Dataset,
    id_a: str = "a",
    id_b: str = "b",
) -> ray.data.Dataset:
    """Deterministic NEGATIVE SAMPLING for link-prediction training:
    each edge (a, b) proposes one corrupted partner
    ``b_neg = nodes[mix64(a·1000003 + b) mod |nodes|]`` (node table
    sorted, broadcast once — vocabulary-sized), drops degenerate
    proposals (b_neg ∈ {a, b}), and ANTI-joins the canonicalized
    candidate against the edge set so only GENUINE non-edges survive —
    the (anchor, positive, negative) triple generator, reproducible
    across runs and engines (the mix64 chain is replicated in SQL
    HUGEINT arithmetic, the pack_sequences precedent). Node ids must
    stay below ~2^43 so ``a·1000003 + b`` cannot wrap int64 (raises)."""
    from georay import ops as _ops

    edges = _rename_edges(edges, id_a, id_b)
    dt = exchange.collect(degree_table(edges))
    if dt.num_rows == 0 or "node" not in dt.column_names:
        return ray.data.from_arrow(
            pa.table(
                {
                    "a": pa.array([], pa.int64()),
                    "b": pa.array([], pa.int64()),
                    "b_neg": pa.array([], pa.int64()),
                }
            )
        )
    nodes = np.sort(dt["node"].to_numpy(zero_copy_only=False).astype(np.int64))
    if int(nodes[-1]) >= (1 << 43):
        raise OverflowError(
            "negative_edge_samples: node id ≥ 2^43 would wrap the "
            "int64 seed a·1000003 + b"
        )
    ref = exchange.broadcast(nodes)

    def propose(batch: pa.Table) -> pa.Table:
        nd = ref.get()
        a = batch["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = _ops._mix64((a * np.int64(1000003) + b).view(np.uint64).copy())
        idx = (h % np.uint64(nd.shape[0])).astype(np.int64)
        bn = nd[idx]
        keep = (bn != a) & (bn != b)
        a, b, bn = a[keep], b[keep], bn[keep]
        return pa.table(
            {
                "a": pa.array(a, pa.int64()),
                "b": pa.array(b, pa.int64()),
                "b_neg": pa.array(bn, pa.int64()),
                "lo": pa.array(np.minimum(a, bn), pa.int64()),
                "hi": pa.array(np.maximum(a, bn), pa.int64()),
            }
        )

    cand = edges.map_batches(
        propose, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    good = _ops.equi_join_partitioned(
        cand, edges, on=["lo", "hi"], right_on=["a", "b"], how="anti"
    )
    return good.select_columns(["a", "b", "b_neg"])


def clustering_coeff(
    edges: ray.data.Dataset,
    id_a: str = "a",
    id_b: str = "b",
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Per-node LOCAL CLUSTERING COEFFICIENT sufficient statistics:
    one row ``(node, tri2, degree)`` where ``tri2 = 2·triangles(node)``
    (each triangle at v is seen by both of v's edges in it, so summing
    per-edge common-neighbor counts over v's incident edges double-
    counts exactly once) — the coefficient is
    ``tri2 / (degree·(degree−1))`` downstream, an exact rational.

    Plan: ``edge_jaccard``'s two co-shuffles produce per-edge common
    counts; each edge then contributes its count to BOTH endpoints
    through one combine tree (node-table-sized); degrees ride the same
    tree. Nodes with degree 1 report tri2 = 0."""
    from georay import ops as _ops

    edges = _rename_edges(edges, id_a, id_b)
    ej = edge_jaccard(edges, n_buckets=n_buckets)

    def per_node(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = batch["common"].to_numpy(zero_copy_only=False).astype(np.int64)
        node = np.concatenate([a, b])
        ks, vs = _group_reduce(
            [node],
            {
                "partial_t": np.concatenate([c, c]),
                "partial_d": np.ones(node.shape[0], np.int64),
            },
        )
        return pa.table(
            {
                "node": pa.array(ks[0], pa.int64()),
                "partial_t": pa.array(vs["partial_t"], pa.int64()),
                "partial_d": pa.array(vs["partial_d"], pa.int64()),
            }
        )

    return _ops.tree_sum(
        ej.map_batches(
            per_node, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["node"], {"partial_t": "tri2", "partial_d": "degree"},
        int_cols=("partial_t", "partial_d"),
    )


def event_sequences(
    ds: ray.data.Dataset,
    key: str,
    order_cols: list[str],
    type_col: str,
    n: int = 3,
    k: int = 20,
    sep: str = ">",
    n_buckets: int = 256,
) -> ray.data.Dataset:
    """Behavioral SEQUENCE MINING: the top-k most frequent length-``n``
    consecutive type paths (e.g. ``view>click>purchase``) across every
    key's ordered event stream. One key-bucket shuffle builds the
    n-gram strings vectorized (each key's rows are contiguous after the
    bucket sort; windows crossing a key boundary are masked), the
    n-gram histogram merges through a combine tree (bounded by
    |types|^n), and the global top-k is the standard prune + merge —
    ties break on the sequence string for determinism."""
    from georay import ops as _ops

    proj = ds.select_columns([key] + order_cols + [type_col])

    def per_bucket(group: pa.Table) -> pa.Table:
        sort_keys = [(key, "ascending")] + [
            (c, "ascending") for c in order_cols
        ]
        g = group.take(pc.sort_indices(group, sort_keys=sort_keys))
        m = len(g)
        empty = pa.table(
            {
                "seq": pa.array([], pa.string()),
                "partial_n": pa.array([], pa.int64()),
            }
        )
        if m < n:
            return empty
        karr = g[key].combine_chunks() if isinstance(
            g[key], pa.ChunkedArray) else g[key]
        tarr = g[type_col].combine_chunks() if isinstance(
            g[type_col], pa.ChunkedArray) else g[type_col]
        first = np.zeros(m, dtype=bool)
        first[0] = True
        first[1:] = ~np.asarray(
            pc.fill_null(pc.equal(karr.slice(1), karr.slice(0, m - 1)), False)
        )
        seg = np.cumsum(first) - 1
        # a window starting at i stays in-key iff rows i..i+n-1 share seg
        ok = seg[: m - n + 1] == seg[n - 1:]
        if not ok.any():
            return empty
        parts = [tarr.slice(j, m - n + 1) for j in range(n)]
        joined = parts[0]
        for p in parts[1:]:
            joined = pc.binary_join_element_wise(joined, p, sep)
        joined = joined.filter(pa.array(ok))
        t = pa.table(
            {
                "seq": joined,
                "partial_n": pa.array(np.ones(len(joined), np.int64)),
            }
        )
        gg = t.group_by("seq").aggregate([("partial_n", "sum")])
        return pa.table({"seq": gg["seq"], "partial_n": gg["partial_n_sum"]})

    parts = co_shuffle(proj, key, per_bucket, n_buckets=n_buckets, coalesce=True)
    hist = _ops.tree_sum(
        parts, ["seq"], {"partial_n": "n"}, int_cols=("partial_n",)
    )
    return _ops.top_k(hist, ["n", "seq"], k, descending=[True, False])


def frequent_triples(
    ds: ray.data.Dataset,
    group_col: str,
    item_col: str,
    min_support: int = 2,
    max_group_size: int = 64,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Frequent 3-itemsets (the Apriori level-3 table ``market_basket``
    stops short of): distinct item triples ``a < b < c`` co-occurring
    in ≥ ``min_support`` baskets. One basket-bucket shuffle; triples
    enumerate VECTORIZED as pairs × suffix extension (for each in-group
    pair (i,j), every k > j extends it — two ragged repeats, zero
    per-basket Python); support counts merge through the combine tree.
    Triple volume is Σ C(s,3) per basket — ``max_group_size`` is the
    cubic-cost guard (baskets above it are DROPPED, mirrored by the SQL
    twin's HAVING cap)."""
    proj = ds.select_columns([group_col, item_col])

    def per_bucket(group: pa.Table) -> pa.Table:
        g = group[group_col].to_numpy(zero_copy_only=False).astype(np.int64)
        it = group[item_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order, starts, gid0 = _group_starts(g, it)
        g_s, it_s = g[order], it[order]
        n = g_s.shape[0]
        keep = np.zeros(n, dtype=bool)
        if n:
            keep[0] = True
            keep[1:] = (g_s[1:] != g_s[:-1]) | (it_s[1:] != it_s[:-1])
        g_d, it_d = g_s[keep], it_s[keep]
        m = g_d.shape[0]
        first = np.zeros(m, dtype=bool)
        if m:
            first[0] = True
            first[1:] = g_d[1:] != g_d[:-1]
        starts_d = np.nonzero(first)[0]
        if m:
            sizes = np.diff(np.append(starts_d, m))
            gid = np.cumsum(first) - 1
            ok = sizes[gid] <= max_group_size
            g_d, it_d = g_d[ok], it_d[ok]
            m = g_d.shape[0]
            first = np.zeros(m, dtype=bool)
            if m:
                first[0] = True
                first[1:] = g_d[1:] != g_d[:-1]
            starts_d = np.nonzero(first)[0]
        empty = pa.table(
            {
                "a": pa.array([], pa.int64()),
                "b": pa.array([], pa.int64()),
                "c": pa.array([], pa.int64()),
                "partial_n": pa.array([], pa.int64()),
            }
        )
        if m == 0:
            return empty
        i, j = _pairs_within_groups(starts_d, m)
        if i.shape[0] == 0:
            return empty
        gid = np.cumsum(first) - 1
        ends = np.append(starts_d[1:], m)
        n_ext = ends[gid[j]] - 1 - j  # k > j within the group
        tot = int(n_ext.sum())
        if tot == 0:
            return empty
        rep_i = np.repeat(i, n_ext)
        rep_j = np.repeat(j, n_ext)
        k = rep_j + 1 + (
            np.arange(tot) - np.repeat(np.cumsum(n_ext) - n_ext, n_ext)
        )
        ks, vs = _group_reduce(
            [it_d[rep_i], it_d[rep_j], it_d[k]],
            {"partial_n": np.ones(tot, np.int64)},
        )
        return pa.table(
            {
                "a": pa.array(ks[0], pa.int64()),
                "b": pa.array(ks[1], pa.int64()),
                "c": pa.array(ks[2], pa.int64()),
                "partial_n": pa.array(vs["partial_n"], pa.int64()),
            }
        )

    counted = tree_sum(
        co_shuffle(proj, group_col, per_bucket, n_buckets=n_buckets, coalesce=True),
        ["a", "b", "c"], {"partial_n": "support"}, int_cols=("partial_n",),
    )
    if min_support > 1:
        counted = counted.filter(expr=f"support >= {int(min_support)}")
    return counted


def market_basket(
    ds: ray.data.Dataset,
    group_col: str,
    item_col: str,
    top_k: int = 50,
    min_support: int = 2,
    max_group_size: int | None = 64,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Association-rule mining sufficient statistics: the ``top_k``
    item pairs by basket co-occurrence, each with the exact integers
    confidence and lift are rationals of —
    ``(a, b, support, n_a, n_b, n_baskets, lift_num, lift_den)`` where
    ``support`` counts distinct baskets containing both items,
    ``n_a``/``n_b`` count baskets containing each item,
    ``lift = lift_num/lift_den = support·n_baskets / (n_a·n_b)`` and
    ``confidence(a→b) = support/n_a``. Deterministic selection: ordered
    by ``(support DESC, a, b)``.

    One basket-hash bucket shuffle; per bucket the (basket, item) pairs
    dedupe with one lexsort and expand to pairs via the ragged pair
    enumerator (zero per-basket Python). Pair counts, per-item basket
    counts and the basket total ride ONE combine tree as tagged rows
    (``b = -1`` marks an item-marginal row, ``a = b = -1`` the basket
    count), so the corpus makes exactly one pass. Baskets larger than
    ``max_group_size`` are dropped (their pair count is quadratic) and
    excluded from every marginal — replicate in SQL with
    ``HAVING COUNT(*) <= cap``. ``min_support`` trims the random tail
    before the top-k. Overflow guard: requires ``n_baskets < 2^31``
    (lift_num = support·n_baskets stays in int64)."""
    proj = ds.select_columns([group_col, item_col])

    def per_bucket(group: pa.Table) -> pa.Table:
        group = group.drop_null()  # NULL basket/item rows are excluded
        g = group[group_col].to_numpy(zero_copy_only=False).astype(np.int64)
        it = group[item_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order, _, _ = _group_starts(g, it)
        g_s, it_s = g[order], it[order]
        n = g_s.shape[0]
        keep = np.zeros(n, dtype=bool)
        if n:
            keep[0] = True
            keep[1:] = (g_s[1:] != g_s[:-1]) | (it_s[1:] != it_s[:-1])
        g_d, it_d = g_s[keep], it_s[keep]
        m = g_d.shape[0]
        first = np.zeros(m, dtype=bool)
        if m:
            first[0] = True
            first[1:] = g_d[1:] != g_d[:-1]
        if max_group_size is not None and m:
            starts_d = np.nonzero(first)[0]
            sizes = np.diff(np.append(starts_d, m))
            gid_d = np.cumsum(first) - 1
            ok = sizes[gid_d] <= max_group_size
            g_d, it_d = g_d[ok], it_d[ok]
            m = g_d.shape[0]
            first = np.zeros(m, dtype=bool)
            if m:
                first[0] = True
                first[1:] = g_d[1:] != g_d[:-1]
        starts_d = np.nonzero(first)[0]
        i, j = _pairs_within_groups(starts_d, m)
        # items are ascending within a basket after the lexsort → a < b
        a = np.concatenate([it_d[i], it_d, np.array([-1], np.int64)])
        b = np.concatenate(
            [it_d[j], np.full(m, -1, np.int64), np.array([-1], np.int64)]
        )
        cnt = np.ones(a.shape[0], np.int64)
        cnt[-1] = starts_d.shape[0]  # baskets kept in this bucket
        ks, vs = _group_reduce([a, b], {"partial_n": cnt})
        return pa.table(
            {
                "a": pa.array(ks[0], pa.int64()),
                "b": pa.array(ks[1], pa.int64()),
                "partial_n": pa.array(vs["partial_n"], pa.int64()),
            }
        )

    counted = tree_sum(
        co_shuffle(proj, group_col, per_bucket, n_buckets=n_buckets, coalesce=True),
        ["a", "b"], {"partial_n": "cnt"}, int_cols=("partial_n",),
    )

    def finish(batch: pa.Table) -> pa.Table:
        a = batch["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = batch["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        empty = pa.table(
            {
                "a": pa.array([], pa.int64()),
                "b": pa.array([], pa.int64()),
                "support": pa.array([], pa.int64()),
                "n_a": pa.array([], pa.int64()),
                "n_b": pa.array([], pa.int64()),
                "n_baskets": pa.array([], pa.int64()),
                "lift_num": pa.array([], pa.int64()),
                "lift_den": pa.array([], pa.int64()),
            }
        )
        base_m = (a == -1) & (b == -1)
        n_baskets = int(n[base_m].sum())
        if n_baskets >= (1 << 31):
            raise OverflowError("market_basket: n_baskets >= 2^31")
        im = (b == -1) & (a != -1)
        items, item_n = a[im], n[im]
        o = np.argsort(items, kind="stable")
        items, item_n = items[o], item_n[o]
        pm = b != -1
        pa_, pb_, pn = a[pm], b[pm], n[pm]
        sel = pn >= min_support
        pa_, pb_, pn = pa_[sel], pb_[sel], pn[sel]
        if pa_.shape[0] == 0:
            return empty
        o = np.lexsort((pb_, pa_, -pn))[:top_k]
        pa_, pb_, pn = pa_[o], pb_[o], pn[o]
        na = item_n[np.searchsorted(items, pa_)]
        nb = item_n[np.searchsorted(items, pb_)]
        return pa.table(
            {
                "a": pa.array(pa_, pa.int64()),
                "b": pa.array(pb_, pa.int64()),
                "support": pa.array(pn, pa.int64()),
                "n_a": pa.array(na, pa.int64()),
                "n_b": pa.array(nb, pa.int64()),
                "n_baskets": pa.array(
                    np.full(pa_.shape[0], n_baskets), pa.int64()
                ),
                "lift_num": pa.array(pn * n_baskets, pa.int64()),
                "lift_den": pa.array(na * nb, pa.int64()),
            }
        )

    return exchange.gather(counted, finish)


def hits_scores(
    edges: ray.data.Dataset,
    n_iter: int = 2,
    scale_bits: int = 30,
    src: str = "src",
    dst: str = "dst",
) -> ray.data.Dataset:
    """Integer-exact HITS hubs & authorities over a DIRECTED edge list,
    ``n_iter`` fixed iterations. Scores live in fixed-point units of
    ``2^-scale_bits`` and every operation is integer — init
    ``scale // n_auth``, per-iteration raw sums over in/out edges, then
    L1 renormalization ``q = raw·scale // Σraw`` done in arbitrary-
    precision Python ints on the driver-resident node table (the same
    o(nodes) driver bound ``pagerank`` documents; the edge list itself
    never shuffles — per-batch partial sums merge through the combine
    tree, one streaming pass per half-iteration). The SQL twin chains
    the identical integer CTEs with HUGEINT intermediates, so results
    are bit-identical. Returns ``(side, node, score_q)`` with side in
    ``('hub', 'auth')``."""
    edges = edges.materialize()

    def ends(batch: pa.Table) -> pa.Table:
        s = batch[src].to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch[dst].to_numpy(zero_copy_only=False).astype(np.int64)
        ks, vs = _group_reduce(
            [np.concatenate([s, d]),
             np.concatenate([np.zeros(s.shape[0], np.int64),
                             np.ones(d.shape[0], np.int64)])],
            {"partial_one": np.ones(s.shape[0] + d.shape[0], np.int64)},
        )
        return pa.table(
            {
                "node": pa.array(ks[0], pa.int64()),
                "side": pa.array(ks[1], pa.int64()),
                "partial_one": pa.array(vs["partial_one"], pa.int64()),
            }
        )

    nt = tree_sum(
        edges.map_batches(
            ends, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["node", "side"], {"partial_one": "c"}, int_cols=("partial_one",),
    )
    tbl = exchange.collect(nt)
    node_arr = tbl["node"].to_numpy(zero_copy_only=False).astype(np.int64)
    side_arr = tbl["side"].to_numpy(zero_copy_only=False).astype(np.int64)
    hubs = np.sort(node_arr[side_arr == 0])
    auths = np.sort(node_arr[side_arr == 1])
    empty = pa.table(
        {
            "side": pa.array([], pa.string()),
            "node": pa.array([], pa.int64()),
            "score_q": pa.array([], pa.int64()),
        }
    )
    if auths.shape[0] == 0 or hubs.shape[0] == 0:
        return ray.data.from_arrow(empty)

    scale = 1 << scale_bits
    a_q = np.full(auths.shape[0], scale // auths.shape[0], dtype=np.int64)
    h_q = np.zeros(hubs.shape[0], dtype=np.int64)

    def _edge_sum(nodes_from, q_from, col_from, col_to, nodes_to):
        ref = exchange.broadcast((nodes_from, q_from))

        def emit(batch: pa.Table, _ref=ref) -> pa.Table:
            ns, qv = _ref.get()
            f = batch[col_from].to_numpy(zero_copy_only=False).astype(np.int64)
            t = batch[col_to].to_numpy(zero_copy_only=False).astype(np.int64)
            c = qv[np.searchsorted(ns, f)]
            ks, vs = _group_reduce([t], {"partial_c": c})
            return pa.table(
                {
                    "node": pa.array(ks[0], pa.int64()),
                    "partial_c": pa.array(vs["partial_c"], pa.int64()),
                }
            )

        sums_ds = tree_sum(
            edges.map_batches(
                emit, batch_format="pyarrow", zero_copy_batch=True,
                batch_size=None,
            ),
            ["node"], {"partial_c": "c"}, int_cols=("partial_c",),
        )
        st = exchange.collect(sums_ds)
        cn = st["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        cs = st["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        raw = np.zeros(nodes_to.shape[0], dtype=np.int64)
        raw[np.searchsorted(nodes_to, cn)] = cs
        return raw

    def _normalize(raw: np.ndarray) -> np.ndarray:
        tot = int(raw.sum())
        if tot == 0:
            return raw
        # exact big-int renormalize; q <= scale so the result fits int64
        return np.array(
            [int(r) * scale // tot for r in raw.tolist()], dtype=np.int64
        )

    for _ in range(n_iter):
        h_q = _normalize(_edge_sum(auths, a_q, dst, src, hubs))
        a_q = _normalize(_edge_sum(hubs, h_q, src, dst, auths))

    return ray.data.from_arrow(
        pa.table(
            {
                "side": pa.array(
                    ["hub"] * hubs.shape[0] + ["auth"] * auths.shape[0],
                    pa.string(),
                ),
                "node": pa.array(np.concatenate([hubs, auths]), pa.int64()),
                "score_q": pa.array(np.concatenate([h_q, a_q]), pa.int64()),
            }
        )
    )


_SSSP_INF = np.int64(1) << 62


def sssp_rounds(
    edges: ray.data.Dataset,
    seed_pred,
    weight_fn,
    rounds: int = 4,
    id_a: str = "a",
    id_b: str = "b",
    local_edge_cutoff: int = 2_000_000,
    n_buckets: int = 64,
    directed: bool = False,
) -> ray.data.Dataset:
    """Multi-source single-source-shortest-path over an undirected
    (``directed=True``: edges relax only a→b — the DAG/flow-graph
    mode ``dag_layers`` builds on) WEIGHTED edge list, ``rounds``
    fixed Bellman–Ford relaxations:
    output ``(node, dist)`` = the exact minimum path weight over paths
    of at most ``rounds`` edges from any seed (so with rounds ≥ graph
    diameter this is the full SSSP). ``seed_pred`` is a vectorized
    ``ids -> bool mask``; ``weight_fn(a, b) -> int64 weights`` must be
    symmetric and DERIVED from the endpoint ids so the SQL twin can
    replicate it (ship a weight column instead when edges carry one —
    the plan is identical).

    Below ``local_edge_cutoff``: one-task CSR with ``np.minimum.at``
    scatter-min per round. Above: the label-correcting partitioned
    loop — (node, dist) labels stay hash-sharded, only IMPROVED nodes
    (the frontier) send along their edges, one node-keyed co-shuffle
    per round (the ``_ShortestPaths`` superstep program, which
    ``bfs_hops_partitioned`` runs with unit weights). Both plans emit
    identical rows."""
    n_edges = edges.count()
    if n_edges > local_edge_cutoff:
        return sssp_partitioned(
            edges, seed_pred, weight_fn, rounds=rounds, id_a=id_a,
            id_b=id_b, n_buckets=n_buckets, directed=directed,
        )
    et = exchange.collect(edges)
    a = et[id_a].to_numpy(zero_copy_only=False).astype(np.int64)
    b = et[id_b].to_numpy(zero_copy_only=False).astype(np.int64)
    w1 = np.asarray(weight_fn(a, b), dtype=np.int64)
    if directed:
        src, dst, w = a, b, w1
    else:
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        w = np.concatenate([w1, w1])
    nodes = np.unique(np.concatenate([src, dst]))
    if nodes.shape[0] == 0:
        return ray.data.from_arrow(
            pa.table({"node": pa.array([], pa.int64()),
                      "dist": pa.array([], pa.int64())})
        )
    si = np.searchsorted(nodes, src)
    di = np.searchsorted(nodes, dst)
    dist = np.full(nodes.shape[0], _SSSP_INF, np.int64)
    dist[np.asarray(seed_pred(nodes), bool)] = 0
    for _ in range(rounds):
        nd = dist[si] + w  # INF + w stays far below overflow
        np.minimum.at(dist, di, nd)
    keep = dist < _SSSP_INF
    return ray.data.from_arrow(
        pa.table(
            {
                "node": pa.array(nodes[keep], pa.int64()),
                "dist": pa.array(dist[keep], pa.int64()),
            }
        )
    )


class _ShortestPaths:
    """``sssp_partitioned`` (and ``bfs_hops_partitioned``, its
    unit-weight case) as a superstep program: label-correcting
    Bellman-Ford. State rows are ``(node, dist)``, one per node, with
    ``_SSSP_INF`` until reached; a message is a candidate ``dist + w``.

    Superstep 0 writes the state (seeds at 0) and sends one message per
    edge row (``_SSSP_INF`` from a non-seed), so its row count less the
    edge rows is the node count. Superstep i ≥ 1 applies round i: a node
    keeps its smallest message when it is smaller than its dist (ties
    keep the old row). While i < ``rounds``, the nodes whose dist just
    fell send ``dist + w`` along their out-edges, one min-combined
    message per destination and bucket. The run halts when no message
    is in flight, after superstep ``rounds`` at the latest."""

    def __init__(self, seed_pred, rounds, n_edge_rows):
        self.seed_pred, self.rounds = seed_pred, rounds
        self.n_edge_rows, self.n_nodes = n_edge_rows, None

    def step(self, i: int, group: pa.Table) -> pa.Table:
        node, kind, a, b = _columns(group)
        e = kind == _EDGE
        if i == 0:
            nodes = np.unique(node)
            seed = np.asarray(self.seed_pred(nodes), bool)
            out = [_rows(nodes, _STATE, np.where(seed, 0, _SSSP_INF))]
            if self.rounds:
                sent = seed[np.searchsorted(nodes, node)] & e
                out.append(_rows(a, _MSG, np.where(sent, b, _SSSP_INF)))
            return pa.concat_tables(out)
        nodes, dist = _state(node, kind, a)
        m = kind == _MSG
        (to,), best = _group_reduce([node[m]], {"d": a[m]}, ufunc=np.minimum)
        at = np.searchsorted(nodes, to)
        fell = best["d"] < dist[at]
        dist = dist.copy()
        dist[at[fell]] = best["d"][fell]
        out = [_rows(nodes, _STATE, dist)]
        if i < self.rounds:
            sends = np.zeros(nodes.shape[0], bool)
            sends[at[fell]] = True
            src = np.searchsorted(nodes, node[e])
            go = sends[src]
            (dst,), cand = _group_reduce(
                [a[e][go]], {"d": dist[src[go]] + b[e][go]}, ufunc=np.minimum
            )
            out.append(_rows(dst, _MSG, cand["d"]))
        return pa.concat_tables(out)

    def halt(self, i: int, n_rows: int) -> bool:
        if i == 0:
            self.n_nodes = n_rows - (self.n_edge_rows if self.rounds else 0)
        return n_rows == self.n_nodes


def sssp_partitioned(
    edges: ray.data.Dataset,
    seed_pred,
    weight_fn,
    rounds: int = 4,
    id_a: str = "a",
    id_b: str = "b",
    n_buckets: int = 64,
    directed: bool = False,
) -> ray.data.Dataset:
    """Distributed twin of ``sssp_rounds`` — see there. It is the
    ``_ShortestPaths`` superstep program: the (node, dist) table stays
    hash-sharded, and each round is one node-keyed co-shuffle in which
    only the nodes whose dist fell (the frontier) send along their
    edges. A candidate survives only when it IMPROVES its node's dist
    (ties keep the old label, so settled nodes never re-enter the
    frontier). The driver reads one row count per round from block
    metadata."""
    sym = _edge_rows(edges, id_a, id_b, weight_fn, directed)
    n_edge_rows = sym.count()
    if n_edge_rows == 0:
        return ray.data.from_arrow(
            pa.table({"node": pa.array([], pa.int64()),
                      "dist": pa.array([], pa.int64())})
        )

    def reached(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less(t["a"], _SSSP_INF))
        return pa.table({"node": t["node"], "dist": t["a"]})

    program = _ShortestPaths(seed_pred, rounds, n_edge_rows)
    out = _supersteps(program, sym, n_buckets=n_buckets)
    return out.map_batches(
        reached, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def dag_layers(
    edges: ray.data.Dataset,
    rounds: int = 12,
    id_a: str = "a",
    id_b: str = "b",
    local_edge_cutoff: int = 2_000_000,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Topological layering / bounded critical path of a DAG (edges
    ``a → b``): ``(node, layer)`` with layer = the longest path (edge
    count) over paths of at most ``rounds`` edges ending at the node —
    the scheduling-level assignment (ASAP schedule) of dataflow/dep
    graphs, exact whenever ``rounds`` ≥ the DAG's critical-path length
    (the fixed-iteration convention ``pagerank``/``sssp_rounds``
    already use). Max-plus relaxation expressed as MIN-plus on negated
    unit weights, so BOTH sssp plans (local scatter CSR and the
    label-correcting partitioned loop) apply unchanged in directed
    mode; acyclicity is what makes the negative weights safe (no
    negative cycle). Every node seeds at 0 — sources stay layer 0."""

    out = sssp_rounds(
        edges,
        seed_pred=lambda ids: np.ones(np.asarray(ids).shape[0], bool),
        weight_fn=lambda a, b: np.full(np.asarray(a).shape[0], -1, np.int64),
        rounds=rounds, id_a=id_a, id_b=id_b,
        local_edge_cutoff=local_edge_cutoff, n_buckets=n_buckets,
        directed=True,
    )

    def negate(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"node": batch["node"], "layer": pc.negate(batch["dist"])}
        )

    return out.map_batches(
        negate, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def avg_neighbor_degree(
    edges: ray.data.Dataset,
    id_a: str = "a",
    id_b: str = "b",
) -> ray.data.Dataset:
    """Average-neighbor-degree sufficient statistics per node over an
    undirected edge list, exact: ``(node, deg, sum_ndeg)`` with
    ``avg = sum_ndeg / deg`` — the local assortativity profile
    (hubs-connect-to-hubs vs hubs-connect-to-leaves) the global
    ``degree_assortativity`` moment summarizes.

    Two streaming edge passes: the degree table merges through one
    combine tree, is broadcast once via ``exchange.broadcast`` (same o(nodes)
    bound ``pagerank`` documents; swap for ``_attach_lookup``'s
    hash-bucket co-shuffle at billion-node scale), then per-batch
    partial Σ deg(neighbor) rows merge through a second tree."""
    edges = edges.materialize()
    degs = degree_table(edges)
    tbl = exchange.collect(degs)
    nodes = tbl["node"].to_numpy(zero_copy_only=False).astype(np.int64)
    deg = tbl["degree"].to_numpy(zero_copy_only=False).astype(np.int64)
    o = np.argsort(nodes, kind="stable")
    nodes, deg = nodes[o], deg[o]
    if nodes.shape[0] == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array([], pa.int64()),
                    "deg": pa.array([], pa.int64()),
                    "sum_ndeg": pa.array([], pa.int64()),
                }
            )
        )
    ref = exchange.broadcast((nodes, deg))

    def emit(batch: pa.Table, _ref=ref) -> pa.Table:
        ns, dv = _ref.get()
        a = batch[id_a].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch[id_b].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.concatenate([a, b])
        nb = np.concatenate([b, a])
        c = dv[np.searchsorted(ns, nb)]
        ks, vs = _group_reduce([src], {"partial_s": c})
        return pa.table(
            {
                "node": pa.array(ks[0], pa.int64()),
                "partial_s": pa.array(vs["partial_s"], pa.int64()),
            }
        )

    sums = tree_sum(
        edges.map_batches(
            emit, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ),
        ["node"], {"partial_s": "sum_ndeg"}, int_cols=("partial_s",),
    )

    def attach(batch: pa.Table, _ref=ref) -> pa.Table:
        ns, dv = _ref.get()
        node = batch["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "node": pa.array(node, pa.int64()),
                "deg": pa.array(dv[np.searchsorted(ns, node)], pa.int64()),
                "sum_ndeg": batch["sum_ndeg"],
            }
        )

    return sums.map_batches(
        attach, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None,
    )
