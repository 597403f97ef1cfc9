"""Distributed connected components over an edge list (Dataset).

Min-label propagation with ONE shuffle per round: the current
(node → label) table — o(number of nodes appearing in edges), for dedup
workloads the duplicate docs, never the corpus — is broadcast via
``exchange.broadcast``; each round maps over the (large, distributed) edge list
emitting ``(dst, label(src))`` + ``(src, label(src))`` candidates and
takes the per-node minimum with ``ops.tree_reduce`` (combine tree — no
sort-shuffle barrier; the label table is the bounded small side). No
per-node Python loops; lookups are vectorized ``searchsorted``.

Convergence: labels are monotonically non-increasing and reach the
component minimum after ``diameter`` rounds. The candidate generators in
``georay.stages.dedup`` bound component diameter by construction
(adjacent-W pairing links bucket members ≤ W apart, so an m-member
degenerate bucket has diameter ≈ m/W); ``max_rounds`` is a safety bound
and the loop stops as soon as a round changes nothing.

At extreme scale (label table too big to broadcast) the same loop can be
re-expressed as a two-groupby label⋈edge co-shuffle per round, or the
large-star/small-star contraction (O(log n) rounds) — the edge-list
dataflow shape is unchanged.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from georay import exchange
from georay.exchange import co_shuffle


def connected_components(
    pairs: ray.data.Dataset,
    id_a: str = "id_a",
    id_b: str = "id_b",
    max_rounds: int = 50,
    local_edge_cutoff: int = 2_000_000,
) -> pa.Table:
    """(node, label) for every node appearing in ``pairs``; label = min
    node id of its connected component."""

    def to_edges(batch: pa.Table) -> pa.Table:
        a = batch[id_a].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch[id_b].to_numpy(zero_copy_only=False).astype(np.int64)
        # symmetric: propagate both directions
        return pa.table(
            {
                "src": pa.array(np.concatenate([a, b]), pa.int64()),
                "dst": pa.array(np.concatenate([b, a]), pa.int64()),
            }
        )

    edges = pairs.map_batches(
        to_edges, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).materialize()

    def empty_labels() -> pa.Table:
        return pa.table(
            {"node": pa.array([], pa.int64()), "label": pa.array([], pa.int64())}
        )

    n_edges = edges.count()
    if n_edges == 0:
        return empty_labels()

    # Small-edge-list fast path: the duplicate-pair edge list is the
    # SMALL side (it is the same magnitude as the label table that this
    # function materializes for broadcast anyway). Below the cutoff,
    # pull just the pairs and run the identical min-propagation +
    # pointer-jumping locally — saving 2-3 distributed rounds whose cost
    # is pure scheduling barrier, not data. Above it, the streaming loop
    # below handles arbritrarily large edge lists unchanged.
    if n_edges <= local_edge_cutoff:
        t = exchange.collect(edges)
        src = t["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        dst = t["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        nodes = np.unique(np.concatenate([src, dst]))
        labels = nodes.copy()
        i_src = np.searchsorted(nodes, src)
        i_dst = np.searchsorted(nodes, dst)
        for _ in range(max_rounds):
            new = labels.copy()
            np.minimum.at(new, i_dst, labels[i_src])
            while True:
                jumped = new[np.searchsorted(nodes, new)]
                if np.array_equal(jumped, new):
                    break
                new = jumped
            if np.array_equal(new, labels):
                break
            labels = new
        return pa.table(
            {"node": pa.array(nodes, pa.int64()), "label": pa.array(labels, pa.int64())}
        )

    # round 0: label(x) = min(x, neighbors(x)) — no label table needed yet
    nodes = None  # sorted node array of the current label table
    labels = None  # label per node (aligned with ``nodes``)

    for _ in range(max_rounds):
        if nodes is None:
            lab_ref = None
        else:
            lab_ref = exchange.broadcast((nodes, labels))

        def emit(batch: pa.Table, _ref=lab_ref) -> pa.Table:
            src = batch["src"].to_numpy(zero_copy_only=False)
            dst = batch["dst"].to_numpy(zero_copy_only=False)
            if _ref is None:
                lab_src = src
            else:
                n_s, l_s = _ref.get()
                pos = np.searchsorted(n_s, src)
                lab_src = l_s[np.clip(pos, 0, n_s.size - 1)]
            return pa.table(
                {
                    "node": pa.array(np.concatenate([dst, src]), pa.int64()),
                    "cand": pa.array(np.concatenate([lab_src, lab_src]), pa.int64()),
                }
            )

        from georay import ops

        agg = ops.tree_reduce(
            edges.map_batches(
                emit, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
            ),
            "node",
            {"cand": "label"},
            ufunc=np.minimum,
        ).take_all()
        new_nodes = np.asarray([r["node"] for r in agg], dtype=np.int64)
        new_labels = np.asarray([r["label"] for r in agg], dtype=np.int64)
        order = np.argsort(new_nodes)
        new_nodes, new_labels = new_nodes[order], new_labels[order]
        # pointer jumping on the driver-held table: label ← label(label)
        # until fixed. Free (pure numpy) and turns O(diameter) distributed
        # rounds into O(log diameter): a W-linked chain collapses after
        # one propagation round + ~log2 jumps.
        while True:
            idx = np.searchsorted(new_nodes, new_labels)
            jumped = new_labels[idx]
            if np.array_equal(jumped, new_labels):
                break
            new_labels = jumped
        if nodes is not None and np.array_equal(new_labels, labels):
            break
        nodes, labels = new_nodes, new_labels

    return pa.table(
        {"node": pa.array(nodes, pa.int64()), "label": pa.array(labels, pa.int64())}
    )

def connected_components_partitioned(
    pairs: ray.data.Dataset,
    id_a: str = "id_a",
    id_b: str = "id_b",
    max_rounds: int = 50,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Partitioned-label twin of ``connected_components``: the
    (node → label) table is NEVER collected on the driver or broadcast.
    Each round co-shuffles the label table (bucketed by hash(node)) with
    the edge list (bucketed by hash(src)) — inside a bucket every edge's
    src label is present, so propagation is one vectorized searchsorted —
    then re-buckets the (dst, candidate) stream by hash(dst) for a
    per-bucket min-reduce. Two bucket groupbys per round; driver state
    per round is TWO SCALARS (sum + count of labels) for the convergence
    test (labels are elementwise non-increasing, so an unchanged sum
    means an unchanged table).

    This is the scale path for graphs whose node table exceeds the
    broadcast cutoff (billions of nodes at 100 TB): memory per task is
    o(nodes / n_buckets). No driver-side pointer jumping — rounds equal
    the component diameter (the dedup candidate generators bound it by
    construction; see module docstring). Result is identical to the
    broadcast twin: label = min node id of the component. Raises
    ``RuntimeError`` when labels still change after ``max_rounds``
    rounds.
    """
    from georay import ops

    nb = np.uint64(n_buckets)

    def _bucket(arr: np.ndarray) -> np.ndarray:
        return (ops._mix64(arr.view(np.uint64).copy()) % nb).astype(np.int64)

    def to_edges(batch: pa.Table) -> pa.Table:
        a = batch[id_a].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch[id_b].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        return pa.table(
            {
                "_b": pa.array(_bucket(src), pa.int64()),
                "src": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
            }
        )

    edges = pairs.map_batches(
        to_edges, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).materialize()

    def _min_per_node(group: pa.Table) -> pa.Table:
        node = group["node"].to_numpy(zero_copy_only=False)
        cand = group["cand"].to_numpy(zero_copy_only=False)
        (keys,), outs = ops._group_reduce([node], {"cand": cand}, ufunc=np.minimum)
        return pa.table(
            {
                "node": pa.array(keys, pa.int64()),
                "label": pa.array(outs["cand"], pa.int64()),
            }
        )

    def _rebucket_cand(batch: pa.Table) -> pa.Table:
        node = batch["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.set_column(
            batch.column_names.index("_b"), "_b", pa.array(_bucket(node), pa.int64())
        )

    # round 0: label(x) = min(x, neighbors(x)) — candidates straight off
    # the edge list, no label table yet
    def emit0(batch: pa.Table) -> pa.Table:
        src = batch["src"].to_numpy(zero_copy_only=False)
        dst = batch["dst"].to_numpy(zero_copy_only=False)
        node = np.concatenate([dst, src])
        cand = np.concatenate([src, src])
        return pa.table(
            {
                "_b": pa.array(_bucket(node.astype(np.int64)), pa.int64()),
                "node": pa.array(node, pa.int64()),
                "cand": pa.array(cand, pa.int64()),
            }
        )

    if edges.count() == 0:
        import ray.data as rd

        return rd.from_arrow(
            pa.table({"node": pa.array([], pa.int64()), "label": pa.array([], pa.int64())})
        )

    labels = co_shuffle(
        edges.map_batches(
            emit0, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
        ),
        "_b", _min_per_node, coalesce=False,
    ).materialize()

    from ray.data.aggregate import Sum

    prev_sum = labels.aggregate(Sum("label", alias_name="s"))["s"]

    def tag_labels(batch: pa.Table) -> pa.Table:
        node = batch["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "_b": pa.array(_bucket(node), pa.int64()),
                "kind": pa.array(np.zeros(len(batch), np.int64)),
                "a": batch["node"],
                "c": batch["label"],
            }
        )

    def tag_edges(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "_b": batch["_b"],
                "kind": pa.array(np.ones(len(batch), np.int64)),
                "a": batch["src"],
                "c": batch["dst"],
            }
        )

    def propagate(group: pa.Table) -> pa.Table:
        kind = group["kind"].to_numpy(zero_copy_only=False)
        a = group["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = group["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        is_lab = kind == 0
        ln, ll = a[is_lab], c[is_lab]
        order = np.argsort(ln, kind="stable")
        ln, ll = ln[order], ll[order]
        src, dst = a[~is_lab], c[~is_lab]
        # every src in this bucket hashes here, so its label row is here
        lab_src = ll[np.searchsorted(ln, src)] if ln.size else src
        node = np.concatenate([dst, ln])
        cand = np.concatenate([lab_src, ll])
        return pa.table(
            {
                "_b": pa.array(np.zeros(node.shape[0], np.int64)),
                "node": pa.array(node, pa.int64()),
                "cand": pa.array(cand, pa.int64()),
            }
        )

    ed_tagged = edges.map_batches(
        tag_edges, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).materialize()

    for _ in range(max_rounds):
        lab_tagged = labels.map_batches(
            tag_labels, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
        )
        cand = co_shuffle([lab_tagged, ed_tagged], "_b", propagate, coalesce=False)
        labels = co_shuffle(
            cand.map_batches(
                _rebucket_cand, batch_format="pyarrow", zero_copy_batch=True,
                batch_size=None,
            ),
            "_b", _min_per_node, coalesce=False,
        ).materialize()
        new_sum = labels.aggregate(Sum("label", alias_name="s"))["s"]
        if new_sum == prev_sum:
            break
        prev_sum = new_sum
    else:
        raise RuntimeError(
            f"connected_components_partitioned: labels still changing after "
            f"max_rounds={max_rounds} rounds; raise max_rounds"
        )

    return labels
