"""Distributed connected components over an edge list (Dataset).

``connected_components`` is min-label propagation with ONE shuffle per
round: the current (node → label) table — o(number of nodes appearing
in edges), for dedup workloads the duplicate docs, never the corpus — is
broadcast via ``exchange.broadcast``; each round maps over the (large,
distributed) edge list emitting ``(dst, label(src))`` + ``(src,
label(src))`` candidates and takes the per-node minimum with
``ops.tree_reduce`` (combine tree — no sort-shuffle barrier; the label
table is the bounded small side). No per-node Python loops; lookups are
vectorized ``searchsorted``. Labels are monotonically non-increasing
and reach the component minimum after ``diameter`` rounds; the candidate
generators in ``georay.stages.dedup`` bound component diameter by
construction (adjacent-W pairing links bucket members ≤ W apart, so an
m-member degenerate bucket has diameter ≈ m/W), and driver-side pointer
jumping shortens the rest. The loop stops as soon as a round changes
nothing; labels still changing after ``max_rounds`` rounds raise a
``RuntimeError`` rather than return unconverged.

``connected_components_partitioned`` is the scale path for a label
table too big to broadcast: large-star/small-star contraction on the
superstep engine (``analytics._supersteps``), one node-keyed co-shuffle
per superstep and O(log² n) rounds (about log2 n on paths), whatever
the diameter.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from georay import exchange


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
        else:
            _unconverged(max_rounds)
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
    else:
        _unconverged(max_rounds)

    return pa.table(
        {"node": pa.array(nodes, pa.int64()), "label": pa.array(labels, pa.int64())}
    )


def _unconverged(max_rounds: int):
    raise RuntimeError(
        f"connected_components: labels still changing after max_rounds={max_rounds}"
    )


def _distinct_pairs(u: np.ndarray, v: np.ndarray):
    """Distinct ``(u, v)`` with ``u != v``, sorted by ``(u, v)``."""
    keep = u != v
    u, v = u[keep], v[keep]
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    first = np.ones(u.shape[0], bool)
    first[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
    return u[first], v[first]


class _StarContraction:
    """``connected_components_partitioned`` as a superstep program:
    large-star/small-star (Kiveris et al., *Connected Components in
    MapReduce and Beyond*, SoCC'14), whose edge set stays the carried
    rows. An ``_EDGE`` row ``(u, v)`` is edge {u, v} seen from u.

    - Superstep 0 passes the symmetric edge rows through and adds one
      ``_STATE`` row per node, so its row count minus the edge rows is
      the node count N.
    - Odd supersteps are large-star: each node w, with m(w) the minimum
      of w and its neighbors, links every larger neighbor v to m(w)
      (one ``(v, m(w))`` row per distinct edge, kept at v). A root (no
      smaller neighbor) adds a ``_STATE`` row and a node with both
      smaller and larger neighbors a ``_MSG`` row. Every node with a
      smaller neighbor owns at least one distinct edge, so the count
      is at least N, with equality exactly when the input was a star
      forest around each component's minimum: then the rows are the
      labels, and the run halts.
    - Even supersteps are small-star: each node u links itself and
      its smaller neighbors to the smallest of them, and the edges go
      out seen from both ends; root rows pass through.

    Kiveris et al. bound the rounds (two supersteps each) by O(log² n);
    a path with random ids takes 7 at n = 200 and 10 at n = 1,024."""

    def __init__(self, n_edge_rows, max_rounds):
        self.n_edge_rows, self.max_rounds = n_edge_rows, max_rounds
        self.n_nodes = None

    def step(self, i: int, group: pa.Table) -> pa.Table:
        from georay.analytics import _EDGE, _MSG, _STATE, _columns, _rows

        node, kind, a, _ = _columns(group)
        if i == 0:
            nodes = np.unique(node)
            return pa.concat_tables([group, _rows(nodes, _STATE, nodes)])
        e = kind == _EDGE
        u, v = _distinct_pairs(node[e], a[e])
        if i % 2:  # large-star
            nodes = np.unique(node)
            at = np.searchsorted(nodes, u)
            m = nodes.copy()
            np.minimum.at(m, at, v)
            smaller = np.zeros(nodes.shape[0], bool)
            smaller[at[v < u]] = True
            larger = np.zeros(nodes.shape[0], bool)
            larger[at[v > u]] = True
            up = v > u
            roots = nodes[~smaller]
            mid = nodes[smaller & larger]
            return pa.concat_tables([
                _rows(v[up], _EDGE, m[at[up]]),
                _rows(roots, _STATE, roots),
                _rows(mid, _MSG, mid),
            ])
        # small-star: (u, v) has v < u; the first v of each u is its min
        first = np.ones(u.shape[0], bool)
        first[1:] = u[1:] != u[:-1]
        m = v[first][np.cumsum(first) - 1]
        x = np.where(v == m, u, v)
        s = kind == _STATE
        return pa.concat_tables([
            _rows(x, _EDGE, m), _rows(m, _EDGE, x),
            _rows(node[s], _STATE, a[s]),
        ])

    def halt(self, i: int, n_rows: int) -> bool:
        if i == 0:
            self.n_nodes = n_rows - self.n_edge_rows
            return False
        if i % 2 == 0:
            return False
        if n_rows == self.n_nodes:
            return True
        if i == 2 * self.max_rounds + 1:
            raise RuntimeError(
                f"connected_components_partitioned: no star forest after "
                f"max_rounds={self.max_rounds} rounds; raise max_rounds"
            )
        return False


def connected_components_partitioned(
    pairs: ray.data.Dataset,
    id_a: str = "id_a",
    id_b: str = "id_b",
    max_rounds: int = 50,
    n_buckets: int = 64,
) -> ray.data.Dataset:
    """Partitioned-label twin of ``connected_components``: the
    (node → label) table is NEVER collected on the driver or broadcast.
    It is the ``_StarContraction`` superstep program: every superstep is
    one node-keyed co-shuffle of the current edge set, materialized
    once, and the driver reads one row count per superstep from block
    metadata (no aggregate).

    This is the scale path for graphs whose node table exceeds the
    broadcast cutoff (billions of nodes at 100 TB): memory per task is
    o(edges / n_buckets). Rounds grow with log n, not with the
    component diameter. Result is identical to the broadcast twin:
    label = min node id of the component. Raises ``RuntimeError`` when
    the edges are not yet a star forest after ``max_rounds`` rounds
    (one large-star and one small-star superstep each).
    """
    from georay.analytics import _edge_rows, _supersteps

    edges = _edge_rows(pairs, id_a, id_b)
    n_edge_rows = edges.count()
    if n_edge_rows == 0:
        return ray.data.from_arrow(
            pa.table({"node": pa.array([], pa.int64()), "label": pa.array([], pa.int64())})
        )
    program = _StarContraction(n_edge_rows, max_rounds)
    return _supersteps(program, rows=edges, n_buckets=n_buckets).map_batches(
        lambda t: pa.table({"node": t["node"], "label": t["a"]}),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )
