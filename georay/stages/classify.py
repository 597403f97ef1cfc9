"""Distributed classifier training for quality filtering — the
fastText/CCNet-style step that trains a lightweight model on labeled
documents and scores the whole corpus with it.

Shape: full-batch logistic regression by gradient descent. Each
iteration is ONE streaming pass: the current weights broadcast via
``exchange.broadcast``, every batch emits a (d+2)-float partial (gradient sums,
loss, count), a tiny driver-side merge updates the weights. The corpus
never concentrates anywhere; per-iteration driver state is O(d).
Deterministic — full-batch gradients have no sample order, so the fit
is bit-reproducible across runs and partitionings. At 100 TB you train
on a labeled SAMPLE (classifier labels are scarce anyway) and run only
``logreg_predict`` over the full corpus.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from georay import exchange


def _features(batch: pa.Table, cols: list[str]) -> np.ndarray:
    return np.column_stack(
        [
            batch[c].to_numpy(zero_copy_only=False).astype(np.float64)
            for c in cols
        ]
    )


def logreg_fit(
    ds: ray.data.Dataset,
    feature_cols: list[str],
    label_col: str,
    n_iter: int = 30,
    lr: float = 1.0,
    l2: float = 1e-4,
    standardize: bool = True,
) -> dict:
    """Fit w, b by full-batch GD. Returns ``{"w", "b", "mean", "scale",
    "losses"}`` — mean/scale standardize features (computed in one extra
    streaming pass; identity when ``standardize=False``), ``losses`` is
    the per-iteration mean log-loss trace (monotone for a sane lr).

    The (features, label) projection is materialized ONCE (distributed,
    (d+1)×8 B/row) so the n_iter+1 passes don't re-execute a long
    upstream featurization chain — labeled training sets are
    sample-sized, so this always fits the object store."""
    d = len(feature_cols)
    # fixed-count repartition BEFORE materializing: partial-sum block
    # boundaries become deterministic (row-count splits), keeping the
    # fit bit-reproducible — materialize alone may split blocks
    # differently run-to-run, regrouping the float partials at ulp level
    ds = (
        ds.select_columns(feature_cols + [label_col])
        .repartition(32)
        .materialize()
    )

    if standardize:
        def stat_partial(batch: pa.Table) -> pa.Table:
            x = _features(batch, feature_cols)
            return pa.table(
                {
                    "n": pa.array([float(x.shape[0])]),
                    "s": pa.array([x.sum(0).tobytes()], pa.binary()),
                    "s2": pa.array([(x * x).sum(0).tobytes()], pa.binary()),
                }
            )

        rows = ds.map_batches(
            stat_partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ).take_all()
        # SORT partials before summing: float addition isn't associative,
        # so a canonical order makes the reduction independent of block
        # arrival order — the bit-reproducibility contract
        n = sum(sorted(r["n"] for r in rows))
        s = np.sum([np.frombuffer(b_) for b_ in sorted(r["s"] for r in rows)],
                   axis=0)
        s2 = np.sum([np.frombuffer(b_) for b_ in sorted(r["s2"] for r in rows)],
                    axis=0)
        mean = s / n
        var = np.maximum(s2 / n - mean * mean, 1e-12)
        scale = 1.0 / np.sqrt(var)
    else:
        mean = np.zeros(d)
        scale = np.ones(d)

    w = np.zeros(d)
    b = 0.0
    losses: list[float] = []
    for _ in range(n_iter):
        ref = exchange.broadcast((w, b, mean, scale))

        def grad_partial(batch: pa.Table) -> pa.Table:
            ww, bb, mu, sc = ref.get()
            x = (_features(batch, feature_cols) - mu) * sc
            y = batch[label_col].to_numpy(zero_copy_only=False).astype(
                np.float64
            )
            z = x @ ww + bb
            p = 1.0 / (1.0 + np.exp(-z))
            err = p - y
            # log-loss via logaddexp (overflow-safe)
            ll = np.logaddexp(0.0, z) - y * z
            return pa.table(
                {
                    "n": pa.array([float(x.shape[0])]),
                    "gw": pa.array([(x * err[:, None]).sum(0).tobytes()],
                                   pa.binary()),
                    "gb": pa.array([float(err.sum())]),
                    "loss": pa.array([float(ll.sum())]),
                }
            )

        rows = ds.map_batches(
            grad_partial, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None,
        ).take_all()
        # sorted partial merge — see the stats pass note
        n = sum(sorted(r["n"] for r in rows))
        gw = np.sum(
            [np.frombuffer(b_) for b_ in sorted(r["gw"] for r in rows)], axis=0
        ) / n
        gb = sum(sorted(r["gb"] for r in rows)) / n
        losses.append(sum(sorted(r["loss"] for r in rows)) / n)
        w -= lr * (gw + l2 * w)
        b -= lr * gb
    return {"w": w, "b": b, "mean": mean, "scale": scale, "losses": losses}


def logreg_predict(
    ds: ray.data.Dataset,
    model: dict,
    feature_cols: list[str],
    out: str = "score",
) -> ray.data.Dataset:
    """Streaming scorer: appends P(label=1) — the corpus-wide quality
    score pass. Model broadcast once via ``exchange.broadcast``."""
    ref = exchange.broadcast(
        (model["w"], model["b"], model["mean"], model["scale"])
    )

    def fn(batch: pa.Table) -> pa.Table:
        w, b, mu, sc = ref.get()
        x = (_features(batch, feature_cols) - mu) * sc
        p = 1.0 / (1.0 + np.exp(-(x @ w + b)))
        return batch.append_column(out, pa.array(p, pa.float64()))

    return ds.map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def ridge_fit(
    ds: ray.data.Dataset,
    feature_cols: list[str],
    target_col: str,
    l2: float = 1e-6,
) -> dict:
    """Closed-form ridge regression: ONE streaming pass accumulates the
    (d+1)×(d+1) normal-equation blocks (XᵀX, Xᵀy, Σx, Σy, n) as
    per-batch partials, the d×d solve runs on the driver — the linear
    sibling of ``pca_fit``'s covariance split; the corpus never
    concentrates. Partials are merged in SORTED order (float addition
    is not associative) so the fit is bit-reproducible like
    ``logreg_fit``. Returns ``{"w", "b"}`` (intercept fitted via
    centering)."""
    d = len(feature_cols)
    ds = (
        ds.select_columns(feature_cols + [target_col])
        .repartition(32)
        .materialize()
    )

    def partial(batch: pa.Table) -> pa.Table:
        x = _features(batch, feature_cols)
        y = batch[target_col].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "n": pa.array([float(x.shape[0])]),
                "xtx": pa.array([(x.T @ x).tobytes()], pa.binary()),
                "xty": pa.array([(x.T @ y).tobytes()], pa.binary()),
                "sx": pa.array([x.sum(0).tobytes()], pa.binary()),
                "sy": pa.array([float(y.sum())]),
            }
        )

    rows = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).take_all()
    n = sum(sorted(r["n"] for r in rows))
    xtx = np.sum(
        [np.frombuffer(b).reshape(d, d) for b in sorted(r["xtx"] for r in rows)],
        axis=0,
    )
    xty = np.sum(
        [np.frombuffer(b) for b in sorted(r["xty"] for r in rows)], axis=0
    )
    sx = np.sum([np.frombuffer(b) for b in sorted(r["sx"] for r in rows)], axis=0)
    sy = sum(sorted(r["sy"] for r in rows))
    mx = sx / n
    my = sy / n
    # centered normal equations: (XᵀX − n·mx mxᵀ + λI) w = Xᵀy − n·mx·my
    a = xtx - n * np.outer(mx, mx) + l2 * np.eye(d)
    rhs = xty - n * mx * my
    w = np.linalg.solve(a, rhs)
    b = my - float(mx @ w)
    return {"w": w, "b": b}


def ridge_predict(
    ds: ray.data.Dataset,
    model: dict,
    feature_cols: list[str],
    out_col: str = "pred",
) -> ray.data.Dataset:
    """Streaming scoring pass: one matvec per batch (broadcast model)."""
    ref = exchange.broadcast((model["w"], model["b"]))

    def fn(batch: pa.Table) -> pa.Table:
        w, b = ref.get()
        x = _features(batch, feature_cols)
        return batch.append_column(out_col, pa.array(x @ w + b, pa.float64()))

    return ds.map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def decision_stump(
    ds: ray.data.Dataset,
    emb_col: str = "embedding",
    label_col: str = "label",
    quant_scale: float = 16.0,
    scale_bits: int = 40,
) -> ray.data.Dataset:
    """Exact best 1-level decision tree (stump) over a list<float>
    feature column: the split ``dim, thr`` (rule ``floor(x_dim ·
    quant_scale) <= thr``) maximizing the quantized Gini gain score

        score_q = trunc((S_L·n_R + S_R·n_L) · 2^scale_bits / (n_L·n_R))

    where ``S = Σ_c n_c²`` per side — the integerized
    ``S_L/n_L + S_R/n_R`` whose maximization is exactly weighted-Gini
    minimization. Thresholds are the quantized feature values, so the
    candidate set (and therefore BOTH the distributed fold and the SQL
    twin) is bounded by dims × quant buckets × classes, not by rows.
    Ties break (score DESC, dim ASC, thr ASC) — fully deterministic.

    Plan: one streaming pass emits per-batch (dim, bucket, label)
    count partials (the feature matrix never leaves its batch) into
    the combine tree; the argmax fold runs driver-side in exact Python
    ints over the bounded count table. Returns one row
    ``(dim, thr, score_q)``."""
    from georay.ops import _group_reduce, tree_sum
    from georay.stages.embed import _embedding_matrix

    qs = float(quant_scale)

    def partial(batch: pa.Table) -> pa.Table:
        m = _embedding_matrix(batch, emb_col).astype(np.float64)
        lab = batch[label_col].to_numpy(zero_copy_only=False).astype(np.int64)
        n, d = m.shape
        xq = np.floor(m * qs).astype(np.int64).ravel()
        dim = np.tile(np.arange(d, dtype=np.int64), n)
        ll = np.repeat(lab, d)
        ks, vs = _group_reduce(
            [dim, xq, ll], {"partial_c": np.ones(dim.shape[0], np.int64)}
        )
        return pa.table(
            {
                "dim": pa.array(ks[0], pa.int64()),
                "xq": pa.array(ks[1], pa.int64()),
                "label": pa.array(ks[2], pa.int64()),
                "partial_c": pa.array(vs["partial_c"], pa.int64()),
            }
        )

    merged = tree_sum(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=None),
        ["dim", "xq", "label"], {"partial_c": "c"}, int_cols=("partial_c",),
    ).to_pandas()
    if len(merged) == 0:
        raise ValueError("decision_stump: empty input")
    labels = np.sort(merged["label"].unique())
    lpos = {int(v): i for i, v in enumerate(labels)}
    best = None  # (score, dim, thr) with score max, dim/thr min
    for dim, sub in merged.groupby("dim"):
        sub = sub.sort_values("xq")
        ts = np.sort(sub["xq"].unique())
        cnt = np.zeros((ts.shape[0], labels.shape[0]), dtype=object)
        ti = np.searchsorted(ts, sub["xq"].to_numpy())
        for t, lb, c in zip(ti, sub["label"].to_numpy(), sub["c"].to_numpy()):
            cnt[t, lpos[int(lb)]] += int(c)
        left = np.cumsum(cnt, axis=0)
        n_c = left[-1]  # per-label row totals (each row hits every dim once)
        n = int(n_c.sum())
        for i in range(ts.shape[0] - 1):  # last split leaves right empty
            lrow = left[i]
            n_l = int(lrow.sum())
            n_r = n - n_l
            s_l = int(sum(int(v) * int(v) for v in lrow))
            s_r = int(sum(int(a - b) * int(a - b) for a, b in zip(n_c, lrow)))
            score = ((s_l * n_r + s_r * n_l) << scale_bits) // (n_l * n_r)
            key = (score, -int(dim), -int(ts[i]))
            if best is None or key > best:
                best = key
    if best is None:
        raise ValueError(
            "decision_stump: no valid split (every feature is constant "
            "after quantization)"
        )
    score, ndim, nthr = best
    if not (-(2**63) <= score < 2**63):
        raise OverflowError("decision_stump: score_q exceeds int64")
    return ray.data.from_arrow(
        pa.table(
            {
                "dim": pa.array([-ndim], pa.int64()),
                "thr": pa.array([-nthr], pa.int64()),
                "score_q": pa.array([int(score)], pa.int64()),
            }
        )
    )
